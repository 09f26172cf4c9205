"""Independent references the tests check the package against.

* :func:`solve_tridiagonal` - 3-point finite differences with Dirichlet
  boundaries, second-order accurate: a cross-check of the Fourier-grid
  eigensolver :func:`pauliblock.solve`.  It needs scipy, since numpy has no
  banded eigensolver and the cross-check solves grids no dense solver can.
* :func:`random_subunitary` - overlap matrices with the structure unitary
  evolution gives, for the fidelity routines.
"""

import numpy as np
import scipy.linalg

from pauliblock import ConfigError, ConvergenceError, EigenBasis, OverlapMatrix
from pauliblock.spectral import (
    RESIDUAL_TOL,
    _fix_phases,
    effective_potential,
    holds_states,
)


def solve_tridiagonal(potential, grid, n_states):
    """Finite-difference cross-check backend (Dirichlet boundaries)."""
    n = grid.n_points
    if not holds_states(n, n_states):
        raise ConfigError(f"n_states={n_states} outside the safe range")
    potential = effective_potential(np.asarray(potential, dtype=float))
    inv_dx2 = 1.0 / grid.dx**2
    diag = inv_dx2 + potential
    off = np.full(n - 1, -0.5 * inv_dx2)
    energies, vecs = scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_states - 1)
    )
    states = _fix_phases(vecs.T / np.sqrt(grid.dx))

    # Residual against the tridiagonal operator itself.
    resid = diag * states - energies[:, None] * states
    resid[:, :-1] += off[0] * states[:, 1:]
    resid[:, 1:] += off[0] * states[:, :-1]
    norms = np.sqrt(np.sum(resid**2, axis=1) * grid.dx)
    bounds = RESIDUAL_TOL * np.maximum(np.abs(energies), 1.0)
    if (norms >= bounds).any():
        worst = int(np.argmax(norms / bounds))
        raise ConvergenceError(
            f"finite-difference eigenstate {worst + 1} residual "
            f"{norms[worst]:.2e} exceeds {bounds[worst]:.2e}"
        )
    return EigenBasis(grid, energies, states)


def random_subunitary(n_total, n_protected, rng):
    """Random overlap matrix with the physical sub-unitary structure.

    First ``n_protected`` columns of a Haar-distributed unitary of
    dimension ``n_total``: rows and columns are slices of orthonormal
    families, exactly as for matrices produced by unitary evolution.
    """
    if n_protected > n_total:
        raise ConfigError("n_protected cannot exceed n_total")
    z = rng.standard_normal((n_total, n_total)) + 1j * rng.standard_normal(
        (n_total, n_total)
    )
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return OverlapMatrix(q[:, :n_protected])
