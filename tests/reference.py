"""Independent references the tests check the package against.

* :func:`solve_tridiagonal` - 3-point finite differences with Dirichlet
  boundaries, second-order accurate: a cross-check of the Fourier-grid
  eigensolver :func:`pauliblock.solve`.  It needs scipy, since numpy has no
  banded eigensolver and the cross-check solves grids no dense solver can.
* :func:`random_subunitary` - overlap matrices with the structure unitary
  evolution gives, for the fidelity routines.
* :func:`fidelity_oracle` - the literal subset/permutation sum of squared
  minors, exponential in the particle number: the reference for the Gram
  determinant det(A^dagger A) that the package evaluates (Cauchy-Binet).
  :func:`verify_against_oracle` holds a fidelity of the package against it.
* :func:`gram_fidelity_values_unblocked` - the batched Gram determinants
  in closed form for N_p <= 2, the reference for
  :func:`pauliblock.fidelity.gram_fidelity_values`, which takes an LU for
  every N_p.
* :func:`forward_overlaps` and :func:`forward_fidelity` - the overlap
  matrix A[j, i] = <U psi_j|phi_i> with the occupied levels evolved
  forward, and the fidelity read from it: the reference for the package,
  which evolves only the N_p targets, backward.
* :func:`level_count`, :func:`energy_ceiling` and
  :func:`semiclassical_ladder` - the grid planner's Bohr-Sommerfeld
  estimates for a trap given as a function, to hold against analytic
  values.
"""

import itertools

import numpy as np
import scipy.linalg

from pauliblock import (
    ConfigError,
    ConvergenceError,
    EigenBasis,
    FidelityResult,
    NumericalConsistencyError,
    OverlapMatrix,
    enumerate_ensemble,
    propagate_basis,
)
from pauliblock.fidelity import RANGE_TOL, gram_fidelity_values
from pauliblock.planner import _Trap, _ceiling, _level_count
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


def gram_fidelity_values_unblocked(master, row_sets):
    """det(A^dagger A) for every row set at once, gathering each slot's
    per-level products for all sets in one pass: the Gram entries of
    :func:`pauliblock.fidelity.gram_fidelity_values`, added in the same
    order, with the determinant in closed form for N_p <= 2 (g00 at
    N_p = 1, g00 g11 - |g01|^2 at N_p = 2) and by ``np.linalg.det`` above."""
    row_sets = np.asarray(row_sets)
    n_p = master.shape[1]
    if n_p == 0:
        return np.ones(len(row_sets))
    if n_p <= 2:
        products = [master[:, i].real ** 2 + master[:, i].imag ** 2 for i in range(n_p)]
        if n_p == 2:
            products.append(master[:, 0].conj() * master[:, 1])
    else:
        products = [master.conj()[:, :, None] * master[:, None, :]]
    rows = row_sets[:, 0].astype(np.intp)
    grams = [per_level[rows] for per_level in products]
    for slot in range(1, row_sets.shape[1]):
        rows = row_sets[:, slot].astype(np.intp)
        for gram, per_level in zip(grams, products):
            gram += per_level[rows]
    if n_p == 1:
        dets = grams[0]
    elif n_p == 2:
        g00, g11, g01 = grams
        dets = g00 * g11 - (g01.real**2 + g01.imag**2)
    else:
        dets = np.linalg.det(grams[0]).real
    outside = (dets < -RANGE_TOL) | (dets > 1.0 + RANGE_TOL)
    if outside.any():
        worst = int(np.argmax(outside))
        raise NumericalConsistencyError(
            f"det(A^dagger A) = {dets[worst]} for row set {worst} outside "
            "[-1e-10, 1+1e-10]"
        )
    return np.clip(dets, 0.0, 1.0)


def _permutations_with_signs(n):
    perms = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        perms.append((perm, -1.0 if inversions % 2 else 1.0))
    return perms


def fidelity_oracle(a):
    """Brute-force subset/permutation evaluation of the fidelity of the
    :class:`OverlapMatrix` ``a``, clamped to [0, 1]; its cost grows as
    C(N, N_p) N_p!, so keep N and N_p small."""
    perms = _permutations_with_signs(a.n_protected)
    total = 0.0
    # N_p = 0: one empty subset, whose empty minor is 1.
    for subset in itertools.combinations(range(a.n_total), a.n_protected):
        minor = 0.0 + 0.0j
        for perm, sign in perms:
            term = sign
            for col, row in enumerate(perm):
                term *= a.entries[subset[row], col]
            minor += term
        total += abs(minor) ** 2
    value = min(max(float(total), 0.0), 1.0)
    return FidelityResult(value, a.n_total, a.n_protected, a.n_buffer)


def verify_against_oracle(a, value, tol=1e-10):
    """Assert a fidelity ``value`` of ``a`` matches the brute-force sum;
    return the oracle's result."""
    oracle = fidelity_oracle(a)
    if abs(oracle.value - value) >= tol:
        raise NumericalConsistencyError(
            f"gram determinant {value} and brute-force sum "
            f"{oracle.value} disagree by {abs(oracle.value - value):.2e}"
        )
    return oracle


def forward_overlaps(initial, targets, n_states, schedule, settings):
    """A[j, i] = <U psi_j|phi_i> of the lowest ``n_states`` levels of the
    ``initial`` basis, evolved forward under ``schedule``, with every state
    of the ``targets`` basis."""
    evolved = propagate_basis(initial, n_states, schedule, settings)
    return np.conj(evolved) @ targets.states.T * initial.grid.dx


def forward_fidelity(engine, schedule, n_protected, n_buffer, tau, settings):
    """The thermal fidelity with every level its ensemble occupies evolved
    forward, on the grid, bases and ladder the engine plans for the curve:
    every configuration of that ladder, enumerated as a complete one to a
    1e-15 tail, weighs its own Gram determinant."""
    n_total = n_protected + n_buffer
    n_levels = engine.plan_levels([schedule], n_total, n_protected, tau)
    _, initial, targets = engine.endpoint_bases(schedule, n_levels, n_protected)
    ensemble = enumerate_ensemble(
        initial.energies, n_total, tau, tail_bound=1e-15, complete_ladder=True
    )
    matrix = forward_overlaps(initial, targets, ensemble.m_max, schedule, settings)
    per_config = gram_fidelity_values(matrix, ensemble.levels - 1)
    return float(np.sum(ensemble.weights * per_config))


def level_count(potential, center, energy):
    """Semiclassical number of levels below ``energy`` of the trap
    ``potential`` about ``center``."""
    return _level_count(_Trap(potential, center), energy)


def energy_ceiling(potential, center, n_states):
    """Energy at which :func:`level_count` reaches ``n_states``."""
    return _ceiling(_Trap(potential, center), n_states)


def semiclassical_ladder(potential, center, n_levels):
    """Bohr-Sommerfeld energies of the lowest ``n_levels`` levels of a
    trap: level k where :func:`level_count` reaches k - 1/2, as the planner
    places the Fermi level."""
    trap = _Trap(potential, center)
    return np.array([_ceiling(trap, k + 0.5) for k in range(n_levels)])
