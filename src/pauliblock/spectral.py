"""Bound-state eigenproblems of static traps.

:func:`solve` is a Fourier-grid Hamiltonian: the kinetic operator is
exact on the momentum lattice (a real symmetric circulant in position
space) and the potential is diagonal.  It shares its discretization with
the propagator, so eigenstates are exactly band-limited states of the
same lattice.

Energies come in ascending order, and each state's sign is fixed so that
its leftmost entry of at least half the largest magnitude is positive.
The largest entry itself would not do: an odd state on a symmetric grid
reaches its largest magnitude at a mirror pair of opposite signs, and
rounding picks one of the two.  The parity-pure states of a symmetric
grid are made exactly even or odd.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContainmentError, ConvergenceError, ResolutionError
from .grid import EDGE_AMPLITUDE_TOL, Grid
from .potentials import PotentialSchedule

# Fraction of the |k| lattice treated as the edge band, and the relative
# spectral amplitude allowed there.  Calibrated so that admitted states have
# eigenvalue discretization errors around 1e-7 or below.
KSPACE_EDGE_BAND = 0.02
KSPACE_EDGE_TOL = 1e-4

RESIDUAL_TOL = 1e-6

# Potential values are capped here before diagonalization.  Dense symmetric
# eigensolvers have backward error ~ eps * ||H||, so an uncapped confining
# potential (1e10 at the edge of a wide domain) would drown the residual
# bound; regions this far above the requested energies are classically
# forbidden by hundreds of decades, so the cap leaves the states unchanged.
POTENTIAL_CLIP = 1e6
CLIP_SAFETY = 1e-2

# Largest wrong-parity norm ||(1 -+ R) psi|| sqrt(dx) / 2 of a state that
# counts as even or odd (see :func:`parity_masks`).
PARITY_TOL = 1e-10


@dataclass
class EigenBasis:
    """Ordered lowest-K eigenpairs of a static trap Hamiltonian.

    ``states`` holds one unit-norm eigenstate per row (real amplitudes).
    """

    grid: Grid
    energies: np.ndarray
    states: np.ndarray

    @property
    def size(self):
        return len(self.energies)


def effective_potential(potential):
    """Potential with the far-forbidden region capped (see POTENTIAL_CLIP)."""
    return np.minimum(potential, POTENTIAL_CLIP)


def kinetic_apply(amplitudes, grid):
    """Apply -0.5 d^2/dx^2 via the momentum lattice (rows = states)."""
    ft = np.fft.fft(amplitudes, axis=-1)
    ft *= 0.5 * grid.k_values**2
    return np.fft.ifft(ft, axis=-1)


def hamiltonian_apply(potential, grid, amplitudes):
    """Apply H = -0.5 d^2/dx^2 + V on one or many states (rows)."""
    return kinetic_apply(amplitudes, grid) + potential * amplitudes


def _fix_phases(states):
    a = np.abs(states)
    idx = np.argmax(a >= 0.5 * a.max(axis=1, keepdims=True), axis=1)
    signs = np.sign(states[np.arange(states.shape[0]), idx])
    signs[signs == 0] = 1.0
    return states * signs[:, None]


def parity_masks(states, grid):
    """(even, odd, reflected): which rows of ``states`` are even and which
    odd to ``PARITY_TOL`` on a symmetric grid, and the reflected rows."""
    reflected = grid.reflect(states)
    scale = 0.5 * np.sqrt(grid.dx)
    even = scale * np.linalg.norm(states - reflected, axis=1) < PARITY_TOL
    odd = scale * np.linalg.norm(states + reflected, axis=1) < PARITY_TOL
    return even, odd, reflected


def _snap_parities(states, grid):
    # Parity-pure states made exactly even or odd: mirrored samples then
    # match to the bit, so nothing read off a state (its sign sample, its
    # largest entry) depends on which of a mirror pair rounding favoured.
    even, odd, reflected = parity_masks(states, grid)
    states[even] = 0.5 * (states[even] + reflected[even])
    states[odd] = 0.5 * (states[odd] - reflected[odd])


def _parity_of(state, grid):
    return float(np.dot(state, grid.reflect(state)) / np.dot(state, state))


def edge_band_ratio(states, grid):
    """Max spectral amplitude in the outer |k| band relative to the peak."""
    ft = np.abs(np.fft.fft(states, axis=-1))
    band = np.abs(grid.k_values) >= (1.0 - KSPACE_EDGE_BAND) * grid.k_max
    if not band.any():
        band = np.abs(grid.k_values) == np.abs(grid.k_values).max()
    return np.max(ft[:, band], axis=1) / np.max(ft, axis=1)


def check_resolution(states, grid):
    ratios = edge_band_ratio(states, grid)
    worst = int(np.argmax(ratios))
    if ratios[worst] >= KSPACE_EDGE_TOL:
        raise ResolutionError(
            f"state {worst + 1} has relative momentum-edge amplitude "
            f"{ratios[worst]:.2e} (>= {KSPACE_EDGE_TOL:.0e}); the grid "
            "undersamples it",
            worst + 1, float(ratios[worst]), KSPACE_EDGE_TOL, grid=grid,
        )


def check_containment(states, grid):
    a = np.abs(states)
    edge = np.maximum(a[:, 0], a[:, -1])
    ratios = edge / a.max(axis=1)
    worst = int(np.argmax(ratios))
    if ratios[worst] >= EDGE_AMPLITUDE_TOL:
        raise ContainmentError(
            f"state {worst + 1} has relative boundary amplitude "
            f"{ratios[worst]:.2e} (>= {EDGE_AMPLITUDE_TOL:.0e}); the domain "
            "is too small",
            worst + 1, float(ratios[worst]), EDGE_AMPLITUDE_TOL, grid=grid,
        )


def holds_states(n_points, n_states):
    """Whether a grid of ``n_points`` may be asked for ``n_states`` levels.

    The requested levels stay below a quarter of the lattice, far from
    its Nyquist band.
    """
    return 1 <= n_states < n_points // 4


def solve(potential, grid, n_states):
    """Lowest eigenpairs of H = -0.5 d^2/dx^2 + V by dense diagonalization.

    A returned state not contained in the box or not resolved by the
    momentum lattice raises :class:`ContainmentError` /
    :class:`ResolutionError`, so callers can enlarge or refine the grid.

    Parameters
    ----------
    potential : array of shape (n_points,)
        Potential values on the grid.
    grid : Grid
    n_states : int
        Number of eigenpairs, must stay below ``n_points/4``
        (:func:`holds_states`).

    Returns
    -------
    EigenBasis
    """
    n = grid.n_points
    if not holds_states(n, n_states):
        raise ConfigError(
            f"n_states={n_states} outside the safe range [1, {n // 4}) "
            f"for a grid of {n} points"
        )
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (n,):
        raise ConfigError("potential length does not match the grid")
    potential = effective_potential(potential)

    # Kinetic operator: real symmetric circulant with first column from the
    # inverse transform of k^2/2, so h[i, j] = first_col[(i - j) % n].
    first_col = np.fft.ifft(0.5 * grid.k_values**2).real
    i = np.arange(n)
    h = first_col[np.subtract.outer(i, i) % n]
    h[i, i] += potential

    # numpy's eigh has no subset driver: every level is computed and the
    # lowest are kept.
    energies, vecs = np.linalg.eigh(h)
    del h
    energies = energies[:n_states]
    if energies[-1] > CLIP_SAFETY * POTENTIAL_CLIP:
        raise ConvergenceError(
            f"requested states reach E={energies[-1]:.3e}, too close to the "
            f"potential cap {POTENTIAL_CLIP:.0e}"
        )
    states = np.ascontiguousarray(vecs[:, :n_states].T) / np.sqrt(grid.dx)
    del vecs
    if grid.is_symmetric:
        _snap_parities(states, grid)
    states = _fix_phases(states)
    _order_degenerate_pairs(energies, states, grid)

    residual_check(potential, grid, energies, states)
    check_containment(states, grid)
    check_resolution(states, grid)
    return EigenBasis(grid, energies, states)


def _order_degenerate_pairs(energies, states, grid):
    # Ties at machine precision: even-parity state first, for reproducibility.
    for i in range(len(energies) - 1):
        if energies[i + 1] == energies[i]:
            if _parity_of(states[i], grid) < _parity_of(states[i + 1], grid):
                states[[i, i + 1]] = states[[i + 1, i]]


def residual_check(potential, grid, energies, states):
    """Verify ||H phi - E phi|| < RESIDUAL_TOL * max(|E|, 1) for every
    state."""
    resid = hamiltonian_apply(potential, grid, states) - energies[:, None] * states
    norms = np.sqrt(np.sum(np.abs(resid) ** 2, axis=1) * grid.dx)
    bounds = RESIDUAL_TOL * np.maximum(np.abs(energies), 1.0)
    worst = int(np.argmax(norms / bounds))
    if norms[worst] >= bounds[worst]:
        raise ConvergenceError(
            f"eigenstate {worst + 1} residual {norms[worst]:.2e} exceeds "
            f"{bounds[worst]:.2e}"
        )


# Grid used for Fermi-gap profiles (see fermi_gap_profile); generous
# momentum headroom for the level counts of interest (dx ~ 0.04 resolves
# states far beyond N=40).
GAP_GRID = Grid(-20.0, 20.0, 1024)


def fermi_gap_profile(lam, n_max, omega_i=1.0):
    """Gap E_(N+1) - E_N at the Fermi edge of V = 0.5*omega_i^2*(x^2+lam*x^4),
    the t = 0 trap of an expansion schedule held at ``omega_i``, whose
    checks reject a negative or non-finite ``lam`` and an ``omega_i`` that
    is not positive and finite.

    Returns a list of (N, gap) pairs for N = 1..n_max.

    The profile is one static eigensolve with no propagation, so it uses
    the fixed ``GAP_GRID``, not a grid planned per trap: every lambda and
    every ``n_max`` of a gap sweep is then solved on the same lattice, and
    its gaps differ only by the physics.  The grid holds the level counts
    of the gap sweeps with room to spare; a request that outgrows it raises
    from :func:`solve`'s containment or resolution check instead of
    returning unresolved levels.
    """
    trap = PotentialSchedule.expansion(1.0, omega_f=omega_i, omega_i=omega_i, lam=lam)
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    basis = solve(trap.evaluate(GAP_GRID, 0.0), GAP_GRID, n_max + 1)
    gaps = np.diff(basis.energies)
    return [(n, float(gaps[n - 1])) for n in range(1, n_max + 1)]
