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
rounding picks one of the two.

A 1D bound spectrum has no degeneracy, and level n has n nodes, so in a
trap symmetric about x = 0 level n (from 0) has parity (-1)^n.  On a
symmetric grid the lattice reflection j -> (n - j) mod n commutes with the
Hamiltonian, which then splits into an even and an odd block (Marston and
Balint-Kurti, J. Chem. Phys. 91, 3571 (1989)); :func:`solve` diagonalizes
the two and takes the k-th even state as level 2k and the k-th odd state as
level 2k + 1, so the states come out exactly even or odd.  Of a pair split
below rounding, such as the tunnel-split pair of a high barrier, the even
member is the lower level.
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

# Largest |V(x) - V(-x)|, relative to max |V|, of a trap that counts as
# mirror-symmetric.  Each trap is even in x to the bit, but the lattice
# positions x_j and -x_(n-j) round apart, so a symmetric trap on a
# symmetric grid mirrors itself only to a few ulps of its largest value.
SYMMETRY_TOL = 1e-12

# Most points an eigensolve takes.  The dense solve's peak memory grows as
# the square of the points: its resident set rose by 19, 62 and 233 MB on
# 1,024, 2,048 and 4,096 points for a symmetric trap (about 15 bytes per
# point squared), and by 45, 168 and 654 MB for an asymmetric one (about
# 41), on a 2-vCPU Intel Xeon.  So 8,192 points take about 1 and 2.7 GB,
# where the largest grid the tests and the benchmark solve on has 2,048.
MAX_SOLVE_POINTS = 8192


@dataclass
class EigenBasis:
    """Ordered lowest-K eigenpairs of a static trap Hamiltonian.

    ``states`` holds one unit-norm eigenstate per row (real amplitudes).
    ``alternating`` records that level n (from 0) is exactly even for even
    n and exactly odd for odd n, as :func:`solve` gives the levels of a
    mirror-symmetric trap on a symmetric grid.
    """

    grid: Grid
    energies: np.ndarray
    states: np.ndarray
    alternating: bool = False

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


def edge_band_ratio(states, grid):
    """Max spectral amplitude in the outer |k| band relative to the peak.

    The band is never empty: a grid's even point count puts -pi/dx, of
    magnitude ``k_max``, among its wavenumbers."""
    ft = np.abs(np.fft.fft(states, axis=-1))
    band = np.abs(grid.k_values) >= (1.0 - KSPACE_EDGE_BAND) * grid.k_max
    return np.max(ft[:, band], axis=1) / np.max(ft, axis=1)


def check_grid(states, grid, step=None):
    """Raise the grid error of ``states`` (one per row) on ``grid``, if any.

    A Fourier grid fails at its position edge, where a state's boundary
    amplitude relative to its peak reaches ``EDGE_AMPLITUDE_TOL``
    (:class:`ContainmentError`: the domain is too small), or at its
    momentum edge, where its spectral amplitude in the outer |k| band
    reaches ``KSPACE_EDGE_TOL`` (:class:`ResolutionError`: the points
    undersample it; :func:`edge_band_ratio`).  A leak through the periodic
    boundary also puts weight at the momentum edge, and aliased momentum
    smears amplitude onto the boundary: when both fail, the one exceeding
    its tolerance by the larger factor names the cause.  The error names
    the worst ``state`` (1-based), its ``ratio``, the ``tol``, the
    propagation ``step`` (None in an eigensolve, else the message ends in
    "(at step N)") and the ``grid``.
    """
    a = np.abs(states)
    failures = []
    for ratios, tol, error, text in (
        (np.maximum(a[:, 0], a[:, -1]) / a.max(axis=1), EDGE_AMPLITUDE_TOL,
         ContainmentError, "boundary amplitude {:.2e} (>= {:.0e}); the domain "
         "is too small"),
        (edge_band_ratio(states, grid), KSPACE_EDGE_TOL, ResolutionError,
         "momentum-edge amplitude {:.2e} (>= {:.0e}); the grid undersamples it"),
    ):
        worst = int(np.argmax(ratios))
        if ratios[worst] >= tol:
            failures.append((float(ratios[worst]), tol, worst + 1, error, text))
    if failures:
        ratio, tol, state, error, text = max(failures, key=lambda f: f[0] / f[1])
        message = f"state {state} has relative " + text.format(ratio, tol)
        if step is not None:
            message += f" (at step {step})"
        raise error(message, state=state, ratio=ratio, tol=tol, step=step, grid=grid)


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
    :class:`ResolutionError` from :func:`check_grid`, the one grid check
    the propagator also applies: when both edges fail, the one exceeding
    its tolerance by the larger factor names the cause, so callers widen
    or refine the grid as the worse edge asks.

    Parameters
    ----------
    potential : array of shape (n_points,)
        Potential values on the grid.
    grid : Grid
    n_states : int
        Number of eigenpairs, must stay below ``n_points/4``
        (:func:`holds_states`).  A grid of more than ``MAX_SOLVE_POINTS``
        raises :class:`ConfigError` before any matrix is built.

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
    if n > MAX_SOLVE_POINTS:
        raise ConfigError(
            f"{n_states} levels on {n} points: an eigensolve takes at most "
            f"{MAX_SOLVE_POINTS} points",
            n_points=n, cap=MAX_SOLVE_POINTS,
        )
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (n,):
        raise ConfigError("potential length does not match the grid")
    potential = effective_potential(potential)

    # Kinetic operator: real symmetric circulant with first column c from the
    # inverse transform of k^2/2, so h[i, j] = c[(i - j) % n].
    c = np.fft.ifft(0.5 * grid.k_values**2).real
    mirrored = grid.reflect(potential)
    alternating = grid.is_symmetric and np.allclose(
        potential, mirrored, rtol=0, atol=SYMMETRY_TOL * np.max(np.abs(potential))
    )
    if alternating:
        energies, states = _solve_blocks(c, potential, grid, n_states)
    else:
        i = np.arange(n)
        h = c[np.subtract.outer(i, i) % n]
        h[i, i] += potential
        energies, states = _eigh_lowest(h, n_states)
    if energies[-1] > CLIP_SAFETY * POTENTIAL_CLIP:
        raise ConvergenceError(
            f"requested states reach E={energies[-1]:.3e}, too close to the "
            f"potential cap {POTENTIAL_CLIP:.0e}",
            energy=float(energies[-1]), cap=POTENTIAL_CLIP,
        )
    states = _fix_phases(states / np.sqrt(grid.dx))

    residual_check(potential, grid, energies, states)
    check_grid(states, grid)
    return EigenBasis(grid, energies, states, alternating)


def _eigh_lowest(h, n_states):
    # numpy's eigh has no subset driver: every level is computed and the
    # lowest are kept, their vectors as rows.
    energies, vecs = np.linalg.eigh(h)
    return energies[:n_states], vecs[:, :n_states].T.copy()


def _solve_blocks(c, potential, grid, n_states):
    """The lowest ``n_states`` levels of a mirror-symmetric ``potential``
    under the kinetic circulant of first column ``c``: (energies, states),
    with unit-norm state vectors.  The blocks read the potential at
    x <= 0, which mirrors it to rounding.

    The k-th state of the even block is level 2k and the k-th of the odd
    block level 2k + 1, whatever their energies.  The energies are reported
    in ascending order, so of a pair split below rounding the even member
    is the lower level.  A level that lies below the one before it by more
    than the residual bound then leaves its state with another level's
    energy, and :func:`residual_check` raises.
    """
    n = grid.n_points
    half = n // 2
    # The even block acts on e_0, e_(n/2) and (e_j + e_(n-j))/sqrt(2), the
    # odd block on (e_j - e_(n-j))/sqrt(2), for j = 1 .. n/2 - 1.  Between
    # them H[a, b] = c[|a - b|] +- c[(a + b) % n], times 1/sqrt(2) for each
    # of e_0 and e_(n/2), which are their own mirror images.
    a = np.arange(half + 1)
    ends = np.where(a % half == 0, np.sqrt(0.5), 1.0)
    direct, crossed = c[np.abs(a[:, None] - a)], c[(a[:, None] + a) % n]
    energies, states = np.empty(n_states), np.zeros((n_states, n))
    for parity in (0, 1):
        inner = slice(parity, half + 1 - parity)  # no e_0, e_(n/2) when odd
        block = (direct + (-1) ** parity * crossed)[inner, inner]
        block *= ends[inner] * ends[inner, None]
        block[np.diag_indices_from(block)] += potential[inner]
        energies[parity::2], vecs = _eigh_lowest(block, (n_states + 1 - parity) // 2)
        states[parity::2, inner] = vecs * ends[inner]
    # Each block state spread back over the mirror pairs of its basis.
    states += (-1.0) ** np.arange(n_states)[:, None] * grid.reflect(states)
    return np.sort(energies), np.sqrt(0.5) * states


def residual_check(potential, grid, energies, states):
    """Verify ||H phi - E phi|| < RESIDUAL_TOL * max(|E|, 1) for every
    state; the :class:`ConvergenceError` names the worst ``state``
    (1-based), its ``residual`` and its ``bound``."""
    resid = hamiltonian_apply(potential, grid, states) - energies[:, None] * states
    norms = np.sqrt(np.sum(np.abs(resid) ** 2, axis=1) * grid.dx)
    bounds = RESIDUAL_TOL * np.maximum(np.abs(energies), 1.0)
    worst = int(np.argmax(norms / bounds))
    if norms[worst] >= bounds[worst]:
        raise ConvergenceError(
            f"eigenstate {worst + 1} residual {norms[worst]:.2e} exceeds "
            f"{bounds[worst]:.2e}",
            state=worst + 1, residual=float(norms[worst]), bound=float(bounds[worst]),
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
    from :func:`solve`'s grid check (:func:`check_grid`) instead of
    returning unresolved levels.
    """
    trap = PotentialSchedule.expansion(1.0, omega_f=omega_i, omega_i=omega_i, lam=lam)
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    basis = solve(trap.evaluate(GAP_GRID, 0.0), GAP_GRID, n_max + 1)
    gaps = np.diff(basis.energies)
    return [(n, float(gaps[n - 1])) for n in range(1, n_max + 1)]
