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
* :func:`enumerate_ensemble` - the canonical ensemble listed
  configuration by configuration, below an excitation cutoff grown until
  the omitted Boltzmann weight is negligible: the reference for the
  particle-number projection of :mod:`pauliblock.thermal`, which lists
  only the ground configuration.  An ensemble is held as arrays:
  ``levels`` (K, N) of 1-based level indices in the smallest unsigned
  dtype that holds the ladder's length (:func:`level_dtype`), and
  ``excitations`` (K,) as floats, rows in lexicographic order.  The
  enumerator grows all prefixes one slot at a time, finding each prefix's
  run of admissible next levels with one ``np.searchsorted`` per slot, so
  the rows come out in lexicographic order without a sort; it adds each
  excitation and bound up left to right and cuts on those sums, so the
  same cutoff always selects the same rows with the same floats.
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
import math

import numpy as np
import scipy.linalg

from pauliblock import (
    ConfigError,
    ConvergenceError,
    EigenBasis,
    FidelityResult,
    NeedsMoreLevelsError,
    NumericalConsistencyError,
    OverlapMatrix,
    ThermalEnsemble,
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
from pauliblock.thermal import (
    DEFAULT_TAIL_BOUND,
    check_tail_bound,
    check_temperatures,
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


def level_dtype(n_levels):
    """Smallest unsigned dtype that holds the 1-based levels of a ladder of
    ``n_levels``: ``uint8`` up to 255 levels, ``uint16`` up to 65535."""
    return np.min_scalar_type(n_levels)


def _enumerate_below(energies, n_particles, e_cut):
    """All increasing n-tuples of levels with excitation <= e_cut.

    Returns ``(levels, excitations)``: 1-based levels (K, N) of dtype
    :func:`level_dtype` in lexicographic order and their excitations (K,).
    Placing level v at slot j costs E_v - E_j, and the cheapest completion
    of the remaining slots uses consecutive levels, so a prefix's bound
    with level v next is its excitation plus ``cheapest[v]``, the cost of
    v in this slot and of its cheapest completion; that is monotone in v
    (energies ascend), so the children of a prefix are a leading run of
    its candidate levels.  The frontier of prefixes grows one slot at a
    time: one ``np.searchsorted`` over ``cheapest`` finds each prefix's
    run, with a slack above the cutoff for the rounding of that sum, and
    its children are that run, laid out after the children of the
    prefixes before it, so they come out in lexicographic order without a
    sort.  Each child's
    excitation and bound is then added up left to right in slot order, as
    the cut is defined, and the children whose bound exceeds the cutoff
    (only those the slack admitted) are dropped.  So an excitation equals
    the left-to-right sum over its tuple and the bound of a prefix equals
    the excitation of its cheapest completion: the cut is exact in
    floating point, and a lower cutoff selects a subset of the same rows.
    """
    m_available = len(energies)
    dtype = level_dtype(m_available)
    # A bound and its searchsorted estimate add the same n_particles + 1
    # or fewer non-negative terms in two orders; for a kept child their
    # sums are within the cutoff, so each rounds by a few ulps of it.
    slack = 4 * (n_particles + 1) * np.finfo(float).eps * (abs(e_cut) + 1.0)
    chosen = np.zeros((1, 0), dtype=dtype)  # 0-based levels of each prefix
    excitations = np.zeros(1)
    for slot in range(n_particles):
        stop = m_available - (n_particles - slot - 1)
        # costs[r][v]: level v + r in slot slot + r, r = 0 the placed one.
        costs = [
            energies[r : stop + r] - energies[slot + r]
            for r in range(n_particles - slot)
        ]
        cheapest = costs[0].copy()
        for cost in costs[1:]:
            cheapest += cost
        if slot:
            start = chosen[:, -1].astype(np.intp) + 1
        else:
            start = np.zeros(1, dtype=np.intp)
        end = np.searchsorted(cheapest, e_cut + slack - excitations, side="right")
        counts = np.maximum(end - start, 0)
        # Child i of the run that begins at row ``first`` of the new frontier
        # takes level start + (i - first).
        first = np.cumsum(counts) - counts
        level = np.arange(int(counts.sum()))
        level += np.repeat(start - first, counts)
        excitations = np.repeat(excitations, counts) + costs[0][level]
        bound = excitations
        for cost in costs[1:]:
            bound = bound + cost[level]
        grown = np.empty((len(level), slot + 1), dtype=dtype)
        grown[:, :slot] = np.repeat(chosen, counts, axis=0)
        grown[:, slot] = level
        kept = bound <= e_cut
        if not kept.all():
            grown, excitations = grown[kept], excitations[kept]
        chosen = grown
    chosen += 1
    return chosen, excitations


def _levels_required(energies, n_particles, e_cut):
    """Smallest level count proving no level beyond it can appear."""
    e_fermi = energies[n_particles - 1]
    above = np.nonzero(energies - e_fermi > e_cut)[0]
    if len(above) == 0:
        # Extrapolate with the last observed gap to give a useful estimate.
        last_gap = max(energies[-1] - energies[-2], 1e-12)
        missing = (e_cut - (energies[-1] - e_fermi)) / last_gap
        return len(energies) + int(math.ceil(missing)) + 1
    return int(above[0]) + 1


def enumerate_ensemble(
    energies, n_particles, tau, tail_bound=DEFAULT_TAIL_BOUND, complete_ladder=False
):
    """Truncated canonical ensemble of ``n_particles`` fermions.

    Parameters
    ----------
    energies : ascending array of single-particle energies (1-based levels)
    n_particles : int
    tau : float
        Temperature in hbar*omega_i/k_B; ``tau = 0`` gives the single
        ground configuration.
    tail_bound : float
        Target bound on the omitted Boltzmann weight.  The excitation
        cutoff grows shell by shell until the newest shell carries less
        than half this fraction of the total weight.
    complete_ladder : bool
        Treat ``energies`` as the entire spectrum (a hard cap) instead of
        the low end of an infinite one; no truncation certificate is
        demanded then.

    Raises
    ------
    NeedsMoreLevelsError
        If ``energies`` is too short to certify the truncation; the error
        reports the required level count.
    """
    energies = np.asarray(energies, dtype=float)
    check_temperatures([tau])
    if n_particles < 1:
        raise ConfigError("need at least one particle")
    if len(energies) < n_particles:
        raise NeedsMoreLevelsError(n_particles, len(energies))
    if (np.diff(energies) < 0).any():
        raise ConfigError("energies must be ascending")
    if tau == 0.0:
        levels = np.arange(1, n_particles + 1, dtype=level_dtype(len(energies)))
        return ThermalEnsemble(0.0, levels[None, :], np.zeros(1), np.array([1.0]), 0.0)

    check_tail_bound(tail_bound)
    e_cut = tau * math.log(1.0 / tail_bound)
    shell = max(tau * math.log(100.0), 1e-3)
    z_here = None
    while True:
        e_next = e_cut + shell
        if not complete_ladder:
            required = _levels_required(energies, n_particles, e_next)
            if required > len(energies):
                raise NeedsMoreLevelsError(required, len(energies))
        levels, excitations = _enumerate_below(energies, n_particles, e_next)
        terms = np.exp(-excitations / tau)
        z = float(np.sum(terms))
        if z_here is None:
            z_here = float(np.sum(terms[excitations <= e_cut]))
        e_cut = e_next
        if z - z_here <= 0.5 * tail_bound * z:
            return ThermalEnsemble(tau, levels, excitations, terms / z, e_cut)
        z_here = z
        # Free this shell's arrays before the next, larger one is built.
        del levels, excitations, terms


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
    m_max = int(ensemble.levels[:, -1].max())
    matrix = forward_overlaps(initial, targets, m_max, schedule, settings)
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
