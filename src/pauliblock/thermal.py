"""Finite-temperature fidelity by canonical averaging.

At temperature ``tau`` (units hbar*omega_i/k_B) the N fermions initially
occupy levels ``c = m(1) < ... < m(N)`` with probability

    p_c = exp(-excitation(c)/tau) / Z ,
    excitation(c) = sum_j (E_m(j) - E_j) ,

and the process fidelity is the average of the per-configuration
fidelities det(A_c^dagger A_c), A_c being the rows of the master overlap
matrix A (M levels x N_p targets) that c occupies.

**Projection** (:func:`projected_fidelity`).  By Cauchy-Binet,
det(A_c^dagger A_c) is the sum of |det A_S|^2 over the N_p-subsets S of
c, so with x_j = exp(-E_j/tau) the canonical average is a ratio of two
polynomial coefficients,

    F = [z^N] G(z) / [z^N] Q(z) ,   Q(z) = prod_j (1 + z x_j) ,
    G(z) = Q(z) det(A^dagger diag(z x_j / (1 + z x_j)) A) ,

the particle-number projection of auxiliary-field Monte Carlo (Ormand et
al., PRC 49, 1422 (1994); Gilbreth and Alhassid, Comput. Phys. Commun.
188, 1 (2015)).  Both have degree M, so their values at M + 1 points of
the circle |z| = exp(mu/tau) give the z^N coefficients exactly, by one
discrete Fourier sum; mu, the grand-canonical chemical potential of N
fermions, keeps that sum well conditioned.  A temperature costs a few
(M + 1) x M complex arrays, however many configurations there are.

**Truncation by levels** (:func:`levels_needed`).  The ladder is cut
after M levels, and the omitted levels' total occupation, which bounds
the error of F, is certified below ``tail_bound`` in closed form.

**Enumeration** (:func:`enumerate_ensemble`).  The configurations can
also be listed, below an excitation cutoff grown until the omitted
Boltzmann weight is negligible: the tests' reference for the projection,
and, at ``tau = 0``, the one ground configuration every curve reads.  An
ensemble is held as arrays: ``levels`` (K, N) of 1-based level indices in
the smallest unsigned dtype that holds the ladder's length
(:func:`level_dtype`), and ``excitations`` (K,) as floats, rows in
lexicographic order.  The enumerator grows all prefixes one slot at a
time, finding each prefix's run of admissible next levels with one
``np.searchsorted`` per slot, so the rows come out in lexicographic order
without a sort; it adds each excitation and bound up left to right and
cuts on those sums, so the same cutoff always selects the same rows with
the same floats.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NeedsMoreLevelsError, NumericalConsistencyError
from .fidelity import check_range, level_products

DEFAULT_TAIL_BOUND = 1e-6
# Newton steps towards the chemical potential of the projection circle.
NEWTON_STEPS = 4
# Rounding of one coefficient of the projection, in units of machine
# epsilon per term: a point value is a product of M factors and a Gram
# determinant of sums over M levels, each factor and term within a few
# epsilon, and no point value exceeds 1 in modulus (see
# :func:`projected_fidelity`).
PROJECTION_ROUNDING = 8


@dataclass
class ThermalEnsemble:
    """Truncated canonical ensemble over occupation configurations.

    ``levels`` (K, N) holds each configuration's 1-based, strictly
    increasing level indices, in the :func:`level_dtype` of the ladder
    the ensemble was enumerated from (``uint8`` up to 255 levels), and
    ``excitations`` (K,) its excitation energy; rows are in lexicographic
    order of ``levels``, as the sort-free enumerator lays them out.
    """

    tau: float
    levels: np.ndarray
    excitations: np.ndarray
    weights: np.ndarray
    e_cut: float

    @property
    def size(self):
        return len(self.excitations)

    @property
    def m_max(self):
        """Highest occupied level of any configuration."""
        return int(self.levels[:, -1].max())


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


def check_temperatures(taus):
    """Raise :class:`ConfigError` unless every temperature of ``taus`` is
    finite and >= 0."""
    for tau in taus:
        if not 0.0 <= tau < math.inf:
            raise ConfigError(f"temperatures must be finite and >= 0, got {tau}")


def check_tail_bound(tail_bound):
    """Raise :class:`ConfigError` unless 0 < ``tail_bound`` < 1."""
    if not 0.0 < tail_bound < 1.0:
        raise ConfigError(f"tail_bound must be in (0, 1), got {tail_bound}")


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


def levels_needed(e_fermi, n_particles, tau, tail_bound, omega, shift):
    """Least ladder length M that certifies ``n_particles`` fermions at
    ``tau`` > 0: the omitted levels j > M together hold less than
    ``tail_bound`` of a particle.

    In the canonical ensemble a level j > N is occupied with probability
    n_j <= N exp(-(E_j - E_N)/tau): swapping j for the lowest empty level
    h <= N maps the configurations holding j at most N to 1 onto others,
    and scales each weight by exp((E_j - E_h)/tau) >= exp((E_j -
    E_N)/tau).  A trap at or above 0.5 omega^2 x^2 + ``shift`` has, by
    min-max, its level j at or above omega (j - 1/2) + shift
    (:meth:`~pauliblock.potentials.PotentialSchedule.harmonic_floor`).
    So the levels past a ladder of M hold

        sum_{j>M} n_j <= N exp(-(omega (M + 1/2) + shift - E_N)/tau)
                         / (1 - exp(-omega/tau)) ,

    and this bounds |F - F_M|, F_M being the average over the
    configurations of the first M levels, since every configuration's
    fidelity lies in [0, 1].  ``e_fermi`` is E_N.  The returned M is the
    least integer above the count at which the bound equals
    ``tail_bound``, and at least N.
    """
    need = e_fermi + tau * math.log(
        n_particles / (tail_bound * -math.expm1(-omega / tau))
    )
    return max(n_particles, math.floor((need - shift) / omega - 0.5) + 1)


def _circle(n_points):
    """The projection's ``n_points`` points on the unit circle,
    exp(2 pi i (k + 1/4) / n_points): a quarter step off the real axis,
    so that no point sits at -1, where a level at mu would make a factor
    1 + z x_j vanish."""
    return np.exp(2j * np.pi * (np.arange(n_points) + 0.25) / n_points)


def _chemical_potential(energies, n_particles, tau):
    """mu with sum_j 1/(1 + exp((E_j - mu)/tau)) near ``n_particles``:
    ``NEWTON_STEPS`` Newton steps, each of at most ``tau``, from the
    midpoint of E_N and E_N+1.  Any mu gives the same coefficients in
    exact arithmetic; this one makes N the likeliest particle number on
    the circle, so the Fourier sum loses least to rounding."""
    upper = energies[n_particles] if len(energies) > n_particles else energies[-1] + tau
    mu = 0.5 * (energies[n_particles - 1] + upper)
    for _ in range(NEWTON_STEPS):
        turned = np.tanh(0.5 * (energies - mu) / tau)
        slope = 0.25 * np.sum(1.0 - turned * turned) / tau
        if not slope > 0.0:
            break
        excess = 0.5 * np.sum(1.0 - turned) - n_particles
        mu -= min(max(excess / slope, -tau), tau)
    return mu


def projected_fidelity(energies, overlaps, n_particles, tau, ground):
    """Canonical average at ``tau`` > 0 of det(A_c^dagger A_c) over the
    configurations c of ``n_particles`` fermions on the ladder
    ``energies`` (M levels, ascending), by particle-number projection (see
    the module docstring).

    ``overlaps`` (M, N_p) is A, one row per level; ``ground`` is the
    fidelity of the ground configuration, the first N rows.

    On the circle |z| = exp(mu/tau) write b_j = exp(-(E_j - mu)/tau) for
    a level past the first N and exp((E_j - mu)/tau) for one of the first
    N, each at most 1 while mu lies between E_N and E_N+1, so that no
    factor overflows; a level of the first N contributes
    z x_j (1 + 1/(z x_j)), whose z is the N-th power that [z^N] takes.
    Divided by prod_j (1 + b_j), each point value of Q is a product of
    factors of modulus at most 1, of G that times a Gram determinant whose
    Cauchy-Binet terms again are at most 1 in modulus, and the ground
    configuration's term of [z^N] Q is w0 = 1 / prod_j (1 + b_j).  The projected coefficients are therefore
    each within ``slack`` = ``PROJECTION_ROUNDING`` (2M + 1) eps of exact,
    and this raises :class:`NumericalConsistencyError`, before any clamp,
    if

    * [z^N] Q falls below w0 - slack, or [z^N] G below ``ground`` w0 -
      slack: every configuration adds a non-negative term to each;
    * the coefficient ratio's imaginary part exceeds 2 slack / [z^N] Q,
      the most that the rounding of the two coefficients can give it;
    * the ratio's real part, F, is NaN or leaves [0, 1] by more than
      ``RANGE_TOL`` (:func:`~pauliblock.fidelity.check_range`, which then
      clamps F to [0, 1]).
    """
    energies = np.asarray(energies, dtype=float)
    n_levels = len(energies)
    mu = _chemical_potential(energies, n_particles, tau)
    scaled = (energies - mu) / tau
    scaled[n_particles:] *= -1.0
    b = np.exp(scaled)
    turn = _circle(n_levels + 1)[:, None]
    shifted = b * turn  # b_j z / |z|, or b_j |z| / z for the first N
    shifted[:, :n_particles] = b[:n_particles] * turn.conj()
    factors = 1.0 + shifted
    points = np.prod(factors / (1.0 + b), axis=1)
    # diag(z x_j / (1 + z x_j)): shifted / factors above, 1 / factors below.
    shifted[:, :n_particles] = 1.0
    shifted /= factors
    grams = np.tensordot(shifted, level_products(overlaps), axes=1)
    numerator = np.mean(points * np.linalg.det(grams))
    denominator = np.mean(points)

    slack = PROJECTION_ROUNDING * (2 * n_levels + 1) * np.finfo(float).eps
    w0 = 1.0 / np.prod(1.0 + b)
    ratio = numerator / denominator
    where = f"at tau = {tau} on {n_levels} levels"
    if not denominator.real >= w0 - slack:
        raise NumericalConsistencyError(
            f"projected weight {denominator.real} below the ground term {w0} {where}"
        )
    if not numerator.real >= ground * w0 - slack:
        raise NumericalConsistencyError(
            f"projected fidelity weight {numerator.real} below the ground term "
            f"{ground * w0} {where}"
        )
    if not abs(ratio.imag) <= 2.0 * slack / denominator.real:
        raise NumericalConsistencyError(
            f"projected fidelity {ratio} has an imaginary part {where}"
        )
    return float(check_range(ratio.real, f"projected fidelity ({where})"))
