"""Finite-temperature fidelity by canonical averaging.

At temperature ``tau`` (units hbar*omega_i/k_B) the N fermions initially
occupy levels ``m(1) < ... < m(N)`` with probability

    p_m = exp(-excitation(m)/tau) / Z ,
    excitation(m) = sum_j (E_m(j) - E_j) ,

and the process fidelity is the weighted average of the per-configuration
fidelities, each computed from the evolved versions of the occupied
levels.  The infinite configuration sum is truncated at an excitation
cutoff grown until the estimated omitted weight is below ``tail_bound``.

An ensemble is held as arrays: ``levels`` (K, N) of 1-based level indices
in the smallest unsigned dtype that holds the ladder's length
(:func:`level_dtype`: one byte per occupied level up to 255 levels, two
beyond), and ``excitations`` (K,) as floats, rows in lexicographic order;
K configurations cost about K (N + 16) bytes with their weights.  The
enumerator grows all prefixes one slot at a time, counting each prefix's
run of admissible next levels and laying the children out run after run,
so the rows come out in lexicographic order without a sort; it adds each
excitation up left to right, so the same cutoff always selects the same
rows with the same floats.  A colder temperature is therefore a cut of a
hotter ensemble (:func:`colder_cut`): a row mask and its weights, found
with the colder temperature's own cutoff and level-count certificate.  A
curve over many temperatures enumerates once, at its hottest, and holds
only that ensemble; each colder temperature's mask and weights serve one
sum and are dropped, and no level row is copied for them.  Boltzmann
weights are one ``np.exp`` over the excitations and every sum one
``np.sum`` over them in row order; a cut sums the same floats in the same
order as a direct enumeration, so it carries exactly the same weights.

How many levels a ladder must hold for the certificate can be estimated
before any level is solved (:func:`estimated_level_count`): the same
certificate runs on a ladder such as the semiclassical one, with the
configurations counted per excitation bin instead of enumerated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NeedsMoreLevelsError

DEFAULT_TAIL_BOUND = 1e-6
# Excitation bins per unit of temperature in :func:`estimated_level_count`.
BINS_PER_TAU = 128


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
    of the remaining slots uses consecutive levels; a prefix is extended by
    successive candidate levels only while that lower bound stays within
    the cutoff (energies ascend, so later levels only cost more).  The
    frontier of prefixes grows one slot at a time: each prefix's leading
    run of passing candidates is counted, and its children are that run,
    laid out after the children of the prefixes before it, so they come out
    in lexicographic order without a sort.  Each excitation and each bound
    is added up left to right in slot order, so an excitation equals the
    left-to-right sum over its tuple and the bound of a prefix equals the
    excitation of its cheapest completion: the cut is exact in floating
    point, and a lower cutoff selects a subset of the same rows.
    """
    m_available = len(energies)
    dtype = level_dtype(m_available)
    chosen = np.zeros((1, 0), dtype=dtype)  # 0-based levels of each prefix
    excitations = np.zeros(1)
    for slot in range(n_particles):
        remaining = n_particles - slot - 1
        stop = m_available - remaining
        if slot:
            start = chosen[:, -1].astype(np.intp) + 1
        else:
            start = np.zeros(1, dtype=np.intp)
        counts = np.zeros(len(chosen), dtype=np.intp)
        alive = np.arange(len(chosen))
        offset = 0
        # Candidate ``offset`` of every prefix whose earlier candidates all
        # passed; a pass lengthens the prefix's run by one.
        while alive.size:
            level = start[alive] + offset
            inside = level < stop
            alive, level = alive[inside], level[inside]
            floor = excitations[alive] + (energies[level] - energies[slot])
            for r in range(remaining):
                floor += energies[level + 1 + r] - energies[slot + 1 + r]
            alive = alive[floor <= e_cut]
            counts[alive] += 1
            offset += 1
        # Child i of the run that begins at row ``first`` of the new frontier
        # takes level start + (i - first).
        first = np.cumsum(counts) - counts
        level = np.arange(int(counts.sum()))
        level += np.repeat(start - first, counts)
        excitations = np.repeat(excitations, counts) + (
            energies[level] - energies[slot]
        )
        grown = np.empty((len(level), slot + 1), dtype=dtype)
        grown[:, :slot] = np.repeat(chosen, counts, axis=0)
        grown[:, slot] = level
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


def check_tail_bound(tail_bound):
    """Raise :class:`ConfigError` unless 0 < ``tail_bound`` < 1."""
    if not 0.0 < tail_bound < 1.0:
        raise ConfigError(f"tail_bound must be in (0, 1), got {tail_bound}")


def _grow_cutoff(energies, n_particles, tau, tail_bound, complete_ladder, below):
    """Grow the excitation cutoff shell by shell until it is certified.

    ``below(e)`` returns ``(rows, excitations)`` for the configurations
    with excitation <= e, ``rows`` being whatever identifies them to the
    caller, or None when it cannot supply them.  Returns ``(e_cut, rows,
    excitations, terms, z)`` at the final cutoff, ``terms`` being the
    Boltzmann factors (``np.exp`` of the scaled excitations) and ``z``
    their ``np.sum``, or None if ``below`` gave up.
    """
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
        probe = below(e_next)
        if probe is None:
            return None
        rows, excitations = probe
        terms = np.exp(-excitations / tau)
        z_probe = float(np.sum(terms))
        if z_here is None:
            z_here = float(np.sum(terms[excitations <= e_cut]))
        e_cut = e_next
        if z_probe - z_here <= 0.5 * tail_bound * z_probe:
            return e_cut, rows, excitations, terms, z_probe
        z_here = z_probe
        # Free this shell's arrays before the next, larger one is built.
        del probe, rows, excitations, terms


def _ground(n_particles, dtype):
    levels = np.arange(1, n_particles + 1, dtype=dtype)[None, :]
    return ThermalEnsemble(0.0, levels, np.zeros(1), np.array([1.0]), 0.0)


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
    if tau < 0:
        raise ConfigError(f"temperature must be >= 0, got {tau}")
    if n_particles < 1:
        raise ConfigError("need at least one particle")
    if len(energies) < n_particles:
        raise NeedsMoreLevelsError(n_particles, len(energies))
    if (np.diff(energies) < 0).any():
        raise ConfigError("energies must be ascending")
    if tau == 0.0:
        return _ground(n_particles, level_dtype(len(energies)))

    e_cut, levels, excitations, terms, z = _grow_cutoff(
        energies,
        n_particles,
        tau,
        tail_bound,
        complete_ladder,
        lambda e: _enumerate_below(energies, n_particles, e),
    )
    return ThermalEnsemble(tau, levels, excitations, terms / z, e_cut)


def estimated_level_count(energies, n_particles, tau, tail_bound=DEFAULT_TAIL_BOUND):
    """Levels :func:`enumerate_ensemble` needs at ``tau`` on a ladder like
    ``energies``, found without enumerating.

    Runs the same cutoff certificate on the configurations counted per
    excitation bin of width ``tau / BINS_PER_TAU``: one pass over the
    levels puts level m in slot j at the cost E_m - E_j rounded to a bin
    (a 0/1 knapsack over bins).  The rounding moves the Boltzmann factor
    of a configuration by at most ``exp(N / (2 BINS_PER_TAU))``, so only a
    shell whose weight is that close to the certificate's threshold can be
    judged differently; the certificate on the solved ladder decides in the
    end.

    Raises
    ------
    NeedsMoreLevelsError
        If ``energies`` is too short to certify the truncation; the error
        reports the required level count.
    """
    energies = np.asarray(energies, dtype=float)
    if len(energies) < n_particles:
        raise NeedsMoreLevelsError(n_particles, len(energies))
    if tau == 0.0:
        return n_particles
    width = tau / BINS_PER_TAU
    n_bins = int((energies[-1] - energies[n_particles - 1]) / width) + 2
    # shifts[m, j]: bins that level m costs in slot j.
    shifts = np.rint(
        (energies[:, None] - energies[None, :n_particles]) / width
    ).astype(int).tolist()
    # ways[j, b]: ways to fill the first j slots from the levels so far.
    ways = np.zeros((n_particles + 1, n_bins))
    ways[0, 0] = 1.0
    for level, shift_of in enumerate(shifts):
        for slot in range(min(level, n_particles - 1), -1, -1):
            shift = shift_of[slot]
            if shift < n_bins:
                ways[slot + 1, shift:] += ways[slot, : n_bins - shift]
    counts = ways[n_particles].astype(np.int64)
    bins = np.arange(n_bins) * width

    def below(e):
        kept = bins <= e
        return None, np.repeat(bins[kept], counts[kept])

    e_cut = _grow_cutoff(energies, n_particles, tau, tail_bound, False, below)[0]
    return _levels_required(energies, n_particles, e_cut)


def colder_cut(hot, energies, tau, tail_bound=DEFAULT_TAIL_BOUND):
    """The ensemble at ``tau`` <= ``hot.tau`` as a cut of the rows of ``hot``.

    ``energies`` is the ladder ``hot`` was enumerated from.  The cutoff
    grows and is certified exactly as in :func:`enumerate_ensemble`; every
    configuration below it is a row of ``hot`` as long as it stays within
    ``hot.e_cut``.  Returns ``(mask, weights)``, ``mask`` selecting the
    rows of ``hot`` and ``weights`` their Boltzmann weights at ``tau`` in
    row order, bit-identical to those of enumerating ``tau`` on its own;
    or None when the cutoff for ``tau`` grows past ``hot.e_cut`` and
    ``tau`` needs its own enumeration.

    Raises
    ------
    NeedsMoreLevelsError
        If ``energies`` is too short to certify the truncation at ``tau``.
    """
    if tau > hot.tau:
        raise ConfigError(f"cannot cool an ensemble at {hot.tau} to {tau}")
    n_particles = hot.levels.shape[1]
    if tau == 0.0:
        # The ground configuration is the first row in lexicographic order.
        mask = np.zeros(hot.size, dtype=bool)
        mask[0] = True
        return mask, np.array([1.0])

    def below(e):
        if e > hot.e_cut:
            return None
        mask = hot.excitations <= e
        return mask, hot.excitations[mask]

    cut = _grow_cutoff(
        np.asarray(energies, dtype=float), n_particles, tau, tail_bound, False, below
    )
    if cut is None:
        return None
    _, mask, _, terms, z = cut
    terms /= z
    return mask, terms


def ensemble_average(weights, per_config_values, out=None):
    """Weighted sum of per-configuration fidelities, in row order; the
    products go to ``out`` if given (it may be either input)."""
    return float(np.sum(np.multiply(weights, per_config_values, out=out)))
