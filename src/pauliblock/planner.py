"""Grid planner: size a scenario's Fourier grid from its energy range.

For a request of ``n_states`` levels the planner works in three steps.

1. **Energy ceiling.**  E_max is the energy at which the semiclassical
   (Bohr-Sommerfeld) level count ``N(E) = (1/pi) * int sqrt(2(E - V))_+ dx``
   reaches ``n_states``, taken as the larger of the two endpoint traps,
   plus the most energy the ramp can add (:func:`ramp_work`).
2. **Domain.**  The outermost classical turning points at E_max in both
   endpoint traps, each pushed outward by a tunnelling margin: far enough
   that the WKB decay ``int kappa dx``, ``kappa = sqrt(2(V - E_max))``,
   reaches ``ln(1/EDGE_AMPLITUDE_TOL)`` plus ``TUNNEL_SAFETY``.  A transport
   trap moves monotonically between its endpoints, so the hull of the two
   endpoint windows is the union along the path.
3. **Point count.**  The smallest even count with no prime factor above 5
   (``2^a 3^b 5^c``, a fast FFT size) whose momentum cut-off ``pi/dx``
   reaches ``K_SAFETY * (sqrt(2(E_max - V_min)) + v_max)``, with ``v_max``
   the peak trap speed (transport only), and which passes the state guard
   of ``spectral.solve`` (:func:`~pauliblock.spectral.holds_states`).  For
   the lowest levels, whose momentum spread is quantum rather than
   classical, a harmonic estimate of the momentum tail takes the place of
   the first term when it is larger.

This is the phase-space sampling criterion of the Fourier method (Kosloff,
J. Phys. Chem. 92, 2087 (1988); Marston and Balint-Kurti, J. Chem. Phys. 91,
3571 (1989)).  A plan is a starting point, not a guarantee: the
:class:`~pauliblock.pipeline.Engine` still widens or refines the grid when
a containment or resolution check trips during an eigensolve or a
propagation.

A thermal curve also needs to know, before any level is solved, how many
levels its hottest ensemble occupies: :func:`ensemble_level_count`
estimates it on the Bohr-Sommerfeld ladder of the initial trap.
"""

import math

import numpy as np

from .errors import ConfigError, NeedsMoreLevelsError
from .grid import EDGE_AMPLITUDE_TOL, Grid
from .potentials import RampShape, Task
from .spectral import KSPACE_EDGE_TOL, holds_states
from .thermal import estimated_level_count

# Nepers of WKB decay added beyond ln(1/EDGE_AMPLITUDE_TOL) in the margin.
TUNNEL_SAFETY = 4.0
# WKB decay required between an outer turning point and the domain edge.
MARGIN_ACTION = math.log(1.0 / EDGE_AMPLITUDE_TOL) + TUNNEL_SAFETY
# Momentum cut-off over the largest classical momentum of the run.
K_SAFETY = 1.5
# Samples per scan of a trap potential.
SAMPLES = 4097
# Doublings of the scan radius before a trap counts as not confining.
MAX_DOUBLINGS = 40
# Energies at which :func:`semiclassical_ladder` tabulates the level count.
LADDER_ENERGIES = 64


def plan_grid(schedule, n_states, n_points=None):
    """Grid for the lowest ``n_states`` levels of ``schedule``'s traps.

    ``n_points`` overrides the planned point count on the planned domain.
    """
    if n_states < 1:
        raise ConfigError(f"cannot plan a grid for {n_states} states")
    traps = [_endpoint_trap(schedule, t) for t in (0.0, schedule.T)]
    e_max = max(_ceiling(trap, n_states) for trap in traps)
    e_max += ramp_work(schedule)
    windows = [_window(trap, e_max) for trap in traps]
    lo = min(w[0] for w in windows)
    hi = max(w[1] for w in windows)
    if n_points is None:
        n_points = _fft_size(momentum_bound(schedule, e_max) * (hi - lo) / math.pi)
        while not holds_states(n_points, n_states):
            n_points = _fft_size(n_points + 1)
    return Grid(lo, hi, n_points)


def momentum_bound(schedule, e_max):
    """Momentum cut-off the lattice needs for the levels below ``e_max``."""
    traps = [_endpoint_trap(schedule, t) for t in (0.0, schedule.T)]
    k_need = max(_momentum_reach(trap, e_max) for trap in traps)
    return k_need + K_SAFETY * peak_speed(schedule)


def _fft_size(minimum):
    """Smallest even ``2^a 3^b 5^c`` not below ``minimum``."""
    n = max(2, math.ceil(minimum))
    n += n % 2
    while not _five_smooth(n):
        n += 2
    return n


def peak_speed(schedule):
    """Largest trap speed |dx0/dt| along the schedule (0 unless transport)."""
    if schedule.task is not Task.TRANSPORT:
        return 0.0
    distance = abs(schedule.x0_f - schedule.x0_i)
    if schedule.shape is RampShape.LINEAR:
        return distance / schedule.T
    return distance * math.pi / (2.0 * schedule.T)


def ramp_work(schedule):
    """Most energy the ramp can give a classical particle, beyond transport.

    Raising the splitting barrier adds at most its height change; an
    expanding trap only lowers the potential, and the work of a moving
    trap enters through :func:`peak_speed` instead.
    """
    if schedule.task is Task.SPLITTING:
        return abs(schedule.h_f - schedule.h_i)
    return 0.0


def level_count(potential, center, energy):
    """Semiclassical number of levels below ``energy``."""
    return _level_count(_Trap(potential, center), energy)


def _level_count(trap, energy):
    return _count(*_scan(trap, energy), energy)


def energy_ceiling(potential, center, n_states):
    """Energy at which :func:`level_count` reaches ``n_states``."""
    return _ceiling(_Trap(potential, center), n_states)


def _ceiling(trap, n_states):
    high = 1.0
    for _ in range(MAX_DOUBLINGS):
        if _level_count(trap, high) >= n_states:
            break
        high *= 2.0
    else:
        raise ConfigError(f"no energy holds {n_states} levels of this trap")
    return _bisect(lambda e: _level_count(trap, e) >= n_states, 0.0, high)


def semiclassical_ladder(potential, center, n_levels):
    """Bohr-Sommerfeld energies of the lowest ``n_levels`` levels of a trap.

    Level k (1-based) sits where :func:`level_count` reaches k - 1/2,
    which is exact for a harmonic trap.  The count is tabulated on
    ``LADDER_ENERGIES`` energies up to the first doubling of the energy
    that holds ``n_levels`` levels, and inverted by linear interpolation.
    """
    return _ladder(_Trap(potential, center), n_levels)


def _ladder(trap, n_levels):
    top, radius = 1.0, 1.0
    for _ in range(MAX_DOUBLINGS):
        x, v = _scan(trap, top, radius)
        if _count(x, v, top) >= n_levels:
            break
        top *= 2.0
        radius = trap.center - x[0]
    else:
        raise ConfigError(f"no energy holds {n_levels} levels of this trap")
    v = v[v < top]  # the samples that count at some tabulated energy
    energies = np.linspace(v.min(), top, LADDER_ENERGIES)
    return np.interp(np.arange(n_levels) + 0.5, _count(x, v, energies), energies)


def ensemble_level_count(schedule, n_particles, tau, tail_bound):
    """Levels a thermal ensemble of ``n_particles`` fermions at ``tau`` in
    the schedule's initial trap is estimated to need.

    The truncation certificate of
    :func:`~pauliblock.thermal.enumerate_ensemble` runs on the
    :func:`semiclassical_ladder` of the trap, counting configurations
    instead of enumerating them
    (:func:`~pauliblock.thermal.estimated_level_count`); a ladder too short
    to tell is built again twice as long as the count it reports.
    """
    trap = _endpoint_trap(schedule, 0.0)
    n_levels = 2 * (n_particles + 1)
    while True:
        ladder = _ladder(trap, n_levels)
        try:
            return estimated_level_count(ladder, n_particles, tau, tail_bound)
        except NeedsMoreLevelsError as exc:
            n_levels = 2 * exc.required


class _Trap:
    """A trap potential about its center, sampled once per scan radius.

    A plan scans the same trap at many energies (the ceiling's bisection
    alone makes some two hundred scans) but at few radii; the samples
    (x, V) of each radius are kept for the life of the object, which is
    one plan or one public call.
    """

    def __init__(self, potential, center):
        self.potential = potential
        self.center = center
        self._samples = {}

    def samples(self, radius):
        """(x, V) on ``SAMPLES`` points within ``radius`` of the center."""
        if radius not in self._samples:
            x = np.linspace(self.center - radius, self.center + radius, SAMPLES)
            self._samples[radius] = x, self.potential(x)
        return self._samples[radius]


def _endpoint_trap(schedule, t):
    return _Trap(lambda x: schedule.evaluate_at(x, t), schedule.center(t))


def _scan(trap, energy, radius=1.0):
    """Samples (x, V) around the trap's center reaching past its outermost
    wells.

    Both ends must be classically forbidden and the potential must rise
    outward there; the traps of all three tasks rise monotonically beyond
    their outermost minimum, so no allowed region lies further out.
    """
    for _ in range(MAX_DOUBLINGS):
        x, v = trap.samples(radius)
        if min(v[0], v[-1]) > energy and v[0] > v[1] and v[-1] > v[-2]:
            return x, v
        radius *= 2.0
    raise ConfigError("the trap does not confine at the requested energy")


def _window(trap, energy):
    """Outermost turning points at ``energy`` widened by the tunnelling margin."""
    radius = 1.0
    for _ in range(MAX_DOUBLINGS):
        x, v = _scan(trap, energy, radius)
        radius = trap.center - x[0]
        allowed = np.nonzero(v <= energy)[0]
        kappa = np.sqrt(2.0 * np.maximum(v - energy, 0.0))
        right = _reach(x[allowed[-1]:], kappa[allowed[-1]:], MARGIN_ACTION)
        left = _reach(x[allowed[0]::-1], kappa[allowed[0]::-1], MARGIN_ACTION)
        if left is not None and right is not None:
            return left, right
        radius *= 2.0
    raise ConfigError("the trap does not confine at the requested energy")


def _momentum_reach(trap, energy):
    """Momentum the lattice must reach for the levels of a trap below ``energy``.

    The larger of ``K_SAFETY`` times the classical momentum at the bottom of
    the trap and the momentum where the harmonic estimate of the k-space
    tail, ``int sqrt(k^2 - p^2) dk / omega``, reaches
    ``ln(1/KSPACE_EDGE_TOL) + TUNNEL_SAFETY``; the second bound governs
    the lowest levels, whose momentum spread is quantum, not classical.
    ``omega`` is the larger of the frequency at the bottom of the trap and
    the Bohr-Sommerfeld level spacing ``1/N'(energy)``: a trap stiffer than
    harmonic, such as a quartic one, spaces its upper levels wider than its
    bottom curvature suggests, and their momentum tails reach further.
    """
    x, v = _scan(trap, energy)
    bottom = int(np.argmin(v))
    p = math.sqrt(2.0 * (energy - v[bottom]))
    h = x[1] - x[0]
    sides = trap.potential(x[bottom] + h) + trap.potential(x[bottom] - h)
    curvature = (sides - 2.0 * v[bottom]) / h**2
    step = 1e-2 * (energy - v[bottom])
    spacing = step / (_count(x, v, energy) - _count(x, v, energy - step))
    omega = max(math.sqrt(max(curvature, 0.0)), spacing)
    needed = omega * (math.log(1.0 / KSPACE_EDGE_TOL) + TUNNEL_SAFETY)

    def tail_reached(k):
        s = math.sqrt(k * k - p * p)
        return 0.5 * (k * s - p * p * math.log((k + s) / p)) >= needed

    # The tail integral exceeds (k - p)^2 / 2, which brackets the root.
    k_tail = _bisect(tail_reached, p, p + math.sqrt(2.0 * needed) + 1.0)
    return max(K_SAFETY * p, k_tail)


def _count(x, v, energy):
    """Bohr-Sommerfeld level count below ``energy`` on the samples (x, V);
    an array of energies gives an array of counts."""
    momentum = np.sqrt(2.0 * np.maximum(np.subtract.outer(energy, v), 0.0))
    return momentum.sum(axis=-1) * (x[1] - x[0]) / math.pi


def _reach(x, kappa, needed):
    """First x along the samples where the decay integral reaches ``needed``."""
    action = np.concatenate(
        ([0.0], np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * np.abs(np.diff(x))))
    )
    hit = np.nonzero(action >= needed)[0]
    return float(x[hit[0]]) if hit.size else None


def _bisect(reached, low, high, rel_tol=1e-6):
    """Smallest x in [low, high] with ``reached(x)`` for a monotone test."""
    while high - low > rel_tol * high:
        middle = 0.5 * (low + high)
        if reached(middle):
            high = middle
        else:
            low = middle
    return high


def _five_smooth(n):
    for prime in (2, 3, 5):
        while n % prime == 0:
            n //= prime
    return n == 1
