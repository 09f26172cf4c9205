"""Grid planner: size a family's Fourier grid from the states it holds.

A family's grid holds two sides: the lowest ``n_levels`` levels of the
initial trap, which the overlaps read, and the lowest ``n_targets``
levels of the final trap, which are evolved backward under the reversed
schedule.  The planner works in three steps.

1. **Energy ceilings.**  Each side's E_max is the energy at which the
   semiclassical (Bohr-Sommerfeld) level count
   ``N(E) = (1/pi) * int sqrt(2(E - V))_+ dx`` of its trap reaches its
   level count.
2. **Domain.**  The outermost classical turning points at each side's
   E_max in its trap, each pushed outward by a tunnelling margin: far
   enough that the WKB decay ``int kappa dx``, ``kappa = sqrt(2(V -
   E_max))``, reaches ``ln(1/EDGE_AMPLITUDE_TOL)`` plus ``TUNNEL_SAFETY``.
   A transport trap moves monotonically between its endpoints, so the hull
   of the two windows is the union along the path.  The domain also spans
   every position the targets' classical flow (step 3) reaches.
3. **Point count.**  The smallest even count with no prime factor above 5
   (``2^a 3^b 5^c``, a fast FFT size) whose momentum cut-off ``pi/dx``
   reaches each side's static reach and the targets' classical flow, and
   which passes the state guard of ``spectral.solve``
   (:func:`~pauliblock.spectral.holds_states`).  The flow follows
   classical particles on the targets' momentum-tail shell through the
   reversed schedule (:func:`flow_reach`), so it sees the momentum that a
   ramp pumps into the evolved states, which neither endpoint trap shows.
   A sweep plans a family once, for the largest bound over its schedules.

This is the phase-space sampling criterion of the Fourier method (Kosloff,
J. Phys. Chem. 92, 2087 (1988); Marston and Balint-Kurti, J. Chem. Phys. 91,
3571 (1989)), applied to the states that are evolved.  A plan is a starting
point, not a guarantee: the :class:`~pauliblock.pipeline.Engine` still
widens or refines the grid when a containment or resolution check trips
during an eigensolve or a propagation.

A thermal curve also needs to know, before any level is solved, how many
levels its hottest temperature needs: :func:`ensemble_level_count` reads the
Fermi level from the Bohr-Sommerfeld ladder of the initial trap and
sizes the ladder by the closed-form occupation bound that later
certifies the solved one.
"""

import math

import numpy as np

from .errors import ConfigError
from .grid import EDGE_AMPLITUDE_TOL, Grid
from .spectral import KSPACE_EDGE_TOL, holds_states
from .thermal import levels_needed

# Nepers of WKB decay added beyond ln(1/EDGE_AMPLITUDE_TOL) in the margin.
TUNNEL_SAFETY = 4.0
# WKB decay required between an outer turning point and the domain edge.
MARGIN_ACTION = math.log(1.0 / EDGE_AMPLITUDE_TOL) + TUNNEL_SAFETY
# Momentum cut-off over the classical momentum at the bottom of a trap.
K_SAFETY = 1.5
# Nepers of harmonic k-space tail decay a lattice must reach beyond a
# classical momentum.
TAIL_ACTION = math.log(1.0 / KSPACE_EDGE_TOL) + TUNNEL_SAFETY
# Classical particles, and least velocity-Verlet steps, of the targets' flow.
FLOW_PARTICLES = 256
FLOW_STEPS = 250
# Largest phase sqrt(V'') * dt of one flow step.
FLOW_PHASE = 1.0
# Samples per scan of a trap potential.
SAMPLES = 4097
# Doublings of the scan radius before a trap counts as not confining.
MAX_DOUBLINGS = 40


def plan_grid(schedules, n_levels, n_targets, n_points=None):
    """Grid for a family's runs: the lowest ``n_levels`` levels of its
    initial trap, and its lowest ``n_targets`` final levels evolved backward
    under each of ``schedules`` (schedules of one family: same traps).

    ``n_points`` overrides the planned point count on the planned domain.
    """
    lo, hi, k_need = plan_reach(schedules, n_levels, n_targets)
    if n_points is None:
        n_points = _fft_size(k_need * (hi - lo) / math.pi)
        while not holds_states(n_points, max(n_levels, n_targets)):
            n_points = _fft_size(n_points + 1)
    return Grid(lo, hi, n_points)


def plan_reach(schedules, n_levels, n_targets):
    """(x_lo, x_hi, k_need): the domain and the momentum cut-off that
    :func:`plan_grid` plans for (see the module docstring).

    Each side spans its WKB window at its energy ceiling and needs its
    static momentum reach: the larger of ``K_SAFETY`` times the classical
    momentum at the bottom of its trap and its harmonic tail momentum
    (:func:`_tail_momentum`), which governs the lowest levels, whose
    momentum spread is quantum, not classical.  With targets, their tail
    shell V_min + k_tail^2/2 in the final trap is flowed backward through
    each schedule (:func:`flow_reach`): the domain also spans every
    position the flow reaches, and the cut-off covers its largest
    momentum widened by the harmonic tail at the larger of the two traps'
    frequencies.
    """
    if n_levels < 1 or n_targets < 0:
        raise ConfigError(
            f"cannot plan a grid for {n_levels} levels and {n_targets} targets"
        )
    first = schedules[0]
    sides = [(_endpoint_trap(first, 0.0), n_levels)]
    if n_targets:
        sides.append((_endpoint_trap(first, first.T), n_targets))
    spans, omegas, k_need = [], [], 0.0
    for trap, n_states in sides:
        energy = _ceiling(trap, n_states)
        spans.append(_window(trap, energy))
        v_min, omega = _bottom(trap, energy)
        p = math.sqrt(2.0 * (energy - v_min))
        k_tail = _tail_momentum(p, omega)
        omegas.append(omega)
        k_need = max(k_need, K_SAFETY * p, k_tail)
    if n_targets:
        # trap, v_min and k_tail are the targets' side's, the last one.
        shell = v_min + 0.5 * k_tail**2
        for schedule, (p_flow, x_min, x_max) in zip(
            schedules, flow_reach(schedules, trap, shell)
        ):
            if schedule.is_symmetric:  # keep the domain symmetric about 0
                x_max = max(-x_min, x_max)
                x_min = -x_max
            spans.append((x_min, x_max))
            k_need = max(k_need, _tail_momentum(p_flow, max(omegas)))
    return min(s[0] for s in spans), max(s[1] for s in spans), k_need


def flow_reach(schedules, trap, energy):
    """(largest |p|, least x, largest x) of classical particles on the
    shell ``energy`` of the final ``trap``, evolved under the reverse of
    each of ``schedules`` (one family): one triple per schedule.

    ``FLOW_PARTICLES`` particles sit at evenly spaced allowed positions of
    the shell, half moving each way, and take ``FLOW_STEPS`` equal
    velocity-Verlet steps with central-difference forces; the extremes are
    taken over every step.  The schedules flow in one pass: one call of
    :meth:`~pauliblock.potentials.PotentialSchedule.control_value` gives
    each schedule the column of its control values c(k*dt) over the pass,
    and at each step k one evaluation of the family's trap gives each
    schedule's particles their potential at its own c(k*dt).  Where a step
    would turn some particle's phase by more than ``FLOW_PHASE`` at the
    stiffest local curvature sqrt(V''), that schedule's flow leaves the
    pass and starts again with twice the steps.
    """
    reverses = [schedule.time_reversed() for schedule in schedules]
    x, v = _scan(trap, energy)
    allowed = np.flatnonzero(v <= energy)
    x = x[allowed[np.linspace(0, allowed.size - 1, FLOW_PARTICLES // 2).astype(int)]]
    p = np.sqrt(2.0 * np.maximum(energy - trap.potential(x), 0.0))
    start = np.concatenate((x, x)), np.concatenate((p, -p))
    h = 1e-4 * max(1.0, float(np.max(np.abs(x))))
    stencil = np.array([-h, 0.0, h])
    reaches = [None] * len(schedules)
    todo = list(range(len(schedules)))
    steps = FLOW_STEPS
    while todo:
        flowing, restart = todo, []
        dts = [schedules[i].T / steps for i in flowing]
        # Second differences of V above this turn a phase past FLOW_PHASE.
        stiff = np.array([(FLOW_PHASE * h / dt) ** 2 for dt in dts])
        dt = np.array(dts)[:, None]
        kick = 0.25 * dt / h
        # Each schedule's control values at every step of the pass, a row.
        times = np.arange(steps + 1)
        controls = np.array(
            [reverses[i].control_value(times * t) for i, t in zip(flowing, dts)]
        )
        x, p = (np.repeat(a[None], len(flowing), axis=0) for a in start)
        p_lo, p_hi, x_lo, x_hi = p.copy(), p.copy(), x.copy(), x.copy()
        for step in range(steps + 1):
            v = reverses[0].trap(x[:, :, None] + stencil)(controls[:, step, None, None])
            half_kick = (v[..., 0] - v[..., 2]) * kick
            if step:
                p += half_kick
                np.minimum(p_lo, p, out=p_lo)
                np.maximum(p_hi, p, out=p_hi)
                np.minimum(x_lo, x, out=x_lo)
                np.maximum(x_hi, x, out=x_hi)
            tripped = np.max(v[..., 0] + v[..., 2] - 2.0 * v[..., 1], axis=1) > stiff
            if tripped.any():
                restart += [i for i, out in zip(flowing, tripped) if out]
                keep = ~tripped
                flowing = [i for i, kept in zip(flowing, keep) if kept]
                stiff, dt, kick, controls, x, p, p_lo, p_hi, x_lo, x_hi, half_kick = (
                    a[keep]
                    for a in (
                        stiff, dt, kick, controls, x, p, p_lo, p_hi, x_lo, x_hi,
                        half_kick,
                    )
                )
                if not flowing:
                    break
            if step < steps:
                p += half_kick
                x += dt * p
        for row, i in enumerate(flowing):
            p_max = max(-p_lo[row].min(), p_hi[row].max())
            reaches[i] = float(p_max), float(x_lo[row].min()), float(x_hi[row].max())
        todo = restart
        steps *= 2
    return reaches


def _fft_size(minimum):
    """Smallest even ``2^a 3^b 5^c`` not below ``minimum``."""
    n = max(2, math.ceil(minimum))
    n += n % 2
    while not _five_smooth(n):
        n += 2
    return n


def _level_count(trap, energy):
    """Semiclassical number of levels below ``energy``."""
    return _count(*_scan(trap, energy), energy)


def _ceiling(trap, n_states):
    """Energy at which :func:`_level_count` reaches ``n_states``."""
    high = 1.0
    for _ in range(MAX_DOUBLINGS):
        if _level_count(trap, high) >= n_states:
            break
        high *= 2.0
    else:
        raise ConfigError(f"no energy holds {n_states} levels of this trap")
    return _bisect(lambda e: _level_count(trap, e) >= n_states, 0.0, high)


def ensemble_level_count(schedule, n_particles, tau, tail_bound):
    """Levels a thermal ensemble of ``n_particles`` fermions at ``tau`` in
    the schedule's initial trap is estimated to need: the occupation bound
    of :func:`~pauliblock.thermal.levels_needed`, with E_N the
    Bohr-Sommerfeld energy of level N, where :func:`_level_count` reaches
    N - 1/2 (exact for a harmonic trap).
    """
    e_fermi = _ceiling(_endpoint_trap(schedule, 0.0), n_particles - 0.5)
    return levels_needed(
        e_fermi, n_particles, tau, tail_bound, *schedule.harmonic_floor()
    )


class _Trap:
    """A trap potential about its center, sampled once per scan radius.

    A plan scans the same trap at many energies (the ceiling's bisection
    alone makes some two hundred scans) but at few radii; the samples
    (x, V) of each radius are kept for the life of the object, which is
    one plan or one level-count estimate.
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
    return _Trap(lambda x: schedule.potential(x)(t), schedule.center(t))


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


def _bottom(trap, energy):
    """(V_min, omega) of a trap whose levels reach ``energy``.

    ``omega`` is the larger of the frequency at the bottom of the trap and
    the Bohr-Sommerfeld level spacing ``1/N'(energy)``: a trap stiffer than
    harmonic, such as a quartic one, spaces its upper levels wider than its
    bottom curvature suggests, and their momentum tails reach further.
    """
    x, v = _scan(trap, energy)
    bottom = int(np.argmin(v))
    h = x[1] - x[0]
    sides = trap.potential(x[bottom] + h) + trap.potential(x[bottom] - h)
    curvature = (sides - 2.0 * v[bottom]) / h**2
    step = 1e-2 * (energy - v[bottom])
    spacing = step / (_count(x, v, energy) - _count(x, v, energy - step))
    return float(v[bottom]), max(math.sqrt(max(curvature, 0.0)), spacing)


def _tail_momentum(p, omega):
    """Momentum where the harmonic estimate of the k-space tail beyond the
    classical momentum ``p``, ``int sqrt(k^2 - p^2) dk / omega``, reaches
    ``TAIL_ACTION``."""
    needed = omega * TAIL_ACTION

    def tail_reached(k):
        s = math.sqrt(k * k - p * p)
        return 0.5 * (k * s - p * p * math.log((k + s) / p)) >= needed

    # The tail integral exceeds (k - p)^2 / 2, which brackets the root.
    return _bisect(tail_reached, p, p + math.sqrt(2.0 * needed) + 1.0)


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
