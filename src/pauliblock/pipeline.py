"""Scenario assembly: grids, eigensolves, propagation and overlaps.

Pauli blocking makes a fidelity depend only on where the N_p protected
targets go, so every fidelity, zero temperature included, reads its
overlaps A[j, i] = <U psi_j|phi_i> = psi_j conj(U_rev phi_i) dx from one
run: the N_p lowest final eigenstates evolved under the reversed schedule
(:meth:`Engine.master_overlaps`).  N_p = 0 makes no run.

The :class:`Engine` memoizes the expensive pieces within one run in one
record per schedule family, the frozen
:class:`~pauliblock.potentials.PotentialSchedule` with its ramp shape and
duration fixed (same traps, same grids).  A record holds the family grid,
the schedules, level count and target count it was planned for, and its
escalation count; the initial eigenbasis, solved for the planned levels,
and the final one, solved for the planned targets (a request for K
states slices that solve); and one dict of the targets' runs, keyed by
schedule and dt (a request for M targets slices a cached run with >= M),
each holding its evolved targets or the error its run tripped.

Each family's grid comes from :func:`~pauliblock.planner.plan_grid`, for
every schedule it was planned with (a sweep plans each family once, for
all its schedules); a later request for more levels or targets than the
grid was planned for plans it again.  Grids escalate automatically, in
eigensolves and in propagation alike, on the error of the one grid check
both apply (:func:`~pauliblock.spectral.check_grid`): a position-space
leak doubles the domain, momentum-space undersampling doubles the point
count, and when both trip the one exceeding its tolerance by the larger
factor names the cause.
Re-planning or escalating replaces the whole record.  The planner, the
eigensolves and the propagator all read a trap from its one formula,
:meth:`~pauliblock.potentials.PotentialSchedule.potential`.
Every fidelity is a point of a thermal curve
(:meth:`Engine.thermal_fidelity_curve`), and the curve is the one path
into every fidelity: zero temperature is the ground configuration's
det(A^dagger A), read off the master's first N rows; above it, each
temperature is projected onto N fermions over the planned ladder
(:func:`~pauliblock.thermal.projected_fidelity`).  A closed-form
occupation bound certifies that ladder once, on the energies of the levels
the overlaps were read from; a ladder it finds short is planned again,
once, and read again.  Each value is range-checked once
(:func:`~pauliblock.fidelity.check_range`).  A curve runs at the dt it
is handed.  The time-step check belongs to the method that plans the
runs of a set of curves (:meth:`Engine.validated_settings`), which every
sweep calls: it plans their families first, for the levels the hottest
temperature is estimated to need, so the check runs on the grid the
curves then use.  The check compares rungs of halving dt from a coarse
one at 2·dt down (:meth:`Engine._converge_dt`), so a dt it keeps at the
first pair costs a run half as long as the curves', not one twice as
long.

Work whose parts do not depend on each other runs in lanes, one per
CPU this process may use (:func:`default_workers`): this process runs
the first lane, and each other lane is a bare fork of it that sends its
result back through a pipe (:func:`_in_lanes`); on one CPU everything is
one lane here.  Every run is evolved by a batch
(:meth:`Engine.propagate_batch`), in lanes.  Propagations that do not
depend on each other, such as the first two rungs of the time-step check
and the schedules of a sweep, go as one batch; a miss of
the in-order path is a batch of its one run.  A lane evolves its runs on
one grid as one stack, the rows of one array (``propagate_basis`` with
``also``), and a run that trips leaves the stack with its error while
the others carry on.  So a lane is priced by what its stacks cost, not by
the sum of its runs (:func:`_share`): a stack step costs mostly numpy's
fixed cost per call, so a stack costs a fixed amount for each step of its
longest run plus an amount for each step of each packed row
(:func:`~pauliblock.propagate.stack_cost`).  The runs are shared out
costliest first, each to the lane whose price with it is least; on the
expansion sweep the longest run evolves alone in this process while the
others share one stack in a fork.  A batch only fills the run cache;
the in-order path then reads its runs there and raises a cached error,
which the escalation answers with a new record, so each run is evolved
at most once per grid, and results, escalations and errors do not depend
on the CPU count.  The thermal curves then run in order in this process.
"""

import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import spectral
from .errors import (
    ConfigError,
    ContainmentError,
    EdgeAmplitudeError,
    NeedsMoreLevelsError,
    SimulationError,
    TimeStepError,
)
from .fidelity import (
    FidelityResult,
    OverlapMatrix,
    # Not called here: perfbench/spans.py wraps this name and raises if it
    # is missing, until an in-program trace replaces the patched names.
    fidelity_fast,
    gram_fidelity_values,
)
from .grid import Grid
from .planner import ensemble_level_count, plan_grid
from .potentials import RampShape
from .propagate import PropagationSettings, propagate_basis, stack_cost
from .thermal import (
    DEFAULT_TAIL_BOUND,
    check_tail_bound,
    check_temperatures,
    # Called once per curve for its ground configuration, through this
    # name: perfbench/spans.py wraps it and reads the returned ``.size`` as
    # ``thermal.configs``, perfbench/workloads.py lists it as a layer of
    # ``thermal_split_comp`` and ``smoke``, and two traced CI steps count
    # its calls.
    enumerate_ensemble,
    levels_needed,
    projected_fidelity,
)

# Doublings of a family's grid (domain or point count) allowed after it
# was planned; one more failed check raises.
MAX_ESCALATIONS = 4
# Levels planned beyond the semiclassical estimate of what a thermal
# ensemble needs: one level absorbs a Bohr-Sommerfeld error of up to one
# level spacing in the Fermi level.
LEVEL_MARGIN = 1
# Largest change of the overlaps between dt and dt/2 that the time-step
# check accepts (:meth:`Engine._converge_dt`).
DT_TOLERANCE = 1e-4


def _family(schedule):
    # Everything but the ramp shape and duration: same traps, same grids.
    return replace(schedule, shape=RampShape.LINEAR, T=1.0)


@dataclass
class _FamilyRecord:
    """One family's grid and what was computed on it (see module docstring)."""

    grid: Grid
    schedules: tuple
    n_planned: int
    n_targets: int
    escalations: int = 0
    initial: spectral.EigenBasis = None
    final: spectral.EigenBasis = None
    # (schedule, dt) -> the targets evolved backward
    runs: dict = field(default_factory=dict)

    def lacks(self, key, n_targets):
        """Whether run ``key`` holds fewer than ``n_targets`` targets; a run
        that tripped holds its error, which answers every request."""
        run = self.runs.get(key, ())
        return not isinstance(run, SimulationError) and len(run) < n_targets


def _lowest(basis, n_states):
    return replace(
        basis, energies=basis.energies[:n_states], states=basis.states[:n_states]
    )


def _solve(schedule, grid, t, n_states):
    """The lowest ``n_states`` eigenpairs of the trap at time ``t`` (none
    for 0)."""
    if n_states == 0:
        return spectral.EigenBasis(grid, np.empty(0), np.empty((0, grid.n_points)))
    return spectral.solve(schedule.evaluate(grid, t), grid, n_states)


def default_workers():
    """The number of CPUs this process may run on (1 where the platform
    cannot tell)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _share(runs, n_lanes):
    """Indices of ``runs``, ``(basis, n_states, schedule, settings)``
    tuples, shared out over ``n_lanes`` lanes; each lane's indices in
    ascending order.

    A lane is priced by what its stacks cost
    (:func:`~pauliblock.propagate.stack_cost`), not by the sum of its runs:
    it evolves its runs on one grid as one stack, whose steps cost mostly a
    fixed amount.  The runs go costliest first, as in Graham's
    longest-first rule, each to the first lane whose price with it is
    least.
    """
    lanes = [[] for _ in range(n_lanes)]
    for index in sorted(range(len(runs)), key=lambda i: -stack_cost([runs[i]])):
        prices = [stack_cost([runs[i] for i in lane + [index]]) for lane in lanes]
        lanes[prices.index(min(prices))].append(index)
    return [sorted(lane) for lane in lanes]


def _in_lanes(tasks):
    """Call each of ``tasks``, zero-argument callables, in a lane of its
    own: the first in this process, each other in a child forked from it
    that sends its result back through a pipe, pickled, and ends with
    ``os._exit``.

    Forked, not spawned: a spawned child imports numpy and this package
    again, 0.06-0.15 s, which is more than a small lane takes.  Returns
    the results in order; a child that raised or died gives None.  Every
    child is reaped before this returns; when the first task raises, the
    children are killed first, as nothing would read their results.
    """
    pids, pipes, payloads = [], [], None
    try:
        for task in tasks[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                code = 1
                try:
                    payload = pickle.dumps(task(), pickle.HIGHEST_PROTOCOL)
                    with open(write, "wb") as pipe:
                        pipe.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            pids.append(pid)
            pipes.append(open(read, "rb"))
        results = [tasks[0]()]
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = []
        for pid in pids:
            if payloads is None:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for status, payload in zip(statuses, payloads):
        results.append(pickle.loads(payload) if status == 0 else None)
    return results


def _propagate_runs(runs):
    """Evolve each ``(basis, n_states, schedule, settings)`` run, the runs
    on one grid as one stack: one ``propagate_basis`` call with the others
    ``also``, in the order given.

    Returns one entry per run: its evolved states, or the
    :class:`SimulationError` it tripped.
    """
    stacks = {}
    for index, (basis, *_) in enumerate(runs):
        stacks.setdefault(basis.grid, []).append(index)
    results = [None] * len(runs)
    for indices in stacks.values():
        stack = [runs[i] for i in indices]
        for index, states in zip(indices, propagate_basis(*stack[0], also=stack[1:])):
            results[index] = states
    return results


def check_counts(n_protected, n_buffer):
    """Raise :class:`ConfigError` unless N_p and N_b are >= 0 with at
    least one fermion."""
    if n_protected < 0 or n_buffer < 0 or n_protected + n_buffer < 1:
        raise ConfigError(
            f"invalid particle counts N_p={n_protected}, N_b={n_buffer}; "
            "need N_p >= 0, N_b >= 0 and N_p + N_b >= 1"
        )


class Engine:
    """Caching scenario runner; cheap to create, reusable across sweeps."""

    def __init__(self, n_points=None, settings=None):
        self.n_points = n_points
        self.settings = settings or PropagationSettings()
        self._families = {}  # family -> _FamilyRecord

    def family_grid(self, schedule):
        """Current grid of the schedule's family, or None before any request."""
        record = self._families.get(_family(schedule))
        return record.grid if record else None

    def _plan(self, schedules, n_levels, n_targets):
        """The record of the family of ``schedules``, planned (again) for
        all of them if it holds fewer than ``n_levels`` levels or
        ``n_targets`` targets.  A new plan also covers the schedules and
        counts of the record it replaces."""
        family = _family(schedules[0])
        record = self._families.get(family)
        if record is not None:
            if record.n_planned >= n_levels and record.n_targets >= n_targets:
                return record
            schedules = record.schedules + tuple(schedules)
            n_levels = max(n_levels, record.n_planned)
            n_targets = max(n_targets, record.n_targets)
        schedules = tuple(dict.fromkeys(schedules))
        grid = plan_grid(schedules, n_levels, n_targets, self.n_points)
        record = _FamilyRecord(grid, schedules, n_levels, n_targets)
        self._families[family] = record
        return record

    def _with_escalation(self, schedule, n_levels, n_targets, work):
        """``work(record)`` on the family record, planned (again) for
        ``n_levels`` levels and ``n_targets`` targets if it holds fewer, its
        endpoint bases solved.

        A leak out of the domain or off the momentum lattice, in an
        eigensolve or in ``work`` (the error of
        :func:`~pauliblock.spectral.check_grid`), widens or refines the
        grid in a new record, up to ``MAX_ESCALATIONS`` times; then it is
        raised.
        """
        record = self._plan((schedule,), n_levels, n_targets)
        while True:
            try:
                if record.initial is None:
                    record.initial, record.final = (
                        _solve(schedule, record.grid, t, n_states)
                        for t, n_states in (
                            (0.0, record.n_planned), (schedule.T, record.n_targets)
                        )
                    )
                return work(record)
            except EdgeAmplitudeError as exc:
                if record.escalations == MAX_ESCALATIONS:
                    raise
                if isinstance(exc, ContainmentError):
                    grid = record.grid.widened()
                else:
                    grid = record.grid.refined()
                record = _FamilyRecord(
                    grid, record.schedules, record.n_planned, record.n_targets,
                    record.escalations + 1,
                )
                self._families[_family(schedule)] = record

    def endpoint_bases(self, schedule, n_initial, n_targets):
        """(grid, initial basis, target basis) with automatic escalation.

        Each basis is solved for the count the family grid was planned for
        and sliced to the request, so its bits do not depend on which
        request came first.
        """

        def bases(record):
            return (
                record.grid,
                _lowest(record.initial, n_initial),
                _lowest(record.final, n_targets),
            )

        return self._with_escalation(schedule, n_initial, n_targets, bases)

    # -- propagation ---------------------------------------------------------

    def evolved_states(self, schedule, n_targets, settings):
        """The lowest ``n_targets`` final eigenstates evolved under
        ``schedule.time_reversed()`` on the family's current grid
        (:meth:`endpoint_bases` solves it), cached.  A miss is a batch of
        this one run (:meth:`propagate_batch`).  A run that tripped raises
        its cached error here; the caller's escalation answers it."""
        record = self._families[_family(schedule)]
        key = (schedule, settings.dt)
        if record.lacks(key, n_targets):
            self.propagate_batch([(schedule, settings.dt, n_targets)])
        states = record.runs[key]
        if isinstance(states, SimulationError):
            raise states
        return states[:n_targets]

    def propagate_batch(self, runs):
        """Fill the run cache for ``runs``, ``(schedule, dt, n_targets)``
        tuples (:meth:`evolved_states`), in up to :func:`default_workers`
        lanes at once.

        A lane (:func:`_in_lanes`) evolves its runs on one grid as one
        stack (:func:`_propagate_runs`), in the order they were asked for,
        and a stack costs a fixed amount for each step of its longest run
        plus an amount for each step of each packed row
        (:func:`~pauliblock.propagate.stack_cost`).  The runs are shared out
        costliest first, each to the lane whose price, so counted, is least
        with it (:func:`_share`).  Runs of one schedule and dt merge into
        the one with the most targets; runs of no target and cached runs
        are skipped.  A run that trips caches its :class:`SimulationError`,
        which :meth:`evolved_states` raises; a run whose eigensolve raises
        one or whose lane dies fills nothing, so the in-order path batches
        it again, alone, and escalates or raises exactly as it would
        without the batch.
        """
        most = {}
        for schedule, dt, n_targets in runs:
            if n_targets:
                key = (schedule, dt)
                most[key] = max(n_targets, most.get(key, 0))
        todo = []
        for key, n_targets in most.items():
            schedule, dt = key
            try:
                record = self._with_escalation(schedule, 1, n_targets, lambda r: r)
            except SimulationError:
                continue
            if record.lacks(key, n_targets):
                run = (
                    record.final, n_targets, schedule.time_reversed(),
                    PropagationSettings(dt),
                )
                todo.append((key, run))
        if not todo:
            return
        lanes = [
            [todo[i] for i in lane]
            for lane in _share(
                [run for _, run in todo], min(default_workers(), len(todo))
            )
        ]
        evolved = _in_lanes([
            partial(_propagate_runs, [run for _, run in lane]) for lane in lanes
        ])
        done = []
        for lane, states in zip(lanes, evolved):
            if states is not None:  # a dead lane's runs go in order
                done += zip(lane, states)
        for (key, (basis, n_targets, *_)), states in done:
            record = self._families[_family(key[0])]
            # A family re-planned or escalated since its run keeps nothing,
            # and a cached run is never replaced by one with fewer targets.
            if basis is record.final and record.lacks(key, n_targets):
                record.runs[key] = states

    def validated_settings(
        self, schedules, n_total, n_protected, tau_max, settings, check_dt,
        tail_bound=DEFAULT_TAIL_BOUND,
    ):
        """``settings`` with a dt that passed the time-step check
        (:meth:`_converge_dt`), starting from ``settings.dt``, for thermal
        curves of ``n_total`` fermions up to ``tau_max`` on ``schedules``;
        the check runs on the first schedule listed.

        Each family is planned first, once for all its schedules
        (:meth:`plan_levels`).  A curve's run is its ``n_protected`` targets
        evolved backward.  The check's first two rungs, 2·dt and dt, join
        the curves' runs at ``settings.dt`` in one batch.  At any other
        validated dt, the curves' runs go as one batch of their own.  Each
        call checks dt anew; a repeated check finds its rungs cached.
        """
        families = {}
        for schedule in schedules:
            families.setdefault(_family(schedule), []).append(schedule)
        for members in families.values():
            self.plan_levels(members, n_total, n_protected, tau_max, tail_bound)

        def curve_runs(dt):
            return [(schedule, dt, n_protected) for schedule in schedules]

        dt = settings.dt
        if check_dt:
            self.propagate_batch(curve_runs(dt) + [
                (schedules[0], rung, n_protected) for rung in (2 * dt, dt)
            ])
            dt = self._converge_dt(schedules[0], n_protected, settings)
            if dt == settings.dt:  # the curves' runs went with the rungs
                return replace(settings, dt=dt)
        self.propagate_batch(curve_runs(dt))
        return replace(settings, dt=dt)

    def _converge_dt(self, schedule, n_targets, settings):
        """The dt the time-step check keeps for ``schedule``, from the
        change d(h, h/2) of the overlaps of every planned level with
        ``n_targets`` targets (the block every curve reads from) between
        adjacent rungs h and h/2 of the ladder 2·dt, dt, dt/2, ... down to
        dt/2^11; ``settings.dt`` when no target makes a run.

        The pairs are walked from (2·dt, dt) down.  A pair keeps h if
        h <= dt and d < ``DT_TOLERANCE``, the test of h against h/2; else
        it keeps h/2 if d < 4·``DT_TOLERANCE``: Strang steps are second
        order, so d(h, h/2) is close to 4·d(h/2, h/4), and this is the test
        of h/2, read one rung up, without evolving h/4.  Else the walk goes
        one pair down.  A pair of rungs of one step count is skipped, and a
        2·dt rung that trips counts for nothing (the walk starts at
        (dt, dt/2)) and escalates no grid.  Past the finest pair,
        :class:`~pauliblock.errors.TimeStepError` is raised.
        """
        if not n_targets:
            return settings.dt
        ladder = [2 * settings.dt] + [settings.dt * 0.5**k for k in range(12)]

        def walk(record):
            def rung(dt):
                trial = PropagationSettings(dt)
                overlaps = self._overlaps(
                    record, schedule, record.n_planned, n_targets, trial
                )
                return trial.steps_for(schedule.T)[0], overlaps

            try:
                previous = rung(ladder[0])
            except SimulationError:  # counts for nothing, escalates no grid
                previous = None
            change = None
            for coarse, dt in zip(ladder, ladder[1:]):
                current = rung(dt)
                # Rungs of one step count run the same steps: their
                # agreement says nothing about dt.
                if previous is not None and current[0] != previous[0]:
                    change = float(np.max(np.abs(current[1] - previous[1])))
                    if coarse <= settings.dt and change < DT_TOLERANCE:
                        return coarse
                    if change < 4 * DT_TOLERANCE:
                        return dt
                previous = current
            raise TimeStepError(ladder[-1], change, DT_TOLERANCE)

        return self._with_escalation(schedule, 1, n_targets, walk)

    # -- overlap assembly -----------------------------------------------------

    def _overlaps(self, record, schedule, n_states, n_targets, settings):
        """A[j, i] = <U psi_j|phi_i> of the lowest ``n_states`` initial and
        ``n_targets`` final levels: psi conj(U_rev phi)^T dx over every
        level of the record, then sliced (so a row's bits do not depend on
        ``n_states``)."""
        if not n_targets:
            return np.zeros((n_states, 0), dtype=np.complex128)
        evolved = self.evolved_states(schedule, n_targets, settings)
        return (record.initial.states @ np.conj(evolved).T * record.grid.dx)[:n_states]

    def master_overlaps(self, schedule, n_states, n_protected, settings):
        """Overlap matrix rows for the lowest ``n_states`` evolved levels
        with the ``n_protected`` targets (:meth:`_overlaps`), the grid and
        the initial levels."""

        def overlaps(record):
            matrix = self._overlaps(record, schedule, n_states, n_protected, settings)
            return matrix, record.grid, _lowest(record.initial, n_states)

        return self._with_escalation(schedule, n_states, n_protected, overlaps)

    # -- fidelities ------------------------------------------------------------

    def scenario_fidelity(self, schedule, n_protected, n_buffer, settings=None):
        """Zero-temperature fidelity: :meth:`thermal_fidelity` at tau = 0."""
        return self.thermal_fidelity(schedule, n_protected, n_buffer, 0.0, settings)

    def thermal_fidelity(
        self,
        schedule,
        n_protected,
        n_buffer,
        tau,
        settings=None,
        tail_bound=DEFAULT_TAIL_BOUND,
    ):
        values = self.thermal_fidelity_curve(
            schedule, n_protected, n_buffer, [tau], settings, tail_bound=tail_bound
        )
        return FidelityResult(values[0], n_protected + n_buffer, n_protected, n_buffer)

    def thermal_fidelity_curve(
        self,
        schedule,
        n_protected,
        n_buffer,
        taus,
        settings=None,
        tail_bound=DEFAULT_TAIL_BOUND,
    ):
        """Thermal fidelity at several temperatures from one propagation.

        Returns the list of values, one per temperature.  The curve runs at
        the dt of ``settings`` (:attr:`settings` if none are handed in), as
        handed: the time-step check belongs to :meth:`validated_settings`,
        which a sweep calls before its curves.  A family the engine holds
        no record of is planned first (:meth:`plan_levels`); a sweep plans
        it for its largest system, so its curves make no estimate of their
        own.  The master overlap matrix, read from the N_p targets evolved
        backward (:meth:`master_overlaps`), has one row per level of the
        ladder and is validated (:class:`OverlapMatrix`) first.  At
        tau = 0 the ladder is the N lowest levels.  Above it, the ladder is
        every level the family was planned for, and the truncation
        certificate (:func:`~pauliblock.thermal.levels_needed`) reads it
        once, after the run: its energies are those of the initial levels
        the overlaps were read from, on the grid the run ended on, escalated
        or not.  A ladder shorter than the certificate asks is planned
        again, once, as :meth:`plan_levels` plans with a right estimate:
        for the count asked plus ``LEVEL_MARGIN``; the run is read again.
        If that ladder falls short too, :class:`NeedsMoreLevelsError` is
        raised, reporting the count asked.  The ground configuration
        (:func:`~pauliblock.thermal.enumerate_ensemble`) gives its Gram
        determinant from the master's first N rows: the value at tau = 0,
        and the lower bound of every projected one.  Each
        temperature above zero is projected on its own
        (:func:`~pauliblock.thermal.projected_fidelity`), so a curve's
        value is the one a call at that temperature alone gives.
        """
        check_counts(n_protected, n_buffer)
        n_total = n_protected + n_buffer
        if len(taus) == 0:
            raise ConfigError("no temperatures supplied")
        check_temperatures(taus)
        check_tail_bound(tail_bound)
        tau_max = max(taus)
        if self.family_grid(schedule) is None:
            self.plan_levels([schedule], n_total, n_protected, tau_max, tail_bound)

        n_levels = n_total
        if tau_max > 0:
            n_levels = max(n_total, self._families[_family(schedule)].n_planned)
        for replanned in (False, True):
            matrix, _, initial = self.master_overlaps(
                schedule, n_levels, n_protected, settings or self.settings
            )
            energies = initial.energies
            if tau_max == 0:
                break
            asked = levels_needed(
                energies[n_total - 1], n_total, tau_max, tail_bound,
                *schedule.harmonic_floor(),
            )
            if asked <= len(energies):
                break
            if replanned:
                raise NeedsMoreLevelsError(asked, len(energies))
            n_levels = asked + LEVEL_MARGIN
        ground = enumerate_ensemble(energies, n_total)
        master = OverlapMatrix(matrix).entries
        ground_value = float(gram_fidelity_values(master, ground.levels - 1)[0])
        return [
            projected_fidelity(energies, master, n_total, tau, ground_value)
            if tau > 0 else ground_value
            for tau in taus
        ]

    def plan_levels(
        self, schedules, n_total, n_targets, tau, tail_bound=DEFAULT_TAIL_BOUND
    ):
        """Plan the family of ``schedules`` (one family) for the levels an
        ensemble needs and ``n_targets`` targets; return the level count
        the family is then planned for.

        At ``tau > 0`` the ensemble needs the ladder length the truncation
        certificate of ``n_total`` fermions is estimated to need: the
        certificate's closed form on the Bohr-Sommerfeld ladder of the
        initial trap (:func:`~pauliblock.planner.ensemble_level_count`,
        exact for a harmonic one), plus ``LEVEL_MARGIN``.  At ``tau = 0``
        it needs ``n_total``.  A family already planned for as many levels
        and targets keeps its grid.
        """
        n_levels = n_total
        if tau > 0:
            n_levels = ensemble_level_count(schedules[0], n_total, tau, tail_bound)
            n_levels += LEVEL_MARGIN
        return self._plan(schedules, n_levels, n_targets).n_planned
