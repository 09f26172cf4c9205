"""Scenario assembly: grids, eigensolves, propagation and overlaps.

The :class:`Engine` memoizes the expensive pieces within one run in one
record per schedule family, the frozen
:class:`~pauliblock.potentials.PotentialSchedule` with its ramp shape and
duration fixed (same traps, same grids).  A record holds the family grid,
the level count it was planned for and its escalation count; the initial
and final eigenbases, each solved for the planned count (a request for K
states slices that solve); and one dict of runs, keyed by schedule, dt
and side (a request for M states slices a cached run with >= M states).
A forward run evolves the lowest initial eigenstates under the schedule,
a backward run the lowest final eigenstates under the reversed schedule;
a backward run that trips a grid check keeps the error in its place,
so it is not made again on that grid.  A thermal curve reads its
overlaps from a backward run of its N_p targets, zero temperature from
its N levels evolved forward (:meth:`Engine.master_overlaps`).

Each family's grid comes from :func:`~pauliblock.planner.plan_grid`, sized
for the number of states requested; a later request for more states than
the grid was planned for plans it again.  Grids escalate automatically,
in eigensolves and in propagation alike: a position-space leak doubles
the domain, momentum-space undersampling doubles the point count.
Re-planning or escalating replaces the whole record.  The validated time
step is kept apart, per family and requested settings, so it survives.
Every fidelity is a point of a thermal curve; zero temperature is the
tau = 0 ensemble, the one ground configuration.  One method plans the
runs of a set of curves (:meth:`Engine.validated_settings`): first their
families, for the levels the hottest ensemble is estimated to need, so
the time-step check runs on the grid the curves then use.

Propagations that do not depend on each other, such as the first two
rungs of the time-step check and the schedules of a sweep, can run
as one batch (:meth:`Engine.propagate_batch`) on up to ``workers``
processes: this one and workers forked from it, each evolving whole
state families.  A batch only fills the run cache; the in-order path
then finds its runs there, so results, escalations and errors do not
depend on the worker count.
"""

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
from .errors import (
    ConfigError,
    ContainmentError,
    ConvergenceError,
    NeedsMoreLevelsError,
    ResolutionError,
    SimulationError,
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
from .propagate import PropagationSettings, propagate_basis
from .thermal import (
    DEFAULT_TAIL_BOUND,
    colder_cut,
    ensemble_average,
    enumerate_ensemble,
)

# Doublings of a family's grid (domain or point count) allowed after it
# was planned; one more failed check raises.
MAX_ESCALATIONS = 4
# Levels planned beyond the semiclassical estimate of what a thermal
# ensemble needs: one level absorbs a Bohr-Sommerfeld error of up to one
# level spacing at the cutoff.
LEVEL_MARGIN = 1


def _family(schedule):
    # Everything but the ramp shape and duration: same traps, same grids.
    return replace(schedule, shape=RampShape.LINEAR, T=1.0)


# Grid checks that escalate a family's grid, and that a backward run trips.
_LEAKS = (ContainmentError, ResolutionError)


@dataclass
class _FamilyRecord:
    """One family's grid and what was computed on it (see module docstring)."""

    grid: Grid
    n_planned: int
    escalations: int = 0
    initial: spectral.EigenBasis = None
    final: spectral.EigenBasis = None
    # (schedule, dt, backward) -> evolved states, or the error of a trip
    runs: dict = field(default_factory=dict)

    def start(self, schedule, backward):
        """(basis, schedule to run) of a run on this record's grid."""
        if backward:
            return self.final, schedule.time_reversed()
        return self.initial, schedule

    def lacks(self, key, n_states):
        """Whether run ``key`` holds fewer than ``n_states`` states and did not trip."""
        run = self.runs.get(key, ())
        return not isinstance(run, _LEAKS) and len(run) < n_states


def _lowest(basis, n_states):
    return spectral.EigenBasis(
        basis.grid, basis.energies[:n_states], basis.states[:n_states]
    )


def default_workers():
    """The number of CPUs this process may run on (1 where the platform
    cannot tell)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _propagate_runs(runs):
    """``propagate_basis`` for each ``(basis, n_states, schedule, dt)`` run.

    Returns one entry per run: its evolved states, or the
    :class:`SimulationError` it raised.  Defined at module level, so that a
    worker pool pickles it by name.
    """
    results = []
    for basis, n_states, schedule, dt in runs:
        try:
            results.append(
                propagate_basis(basis, n_states, schedule, PropagationSettings(dt))
            )
        except SimulationError as exc:
            results.append(exc)
    return results


def _check_counts(n_protected, n_buffer):
    if n_protected < 0 or n_buffer < 0 or n_protected + n_buffer < 1:
        raise ConfigError(
            f"invalid particle counts N_p={n_protected}, N_b={n_buffer}; "
            "need N_p >= 0, N_b >= 0 and N_p + N_b >= 1"
        )


class Engine:
    """Caching scenario runner; cheap to create, reusable across sweeps.

    ``workers`` caps the processes a batch of independent propagations
    runs on; by default, every CPU this process may use.
    """

    def __init__(self, n_points=None, settings=None, workers=None):
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.n_points = n_points
        self.settings = settings or PropagationSettings()
        self.workers = workers
        self._families = {}  # family -> _FamilyRecord
        self._dts = {}  # (family, requested settings) -> validated dt

    def family_grid(self, schedule):
        """Current grid of the schedule's family, or None before any request."""
        record = self._families.get(_family(schedule))
        return record.grid if record else None

    def _with_escalation(self, schedule, n_states, work):
        """``work(record)`` on the family record, planned (again) for
        ``n_states`` levels if it holds fewer, its endpoint bases solved.

        A leak out of the domain or off the momentum lattice, in an
        eigensolve or in ``work``, widens or refines the grid in a new
        record, up to ``MAX_ESCALATIONS`` times; then it is raised.
        """
        family = _family(schedule)
        record = self._families.get(family)
        if record is None or record.n_planned < n_states:
            grid = plan_grid(schedule, n_states, self.n_points)
            record = _FamilyRecord(grid, n_states)
            self._families[family] = record
        while True:
            try:
                if record.final is None:
                    record.initial, record.final = (
                        spectral.solve(
                            schedule.evaluate(record.grid, t),
                            record.grid,
                            record.n_planned,
                        )
                        for t in (0.0, schedule.T)
                    )
                return work(record)
            except _LEAKS as exc:
                if record.escalations == MAX_ESCALATIONS:
                    raise
                if isinstance(exc, ContainmentError):
                    grid = record.grid.widened()
                else:
                    grid = record.grid.refined()
                record = _FamilyRecord(grid, record.n_planned, record.escalations + 1)
                self._families[family] = record

    def endpoint_bases(self, schedule, n_initial, n_targets):
        """(grid, initial basis, target basis) with automatic escalation.

        Both bases are solved for the count the family grid was planned
        for and sliced to the request, so their bits do not depend on
        which request came first.
        """
        n_states = max(n_initial, n_targets)

        def bases(record):
            return (
                record.grid,
                _lowest(record.initial, n_states),
                _lowest(record.final, n_targets),
            )

        return self._with_escalation(schedule, n_states, bases)

    # -- propagation ---------------------------------------------------------

    def evolved_states(self, schedule, n_states, settings, backward=False):
        """The lowest ``n_states`` initial eigenstates evolved to t = T on
        the family's current grid (:meth:`endpoint_bases` solves it), or
        with ``backward`` the lowest final eigenstates evolved under
        ``schedule.time_reversed()``, cached.  A forward leak raises here
        rather than escalate; a backward one returns None, and the record
        keeps it, so that run is not made again on this grid."""
        record = self._families[_family(schedule)]
        key = (schedule, settings.dt, backward)
        if record.lacks(key, n_states):
            basis, run_as = record.start(schedule, backward)
            try:
                record.runs[key] = propagate_basis(basis, n_states, run_as, settings)
            except _LEAKS as exc:
                if not backward:
                    raise
                record.runs[key] = exc
        run = record.runs[key]
        return None if isinstance(run, _LEAKS) else run[:n_states]

    def propagate_batch(self, runs):
        """Fill the run cache for ``runs``, ``(schedule, dt, n_states,
        backward)`` tuples (:meth:`evolved_states`), on up to ``workers``
        processes at once.

        The runs are shared out longest first (steps times states), each to
        the process with the least work so far: this process runs its own
        share while forked worker processes run theirs.  Runs of one
        schedule, dt and side merge into the one with the most states;
        cached runs and recorded trips are skipped.  A backward run that
        trips a grid check records the trip, wherever it ran.  Any other
        run that raises a :class:`SimulationError`, here or in its
        eigensolve, or whose worker dies, fills nothing, so the in-order
        path runs it again and escalates or raises exactly as it would
        without the batch.
        """
        most = {}
        for schedule, dt, n_states, backward in runs:
            key = (schedule, dt, backward)
            most[key] = max(n_states, most.get(key, 0))
        if min(self.workers, len(most)) < 2:
            return
        todo = []
        for key, n_states in most.items():
            schedule, dt, backward = key
            try:
                record = self._with_escalation(schedule, n_states, lambda r: r)
            except SimulationError:
                continue
            if record.lacks(key, n_states):
                steps, _ = PropagationSettings(dt).steps_for(schedule.T)
                basis, run_as = record.start(schedule, backward)
                run = (basis, n_states, run_as, dt)
                todo.append((steps * n_states, key, run))
        n_lanes = min(self.workers, len(todo))
        if n_lanes < 2:
            return
        lanes = [[] for _ in range(n_lanes)]
        loads = [0] * n_lanes
        for cost, key, run in sorted(todo, key=lambda item: item[0], reverse=True):
            lane = loads.index(min(loads))
            lanes[lane].append((key, run))
            loads[lane] += cost
        # Forked, not spawned: a spawned worker imports numpy and this
        # package again, 0.06-0.15 s, which is more than a small batch takes.
        with ProcessPoolExecutor(
            n_lanes - 1, multiprocessing.get_context("fork")
        ) as pool:
            pending = [
                pool.submit(_propagate_runs, [run for _, run in lane])
                for lane in lanes[1:]
            ]
            done = list(zip(lanes[0], _propagate_runs([run for _, run in lanes[0]])))
            for lane, job in zip(lanes[1:], pending):
                try:
                    done += zip(lane, job.result())
                except BrokenProcessPool:
                    pass  # a worker died; the in-order path runs its share
        for (key, (basis, *_)), states in done:
            schedule, _, backward = key
            record = self._families[_family(schedule)]
            # A family re-planned or escalated since its run keeps nothing,
            # and a cached run is never replaced by one with fewer states.
            if basis is not record.start(schedule, backward)[0]:
                continue
            if backward and isinstance(states, _LEAKS):
                record.runs[key] = states
            elif not isinstance(states, SimulationError) and record.lacks(
                key, len(states)
            ):
                record.runs[key] = states

    def validated_settings(
        self, schedules, n_total, n_protected, tau_max, settings, check_dt,
        tail_bound=DEFAULT_TAIL_BOUND,
    ):
        """``settings`` with a dt that passed the halving check, starting
        from ``settings.dt``, for thermal curves of ``n_total`` fermions up
        to ``tau_max`` on ``schedules``; the check runs on the first.

        Each family is planned first (:meth:`plan_levels`).  A curve's run
        is its ``n_protected`` targets backward at ``tau_max`` > 0, else,
        or where that run trips, its levels forward.  The check's first
        two rungs, dt and dt/2, join the curves' runs at ``settings.dt`` in
        one batch on their side: backward first, then forward if a
        backward rung trips.  At any other validated dt, the curves' runs
        go as one batch of their own.
        """
        levels = [
            self.plan_levels(schedule, n_total, tau_max, tail_bound)
            for schedule in schedules
        ]
        n_targets = n_protected if tau_max > 0 else 0

        def curve_runs(dt):
            runs = []
            for schedule, n_levels in zip(schedules, levels):
                record = self._families[_family(schedule)]
                leaked = isinstance(record.runs.get((schedule, dt, True)), _LEAKS)
                backward = n_targets > 0 and not leaked
                runs.append(
                    (schedule, dt, n_targets if backward else n_levels, backward)
                )
            return runs

        key = (_family(schedules[0]), settings)
        dt = self._dts.get(key) if check_dt else settings.dt
        if dt is None:
            for backward in (True, False) if n_targets else (False,):
                n_rung = n_targets if backward else n_total
                self.propagate_batch(curve_runs(settings.dt) + [
                    (schedules[0], rung, n_rung, backward)
                    for rung in (settings.dt, 0.5 * settings.dt)
                ])
                dt = self._converge_dt(schedules[0], n_rung, settings, backward)
                if dt is not None:
                    break
            self._dts[key] = dt
            if dt == settings.dt:  # the curves' runs went with the rungs
                return replace(settings, dt=dt)
        self.propagate_batch(curve_runs(dt))
        return replace(settings, dt=dt)

    def _converge_dt(self, schedule, n_states, settings, backward):
        """The first dt whose overlaps move by less than the tolerance at
        dt/2: with ``backward``, of backward runs of ``n_states`` targets
        with every planned level (None if a rung trips), else ``n_states``
        x ``n_states`` of forward runs."""

        def halve(record):
            dt = settings.dt
            previous = None
            for _ in range(12):
                trial = PropagationSettings(dt, tolerance=settings.tolerance)
                steps, _ = trial.steps_for(schedule.T)
                block = (n_states, n_states)
                if backward:
                    if self.evolved_states(schedule, n_states, trial, True) is None:
                        return None
                    block = (record.n_planned, n_states)
                overlaps = self._overlaps(record, schedule, *block, trial)
                # Rungs of one step count run the same steps: their
                # agreement says nothing about dt.
                if previous is not None and steps != previous[1]:
                    if np.max(np.abs(overlaps - previous[2])) < settings.tolerance:
                        return previous[0]
                previous = (dt, steps, overlaps)
                dt *= 0.5
            raise ConvergenceError(
                f"time step did not converge to tolerance {settings.tolerance} "
                f"after halving down to dt={dt * 2}"
            )

        return self._with_escalation(schedule, n_states, halve)

    # -- overlap assembly -----------------------------------------------------

    def _overlaps(
        self, record, schedule, n_states, n_targets, settings, backward=False
    ):
        """A[j, i] = <U psi_j|phi_i> of the lowest ``n_states`` initial and
        ``n_targets`` final levels: psi conj(U_rev phi)^T dx over every
        level of the record, then sliced (so a row's bits do not depend on
        ``n_states``), when the targets' backward run is cached or, with
        ``backward``, can be made; else the levels evolved forward."""
        dx = record.grid.dx
        key = (schedule, settings.dt, True)
        if n_targets and (backward or not record.lacks(key, n_targets)):
            evolved = self.evolved_states(schedule, n_targets, settings, backward=True)
            if evolved is not None:
                return (record.initial.states @ np.conj(evolved).T * dx)[:n_states]
        evolved = self.evolved_states(schedule, n_states, settings)
        return np.conj(evolved) @ record.final.states[:n_targets].T * dx

    def master_overlaps(
        self, schedule, n_states, n_protected, settings, backward=False
    ):
        """Overlap matrix rows for the lowest ``n_states`` evolved levels,
        from the targets' side when the family holds their backward run at
        ``settings.dt`` or, with ``backward`` (a thermal curve), when one
        can be made and does not trip (:meth:`_overlaps`)."""
        n_solve = max(n_states, n_protected)

        def overlaps(record):
            matrix = self._overlaps(
                record, schedule, n_states, n_protected, settings, backward
            )
            return matrix, record.grid, _lowest(record.initial, n_solve)

        return self._with_escalation(schedule, n_solve, overlaps)

    # -- fidelities ------------------------------------------------------------

    def scenario_fidelity(
        self,
        schedule,
        n_protected,
        n_buffer,
        settings=None,
        check_dt=False,
    ):
        """Zero-temperature fidelity: :meth:`thermal_fidelity` at tau = 0."""
        return self.thermal_fidelity(
            schedule, n_protected, n_buffer, 0.0, settings, check_dt=check_dt
        )

    def thermal_fidelity(
        self,
        schedule,
        n_protected,
        n_buffer,
        tau,
        settings=None,
        tail_bound=DEFAULT_TAIL_BOUND,
        check_dt=False,
    ):
        values = self.thermal_fidelity_curve(
            schedule, n_protected, n_buffer, [tau], settings,
            tail_bound=tail_bound, check_dt=check_dt,
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
        check_dt=False,
    ):
        """Thermal fidelity at several temperatures from one propagation.

        Returns the list of values, one per temperature.  Without
        ``settings``, :meth:`validated_settings` plans the curve's family
        and runs; with ``settings`` handed in and the family planned (a
        sweep plans it for its largest system), no estimate is made again,
        and the enumeration's certificate plans too few levels again.  The
        master overlap matrix covers the hottest ensemble's highest level:
        above zero temperature from the N_p targets evolved backward, at
        zero temperature from the N levels evolved forward
        (:meth:`master_overlaps`).  That ensemble is enumerated once and
        its per-configuration fidelities evaluated once; each colder
        temperature is a row mask of it with its own weights
        (:func:`~pauliblock.thermal.colder_cut`), used for one sum, or is
        evaluated on its own if its cutoff grows past the hottest one's.
        The master matrix is validated (:class:`OverlapMatrix`) first, and
        the Gram determinants read the ensemble's 1-based level rows as they
        are, through a zero row put before the master's first.
        """
        _check_counts(n_protected, n_buffer)
        n_total = n_protected + n_buffer
        if len(taus) == 0:
            raise ConfigError("no temperatures supplied")
        if not all(0 <= tau < math.inf for tau in taus):
            raise ConfigError(f"temperatures must be finite and >= 0, got {taus}")
        tau_max = max(taus)
        if settings is None:
            settings = self.validated_settings(
                [schedule], n_total, n_protected, tau_max, self.settings,
                check_dt, tail_bound,
            )
        elif self.family_grid(schedule) is None:
            self.plan_levels(schedule, n_total, tau_max, tail_bound)

        hot, energies = self._ensemble_levels(schedule, n_total, tau_max, tail_bound)
        matrix, _, _ = self.master_overlaps(
            schedule, hot.m_max, n_protected, settings, backward=tau_max > 0
        )
        master = OverlapMatrix(matrix).entries
        padded = np.concatenate([np.zeros_like(master[:1]), master])
        per_config = gram_fidelity_values(padded, hot.levels)
        # Colder cuts read the width of ``levels`` (N), not its rows.
        hot.levels = np.empty((0, n_total), hot.levels.dtype)

        values = []
        for tau in taus:
            if tau == tau_max:
                value = ensemble_average(hot.weights, per_config)
            else:
                cut = colder_cut(hot, energies, tau, tail_bound)
                if cut is None:
                    (value,) = self.thermal_fidelity_curve(
                        schedule, n_protected, n_buffer, [tau], settings,
                        tail_bound=tail_bound,
                    )
                else:
                    rows, weights = cut
                    value = ensemble_average(weights, per_config[rows], out=weights)
            values.append(value)
        return values

    def plan_levels(self, schedule, n_total, tau, tail_bound=DEFAULT_TAIL_BOUND):
        """Plan the family for the levels an ensemble needs; return their count.

        At ``tau > 0`` that is the ladder length the truncation certificate
        of ``n_total`` fermions is estimated to need: the certificate runs on
        the Bohr-Sommerfeld ladder of the initial trap (exact for a
        harmonic one), plus ``LEVEL_MARGIN``.  At ``tau = 0`` it is
        ``n_total``.  A family already planned for more levels keeps its
        grid.
        """
        n_levels = n_total
        if tau > 0:
            n_levels = ensemble_level_count(schedule, n_total, tau, tail_bound)
            n_levels += LEVEL_MARGIN
        self._with_escalation(schedule, n_levels, lambda record: None)
        return n_levels

    def _ensemble_levels(self, schedule, n_total, tau, tail_bound):
        """(ensemble at ``tau``, the energy ladder it was enumerated from).

        The ladder holds every level the family was planned for, which
        :meth:`plan_levels` has sized.  When it is too short to certify the
        truncation (:class:`NeedsMoreLevelsError`, an estimate that fell
        short), the family is planned again for the count the error
        reports.
        """
        n_levels = self._families[_family(schedule)].n_planned
        for _ in range(8):
            _, initial, _ = self.endpoint_bases(schedule, n_levels, 1)
            energies = initial.energies[:n_levels]
            try:
                ensemble = enumerate_ensemble(energies, n_total, tau, tail_bound)
            except NeedsMoreLevelsError as exc:
                n_levels = max(exc.required, n_levels + 4)
                continue
            return ensemble, energies
        raise ConvergenceError(
            f"could not satisfy the thermal tail bound with {n_levels} levels"
        )
