"""Scenario assembly: grids, eigensolves, propagation and overlaps.

The :class:`Engine` memoizes the expensive pieces within one run in one
record per schedule family, the frozen
:class:`~pauliblock.potentials.PotentialSchedule` with its ramp shape and
duration fixed (same traps, same grids).  A record holds the family grid,
the level count it was planned for and its escalation count; the initial
and final eigenbases, each solved for the planned count (a request for K
states slices that solve); and the propagated states, keyed by schedule
and dt (a request for M states slices a cached run with >= M states).

Each family's grid comes from :func:`~pauliblock.planner.plan_grid`, sized
for the number of states requested; a later request for more states than
the grid was planned for plans it again.  Grids escalate automatically,
in eigensolves and in propagation alike: a position-space leak doubles
the domain, momentum-space undersampling doubles the point count.
Re-planning or escalating replaces the whole record.  The validated time
step is kept apart, per family and requested settings, so it survives.
Every fidelity is a point of a thermal curve; zero temperature is the
tau = 0 ensemble, the one ground configuration.  A curve plans its family
before anything else, for the levels its hottest ensemble is estimated
to need (:meth:`Engine.plan_levels`), so the time-step check runs on the
grid the curve then uses.

Propagations that do not depend on each other, such as the first two
rungs of the time-step check and the schedules of a sweep, can run
as one batch (:meth:`Engine.propagate_batch`) on up to ``workers``
processes: this one and workers forked from it, each evolving whole
state families.  A batch only fills the propagation cache; the in-order
path then finds its runs there, so results, escalations and errors do not
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
    TooLargeError,
)
from .fidelity import (
    ORACLE_MAX_N,
    ORACLE_MAX_NP,
    FidelityResult,
    Method,
    OverlapMatrix,
    # Not called here: perfbench/spans.py wraps this name and raises if it
    # is missing, until an in-program trace replaces the patched names.
    fidelity_fast,
    gram_fidelity_values,
    oracle_fits,
    verify_against_oracle,
)
from .grid import Grid
from .planner import ensemble_level_count, plan_grid
from .potentials import RampShape
from .propagate import PropagationSettings, propagate_basis
from .thermal import (
    DEFAULT_TAIL_BOUND,
    cool_ensemble,
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


@dataclass
class _FamilyRecord:
    """One family's grid and what was computed on it (see module docstring)."""

    grid: Grid
    n_planned: int
    escalations: int = 0
    initial: spectral.EigenBasis = None
    final: spectral.EigenBasis = None
    props: dict = field(default_factory=dict)  # (schedule, dt) -> states


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
            except (ContainmentError, ResolutionError) as exc:
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

    def evolved_states(self, schedule, n_states, settings):
        """The lowest ``n_states`` initial eigenstates evolved to t = T on
        the family's current grid (:meth:`endpoint_bases` solves it), cached;
        a leak raises here rather than escalate."""
        record = self._families[_family(schedule)]
        key = (schedule, settings.dt)
        if len(record.props.get(key, ())) < n_states:
            record.props[key] = propagate_basis(
                record.initial, n_states, schedule, settings
            )
        return record.props[key][:n_states]

    def propagate_batch(self, runs):
        """Fill the propagation cache for ``runs``, ``(schedule, dt,
        n_states)`` triples, on up to ``workers`` processes at once.

        The runs are shared out longest first (steps times states), each to
        the process with the least work so far: this process runs its own
        share while forked worker processes run theirs.  Runs of one
        schedule and dt merge into the one with the most states, and runs
        already cached are skipped.  A run that raises a :class:`SimulationError`,
        here or in its eigensolve, or whose worker process dies, fills
        nothing, so the in-order path runs it again and escalates or raises
        exactly as it would without the batch.
        """
        most = {}
        for schedule, dt, n_states in runs:
            most[(schedule, dt)] = max(n_states, most.get((schedule, dt), 0))
        runs = [(schedule, dt, n_states) for (schedule, dt), n_states in most.items()]
        if min(self.workers, len(runs)) < 2:
            return
        todo = []
        for schedule, dt, n_states in runs:
            try:
                record = self._with_escalation(schedule, n_states, lambda r: r)
            except SimulationError:
                continue
            if len(record.props.get((schedule, dt), ())) < n_states:
                steps, _ = PropagationSettings(dt).steps_for(schedule.T)
                run = (record.initial, n_states, schedule, dt)
                todo.append((steps * n_states, run))
        n_lanes = min(self.workers, len(todo))
        if n_lanes < 2:
            return
        lanes = [[] for _ in range(n_lanes)]
        loads = [0] * n_lanes
        for cost, run in sorted(todo, key=lambda item: item[0], reverse=True):
            lane = loads.index(min(loads))
            lanes[lane].append(run)
            loads[lane] += cost
        # Forked, not spawned: a spawned worker imports numpy and this
        # package again, 0.06-0.15 s, which is more than a small batch takes.
        with ProcessPoolExecutor(
            n_lanes - 1, multiprocessing.get_context("fork")
        ) as pool:
            pending = [pool.submit(_propagate_runs, lane) for lane in lanes[1:]]
            done = list(zip(lanes[0], _propagate_runs(lanes[0])))
            for lane, job in zip(lanes[1:], pending):
                try:
                    done += zip(lane, job.result())
                except BrokenProcessPool:
                    pass  # a worker died; the in-order path runs its share
        for (basis, _, schedule, dt), states in done:
            record = self._families[_family(schedule)]
            # A family re-planned or escalated since its run keeps nothing,
            # and a cached run is never replaced by one with fewer states.
            if (
                record.initial is basis
                and not isinstance(states, SimulationError)
                and len(states) > len(record.props.get((schedule, dt), ()))
            ):
                record.props[(schedule, dt)] = states

    def validated_settings(self, schedule, n_states, settings, check_dt, also=()):
        """``settings`` with a dt that passed the halving check for this
        family, starting from ``settings.dt``.

        ``also`` lists the runs, ``(schedule, n_states)`` pairs, that
        propagate at the validated dt next; they run as a batch
        (:meth:`propagate_batch`).  While the check has yet to run, that
        batch guesses ``settings.dt`` and also holds the check's first two
        rungs, dt and dt/2, which it always propagates; a run of the
        checked schedule with more states serves as the first rung.  If the
        check then halves dt, the runs go as a second batch at the dt it
        kept.
        """
        key = (_family(schedule), settings)
        dt = self._dts.get(key) if check_dt else settings.dt
        guessed = None
        if dt is None:
            guessed = settings.dt
            self.propagate_batch([
                (schedule, guessed, n_states),
                (schedule, 0.5 * guessed, n_states),
                *[(other, guessed, n_other) for other, n_other in also],
            ])
            dt = self._converge_dt(schedule, n_states, settings)
            self._dts[key] = dt
        if dt != guessed:
            self.propagate_batch([(other, dt, n_other) for other, n_other in also])
        return replace(settings, dt=dt)

    def _converge_dt(self, schedule, n_states, settings):
        def halve(record):
            targets = record.final.states[:n_states]
            dt = settings.dt
            previous = None
            for _ in range(12):
                trial = PropagationSettings(dt, tolerance=settings.tolerance)
                steps, _ = trial.steps_for(schedule.T)
                states = self.evolved_states(schedule, n_states, trial)
                overlaps = np.conj(states) @ targets.T * record.grid.dx
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

    def master_overlaps(self, schedule, n_states, n_protected, settings):
        """Overlap matrix rows for the lowest ``n_states`` evolved levels."""
        n_solve = max(n_states, n_protected)

        def overlaps(record):
            evolved = self.evolved_states(schedule, n_states, settings)
            targets = record.final.states[:n_protected]
            matrix = np.conj(evolved) @ targets.T * record.grid.dx
            return matrix, record.grid, _lowest(record.initial, n_solve)

        return self._with_escalation(schedule, n_solve, overlaps)

    # -- fidelities ------------------------------------------------------------

    def scenario_fidelity(
        self,
        schedule,
        n_protected,
        n_buffer,
        settings=None,
        verify_oracle=False,
        check_dt=False,
    ):
        """Zero-temperature fidelity: :meth:`thermal_fidelity` at tau = 0."""
        return self.thermal_fidelity(
            schedule, n_protected, n_buffer, 0.0, settings,
            check_dt=check_dt, verify_oracle=verify_oracle,
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
        verify_oracle=False,
    ):
        values, _ = self.thermal_fidelity_curve(
            schedule, n_protected, n_buffer, [tau], settings,
            tail_bound=tail_bound, check_dt=check_dt, verify_oracle=verify_oracle,
        )
        n_total = n_protected + n_buffer
        return FidelityResult(
            values[0], Method.GRAM_DETERMINANT, n_total, n_protected, n_buffer
        )

    def thermal_fidelity_curve(
        self,
        schedule,
        n_protected,
        n_buffer,
        taus,
        settings=None,
        tail_bound=DEFAULT_TAIL_BOUND,
        check_dt=False,
        verify_oracle=False,
    ):
        """Thermal fidelity at several temperatures from one propagation.

        Returns (values, ensembles).  The family is planned first for the
        levels the hottest ensemble is estimated to need
        (:meth:`plan_levels`), so the time-step check runs on the grid the
        curve then uses and its first rung propagates the master rows.
        With ``settings`` handed in and the family planned already (a
        sweep plans it for its largest system), no estimate is made again;
        if the family holds too few levels, the enumeration's certificate
        plans it again.  The hottest temperature's ensemble is enumerated
        once and the master overlap matrix covers its highest level; the
        per-configuration fidelities are evaluated once over its rows, and
        each colder temperature is a row mask of it, re-weighted with its
        own cutoff.  A colder temperature whose cutoff grows past the
        hottest one's is evaluated on its own.  The master matrix is
        validated (:class:`OverlapMatrix`) first; ``verify_oracle`` checks
        the ground configuration, row 0 of every ensemble and all of it at
        tau = 0, against the brute-force sum, and past the brute-force
        guard raises :class:`TooLargeError` before any work.
        """
        _check_counts(n_protected, n_buffer)
        n_total = n_protected + n_buffer
        if len(taus) == 0:
            raise ConfigError("no temperatures supplied")
        if not all(0 <= tau < math.inf for tau in taus):
            raise ConfigError(f"temperatures must be finite and >= 0, got {taus}")
        if verify_oracle and not oracle_fits(n_total, n_protected):
            raise TooLargeError(
                f"--verify-oracle needs N <= {ORACLE_MAX_N} and N_p <= "
                f"{ORACLE_MAX_NP}, got N={n_total} and N_p={n_protected}"
            )
        tau_max = max(taus)
        if settings is None:
            n_levels = self.plan_levels(schedule, n_total, tau_max, tail_bound)
            settings = self.validated_settings(
                schedule, n_total, self.settings, check_dt,
                also=[(schedule, n_levels)],
            )
        elif self.family_grid(schedule) is None:
            self.plan_levels(schedule, n_total, tau_max, tail_bound)

        hot, energies = self._ensemble_levels(schedule, n_total, tau_max, tail_bound)
        matrix, _, _ = self.master_overlaps(
            schedule, hot.m_max, n_protected, settings
        )
        master = OverlapMatrix(matrix)
        per_config = gram_fidelity_values(master.entries, hot.row_index_array())
        if verify_oracle:
            verify_against_oracle(master.dropping_rows_after(n_total), per_config[0])

        values = []
        ensembles = []
        for tau in taus:
            cut = (hot, slice(None)) if tau == tau_max else cool_ensemble(
                hot, energies, tau, tail_bound
            )
            if cut is None:
                (value,), (ensemble,) = self.thermal_fidelity_curve(
                    schedule, n_protected, n_buffer, [tau], settings,
                    tail_bound=tail_bound,
                )
            else:
                ensemble, rows = cut
                value = ensemble_average(ensemble, per_config[rows])
            values.append(value)
            ensembles.append(ensemble)
        return values, ensembles

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
