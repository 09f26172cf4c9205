"""Scenario assembly: grids, eigensolves, propagation and overlaps.

The :class:`Engine` memoizes the expensive pieces within one run, keyed
on the frozen :class:`~pauliblock.potentials.PotentialSchedule` and
:class:`~pauliblock.grid.Grid` themselves:

* endpoint eigenbases, keyed by grid and potential, each solved for the
  level count its family grid was planned for (a request for K states
  slices that solve);
* propagated state families, keyed by schedule, grid and dt (a request
  for M states is served by slicing a cached run with >= M states);
* the grid per schedule family (the schedule with its ramp shape and
  duration fixed: same traps, same grids), and the validated time step
  per family and requested settings.

Each family's grid comes from :func:`~pauliblock.planner.plan_grid`, sized
for the number of states requested; a later request for more states than
the grid was planned for plans it again.  Grids escalate automatically,
in eigensolves and in propagation alike: a position-space leak doubles
the domain, momentum-space undersampling doubles the point count, and
every cached basis or propagation on the old grid is dropped.  For the
transport task the final trap is the initial one translated; when the
translation is a whole number of lattice steps the target basis is
obtained by rolling the initial states and verifying the eigen-residual,
instead of a second dense solve.

Propagations that do not depend on each other, such as the first two
rungs of the time-step check and the other schedules of a sweep, can run
as one batch (:meth:`Engine.propagate_batch`) on up to ``workers``
processes: this one and workers forked from it, each evolving whole
state families.  A batch only fills the propagation cache; the in-order
path then finds its runs there, so results, escalations and errors do not
depend on the worker count.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

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
    Method,
    OverlapMatrix,
    fidelity_fast,
    gram_fidelity_values,
    verify_against_oracle,
)
from .planner import plan_grid
from .potentials import RampShape, Task
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


def _family(schedule):
    # Everything but the ramp shape and duration: same traps, same grids.
    return replace(schedule, shape=RampShape.LINEAR, T=1.0)


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
        self._bases = {}  # (Grid, potential hash) -> EigenBasis
        self._grids = {}  # family -> (Grid, states planned for, escalations)
        self._props = {}  # (schedule, Grid, dt) -> states array
        self._dts = {}  # (family, requested settings) -> validated dt

    # -- grids -----------------------------------------------------------------

    def family_grid(self, schedule):
        """Current grid of the schedule's family, or None before any request."""
        entry = self._grids.get(_family(schedule))
        return entry[0] if entry else None

    def _planned_grid(self, schedule, n_states):
        family = _family(schedule)
        entry = self._grids.get(family)
        if entry is None or entry[1] < n_states:
            entry = (plan_grid(schedule, n_states, self.n_points), n_states, 0)
            self._grids[family] = entry
        return entry[0]

    def _escalate(self, schedule, exc):
        """Widen (after a leak) or refine (after aliasing) the family grid.

        Drops every cached basis and propagation on the old grid; re-raises
        ``exc`` once the grid has escalated ``MAX_ESCALATIONS`` times.
        """
        family = _family(schedule)
        grid, n_planned, escalations = self._grids[family]
        if escalations == MAX_ESCALATIONS:
            raise exc
        if isinstance(exc, ContainmentError):
            larger = grid.widened()
        else:
            larger = grid.refined()
        self._grids[family] = (larger, n_planned, escalations + 1)
        self._bases = {k: v for k, v in self._bases.items() if k[0] != grid}
        self._props = {k: v for k, v in self._props.items() if k[1] != grid}
        return larger

    def _with_escalation(self, schedule, n_states, n_targets, work):
        """``work(grid, initial, targets)`` on the family grid, escalated
        while a propagation leaks out of the domain or off the momentum
        lattice."""
        while True:
            grid, initial, targets = self.endpoint_bases(schedule, n_states, n_targets)
            try:
                return work(grid, initial, targets)
            except (ContainmentError, ResolutionError) as exc:
                self._escalate(schedule, exc)

    # -- eigensolves -------------------------------------------------------

    def _solve(self, potential, grid, n_solve, n_states):
        """The lowest ``n_states`` levels of a solve for ``n_solve``."""
        key = (grid, hash(potential.tobytes()))
        basis = self._bases.get(key)
        if basis is None or basis.size < n_solve:
            basis = spectral.solve(potential, grid, n_solve)
            self._bases[key] = basis
        return spectral.EigenBasis(
            grid, basis.energies[:n_states], basis.states[:n_states]
        )

    def _rolled_targets(self, schedule, grid, initial, n_states):
        """Translate initial eigenstates to the final trap center, if exact."""
        shift = (schedule.x0_f - schedule.x0_i) / grid.dx
        if abs(shift - round(shift)) > 1e-9:
            return None
        rolled = np.roll(initial.states[:n_states], int(round(shift)), axis=1)
        energies = initial.energies[:n_states].copy()
        potential = spectral.effective_potential(schedule.evaluate(grid, schedule.T))
        try:
            spectral.residual_check(potential, grid, energies, rolled)
            spectral.check_containment(rolled, grid)
        except (ConvergenceError, ContainmentError):
            return None
        return spectral.EigenBasis(grid, energies, rolled)

    def endpoint_bases(self, schedule, n_initial, n_targets):
        """(grid, initial basis, target basis) with automatic escalation.

        Both bases are solved for the count the family grid was planned
        for and sliced to the request, so their bits do not depend on
        which request came first.
        """
        n_states = max(n_initial, n_targets)
        grid = self._planned_grid(schedule, n_states)
        n_solve = self._grids[_family(schedule)][1]
        while True:
            try:
                v0 = schedule.evaluate(grid, 0.0)
                initial = self._solve(v0, grid, n_solve, n_states)
                if schedule.task is Task.TRANSPORT:
                    targets = self._rolled_targets(schedule, grid, initial, n_targets)
                    if targets is None:
                        v1 = schedule.evaluate(grid, schedule.T)
                        targets = self._solve(v1, grid, n_solve, n_targets)
                else:
                    v1 = schedule.evaluate(grid, schedule.T)
                    targets = self._solve(v1, grid, n_solve, n_targets)
                return grid, initial, targets
            except (ContainmentError, ResolutionError) as exc:
                grid = self._escalate(schedule, exc)

    # -- propagation ---------------------------------------------------------

    def _cached_states(self, schedule, grid, dt, n_states):
        cached = self._props.get((schedule, grid, dt))
        if cached is not None and cached.shape[0] >= n_states:
            return cached[:n_states]
        return None

    def evolved_states(self, schedule, grid, basis, n_states, settings):
        states = self._cached_states(schedule, grid, settings.dt, n_states)
        if states is None:
            states = propagate_basis(basis, n_states, schedule, settings)
            self._props[(schedule, grid, settings.dt)] = states
        return states

    def propagate_batch(self, runs):
        """Fill the propagation cache for ``runs``, ``(schedule, dt,
        n_states)`` triples, on up to ``workers`` processes at once.

        The runs are shared out longest first (steps times states), each to
        the process with the least work so far: this process runs its own
        share while forked worker processes run theirs.  Runs already
        cached are skipped.  A run that raises a :class:`SimulationError`,
        here or in its eigensolve, or whose worker process dies, fills
        nothing, so the in-order path runs it again and escalates or raises
        exactly as it would without the batch.
        """
        runs = list(dict.fromkeys(runs))
        if min(self.workers, len(runs)) < 2:
            return
        todo = []
        for schedule, dt, n_states in runs:
            try:
                grid, initial, _ = self.endpoint_bases(schedule, n_states, 1)
            except SimulationError:
                continue
            if self._cached_states(schedule, grid, dt, n_states) is None:
                steps, _ = PropagationSettings(dt).steps_for(schedule.T)
                todo.append((steps * n_states, (initial, n_states, schedule, dt)))
        n_lanes = min(self.workers, len(todo))
        if n_lanes < 2:
            return
        lanes = [[] for _ in range(n_lanes)]
        loads = [0] * n_lanes
        for cost, run in sorted(todo, key=lambda item: item[0], reverse=True):
            lane = loads.index(min(loads))
            lanes[lane].append(run)
            loads[lane] += cost
        # Forked, not spawned: a spawned worker imports scipy again, about
        # 0.5 s, which is more than a small batch takes.
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
            if not isinstance(states, SimulationError):
                self._props[(schedule, basis.grid, dt)] = states

    def validated_settings(self, schedule, n_states, settings, check_dt, also=()):
        """``settings`` with a dt that passed the halving check for this
        family, starting from ``settings.dt``.

        ``also`` lists schedules that propagate ``n_states`` states at the
        validated dt next; they run as a batch (:meth:`propagate_batch`).
        While the check has yet to run, that batch guesses ``settings.dt``
        and also holds the check's first two rungs, dt and dt/2, which it
        always propagates; if the check then halves dt, the schedules run
        as a second batch at the dt it kept.
        """
        key = (_family(schedule), settings)
        dt = self._dts.get(key) if check_dt else settings.dt
        guessed = None
        if dt is None:
            guessed = settings.dt
            self.propagate_batch([
                (schedule, guessed, n_states),
                (schedule, 0.5 * guessed, n_states),
                *[(other, guessed, n_states) for other in also],
            ])
            dt = self._converge_dt(schedule, n_states, settings)
            self._dts[key] = dt
        if dt != guessed:
            self.propagate_batch([(other, dt, n_states) for other in also])
        if dt == settings.dt:
            return settings
        return PropagationSettings(
            dt, settings.store_trajectory, settings.tolerance, settings.n_samples
        )

    def _converge_dt(self, schedule, n_states, settings):
        def halve(grid, initial, targets):
            dt = settings.dt
            previous = None
            for _ in range(12):
                trial = PropagationSettings(dt, tolerance=settings.tolerance)
                states = self.evolved_states(schedule, grid, initial, n_states, trial)
                overlaps = np.conj(states) @ targets.states.T * grid.dx
                if previous is not None:
                    if np.max(np.abs(overlaps - previous[1])) < settings.tolerance:
                        return previous[0]
                previous = (dt, overlaps)
                dt *= 0.5
            raise ConvergenceError(
                f"time step did not converge to tolerance {settings.tolerance} "
                f"after halving down to dt={dt * 2}"
            )

        return self._with_escalation(schedule, n_states, n_states, halve)

    # -- overlap assembly -----------------------------------------------------

    def master_overlaps(self, schedule, n_states, n_protected, settings):
        """Overlap matrix rows for the lowest ``n_states`` evolved levels."""
        def overlaps(grid, initial, targets):
            evolved = self.evolved_states(schedule, grid, initial, n_states, settings)
            matrix = np.conj(evolved) @ targets.states[:n_protected].T * grid.dx
            return matrix, grid, initial

        return self._with_escalation(
            schedule, n_states, max(n_protected, 1), overlaps
        )

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
        _check_counts(n_protected, n_buffer)
        n_total = n_protected + n_buffer
        settings = settings or self.validated_settings(
            schedule, n_total, self.settings, check_dt
        )
        matrix, _, _ = self.master_overlaps(schedule, n_total, n_protected, settings)
        a = OverlapMatrix(matrix)
        result = fidelity_fast(a)
        if verify_oracle:
            verify_against_oracle(a, result)
        return result

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
        values, _ = self.thermal_fidelity_curve(
            schedule,
            n_protected,
            n_buffer,
            [tau],
            settings,
            tail_bound=tail_bound,
            check_dt=check_dt,
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
    ):
        """Thermal fidelity at several temperatures from one propagation.

        Returns (values, ensembles).  The hottest temperature's ensemble is
        enumerated once and the master overlap matrix covers its highest
        level; the per-configuration fidelities are evaluated once over
        its rows, and each colder temperature is a row mask of it,
        re-weighted with its own cutoff.  A colder temperature whose cutoff
        grows past the hottest one's is evaluated on its own.
        """
        _check_counts(n_protected, n_buffer)
        n_total = n_protected + n_buffer
        if len(taus) == 0:
            raise ConfigError("no temperatures supplied")
        if min(taus) < 0:
            raise ConfigError("temperatures must be >= 0")
        settings = settings or self.validated_settings(
            schedule, n_total, self.settings, check_dt
        )

        tau_max = max(taus)
        if tau_max > 0:
            hot, energies = self._ensemble_levels(
                schedule, n_total, tau_max, tail_bound
            )
            m_needed = hot.m_max
        else:
            m_needed = n_total
        matrix, _, initial = self.master_overlaps(
            schedule, m_needed, n_protected, settings
        )
        if tau_max == 0:
            energies = initial.energies
            hot = enumerate_ensemble(energies, n_total, 0.0, tail_bound)
        per_config = gram_fidelity_values(matrix, hot.row_index_array())

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

    def _ensemble_levels(self, schedule, n_total, tau, tail_bound):
        """(ensemble at ``tau``, the energy ladder it was enumerated from).

        The level search starts from the count the family grid was last
        planned for, which an earlier curve may already have certified.
        """
        entry = self._grids.get(_family(schedule))
        n_levels = max(n_total + 8, 12, entry[1] if entry else 0)
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
