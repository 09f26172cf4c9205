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
"""

from dataclasses import replace

import numpy as np

from . import spectral
from .errors import (
    ConfigError,
    ContainmentError,
    ConvergenceError,
    NeedsMoreLevelsError,
    ResolutionError,
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


def _check_counts(n_protected, n_buffer):
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

    def evolved_states(self, schedule, grid, basis, n_states, settings):
        key = (schedule, grid, settings.dt)
        cached = self._props.get(key)
        if cached is not None and cached.shape[0] >= n_states:
            return cached[:n_states]
        states = propagate_basis(basis, n_states, schedule, settings)
        self._props[key] = states
        return states

    def validated_settings(self, schedule, n_states, settings, check_dt):
        """``settings`` with a dt that passed the halving check for this
        family, starting from ``settings.dt``."""
        if not check_dt:
            return settings
        key = (_family(schedule), settings)
        dt = self._dts.get(key)
        if dt is None:
            dt = self._converge_dt(schedule, n_states, settings)
            self._dts[key] = dt
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
