"""Every fidelity from the targets' side: the N_p targets evolved backward.

A[j, i] = <U psi_j|phi_i> = <psi_j|U^dagger phi_i>, and on the lattice
U^dagger phi = conj(U_rev phi) for real eigenstates, U_rev being the
schedule run backward.  These tests hold the backward matrix and the
fidelities read from it, at zero temperature and above, against the
levels evolved forward (``tests/reference.py``); check that a tripping
backward run escalates the family grid, that the planner's grids hold
the backward runs it plans for, whatever the order of a sweep's
schedules, and that the time-step check covers the rows a curve reads
and keeps a dt from a coarse rung at 2·dt.
"""

import numpy as np
import pytest

from pauliblock import (
    Axis,
    ContainmentError,
    PotentialSchedule,
    PropagationSettings,
    ResolutionError,
    SimulationError,
    SweepSpec,
    run_sweep,
)
from pauliblock import pipeline
from pauliblock.pipeline import Engine
from pauliblock.planner import plan_grid

from conftest import count_runs
from reference import forward_fidelity, forward_overlaps

# (schedule, planned levels) on grids of 96, 60 and 120 points.
CASES = [
    (PotentialSchedule.transport(6.0, x0_f=10.0), 8),
    (PotentialSchedule.expansion(5.0, omega_f=0.25), 8),
    (PotentialSchedule.splitting(2.0, h_f=20.0), 20),
]
CASE_IDS = ["transport", "expansion", "splitting"]
SETTINGS = PropagationSettings(dt=0.01)


def expansion(T):
    return PotentialSchedule.expansion(T, omega_f=0.01, lam=1.0)


def both_sides(schedule, n_levels, cpus):
    """An engine with the family planned for ``n_levels`` levels and as
    many targets: the final trap's window then holds the levels evolved
    forward, so that both sides run on one grid.  Its batches run in this
    process (``cpus`` is the fixture)."""
    cpus(1)
    engine = Engine()
    engine.plan_levels([schedule], n_levels, n_levels, 0.0)
    return engine


def record_runs(monkeypatch, schedule):
    """Wrap ``pipeline.propagate_basis``; return the list of ``(side,
    n_states, dt)`` of its runs for ``schedule``, those stacked ``also``
    included."""
    runs = []
    real = pipeline.propagate_basis
    backward = schedule.time_reversed()

    def recorded(basis, n_states, run_schedule, settings, also=None):
        for _, run_states, stacked, run_settings in (
            (basis, n_states, run_schedule, settings), *(also or ())
        ):
            if stacked in (schedule, backward):
                side = "backward" if stacked == backward else "forward"
                runs.append((side, run_states, run_settings.dt))
        return real(basis, n_states, run_schedule, settings, also=also)

    monkeypatch.setattr(pipeline, "propagate_basis", recorded)
    return runs


class TestBothSidesAgree:
    @pytest.mark.parametrize("schedule, n_levels", CASES, ids=CASE_IDS)
    def test_backward_matrix_is_the_forward_one(self, schedule, n_levels, cpus):
        engine = both_sides(schedule, n_levels, cpus)
        backward, _, _ = engine.master_overlaps(schedule, n_levels, 2, SETTINGS)
        _, initial, targets = engine.endpoint_bases(schedule, n_levels, 2)
        forward = forward_overlaps(initial, targets, n_levels, schedule, SETTINGS)
        assert backward.shape == forward.shape == (n_levels, 2)
        np.testing.assert_allclose(backward, forward, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("schedule, n_levels", CASES, ids=CASE_IDS)
    def test_thermal_value_matches_a_forward_reference(
        self, schedule, n_levels, monkeypatch, cpus
    ):
        # The curve reads every level of the ladder it is planned for, so
        # both sides hold that ladder.
        n_levels = max(n_levels, Engine().plan_levels([schedule], 4, 2, 0.5))
        engine = both_sides(schedule, n_levels, cpus)
        runs = record_runs(monkeypatch, schedule)
        value = engine.thermal_fidelity(schedule, 2, 2, 0.5, SETTINGS).value
        # The curve evolved its two targets backward, and nothing forward.
        assert runs == [("backward", 2, SETTINGS.dt)]
        reference = forward_fidelity(engine, schedule, 2, 2, 0.5, SETTINGS)
        assert value == pytest.approx(reference, rel=0, abs=1e-12)

    @pytest.mark.parametrize("schedule, n_levels", CASES, ids=CASE_IDS)
    def test_zero_temperature_matches_a_forward_reference(
        self, schedule, n_levels, monkeypatch, cpus
    ):
        # With the time-step check on, every run, rungs included, is the
        # two targets evolved backward.
        engine = both_sides(schedule, n_levels, cpus)
        runs = record_runs(monkeypatch, schedule)
        checked = engine.validated_settings([schedule], 6, 2, 0.0, SETTINGS, True)
        (value,) = engine.thermal_fidelity_curve(schedule, 2, 4, [0.0], checked)
        assert {side for side, _, _ in runs} == {"backward"}
        assert {n_states for _, n_states, _ in runs} == {2}
        reference = forward_fidelity(engine, schedule, 2, 4, 0.0, checked)
        assert value == pytest.approx(reference, rel=0, abs=1e-9)

    def test_no_target_makes_no_run(self, monkeypatch, cpus):
        schedule = PotentialSchedule.splitting(1.0, h_f=20.0)
        runs = record_runs(monkeypatch, schedule)
        cpus(2)
        engine = Engine(settings=SETTINGS)
        checked = engine.validated_settings([schedule], 3, 0, 0.0, SETTINGS, True)
        assert engine.scenario_fidelity(schedule, 0, 3, checked).value == 1.0
        assert engine.thermal_fidelity(schedule, 0, 3, 0.5).value == pytest.approx(1.0)
        assert runs == []


class TestEscalation:
    def test_tripping_backward_run_escalates_the_family_grid(
        self, monkeypatch, cpus
    ):
        # Planned for T = 25 alone, the expansion family gets 250 points.
        # The T = 10 ramp pumps more momentum into the targets than that
        # lattice holds: their backward run trips the resolution check, and
        # the family grid is refined once, to the value an engine gives
        # whose first grid is already the refined one.
        settings = PropagationSettings(dt=2e-3)
        cpus(1)
        engine = Engine(settings=settings)
        engine.plan_levels([expansion(25.0)], 14, 2, 0.0)
        planned, _, _ = engine.endpoint_bases(expansion(10.0), 14, 2)
        assert planned.n_points == 250
        with pytest.raises(ResolutionError):
            engine.evolved_states(expansion(10.0), 2, settings)
        escalated = engine.scenario_fidelity(expansion(10.0), 2, 12, settings)
        assert engine.family_grid(expansion(10.0)) == planned.refined()

        planner = pipeline.plan_grid
        monkeypatch.setattr(
            pipeline, "plan_grid", lambda *args: planner(*args).refined()
        )
        fine = Engine(settings=settings)
        fine.plan_levels([expansion(25.0)], 14, 2, 0.0)
        reference = fine.scenario_fidelity(expansion(10.0), 2, 12, settings)
        assert fine.family_grid(expansion(10.0)) == planned.refined()
        assert escalated.value == pytest.approx(reference.value, abs=1e-12)


    def test_tripping_run_leaves_the_sound_run_cached(self, monkeypatch, cpus):
        # On the 250 points planned for T = 25 alone, the T = 10 targets
        # trip; stacked with them, the T = 25 run, sound on its own, leaves
        # the stack with its states, and the in-order path finds it cached.
        settings = PropagationSettings(dt=2e-3)
        cpus(1)
        engine = Engine(settings=settings)
        engine.plan_levels([expansion(25.0)], 14, 2, 0.0)
        engine.propagate_batch([(expansion(25.0), 2e-3, 2), (expansion(10.0), 2e-3, 2)])
        runs = record_runs(monkeypatch, expansion(25.0))
        engine.evolved_states(expansion(25.0), 2, settings)
        assert runs == []
        monkeypatch.undo()

        # A sweep whose stacks trip writes the CSV of one CPU, where the
        # whole batch is one stack, on two, where T = 25 runs alone.  On
        # one CPU, each run is evolved once per grid.
        spec = SweepSpec(
            schedule=expansion(10.0),
            axis=Axis.PROCESS_TIME,
            axis_values=(10.0, 25.0),
            n_protected=2,
            n_buffer=12,
            settings=settings,
        )
        csvs = []
        for n_cpus in (1, 2):
            cpus(n_cpus)
            counts = count_runs(monkeypatch)
            engine = Engine(settings=settings)
            engine.plan_levels([expansion(25.0)], 14, 2, 0.0)
            csvs.append(run_sweep(spec, engine).to_csv())
            assert engine.family_grid(expansion(10.0)).n_points == 500
            if n_cpus == 1:
                assert max(counts.values()) == 1
        assert csvs[0] == csvs[1]


class TestPlannedGridsHold:
    def test_thermal_expansion_needs_no_trip(self, monkeypatch):
        # The targets of this thermal expansion leaked off the 240-point
        # grid planned for its levels alone (edge ratio 1.6e-2) and fell
        # back to a forward run; planned for their reversed flow, they stay
        # on the lattice at the first attempt.
        schedule = expansion(10.0)
        runs = record_runs(monkeypatch, schedule)
        engine = Engine()
        checked = engine.validated_settings(
            [schedule], 6, 2, 0.1, engine.settings, True
        )
        value = engine.thermal_fidelity(schedule, 2, 4, 0.1, checked).value
        assert runs and {side for side, _, _ in runs} == {"backward"}
        n_levels = Engine().plan_levels([schedule], 6, 2, 0.1)
        assert engine.family_grid(schedule) == plan_grid([schedule], n_levels, 2)
        assert value == pytest.approx(0.651640289063409, rel=0, abs=1e-9)

    def test_sweep_order_does_not_change_the_plan(self, monkeypatch, cpus):
        # Each family is planned once for all the schedules a sweep hands
        # over: T = 25 alone plans 250 points, on which the T = 10 targets
        # trip, so the plan must not depend on which schedule comes first.
        settings = PropagationSettings(dt=2e-3)
        runs = record_runs(monkeypatch, expansion(10.0))
        cpus(1)
        results = []
        for order in ((10.0, 15.0, 25.0), (25.0, 15.0, 10.0)):
            schedules = [expansion(t) for t in order]
            engine = Engine(settings=settings)
            checked = engine.validated_settings(schedules, 14, 2, 0.0, settings, True)
            assert checked.dt == settings.dt
            values = {
                s.T: engine.thermal_fidelity_curve(s, 2, 12, [0.0], checked)
                for s in schedules
            }
            results.append((engine.family_grid(schedules[0]), values))
        assert results[0] == results[1]
        assert results[0][0] == plan_grid([expansion(10.0)], 14, 2)
        # T = 10 ran once per order at dt, and at 2·dt as the checked
        # schedule, each on the planned grid alone.
        at = [("backward", 2, settings.dt), ("backward", 2, 2 * settings.dt)]
        assert runs == at + at[:1]


class TestCheckCoversTheCurveRows:
    def test_a_change_past_row_n_halves_dt(self, monkeypatch, cpus):
        # N = 3 fermions at tau = 0.3 read 10 levels.  The dt rung's first
        # target picks up a component along level N + 1 (row N of the
        # block), so its rungs differ by 10 tolerances in that row alone.
        schedule = PotentialSchedule.splitting(0.5, h_f=20.0)
        settings = PropagationSettings(dt=0.01)
        cpus(1)
        engine = Engine(256, settings)
        n_total = 3
        n_levels = engine.plan_levels([schedule], n_total, 2, 0.3)
        _, initial, _ = engine.endpoint_bases(schedule, n_levels, 2)
        kick = 10 * pipeline.DT_TOLERANCE * initial.states[n_total]

        real = pipeline.propagate_basis
        backward = schedule.time_reversed()
        blocks = {}

        def perturbed(basis, n_states, run_schedule, run_settings, also=None):
            finals = real(basis, n_states, run_schedule, run_settings, also=also)
            stack = [(run_schedule, run_settings)]
            stack += [(stacked, dt) for _, _, stacked, dt in also or ()]
            out = []
            for (stacked, stacked_settings), states in zip(
                stack, finals if also is not None else [finals]
            ):
                if stacked == backward:
                    if stacked_settings.dt == settings.dt:
                        states = states.copy()
                        states[0] += kick
                    blocks[stacked_settings.dt] = (
                        initial.states @ np.conj(states).T * initial.grid.dx
                    )
                out.append(states)
            return out if also is not None else out[0]

        monkeypatch.setattr(pipeline, "propagate_basis", perturbed)
        checked = engine.validated_settings([schedule], n_total, 2, 0.3, settings, True)
        assert checked.dt == settings.dt / 2
        change = np.abs(blocks[settings.dt] - blocks[settings.dt / 2])
        # An N x N check, blind to rows >= N, would have kept dt.
        assert change[:n_total].max() < pipeline.DT_TOLERANCE
        assert change[n_total:].max() > pipeline.DT_TOLERANCE


def planted(monkeypatch, schedule, edit):
    """Wrap ``pipeline.propagate_basis``: the result of each backward run
    of ``schedule``, its states or the error it tripped, is replaced by
    ``edit(dt, result)``."""
    real = pipeline.propagate_basis
    backward = schedule.time_reversed()

    def edited(basis, n_states, run_schedule, settings, also=None):
        runs = [(basis, n_states, run_schedule, settings), *(also or ())]
        finals = [
            edit(run_settings.dt, final) if stacked == backward else final
            for (_, _, stacked, run_settings), final in zip(
                runs, real(basis, n_states, run_schedule, settings, also=runs[1:])
            )
        ]
        if also is not None:
            return finals
        if isinstance(finals[0], SimulationError):
            raise finals[0]
        return finals[0]

    monkeypatch.setattr(pipeline, "propagate_basis", edited)


def rung_change(engine, schedule, n_levels, dt):
    """d(h, h/2), the largest change of the planned block between the
    rungs h and h/2, for h = 2·dt and h = dt."""
    blocks = [
        engine.master_overlaps(schedule, n_levels, 2, PropagationSettings(h))[0]
        for h in (2 * dt, dt, dt / 2)
    ]
    return [np.max(np.abs(a - b)) for a, b in zip(blocks, blocks[1:])]


class TestCoarseRung:
    @pytest.mark.parametrize(
        "schedule, n_total, tau, n_levels, n_points",
        [
            # The bench splitting family, planned for N_b = 6 up to tau = 1.6.
            (PotentialSchedule.splitting(2.0, h_f=20.0), 8, 1.6, 35, 144),
            (expansion(10.0), 14, 0.0, 14, 320),
        ],
        ids=["splitting", "expansion"],
    )
    def test_strang_change_falls_fourfold_per_halving(
        self, schedule, n_total, tau, n_levels, n_points, cpus
    ):
        # The factor 4 that lets d(2·dt, dt) < 4 tolerances stand for
        # d(dt, dt/2) < 1 tolerance; both families keep dt = 2e-3 from the
        # pair (2·dt, dt).
        cpus(1)
        engine = Engine()
        assert engine.plan_levels([schedule], n_total, 2, tau) == n_levels
        assert engine.family_grid(schedule).n_points == n_points
        coarse, fine = rung_change(engine, schedule, n_levels, 2e-3)
        assert 3.8 <= coarse / fine <= 4.2
        assert coarse < 4 * pipeline.DT_TOLERANCE

    @pytest.mark.parametrize("coarse_rung", ["8 tolerances off", "tripped"])
    def test_a_bad_coarse_rung_leaves_dt_to_the_next_pair(
        self, coarse_rung, monkeypatch, cpus
    ):
        # Left alone, this case keeps dt from the pair (2·dt, dt).  A 2·dt
        # rung moved by 8 tolerances fails that pair, and one that trips
        # counts for nothing and escalates no grid: either way the pair
        # (dt, dt/2) keeps dt.
        schedule = PotentialSchedule.splitting(0.5, h_f=20.0)
        settings = PropagationSettings(dt=0.01)
        cpus(1)
        engine = Engine(256, settings)
        n_levels = engine.plan_levels([schedule], 5, 2, 0.0)
        grid, initial, _ = engine.endpoint_bases(schedule, n_levels, 2)

        def edit(dt, states):
            if dt != 2 * settings.dt:
                return states
            if coarse_rung == "tripped":
                return ResolutionError("planted", state=1, ratio=1.0, tol=1e-6)
            states = states.copy()
            states[0] += 8 * pipeline.DT_TOLERANCE * initial.states[0]
            return states

        planted(monkeypatch, schedule, edit)
        runs = record_runs(monkeypatch, schedule)
        checked = engine.validated_settings([schedule], 5, 2, 0.0, settings, True)
        assert checked.dt == settings.dt
        assert sorted(dt for _, _, dt in runs) == [0.005, 0.01, 0.02]
        assert engine.family_grid(schedule) == grid

    def test_a_tripping_coarse_rung_escalates_no_grid(self, cpus):
        # On the 250 points planned for T = 25 alone, the T = 10 targets
        # leave the domain at 2·dt and the momentum lattice at dt.  Only
        # the lattice is refined, once, as on a ladder that starts at dt.
        settings = PropagationSettings(dt=2e-3)
        cpus(1)
        engine = Engine(settings=settings)
        engine.plan_levels([expansion(25.0)], 14, 2, 0.0)
        planned, _, _ = engine.endpoint_bases(expansion(10.0), 14, 2)
        with pytest.raises(ContainmentError):
            engine.evolved_states(expansion(10.0), 2, PropagationSettings(4e-3))
        checked = engine.validated_settings(
            [expansion(10.0), expansion(25.0)], 14, 2, 0.0, settings, True
        )
        assert engine.family_grid(expansion(10.0)) == planned.refined()
        assert checked.dt == settings.dt
