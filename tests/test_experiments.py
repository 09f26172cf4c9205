import io
import math
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from pauliblock import (
    Axis,
    ConfigError,
    ConvergenceError,
    PotentialSchedule,
    PropagationSettings,
    SweepSpec,
    min_buffer_search,
    run_sweep,
    temperature_compensation_report,
)
from pauliblock import pipeline
from pauliblock.config import build_spec, parse_config_text
from pauliblock.experiments import (
    CompensationResult,
    CompensationRow,
    GapSweepResult,
    MinBufferResult,
    SweepResult,
    SweepRow,
)
from pauliblock.pipeline import Engine
from pauliblock.planner import plan_grid
from pauliblock.propagate import STACK_STEP_COST, stack_cost

from conftest import count_runs


def split_spec(**overrides):
    base = dict(
        schedule=PotentialSchedule.splitting(1.0, h_f=20.0),
        axis=Axis.BUFFER_COUNT,
        axis_values=(0, 1, 2, 3),
        n_protected=2,
        settings=PropagationSettings(dt=2e-3),
        check_dt=False,
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def shared_engine():
    return Engine()


class TestSpecValidation:
    def test_axis_values_must_ascend(self):
        with pytest.raises(ConfigError):
            split_spec(axis_values=(3, 1, 2))

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            split_spec(threshold=1.0)

    @pytest.mark.parametrize("tail_bound", [5.0, 0.0, math.nan])
    def test_tail_bound_range(self, tail_bound):
        # Checked at tau = 0 too, where no ensemble is enumerated.
        with pytest.raises(ConfigError, match="tail_bound must be in"):
            split_spec(tail_bound=tail_bound)

    @pytest.mark.parametrize(
        "overrides",
        [dict(tau=math.nan),
         dict(axis=Axis.TEMPERATURE, axis_values=(-0.1, 0.3)),
         dict(axis=Axis.TEMPERATURE, axis_values=(0.0, math.nan)),
         dict(axis=Axis.TEMPERATURE, axis_values=(0.0, math.inf))],
        ids=["tau-nan", "axis-negative", "axis-nan", "axis-inf"],
    )
    def test_temperatures_checked(self, overrides):
        # A temperature axis is checked as the spec is made, before any
        # grid is planned.
        with pytest.raises(ConfigError, match="temperatures must be finite"):
            split_spec(**overrides)

    def test_buffer_range_helper(self):
        assert split_spec(n_buffer=(0, 4)).buffer_range() == (0, 4)
        assert split_spec(n_buffer=3).buffer_range() == (3, 3)
        with pytest.raises(ConfigError):
            split_spec(n_buffer=(4, 1)).buffer_range()

    @pytest.mark.parametrize(
        "n_buffer, named",
        [(2.5, "2.5"), ((0.5, 3.7), "0.5"), (True, "True"), (math.nan, "nan"),
         ((0, math.inf), "inf")],
    )
    def test_buffer_range_rejects_non_integers(self, n_buffer, named):
        # A fraction, a bool or a non-finite value is no buffer count; it is
        # neither truncated nor let through to int().
        with pytest.raises(ConfigError, match=named):
            split_spec(n_buffer=n_buffer).buffer_range()

    @pytest.mark.parametrize(
        "overrides",
        [dict(n_protected=2.5), dict(n_protected=True),
         dict(axis=Axis.PROCESS_TIME, axis_values=(1.0,), n_protected=2.5),
         dict(axis=Axis.PROCESS_TIME, axis_values=(1.0,), n_protected=True)],
        ids=["buffer-axis-fraction", "buffer-axis-bool", "fraction", "bool"],
    )
    def test_protected_count_must_be_whole(self, overrides):
        # Refused as the spec is made, before any grid is planned, as a
        # config file's N_p = 2.5 is.
        with pytest.raises(ConfigError, match="particle counts must be integers"):
            split_spec(**overrides)

    def test_whole_number_float_counts_give_the_bytes_of_ints(self):
        spec = split_spec(
            schedule=PotentialSchedule.splitting(0.5, h_f=20.0), axis_values=(1,),
            n_points=256, settings=PropagationSettings(dt=0.01),
        )
        floats = replace(spec, n_protected=2.0)
        assert floats.n_protected == 2 and type(floats.n_protected) is int
        assert run_sweep(floats).to_csv(None) == run_sweep(spec).to_csv(None)

    def test_handed_engine_must_match_n_points(self, cpus):
        spec = split_spec(axis_values=(0,), n_points=256)
        temperatures = replace(
            spec, axis=Axis.TEMPERATURE, axis_values=(0.0, 0.3), n_buffer=(0, 1)
        )
        for evaluate, sweep in (
            (run_sweep, spec),
            (temperature_compensation_report, temperatures),
            (lambda s, engine: min_buffer_search(s, engine=engine),
             replace(spec, axis=Axis.PROCESS_TIME, axis_values=(1.0,))),
        ):
            with pytest.raises(ConfigError):
                evaluate(sweep, Engine())
        alone = run_sweep(spec)
        assert [row.n_points for row in alone.rows] == [256]
        cpus(1)
        handed = run_sweep(spec, Engine(256, spec.settings))
        assert handed.to_csv(None) == alone.to_csv(None)


class TestBufferSweep:
    def test_rows_and_monotonicity(self, shared_engine):
        spec = split_spec()
        result = run_sweep(spec, shared_engine)
        assert len(result.rows) == len(spec.axis_values)
        values = result.fidelities()
        assert all(0.0 <= v <= 1.0 + 1e-10 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_deterministic_bytes(self):
        spec = split_spec(axis_values=(0, 2))
        first = run_sweep(spec).to_csv(None)
        second = run_sweep(spec).to_csv(None)
        assert first == second
        header = first.splitlines()[0]
        assert header.startswith("axis,axis_value,task,shape,T")

    def test_row_count_matches_grid(self, shared_engine):
        spec = split_spec(axis_values=(0, 1, 2))
        result = run_sweep(spec, shared_engine)
        text = result.to_csv(None)
        assert len(text.splitlines()) == 1 + 3


class TestProcessTimeSweep:
    def test_basic(self, shared_engine):
        spec = split_spec(
            axis=Axis.PROCESS_TIME, axis_values=(0.5, 1.0), n_buffer=3
        )
        result = run_sweep(spec, shared_engine)
        assert [row.T for row in result.rows] == [0.5, 1.0]
        assert all(0.0 <= row.fidelity <= 1.0 for row in result.rows)

    def test_worker_pool_matches_serial(self, cpus):
        # A zero- and a finite-temperature sweep, and the minimal-buffer
        # search, which shares their evaluation path.  On two processes, the
        # dt check's two rungs (when it is on) and the zero-temperature
        # schedules propagate as one batch, and the points read the cache.
        cases = (
            (run_sweep, dict(n_buffer=2)),
            (run_sweep, dict(n_buffer=2, check_dt=True)),
            (run_sweep, dict(n_buffer=2, tau=0.3)),
            (min_buffer_search, dict(n_buffer=(0, 3))),
        )
        for evaluate, options in cases:
            spec = split_spec(
                axis=Axis.PROCESS_TIME, axis_values=(0.5, 1.0), **options
            )
            cpus(1)
            serial = evaluate(spec).to_csv(None)
            cpus(2)
            parallel = evaluate(spec).to_csv(None)
            assert serial == parallel

    def test_needs_single_buffer_value(self):
        spec = split_spec(axis=Axis.PROCESS_TIME, axis_values=(0.5, 1.0),
                          n_buffer=(0, 3))
        with pytest.raises(ConfigError):
            run_sweep(spec)


class TestWorkerCount:
    """One CPU and two give the same bytes."""

    def process_time_spec(self, **overrides):
        return split_spec(
            axis=Axis.PROCESS_TIME, axis_values=(0.5, 1.0), n_buffer=2,
            check_dt=True, **overrides
        )

    def test_dt_check_on(self, cpus):
        spec = self.process_time_spec()
        cpus(1)
        serial = run_sweep(spec).to_csv(None)
        cpus(2)
        assert run_sweep(spec).to_csv(None) == serial

    def test_rejected_dt_discards_the_guessed_runs(self, cpus):
        # The batch guesses that the check keeps dt = 0.02; it halves it.
        spec = self.process_time_spec(settings=PropagationSettings(dt=0.02))
        cpus(1)
        serial = run_sweep(spec)
        assert {row.dt for row in serial.rows} == {0.01}
        cpus(2)
        assert run_sweep(spec).to_csv(None) == serial.to_csv(None)

    def test_leaking_batch_run_escalates_in_order(self, monkeypatch, cpus):
        # The leaking transport case of test_planner: the states reach the
        # edge of the planned domain during the ramp, so the batched runs
        # fail and the in-order path widens the grid, once, in both modes.
        schedule = PotentialSchedule.transport(4.0, x0_f=20.0, lam=1.0)
        spec = SweepSpec(
            schedule=schedule,
            axis=Axis.PROCESS_TIME,
            axis_values=(4.0, 4.5),
            n_protected=1,
            n_buffer=1,
            settings=PropagationSettings(dt=1e-3),
        )
        widened = plan_grid(
            [schedule.with_duration(t) for t in spec.axis_values], 2, 1
        ).widened()
        csvs = []
        for n_cpus in (1, 2):
            cpus(n_cpus)
            counts = count_runs(monkeypatch)
            engine = Engine()
            csvs.append(run_sweep(spec, engine).to_csv(None))
            assert engine.family_grid(schedule) == widened
            # On one CPU every run is evolved here, each once per grid.
            if n_cpus == 1:
                assert max(counts.values()) == 1
        assert csvs[0] == csvs[1]

    def test_kept_dt_batches_once(self, monkeypatch):
        # A check that keeps the requested dt ran the curves' runs with its
        # rungs; a run that failed there cached its error, and is not
        # batched again.
        batches = []
        propagate_batch = Engine.propagate_batch

        def counted(self, runs):
            batches.append(runs)
            return propagate_batch(self, runs)

        monkeypatch.setattr(Engine, "propagate_batch", counted)
        result = run_sweep(self.process_time_spec())
        assert {row.dt for row in result.rows} == {2e-3}
        assert len(batches) == 1

    def test_patched_propagation_still_pools(self, monkeypatch, cpus):
        # The benchmark's tracer replaces pipeline.propagate_basis with a
        # closure, which cannot be pickled: the pool must not send it.
        spec = self.process_time_spec()
        cpus(1)
        serial = run_sweep(spec).to_csv(None)
        cpus(2)
        calls = []
        propagate_basis = pipeline.propagate_basis

        def recorded(*args, **kwargs):
            calls.append(args)
            return propagate_basis(*args, **kwargs)

        monkeypatch.setattr(pipeline, "propagate_basis", recorded)
        assert run_sweep(spec).to_csv(None) == serial
        assert calls  # this process ran its share through the closure

    def test_batch_keeps_the_run_with_most_states(self, monkeypatch, cpus):
        # Two runs of one schedule and dt in one batch: the smaller one
        # finishes last, in the second worker's share, and must not replace
        # the larger one in the cache.
        cpus(2)
        schedule = PotentialSchedule.splitting(0.1, h_f=20.0)
        engine = Engine()
        engine.endpoint_bases(schedule, 12, 12)
        engine.propagate_batch(
            [(schedule, 0.01, 12), (schedule, 0.005, 2), (schedule, 0.01, 2)]
        )

        def not_cached(*args, **kwargs):
            raise AssertionError("the batch did not cache the 12-target run")

        monkeypatch.setattr(pipeline, "propagate_basis", not_cached)
        states = engine.evolved_states(schedule, 12, PropagationSettings(0.01))
        assert len(states) == 12

    def test_dead_worker_leaves_its_runs_to_this_process(self, monkeypatch, cpus):
        spec = self.process_time_spec()
        cpus(1)
        serial = run_sweep(spec).to_csv(None)
        cpus(2)
        parent = os.getpid()
        propagate_basis = pipeline.propagate_basis

        def dies_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return propagate_basis(*args, **kwargs)

        monkeypatch.setattr(pipeline, "propagate_basis", dies_in_workers)
        assert run_sweep(spec).to_csv(None) == serial


class TestLaneSplit:
    """Each lane is priced by what its stacks cost: a fixed amount per step
    of a stack's longest run plus one per step of each packed row."""

    def lanes(self, monkeypatch):
        """The (T, dt) of every run of each lane of each batch, recorded as
        ``_in_lanes`` gets them."""
        batches = []
        in_lanes = pipeline._in_lanes

        def recorded(tasks):
            batches.append([
                [(schedule.T, settings.dt) for _, _, schedule, settings in task.args[0]]
                for task in tasks
            ])
            return in_lanes(tasks)

        monkeypatch.setattr(pipeline, "_in_lanes", recorded)
        return batches

    def test_expansion_sweep_evolves_its_longest_run_alone(self, monkeypatch, cpus):
        # The benchmark's expansion sweep: T = 25 alone in this process;
        # T = 15, T = 10 and the time-step check's coarse rung stacked in the
        # other lane.  Priced by steps times targets alone, the two lanes
        # would tie before the rung, and the rung would join T = 25.
        cpus(2)
        batches = self.lanes(monkeypatch)
        spec = SweepSpec(
            schedule=PotentialSchedule.expansion(10.0, 0.01, lam=1.0),
            axis=Axis.PROCESS_TIME,
            axis_values=(10.0, 15.0, 25.0),
            n_protected=2,
            n_buffer=12,
            settings=PropagationSettings(dt=2e-3),
        )
        run_sweep(spec)
        assert batches == [[[(25.0, 2e-3)], [(10.0, 2e-3), (15.0, 2e-3), (10.0, 4e-3)]]]

    def test_compensation_batch_keeps_its_split(self, monkeypatch, cpus):
        # The benchmark's compensation report: the curves' run at dt in this
        # process, the check's rung at 2·dt in the other lane.
        cpus(2)
        batches = self.lanes(monkeypatch)
        spec = SweepSpec(
            schedule=PotentialSchedule.splitting(2.0, h_f=20.0),
            axis=Axis.TEMPERATURE,
            axis_values=(0.0, 0.8, 1.6),
            n_protected=2,
            n_buffer=(3, 6),
            settings=PropagationSettings(dt=2e-3),
        )
        temperature_compensation_report(spec)
        assert batches == [[[(2.0, 2e-3)], [(2.0, 4e-3)]]]

    def test_lane_on_two_grids_is_priced_as_the_sum_of_its_stacks(
        self, monkeypatch, cpus
    ):
        # One-row runs of 1000 and 300 steps on the splitting family's grid
        # and of 900 on the transport family's.  A lane's price is the sum of
        # its stacks' prices: 3·1000 for the first run's lane, 3·900 for the
        # second's.  The 300-step run then adds 300 to the first lane (its
        # stack there is already as long) against 3·300 to the second, so it
        # joins the 1000-step run.  Priced as one stack, the second lane with
        # it would cost 2·900 + 1200 = 3000 < 3300; priced by steps, too,
        # it would go to the second lane.
        cpus(2)
        batches = self.lanes(monkeypatch)
        split = PotentialSchedule.splitting(1.0, h_f=20.0)
        transport = PotentialSchedule.transport(0.9, x0_f=1.0)
        engine = Engine()
        engine.plan_levels([split, split.with_duration(0.3)], 1, 1, 0.0)
        engine.plan_levels([transport], 1, 1, 0.0)
        assert engine.family_grid(split) != engine.family_grid(transport)
        engine.propagate_batch([
            (split, 1e-3, 1), (transport, 1e-3, 1), (split.with_duration(0.3), 1e-3, 1)
        ])
        assert batches == [[[(1.0, 1e-3), (0.3, 1e-3)], [(0.9, 1e-3)]]]
        runs = [
            (
                engine.endpoint_bases(schedule, 1, 1)[2], 1,
                schedule.time_reversed(), PropagationSettings(1e-3),
            )
            for schedule in (split, split.with_duration(0.3), transport)
        ]
        assert stack_cost(runs) == stack_cost(runs[:2]) + stack_cost(runs[2:])
        assert stack_cost(runs) == (STACK_STEP_COST * 1000 + 1300) + (
            STACK_STEP_COST * 900 + 900
        )


def assert_no_children_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCurveLanes:
    """A finite-temperature sweep's runs share the lanes, and its curves
    give the bytes, and raise the errors, of one lane."""

    def report_spec(self):
        return split_spec(
            axis=Axis.TEMPERATURE, axis_values=(0.0, 0.3, 0.6), n_buffer=(1, 3)
        )

    def minbuffer_spec(self):
        return split_spec(
            axis=Axis.PROCESS_TIME, axis_values=(0.5, 1.0), n_buffer=(0, 3),
            tau=0.3,
        )

    def outputs(self, cpus):
        """CSV of the report, the minimal-buffer search and a buffer-count
        sweep, whose fidelities show every bit, on one lane, then on two."""
        csvs = []
        for n_cpus in (1, 2):
            cpus(n_cpus)
            csvs.append((
                temperature_compensation_report(self.report_spec()).to_csv(None),
                min_buffer_search(self.minbuffer_spec()).to_csv(None),
                run_sweep(split_spec(tau=0.6)).to_csv(None),
            ))
            assert_no_children_left()
        return csvs

    def test_lanes_match_one_lane(self, cpus):
        serial, pooled = self.outputs(cpus)
        assert pooled == serial

    def test_short_level_estimate(self, monkeypatch, cpus):
        # The first curve's certificate finds the ladder too short and
        # plans the family again, after the runs of the first plan were
        # batched over the lanes.
        monkeypatch.setattr(
            pipeline, "ensemble_level_count", lambda schedule, n, *args: n + 1
        )
        serial, pooled = self.outputs(cpus)
        assert pooled == serial

    @pytest.mark.parametrize("failure", ["exit", "raise"])
    def test_failing_lane_falls_back_in_order(
        self, monkeypatch, cpus, failure, tmp_path
    ):
        # The search's two schedules are evolved in two lanes; the forked
        # one leaves a mark and fails, and this process evolves its run in
        # order.
        cpus(1)
        serial = min_buffer_search(self.minbuffer_spec()).to_csv(None)
        parent = os.getpid()
        evolved = []
        propagate_basis = pipeline.propagate_basis

        def fails_in_children(basis, n_states, schedule, *args, **kwargs):
            if os.getpid() != parent:
                (tmp_path / f"lane-{schedule.T}").touch()
                if failure == "exit":
                    os._exit(1)
                raise RuntimeError("a lane failed")
            evolved.append(schedule.T)
            return propagate_basis(basis, n_states, schedule, *args, **kwargs)

        monkeypatch.setattr(pipeline, "propagate_basis", fails_in_children)
        cpus(2)
        pooled = min_buffer_search(self.minbuffer_spec())
        assert pooled.to_csv(None) == serial
        # This process ran its lane, then the failed lane's run in order.
        assert len(list(tmp_path.iterdir())) == 1
        assert sorted(evolved) == [0.5, 1.0]
        assert_no_children_left()

    def test_error_is_the_in_order_one(self, monkeypatch, cpus):
        # N_b = 1 and 2 raise; in order, N_b = 2 comes first.
        curve = Engine.thermal_fidelity_curve

        def raises(self, schedule, n_protected, n_buffer, *args, **kwargs):
            if n_buffer < 3:
                raise ConvergenceError(f"planted at N_b = {n_buffer}")
            return curve(self, schedule, n_protected, n_buffer, *args, **kwargs)

        monkeypatch.setattr(Engine, "thermal_fidelity_curve", raises)
        for n_cpus in (1, 2):
            cpus(n_cpus)
            with pytest.raises(ConvergenceError, match="N_b = 2"):
                temperature_compensation_report(self.report_spec())
            assert_no_children_left()

    def test_lanes_return_in_order(self):
        results = pipeline._in_lanes(
            [lambda: 1, lambda: [2], lambda: os._exit(3), lambda: 1 / 0]
        )
        assert results == [1, [2], None, None]
        assert_no_children_left()

    def test_raising_first_lane_reaps_the_others(self):
        def raises():
            raise ConvergenceError("this process's lane")

        # The sleeping child is killed, not waited for.
        start = time.monotonic()
        with pytest.raises(ConvergenceError, match="this process's lane"):
            pipeline._in_lanes([raises, lambda: time.sleep(60)])
        assert_no_children_left()
        assert time.monotonic() - start < 30


class TestTemperatureSweep:
    def test_rows(self, shared_engine):
        spec = split_spec(
            axis=Axis.TEMPERATURE, axis_values=(0.0, 0.3, 0.6), n_buffer=2
        )
        result = run_sweep(spec, shared_engine)
        assert len(result.rows) == 3
        assert [row.tau for row in result.rows] == [0.0, 0.3, 0.6]


class TestAnharmonicitySweep:
    def test_splitting_rejected(self):
        spec = split_spec(axis=Axis.ANHARMONICITY, axis_values=(0.5, 1.0))
        with pytest.raises(ConfigError):
            run_sweep(spec)


class TestGapSweep:
    def test_schema(self):
        spec = SweepSpec(
            schedule=PotentialSchedule.expansion(1.0, omega_f=0.01, lam=1.0),
            axis=Axis.PARTICLE_NUMBER_GAP,
            axis_values=(1, 2, 3),
        )
        result = run_sweep(spec)
        text = result.to_csv(None)
        lines = text.splitlines()
        assert lines[0] == "N,lambda,delta_E"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 1.0

    @pytest.mark.parametrize(
        "schedule",
        [PotentialSchedule.splitting(1.0, h_f=20.0),
         PotentialSchedule.transport(1.0, x0_f=5.0, omega=2.0)],
        ids=["splitting", "transport"],
    )
    def test_other_tasks_rejected(self, schedule):
        # The profile is of an expansion's t = 0 trap; the frequency of a
        # transport or splitting trap is another trap's.
        with pytest.raises(ConfigError, match="expansion schedules only"):
            SweepSpec(
                schedule=schedule,
                axis=Axis.PARTICLE_NUMBER_GAP,
                axis_values=(1, 2),
            )


class TestMinBufferSearch:
    def test_monotone_and_consistent(self, shared_engine):
        spec = split_spec(
            axis=Axis.PROCESS_TIME,
            axis_values=(0.25, 0.5, 1.0),
            n_buffer=(0, 4),
        )
        result = min_buffer_search(spec, engine=shared_engine)
        found = [nb for _, nb in result.rows]
        assert all(b is None or a is None or a >= b for a, b in zip(found, found[1:]))
        # Cross-check the last point against a direct buffer sweep.
        direct = run_sweep(
            split_spec(
                schedule=PotentialSchedule.splitting(1.0, h_f=20.0),
                axis_values=(0, 1, 2, 3, 4),
            ),
            shared_engine,
        )
        threshold = spec.threshold
        expected = next(
            (nb for nb, f in zip((0, 1, 2, 3, 4), direct.fidelities())
             if f >= threshold),
            None,
        )
        assert found[-1] == expected

    def test_evaluates_only_its_range(self, monkeypatch, cpus):
        # A threshold every count reaches: the least of the range is named,
        # and no count below it is evaluated.
        cpus(1)
        seen = []
        curve = Engine.thermal_fidelity_curve

        def recorded(self, schedule, n_protected, n_buffer, *args, **kwargs):
            seen.append(n_buffer)
            return curve(self, schedule, n_protected, n_buffer, *args, **kwargs)

        monkeypatch.setattr(Engine, "thermal_fidelity_curve", recorded)
        spec = split_spec(
            axis=Axis.PROCESS_TIME, axis_values=(1.0,), n_buffer=(2, 3),
            threshold=1e-9,
        )
        assert min_buffer_search(spec).rows == [(1.0, 2)]
        assert seen == [3, 2]

    def test_saturation_reported(self, shared_engine):
        spec = split_spec(
            axis=Axis.PROCESS_TIME,
            axis_values=(0.25,),
            n_buffer=(0, 1),
            threshold=0.9999,
        )
        result = min_buffer_search(spec, engine=shared_engine)
        assert result.rows[0][1] is None
        text = result.to_csv(None)
        assert text.splitlines()[-1].endswith(",,true")


class TestCompensationReport:
    def test_statuses_and_interpolation(self, shared_engine):
        spec = split_spec(
            axis=Axis.TEMPERATURE,
            axis_values=(0.0, 0.3, 0.6, 0.9, 1.2),
            n_buffer=(1, 6),
            threshold=0.95,
        )
        report = temperature_compensation_report(spec, engine=shared_engine)
        byb = {r.n_buffer: r for r in report.rows}
        assert set(byb) == {1, 2, 3, 4, 5, 6}
        # Small buffers start below threshold; a large one never drops.
        assert byb[1].status == "below"
        assert byb[2].status == "below"
        assert byb[6].status == "above"
        crossed = [r for r in report.rows if r.status == "crossed"]
        assert [r.n_buffer for r in crossed] == [3, 4, 5]
        for row in crossed:
            assert 0.0 <= row.tau_cross <= 1.2
        # Spacing column is the difference of successive crossings.
        for prev, cur in zip(crossed, crossed[1:]):
            assert cur.spacing == pytest.approx(cur.tau_cross - prev.tau_cross)

    def test_interpolated_crossing_brackets_threshold(self, shared_engine):
        spec = split_spec(
            axis=Axis.TEMPERATURE,
            axis_values=(0.0, 0.3, 0.6, 0.9, 1.2),
            n_buffer=(2, 3),
        )
        report = temperature_compensation_report(spec, engine=shared_engine)
        for row in report.rows:
            if row.status != "crossed":
                continue
            taus = list(spec.axis_values)
            values = shared_engine.thermal_fidelity_curve(
                spec.schedule, spec.n_protected, row.n_buffer, taus,
                spec.settings,
            )
            above = [t for t, v in zip(taus, values) if v >= spec.threshold]
            below = [t for t, v in zip(taus, values) if v < spec.threshold]
            assert max(above) <= row.tau_cross <= min(below)


class TestSharedEngine:
    def test_later_sweep_keeps_its_own_settings(self):
        # The same family on one engine: a later sweep's dt starts its own
        # halving check.
        engine = Engine()
        run_sweep(split_spec(axis_values=(1,), check_dt=True), engine)
        settings = PropagationSettings(dt=5e-4)
        spec = split_spec(axis_values=(1,), check_dt=True, settings=settings)
        shared = run_sweep(spec, engine).rows[0]
        fresh = run_sweep(spec).rows[0]
        assert shared.dt == fresh.dt
        assert shared.fidelity == pytest.approx(fresh.fidelity, abs=1e-12)


CSV_SPEC = split_spec(
    axis=Axis.PROCESS_TIME, axis_values=(0.5, 1), n_buffer=(0, 3), threshold=0.9
)

# Each result type from hand-made rows, and the exact text it writes: None
# is an empty cell, a bool is true/false, and a float (numpy's too) is its
# shortest round-trip repr.
CSV_CASES = {
    "sweep": (
        SweepResult(CSV_SPEC, [
            SweepRow("process_time", 0.5, "splitting", "sinusoidal", 0.5, 2, 3,
                     0.0, 0.0, 0.1 + 0.2, "gram", 0.002, 90),
            SweepRow("process_time", 1.0, "splitting", "sinusoidal", 1.0, 2, 3,
                     0.0, 0.0, 1.0, "gram", 0.001, 96),
        ]),
        "axis,axis_value,task,shape,T,N_p,N_b,tau,lambda,F,method,dt,n_points\n"
        "process_time,0.5,splitting,sinusoidal,0.5,2,3,0.0,0.0,"
        "0.30000000000000004,gram,0.002,90\n"
        "process_time,1.0,splitting,sinusoidal,1.0,2,3,0.0,0.0,1.0,gram,0.001,96\n",
    ),
    "gap": (
        GapSweepResult([(1, 0.5, np.float64(1.4050391343414705)),
                        (2, 0.5, 1.672484155213931)]),
        "N,lambda,delta_E\n1,0.5,1.4050391343414705\n2,0.5,1.672484155213931\n",
    ),
    "minbuffer": (
        MinBufferResult(CSV_SPEC, [(0.5, None), (1.0, 3)]),
        "# threshold = 0.9\n# T_grid = 0.5 1.0\nT,N_b_min,saturated\n"
        "0.5,,true\n1.0,3,false\n",
    ),
    "compensation": (
        CompensationResult(CSV_SPEC, [
            CompensationRow(3, 0.5227120852226907, None, "crossed"),
            CompensationRow(4, np.float64(0.9414652644574433), 0.4187531792347525,
                            "crossed"),
            CompensationRow(5, None, None, "above"),
        ]),
        "# threshold = 0.9\nN_b,tau_cross,spacing,status\n"
        "3,0.5227120852226907,,crossed\n"
        "4,0.9414652644574433,0.4187531792347525,crossed\n5,,,above\n",
    ),
}


class TestCsvText:
    @pytest.mark.parametrize("name", CSV_CASES)
    def test_exact_text(self, name):
        result, text = CSV_CASES[name]
        assert result.to_csv(None) == text

    @pytest.mark.parametrize("name", CSV_CASES)
    def test_path_and_buffer_get_the_same_bytes(self, tmp_path, name):
        result, text = CSV_CASES[name]
        path = tmp_path / "out.csv"
        buffer = io.StringIO(newline="")
        assert result.to_csv(path) is None
        assert result.to_csv(buffer) is None
        assert path.read_bytes() == buffer.getvalue().encode() == text.encode()
        assert b"\r" not in path.read_bytes()


class TestConfigParsing:
    GOOD = """
# buffer sweep of the splitting task
task = splitting
shape = sinusoidal
T = 1.0
h_f = 20
axis = buffer_count
axis_values = 0, 1, 2, 3
N_p = 2
dt = 0.002
threshold = 0.9
"""

    def test_round_trip(self):
        spec = build_spec(parse_config_text(self.GOOD))
        assert spec.axis is Axis.BUFFER_COUNT
        assert spec.axis_values == (0.0, 1.0, 2.0, 3.0)
        assert spec.schedule.h_f == 20.0
        assert spec.threshold == 0.9
        assert spec.settings.dt == 0.002

    def test_unset_keys_keep_the_dataclass_defaults(self):
        spec = build_spec(parse_config_text(
            "task = splitting\nT = 1\nh_f = 20\naxis = buffer_count\n"
            "axis_values = 0\n"
        ))
        assert spec == SweepSpec(spec.schedule, spec.axis, spec.axis_values)
        assert spec.settings == PropagationSettings()

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("task = splitting\nbogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("task = splitting\ntask = expansion\n")

    def test_missing_task(self):
        with pytest.raises(ConfigError):
            build_spec(parse_config_text("axis = buffer_count\naxis_values = 1\nh_f = 2\nT = 1\n"))

    def test_buffer_range_syntax(self):
        raw = parse_config_text(
            "task = splitting\nT = 1\nh_f = 20\naxis = temperature\n"
            "axis_values = 0, 0.5\nN_b = 0..6\n"
        )
        assert build_spec(raw).n_buffer == (0, 6)

    @pytest.mark.parametrize(
        "text, n_buffer",
        [("2", 2), ("2.0", 2), ("1e1", 10), ("1..2.0", (1, 2)), ("1.0..4", (1, 4))],
    )
    def test_whole_number_buffer_values(self, text, n_buffer):
        # N_b reads a whole number written as a float, as N_p does.
        raw = parse_config_text(
            "task = splitting\nT = 1\nh_f = 20\naxis = temperature\n"
            f"axis_values = 0, 0.5\nN_b = {text}\n"
        )
        assert build_spec(raw).n_buffer == n_buffer

    @pytest.mark.parametrize(
        "text, message",
        [
            ("two", "cannot parse N_b value 'two'"),
            ("2.5", "cannot parse N_b value '2.5'"),
            ("inf", "cannot parse N_b value 'inf'"),
            ("1..x", "cannot parse N_b range '1..x'"),
            ("1..2.5", "cannot parse N_b range '1..2.5'"),
            ("1..2..3", "cannot parse N_b range '1..2..3'"),
            ("..3", "cannot parse N_b range '..3'"),
        ],
    )
    def test_bad_buffer_values(self, text, message):
        raw = parse_config_text(
            "task = splitting\nT = 1\nh_f = 20\naxis = temperature\n"
            f"axis_values = 0, 0.5\nN_b = {text}\n"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_spec(raw)

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            build_spec(parse_config_text(
                "task = splitting\nT = soon\nh_f = 20\n"
                "axis = buffer_count\naxis_values = 0\n"
            ))
