"""Thermal curves from the targets' side: the N_p targets evolved backward.

A[j, i] = <U psi_j|phi_i> = <psi_j|U^dagger phi_i>, and on the lattice
U^dagger phi = conj(U_rev phi) for real eigenstates, U_rev being the
schedule run backward.  These tests hold the backward matrix against the
forward one, a thermal value against a forward reference built here from
the public pieces, the fallback when a backward run leaks, the rule by
which zero temperature reads a cached backward run, and the time-step
check's coverage of the rows a curve reads.
"""

from collections import Counter

import numpy as np
import pytest

from pauliblock import PotentialSchedule, PropagationSettings, enumerate_ensemble
from pauliblock import pipeline
from pauliblock.fidelity import gram_fidelity_values
from pauliblock.pipeline import Engine
from pauliblock.propagate import propagate_basis
from pauliblock.thermal import ensemble_average

# (schedule, planned levels) on grids of 96, 60 and 120 points.
CASES = [
    (PotentialSchedule.transport(6.0, x0_f=10.0), 8),
    (PotentialSchedule.expansion(5.0, omega_f=0.25), 8),
    (PotentialSchedule.splitting(2.0, h_f=20.0), 20),
]
CASE_IDS = ["transport", "expansion", "splitting"]
SETTINGS = PropagationSettings(dt=0.01)


def forward_reference(engine, schedule, n_protected, n_buffer, tau, settings):
    """The thermal fidelity with every occupied level evolved forward, on
    the engine's grid and bases."""
    n_total = n_protected + n_buffer
    n_levels = engine.plan_levels(schedule, n_total, tau)
    grid, initial, final = engine.endpoint_bases(schedule, n_levels, n_protected)
    ensemble = enumerate_ensemble(initial.energies, n_total, tau)
    evolved = propagate_basis(initial, ensemble.m_max, schedule, settings)
    matrix = np.conj(evolved) @ final.states.T * grid.dx
    per_config = gram_fidelity_values(matrix, ensemble.levels - 1)
    return ensemble_average(ensemble.weights, per_config)


def record_runs(monkeypatch, schedule, path=None):
    """Wrap ``pipeline.propagate_basis``; return the list of ``(side,
    n_states, dt)`` of its calls for ``schedule``.  With ``path``, each call
    is also appended there, so that runs in forked workers count too."""
    runs = []
    real = pipeline.propagate_basis
    backward = schedule.time_reversed()

    def recorded(basis, n_states, run_schedule, settings):
        if run_schedule in (schedule, backward):
            side = "backward" if run_schedule == backward else "forward"
            runs.append((side, n_states, settings.dt))
            if path is not None:
                with open(path, "a", encoding="utf-8") as out:
                    out.write(f"{side} {n_states} {settings.dt!r}\n")
        return real(basis, n_states, run_schedule, settings)

    monkeypatch.setattr(pipeline, "propagate_basis", recorded)
    return runs


class TestBothSidesAgree:
    @pytest.mark.parametrize("schedule, n_levels", CASES, ids=CASE_IDS)
    def test_backward_matrix_is_the_forward_one(self, schedule, n_levels):
        engine = Engine(workers=1)
        forward, _, _ = engine.master_overlaps(schedule, n_levels, 2, SETTINGS)
        backward, _, _ = engine.master_overlaps(
            schedule, n_levels, 2, SETTINGS, backward=True
        )
        assert backward.shape == forward.shape == (n_levels, 2)
        np.testing.assert_allclose(backward, forward, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("schedule, n_levels", CASES, ids=CASE_IDS)
    def test_thermal_value_matches_a_forward_reference(
        self, schedule, n_levels, monkeypatch
    ):
        engine = Engine(workers=1)
        runs = record_runs(monkeypatch, schedule)
        value = engine.thermal_fidelity(schedule, 2, 2, 0.5, SETTINGS).value
        # The curve evolved its two targets backward, and nothing forward.
        assert runs == [("backward", 2, SETTINGS.dt)]
        reference = forward_reference(engine, schedule, 2, 2, 0.5, SETTINGS)
        assert value == pytest.approx(reference, rel=0, abs=1e-12)


class TestFallback:
    # The targets of this expansion leak off the momentum lattice of the
    # 240-point grid planned for its 8 levels (edge ratio 1.6e-2), while
    # the forward levels stay on it.
    SCHEDULE = PotentialSchedule.expansion(10.0, omega_f=0.01, lam=1.0)

    def curve_value(self, workers):
        engine = Engine(settings=PropagationSettings(dt=2e-3), workers=workers)
        value = engine.thermal_fidelity(self.SCHEDULE, 2, 4, 0.1, check_dt=True)
        return engine, value.value

    def test_tripped_targets_fall_back_to_the_forward_path(
        self, monkeypatch, tmp_path
    ):
        planned = Engine(workers=1)
        planned.plan_levels(self.SCHEDULE, 6, 0.1)
        grid = planned.family_grid(self.SCHEDULE)
        log = tmp_path / "runs"
        record_runs(monkeypatch, self.SCHEDULE, log)

        values = []
        for workers in (1, 2):
            log.write_text("", encoding="utf-8")
            engine, value = self.curve_value(workers)
            values.append(value)
            # The trip neither escalated the grid nor raised.
            assert engine.family_grid(self.SCHEDULE) == grid
            # A second curve on the family makes no backward run again.
            engine.thermal_fidelity(self.SCHEDULE, 2, 3, 0.1, check_dt=True)
            lines = log.read_text(encoding="utf-8").splitlines()
            backward = Counter(line for line in lines if line.startswith("backward"))
            assert backward and set(backward.values()) == {1}
            assert any(line.startswith("forward") for line in lines)
        assert values[0] == values[1]

        monkeypatch.setattr(pipeline, "propagate_basis", propagate_basis)
        reference = forward_reference(
            engine, self.SCHEDULE, 2, 4, 0.1, PropagationSettings(dt=2e-3)
        )
        assert values[0] == reference

    def test_trip_and_forward_run_are_kept_apart(self, monkeypatch):
        # The targets' run and the levels' run of one schedule and dt: the
        # trip stays recorded beside the forward run, and neither is made
        # again.
        engine, _ = self.curve_value(1)
        settings = PropagationSettings(dt=2e-3)

        def no_run(*args):
            raise AssertionError("a cached or tripped run was made again")

        monkeypatch.setattr(pipeline, "propagate_basis", no_run)
        assert engine.evolved_states(self.SCHEDULE, 2, settings, True) is None
        assert len(engine.evolved_states(self.SCHEDULE, 6, settings)) == 6


class TestZeroTemperatureReadRule:
    def test_a_narrower_backward_run_is_not_widened(self, monkeypatch):
        # A tau = 0.5 curve with N_p = 1 caches one target evolved
        # backward.  Zero temperature with N_p = 2 reads the targets' side
        # only from a cached run of at least 2 targets: it evolves its 4
        # levels forward, and its value is the forward one to the bit.
        schedule = PotentialSchedule.splitting(1.0, h_f=20.0)
        settings = PropagationSettings(dt=2e-3)
        engine = Engine(workers=1)
        engine.thermal_fidelity(schedule, 1, 1, 0.5, settings)
        runs = record_runs(monkeypatch, schedule)
        value = engine.scenario_fidelity(schedule, 2, 2, settings).value
        monkeypatch.setattr(pipeline, "propagate_basis", propagate_basis)
        assert value == forward_reference(engine, schedule, 2, 2, 0.0, settings)
        assert runs == [("forward", 4, settings.dt)]


class TestCheckCoversTheCurveRows:
    def test_a_change_past_row_n_halves_dt(self, monkeypatch):
        # N = 3 fermions at tau = 0.3 read 10 levels.  The dt rung's first
        # target picks up a component along level N + 1 (row N of the
        # block), so its rungs differ by 10 tolerances in that row alone.
        schedule = PotentialSchedule.splitting(0.5, h_f=20.0)
        settings = PropagationSettings(dt=0.01)
        engine = Engine(256, settings, workers=1)
        n_total = 3
        n_levels = engine.plan_levels(schedule, n_total, 0.3)
        _, initial, _ = engine.endpoint_bases(schedule, n_levels, 2)
        kick = 10 * settings.tolerance * initial.states[n_total]

        real = pipeline.propagate_basis
        backward = schedule.time_reversed()
        blocks = {}

        def perturbed(basis, n_states, run_schedule, run_settings):
            states = real(basis, n_states, run_schedule, run_settings)
            if run_schedule == backward:
                if run_settings.dt == settings.dt:
                    states = states.copy()
                    states[0] += kick
                blocks[run_settings.dt] = (
                    initial.states @ np.conj(states).T * initial.grid.dx
                )
            return states

        monkeypatch.setattr(pipeline, "propagate_basis", perturbed)
        checked = engine.validated_settings([schedule], n_total, 2, 0.3, settings, True)
        assert checked.dt == settings.dt / 2
        change = np.abs(blocks[settings.dt] - blocks[settings.dt / 2])
        # An N x N check, blind to rows >= N, would have kept dt.
        assert change[:n_total].max() < settings.tolerance
        assert change[n_total:].max() > settings.tolerance
