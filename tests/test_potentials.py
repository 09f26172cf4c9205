from dataclasses import replace

import numpy as np
import pytest

from pauliblock import ConfigError, Grid, PotentialSchedule, RampShape, Task
from pauliblock.potentials import _CONTROLS


def expansion(shape=RampShape.SINUSOIDAL, T=10.0, lam=1.0, omega_f=0.01):
    return PotentialSchedule.expansion(T, omega_f=omega_f, lam=lam, shape=shape)


class TestControlValue:
    def test_sinusoidal_endpoints(self):
        s = expansion()
        assert s.control_value(0.0) == 1.0
        assert s.control_value(s.T) == 0.01

    def test_sinusoidal_midpoint_is_average(self):
        s = expansion()
        assert s.control_value(s.T / 2) == pytest.approx((1.0 + 0.01) / 2, abs=1e-12)

    def test_linear_quarter_point(self):
        s = expansion(shape=RampShape.LINEAR)
        assert s.control_value(s.T / 4) == pytest.approx(0.7525, abs=1e-12)

    def test_out_of_range_rejected(self):
        s = expansion()
        with pytest.raises(ConfigError):
            s.control_value(-0.5)
        with pytest.raises(ConfigError):
            s.control_value(s.T + 0.5)


class TestArrayControlValue:
    # One call on a column of times gives each time's scalar value to the
    # bit, keeps the endpoints exact and checks the range of every time.

    SCHEDULES = [
        expansion(),
        PotentialSchedule.transport(6.0, x0_f=10.0),
        PotentialSchedule.splitting(2.0, h_f=20.0),
    ]
    IDS = ["expansion", "transport", "splitting"]

    @pytest.mark.parametrize("shape", list(RampShape))
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=IDS)
    def test_column_matches_scalar_calls(self, schedule, shape):
        s = replace(schedule, shape=shape)
        times = np.concatenate(([0.0], (np.arange(997) + 0.5) * (s.T / 997), [s.T]))
        column = s.control_value(times)
        assert column.shape == times.shape
        np.testing.assert_array_equal(
            column, [s.control_value(t) for t in times.tolist()]
        )
        np.testing.assert_array_equal(
            s.control_value(times.reshape(-1, 1)), column.reshape(-1, 1)
        )

    @pytest.mark.parametrize("shape", list(RampShape))
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=IDS)
    def test_endpoints_are_exact(self, schedule, shape):
        s = replace(schedule, shape=shape)
        c_i, c_f = (getattr(s, name) for name in _CONTROLS[s.task])
        first, last = s.control_value(np.array([0.0, s.T]))
        assert first == s.control_value(0.0) == c_i
        assert last == s.control_value(s.T) == c_f

    @pytest.mark.parametrize("outside", [-0.5, 10.5, np.nan])
    def test_one_time_out_of_range_rejected(self, outside):
        s = expansion()
        times = np.linspace(0.0, s.T, 9)
        times[4] = outside
        with pytest.raises(ConfigError):
            s.control_value(times)


class TestEvaluate:
    def test_harmonic_expansion_at_one_width(self):
        s = PotentialSchedule.expansion(10.0, omega_f=0.5, lam=0.0)
        v = s.potential(np.array([1.0]))(0.0)
        assert v[0] == pytest.approx(0.5, abs=1e-14)

    def test_splitting_barrier_top_at_final_time(self):
        s = PotentialSchedule.splitting(2.0, h_f=20.0)
        v = s.potential(np.array([0.0]))(2.0)
        assert v[0] == pytest.approx(20.0, abs=1e-12)

    def test_splitting_takes_no_anharmonicity(self):
        # The splitting trap has no quartic term to set.
        assert PotentialSchedule.splitting(2.0, h_f=20.0).lam == 0.0
        with pytest.raises(TypeError):
            PotentialSchedule.splitting(2.0, h_f=20.0, lam=1.0)
        # However the schedule is built: its lam would label a fidelity
        # that the trap never reads.
        split = PotentialSchedule.splitting(0.5, h_f=20.0)
        for build in (
            lambda: split.with_anharmonicity(3.0),
            lambda: replace(split, lam=1.0),
            lambda: PotentialSchedule(Task.SPLITTING, RampShape.SINUSOIDAL, 0.5),
        ):
            with pytest.raises(ConfigError, match="splitting trap has no quartic term"):
                build()

    def test_transport_minimum_at_final_center(self):
        s = PotentialSchedule.transport(11.5, x0_f=90.0)
        v = s.potential(np.array([90.0]))(11.5)
        assert v[0] == pytest.approx(0.0, abs=1e-12)

    def test_endpoints_reproduce_declared_potentials(self):
        g = Grid(-12.0, 12.0, 256)
        s = expansion()
        v0 = s.evaluate(g, 0.0)
        vT = s.evaluate(g, s.T)
        x = g.x
        np.testing.assert_array_equal(v0, 0.5 * 1.0**2 * (x**2 + x**4))
        np.testing.assert_array_equal(vT, 0.5 * 0.01**2 * (x**2 + x**4))


class TestTimeReversal:
    @pytest.mark.parametrize("shape", list(RampShape))
    @pytest.mark.parametrize(
        "schedule",
        [
            expansion(),
            PotentialSchedule.transport(6.0, x0_f=10.0),
            PotentialSchedule.splitting(2.0, h_f=20.0),
        ],
        ids=["expansion", "transport", "splitting"],
    )
    def test_reversed_control_is_c_of_T_minus_t(self, schedule, shape):
        s = replace(schedule, shape=shape)
        reversed_ = s.time_reversed()
        assert reversed_.time_reversed() == s
        for t in np.linspace(0.0, s.T, 17):
            assert reversed_.control_value(t) == pytest.approx(
                s.control_value(s.T - t), rel=1e-13, abs=1e-13
            )


class TestSymmetryAndConfinement:
    @pytest.mark.parametrize(
        "schedule",
        [expansion(), PotentialSchedule.splitting(2.0, h_f=20.0)],
        ids=["expansion", "splitting"],
    )
    def test_even_in_x(self, schedule):
        x = np.linspace(0.1, 11.0, 57)
        for t in (0.0, 0.4 * schedule.T, schedule.T):
            np.testing.assert_allclose(
                schedule.potential(x)(t),
                schedule.potential(-x)(t),
                rtol=1e-14,
            )

    def test_transport_even_about_moving_center(self):
        s = PotentialSchedule.transport(11.5, x0_f=90.0)
        u = np.linspace(0.1, 10.0, 33)
        for t in (0.0, 3.0, 11.5):
            c = s.center(t)
            np.testing.assert_allclose(
                s.potential(c + u)(t), s.potential(c - u)(t), rtol=1e-13
            )

    @pytest.mark.parametrize(
        "schedule",
        [
            expansion(),
            PotentialSchedule.transport(11.5, x0_f=90.0),
            PotentialSchedule.splitting(2.0, h_f=20.0),
        ],
        ids=["expansion", "transport", "splitting"],
    )
    def test_confining_beyond_outer_minimum(self, schedule):
        # Monotone nondecreasing in |x - center| outside the outermost well.
        for t in (0.0, 0.5 * schedule.T, schedule.T):
            c = schedule.center(t)
            # The splitting double well has minima within ~3 lengths of 0.
            u = np.linspace(4.0, 40.0, 200)
            right = schedule.potential(c + u)(t)
            left = schedule.potential(c - u)(t)
            assert (np.diff(right) >= 0).all()
            assert (np.diff(left) >= 0).all()


class TestValidation:
    def test_bad_duration(self):
        with pytest.raises(ConfigError):
            PotentialSchedule.expansion(0.0, omega_f=0.5)

    def test_bad_anharmonicity(self):
        with pytest.raises(ConfigError):
            PotentialSchedule.expansion(1.0, omega_f=0.5, lam=-1.0)

    def test_bad_frequency(self):
        with pytest.raises(ConfigError):
            PotentialSchedule.expansion(1.0, omega_f=-0.5)

    def test_task_enum_round_trip(self):
        assert Task("expansion") is Task.EXPANSION
        assert RampShape("linear") is RampShape.LINEAR
