import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pauliblock import (
    Axis,
    ConfigError,
    NeedsMoreLevelsError,
    NumericalConsistencyError,
    PotentialSchedule,
    PropagationSettings,
    SweepSpec,
    temperature_compensation_report,
)
from pauliblock import pipeline, thermal
from pauliblock.config import load_spec
from pauliblock.fidelity import gram_fidelity_values
from pauliblock.pipeline import Engine
from pauliblock.planner import ensemble_level_count, plan_grid
from pauliblock.propagate import propagate_basis
from pauliblock.thermal import DEFAULT_TAIL_BOUND, levels_needed, projected_fidelity

from reference import _enumerate_below, enumerate_ensemble


class TestEnumeration:
    def test_zero_temperature_single_config(self):
        energies = np.arange(10) + 0.5
        ens = enumerate_ensemble(energies, 3, 0.0)
        assert ens.size == 1
        assert ens.levels.tolist() == [[1, 2, 3]]
        assert ens.excitations.tolist() == [0.0]
        np.testing.assert_array_equal(ens.weights, [1.0])

    @pytest.mark.parametrize("tau", [0.3, 0.7, 1.5])
    def test_two_level_formula(self, tau):
        # One particle on a hard two-level ladder: the Boltzmann ratio is
        # forced directly.
        ens = enumerate_ensemble([0.0, 1.0], 1, tau, complete_ladder=True)
        assert ens.size == 2
        boltzmann = math.exp(-1.0 / tau)
        assert ens.weights[0] == pytest.approx(1.0 / (1.0 + boltzmann), rel=1e-12)
        assert ens.weights[1] == pytest.approx(
            boltzmann / (1.0 + boltzmann), rel=1e-12
        )

    def test_matches_exhaustive_enumeration(self):
        # Independent oracle: direct sum over all C(M, 3) subsets.
        energies = np.arange(10) + 0.5
        tau = 0.5
        ens = enumerate_ensemble(energies, 3, tau, complete_ladder=True,
                                 tail_bound=1e-15)
        direct = {}
        ground = energies[:3].sum()
        for combo in itertools.combinations(range(10), 3):
            exc = sum(energies[list(combo)]) - ground
            direct[tuple(c + 1 for c in combo)] = math.exp(-exc / tau)
        z = sum(direct.values())
        enumerated = {
            tuple(levels): w for levels, w in zip(ens.levels.tolist(), ens.weights)
        }
        missing_weight = sum(
            w / z for levels, w in direct.items() if levels not in enumerated
        )
        assert missing_weight < 1e-12
        for levels, weight in enumerated.items():
            assert weight == pytest.approx(direct[levels] / z, rel=1e-9)

    def test_weights_normalized(self):
        energies = np.arange(40) * 1.5 + 0.5
        ens = enumerate_ensemble(energies, 4, 1.0)
        assert abs(ens.weights.sum() - 1.0) < 1e-12

    def test_config_invariants(self):
        energies = np.arange(40) * 1.5 + 0.5
        ens = enumerate_ensemble(energies, 4, 1.2)
        for levels, excitation in zip(ens.levels.tolist(), ens.excitations):
            assert all(a < b for a, b in zip(levels, levels[1:]))
            assert excitation >= 0.0
            assert excitation <= ens.e_cut
            assert (excitation == 0.0) == (levels == [1, 2, 3, 4])

    def test_short_ladder_reports_requirement(self):
        with pytest.raises(NeedsMoreLevelsError) as exc_info:
            enumerate_ensemble([0.5, 1.5, 2.5], 2, 2.0)
        assert exc_info.value.required > 3

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            enumerate_ensemble([0.5, 1.5], 1, -0.1)
        with pytest.raises(ConfigError):
            enumerate_ensemble([1.5, 0.5], 1, 0.1)
        with pytest.raises(NeedsMoreLevelsError):
            enumerate_ensemble([0.5], 2, 0.1)

    @pytest.mark.parametrize("tau", [-0.1, math.nan, math.inf])
    def test_temperature_out_of_range(self, tau):
        # Enumeration and the curve share one check, a ConfigError naming
        # the temperature, not an error of the cutoff arithmetic.
        ladder = np.arange(20) + 0.5
        with pytest.raises(ConfigError, match=f"finite and >= 0, got {tau}"):
            enumerate_ensemble(ladder, 2, tau)
        schedule = PotentialSchedule.splitting(1.0, h_f=20.0)
        with pytest.raises(ConfigError, match=f"finite and >= 0, got {tau}"):
            Engine().thermal_fidelity_curve(schedule, 2, 2, [0.5, tau])

    @pytest.mark.parametrize("tail_bound", [0.0, -1.0, 1.0, math.nan])
    def test_tail_bound_out_of_range(self, tail_bound):
        # Enumeration and the curve share one check; the curve makes it
        # before it plans anything.
        ladder = np.arange(20) + 0.5
        with pytest.raises(ConfigError):
            enumerate_ensemble(ladder, 2, 0.5, tail_bound)
        schedule = PotentialSchedule.splitting(1.0, h_f=20.0)
        with pytest.raises(ConfigError, match="tail_bound"):
            Engine().thermal_fidelity_curve(
                schedule, 2, 2, [0.5], tail_bound=tail_bound
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), tau=st.floats(0.05, 2.0))
    def test_normalization_property(self, seed, tau):
        rng = np.random.default_rng(seed)
        gaps = rng.uniform(0.5, 2.0, size=30)
        energies = np.cumsum(gaps)
        ens = enumerate_ensemble(energies, 3, tau, complete_ladder=True)
        assert abs(ens.weights.sum() - 1.0) < 1e-12

    @staticmethod
    def brute_force(energies, n_particles, e_cut):
        """Every n-subset in lexicographic order, excitation summed left to
        right, kept when it is within the cutoff."""
        kept = []
        for combo in itertools.combinations(range(len(energies)), n_particles):
            excitation = 0.0
            for slot, level in enumerate(combo):
                excitation = excitation + (energies[level] - energies[slot])
            if excitation <= e_cut:
                kept.append((tuple(level + 1 for level in combo), excitation))
        return kept

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(st.floats(0.0, 2.0), min_size=0, max_size=11),
        base=st.floats(-3.0, 3.0),
        n_particles=st.integers(1, 5),
        tau=st.floats(0.05, 2.0),
    )
    def test_enumerator_matches_combinations(self, gaps, base, n_particles, tau):
        energies = base + np.cumsum([0.0] + gaps)
        assume(n_particles <= len(energies))
        ens = enumerate_ensemble(energies, n_particles, tau, complete_ladder=True)
        expected = self.brute_force(energies, n_particles, ens.e_cut)
        assert [tuple(levels) for levels in ens.levels.tolist()] == [
            levels for levels, _ in expected
        ]
        assert ens.excitations.tolist() == [excitation for _, excitation in expected]

    @pytest.mark.parametrize(
        "energies, n_particles, e_cut",
        [
            (np.arange(30) + 0.5, 4, 6.0),
            (np.arange(30) + 0.5, 3, 5.0),
            (0.1 * np.arange(30), 3, 1.0),
            (0.1 * np.arange(25), 4, 0.7),
        ],
        ids=["harmonic-4", "harmonic-3", "tenth-3", "tenth-4"],
    )
    def test_configurations_at_the_cutoff_match_combinations(
        self, energies, n_particles, e_cut
    ):
        # On the harmonic ladder with an integer cutoff, configurations sit
        # exactly on it; on the 0.1-step ladder their left-to-right sums
        # land within a rounding of it, on either side.  The searchsorted
        # run of each prefix must admit every one the exact sum keeps.
        expected = self.brute_force(energies, n_particles, e_cut)
        assert any(excitation == e_cut for _, excitation in expected)
        levels, excitations = _enumerate_below(energies, n_particles, e_cut)
        assert [tuple(row) for row in levels.tolist()] == [
            row for row, _ in expected
        ]
        assert excitations.tolist() == [excitation for _, excitation in expected]

    @pytest.mark.parametrize(
        "n_levels, dtype", [(255, np.uint8), (256, np.uint16)]
    )
    def test_level_dtype_boundary(self, n_levels, dtype):
        # Level 256 does not fit a byte, and numpy arithmetic on a uint8
        # array wraps it to 0 without an error.  Two fermions on an evenly
        # spaced ladder of width 1: the pair (1, n_levels) costs
        # (n_levels - 2) / (n_levels - 1), within the cutoff 1.
        energies = np.linspace(0.0, 1.0, n_levels)
        levels, excitations = _enumerate_below(energies, 2, 1.0)
        expected = self.brute_force(energies, 2, 1.0)
        assert (1, n_levels) in [row for row, _ in expected]
        assert [tuple(row) for row in levels.tolist()] == [
            row for row, _ in expected
        ]
        assert excitations.tolist() == [excitation for _, excitation in expected]
        assert levels.dtype == dtype
        # Every ensemble of the ladder shares the dtype, and its rows
        # reach the top level.
        hot = enumerate_ensemble(energies, 2, 1.0, complete_ladder=True)
        assert hot.size == math.comb(n_levels, 2)
        assert hot.levels.dtype == dtype
        assert hot.levels.max() == n_levels
        assert enumerate_ensemble(energies, 2, 0.0).levels.dtype == dtype

    def test_enumeration_memory(self):
        # 126,301 configurations of 8 fermions on 52 levels.  One byte per
        # occupied level and a frontier built without a sort keep the
        # traced peak under 10 MB; 8-byte indices and a sorted frontier
        # took about 24 MB.
        energies = np.arange(60) + 0.5
        tracemalloc.start()
        try:
            ensemble = enumerate_ensemble(energies, 8, 1.6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (ensemble.size, int(ensemble.levels[:, -1].max())) == (126301, 52)
        assert peak < 10e6

    def test_configurations_on_the_cutoff_are_kept(self):
        energies = np.arange(10) + 0.5
        levels, excitations = _enumerate_below(energies, 3, 4.0)
        expected = self.brute_force(energies, 3, 4.0)
        # Slot excitations (0, 0, 4), (0, 1, 3), (0, 2, 2) and (1, 1, 2).
        assert (excitations == 4.0).sum() == 4
        assert [tuple(row) for row in levels.tolist()] == [
            row for row, _ in expected
        ]
        assert excitations.tolist() == [excitation for _, excitation in expected]


class TestGroundConfiguration:
    # The package lists the ground configuration alone: the reference's
    # ensemble at zero temperature.

    def test_matches_the_reference_at_zero_temperature(self):
        energies = np.arange(10) + 0.5
        ground = thermal.enumerate_ensemble(energies, 3)
        expected = enumerate_ensemble(energies, 3, 0.0)
        assert (ground.size, ground.tau, ground.e_cut) == (1, 0.0, 0.0)
        assert ground.levels.tolist() == expected.levels.tolist() == [[1, 2, 3]]
        assert ground.excitations.tolist() == expected.excitations.tolist()
        assert ground.weights.tolist() == expected.weights.tolist() == [1.0]

    def test_input_validation(self):
        with pytest.raises(ConfigError, match="at least one particle"):
            thermal.enumerate_ensemble([0.5, 1.5], 0)
        with pytest.raises(ConfigError, match="ascending"):
            thermal.enumerate_ensemble([1.5, 0.5], 1)
        with pytest.raises(NeedsMoreLevelsError) as raised:
            thermal.enumerate_ensemble([0.5], 2)
        assert (raised.value.required, raised.value.available) == (2, 1)


def isometry_overlaps(rng, n_levels, n_protected):
    """A random (M, N_p) overlap matrix with orthogonal columns of norms
    in [0.5, 1], so every singular value is at most 1."""
    noise = rng.normal(size=(n_levels, n_protected))
    noise = noise + 1j * rng.normal(size=(n_levels, n_protected))
    columns = np.linalg.qr(noise)[0]
    return columns * rng.uniform(0.5, 1.0, size=n_protected)


def ground_value(overlaps, n_particles):
    return gram_fidelity_values(overlaps, np.arange(n_particles)[None, :])[0]


def enumerated_fidelity(energies, overlaps, n_particles, tau, tail_bound=1e-12):
    """The canonical average over the complete ladder's configurations,
    enumerated to ``tail_bound``."""
    ensemble = enumerate_ensemble(
        energies, n_particles, tau, tail_bound=tail_bound, complete_ladder=True
    )
    per_config = gram_fidelity_values(overlaps, ensemble.levels - 1)
    return float(np.sum(ensemble.weights * per_config))


class TestProjection:
    # Stated before measuring: the enumeration omits at most 1e-12 of the
    # weight, and each projected coefficient rounds by at most
    # PROJECTION_ROUNDING (2M + 1) eps, under 2e-13 on these ladders; so
    # the two agree to 2e-12.
    TOL = 2e-12

    def test_matches_complete_enumeration(self):
        rng = np.random.default_rng(36)
        # Every N_p from 0 to 4; N_p >= 2 goes through the general
        # determinant.
        for n_protected in (0, 1, 2, 3, 4) * 5:
            n_levels = int(rng.integers(20, 40))
            n_particles = int(rng.integers(max(2, n_protected), 9))
            tau = float(rng.uniform(0.0, 1.5))
            energies = np.cumsum(rng.uniform(0.5, 2.0, n_levels))
            overlaps = isometry_overlaps(rng, n_levels, n_protected)
            projected = projected_fidelity(
                energies, overlaps, n_particles, tau,
                ground_value(overlaps, n_particles),
            )
            expected = enumerated_fidelity(energies, overlaps, n_particles, tau)
            assert abs(projected - expected) <= self.TOL, (
                n_levels, n_particles, n_protected, tau
            )

    def test_no_target_gives_one(self):
        energies = np.arange(30) + 0.5
        for tau in (0.1, 0.7, 1.5):
            assert projected_fidelity(energies, np.zeros((30, 0)), 4, tau, 1.0) == 1.0

    def test_harmonic_ladder_on_the_old_cutoff(self):
        # Near tau = 5 / ln(1e8) the enumeration's first probe cutoff,
        # tau ln(1e6) + tau ln(100), is exactly 5, so on the harmonic
        # ladder whole shells of configurations sit on it.  The projection
        # has no cutoff.
        energies = np.arange(30) + 0.5
        tau = 5.0 / math.log(1e8)
        while tau * math.log(1e6) + tau * math.log(100.0) < 5.0:
            tau = math.nextafter(tau, 1.0)
        assert tau * math.log(1e6) + tau * math.log(100.0) == 5.0
        rng = np.random.default_rng(8)
        for n_particles in (3, 4):
            _, excitations = _enumerate_below(energies, n_particles, 5.0)
            assert (excitations == 5.0).any()
            overlaps = isometry_overlaps(rng, 30, 2)
            projected = projected_fidelity(
                energies, overlaps, n_particles, tau,
                ground_value(overlaps, n_particles),
            )
            expected = enumerated_fidelity(energies, overlaps, n_particles, tau)
            assert abs(projected - expected) <= self.TOL

    def test_planted_failures_raise(self, monkeypatch):
        # Each safeguard on its own planted fault; none is clamped away.
        energies = np.arange(30) + 0.5
        rng = np.random.default_rng(3)
        overlaps = isometry_overlaps(rng, 30, 2)
        ground = ground_value(overlaps, 4)
        # Overlaps past unit singular values: F leaves [0, 1].
        unit = np.zeros((30, 2))
        unit[0, 0] = unit[1, 1] = 1.5
        with pytest.raises(NumericalConsistencyError, match="outside"):
            projected_fidelity(energies, unit, 4, 0.3, 0.0)
        # A ground fidelity above the true one: the numerator falls short.
        with pytest.raises(NumericalConsistencyError, match="fidelity weight"):
            projected_fidelity(energies, overlaps, 4, 0.3, 1.0)
        real = thermal._circle
        # One point at z = -|z|: the denominator falls below the ground term.
        monkeypatch.setattr(thermal, "_circle", lambda n: np.array([-1.0 + 0j]))
        with pytest.raises(NumericalConsistencyError, match="projected weight"):
            projected_fidelity(energies, overlaps, 4, 1.0, ground)
        # Three points for 31 coefficients: z^(N +- 3) alias onto z^N
        # with a phase of +-i, an imaginary part.
        monkeypatch.setattr(thermal, "_circle", lambda n: real(3))
        with pytest.raises(NumericalConsistencyError, match="imaginary"):
            projected_fidelity(energies, overlaps, 4, 0.3, ground)


class TestLevelBound:
    @staticmethod
    def canonical(energies, n_particles, tau, overlaps):
        """(occupation of each level, F) from every configuration."""
        occupation = np.zeros(len(energies))
        total = fidelity = 0.0
        for combo in itertools.combinations(range(len(energies)), n_particles):
            weight = math.exp(-(energies[list(combo)].sum()
                                - energies[:n_particles].sum()) / tau)
            occupation[list(combo)] += weight
            total += weight
            fidelity += weight * gram_fidelity_values(overlaps, [combo])[0]
        return occupation / total, fidelity / total

    def test_occupation_bound_holds(self):
        # n_j <= N exp(-(E_j - E_N)/tau) for every level j > N, on an even
        # and on an uneven ladder.
        rng = np.random.default_rng(5)
        ladders = (np.arange(14) + 0.5, np.cumsum(rng.uniform(0.2, 1.5, 14)))
        overlaps = np.zeros((14, 0))
        for energies in ladders:
            for n_particles, tau in ((2, 0.4), (3, 1.0), (4, 2.5)):
                occupation, _ = self.canonical(energies, n_particles, tau, overlaps)
                assert occupation.sum() == pytest.approx(n_particles, rel=1e-12)
                above = energies[n_particles:] - energies[n_particles - 1]
                bound = n_particles * np.exp(-above / tau)
                assert (occupation[n_particles:] <= bound * (1 + 1e-12)).all()

    def test_level_estimate_is_the_count_the_certificate_needs(self):
        # The planner reads E_N from the Bohr-Sommerfeld ladder, the
        # certificate from the solved one: on the harmonic initial trap of
        # a splitting they ask for the same count, and on the quartic one
        # of an expansion the plan's margin holds what the certificate
        # asks.
        for schedule, harmonic in (
            (PotentialSchedule.splitting(1.0, h_f=20.0), True),
            (PotentialSchedule.expansion(10.0, omega_f=0.01), False),
        ):
            for n_particles, tau in ((2, 0.3), (4, 1.0), (8, 1.6)):
                estimate = ensemble_level_count(
                    schedule, n_particles, tau, DEFAULT_TAIL_BOUND
                )
                _, initial, _ = Engine().endpoint_bases(schedule, n_particles, 1)
                need = levels_needed(
                    initial.energies[-1], n_particles, tau, DEFAULT_TAIL_BOUND,
                    *schedule.harmonic_floor(),
                )
                if harmonic:
                    assert estimate == need
                else:
                    assert estimate <= need <= estimate + pipeline.LEVEL_MARGIN

    def test_certified_ladder_is_within_the_tail_bound(self):
        # On a harmonic ladder (omega = 1, no shift) of 30 levels, the
        # first levels_needed of them leave out less than the tail bound
        # of occupation, and F on them is within the tail bound of F on
        # all 30; at one level fewer the bound exceeds the tail bound, so
        # the count is the least it certifies.
        energies = np.arange(30) + 0.5
        overlaps = isometry_overlaps(np.random.default_rng(2), 30, 2)
        for n_particles, tau, tail_bound in ((2, 0.5, 1e-3), (3, 1.0, 1e-2)):
            need = levels_needed(
                energies[n_particles - 1], n_particles, tau, tail_bound, 1.0, 0.0
            )
            assert need < 20
            occupation, full = self.canonical(energies, n_particles, tau, overlaps)
            assert occupation[need:].sum() <= tail_bound
            _, cut = self.canonical(
                energies[:need], n_particles, tau, overlaps[:need]
            )
            assert abs(cut - full) <= tail_bound
            bound = n_particles * math.exp(
                -(energies[need - 1] - energies[n_particles - 1]) / tau
            ) / -math.expm1(-1.0 / tau)
            assert bound > tail_bound


@pytest.fixture(scope="module")
def split_engine():
    return Engine(settings=PropagationSettings(dt=2e-3))


class TestThermalFidelity:
    def schedule(self):
        return PotentialSchedule.splitting(1.0, h_f=20.0)

    def test_zero_temperature_matches_scenario(self, split_engine):
        s = self.schedule()
        thermal = split_engine.thermal_fidelity(s, 2, 2, 0.0)
        scenario = split_engine.scenario_fidelity(s, 2, 2)
        assert abs(thermal.value - scenario.value) < 1e-10

    def test_small_temperature_continuity(self, split_engine):
        s = self.schedule()
        cold = split_engine.thermal_fidelity(s, 2, 2, 1e-4)
        scenario = split_engine.scenario_fidelity(s, 2, 2)
        assert abs(cold.value - scenario.value) < 1e-3

    def test_tail_bound_robustness(self, split_engine):
        s = self.schedule()
        loose = split_engine.thermal_fidelity(s, 2, 2, 0.5, tail_bound=1e-6)
        tight = split_engine.thermal_fidelity(s, 2, 2, 0.5, tail_bound=1e-8)
        assert abs(loose.value - tight.value) < 1e-4

    def test_convex_combination_of_config_fidelities(self, split_engine):
        # The curve is the canonical average over every configuration of
        # the ladder it projects on, the engine's planned levels: the
        # complete-ladder enumeration of that ladder to a 1e-15 tail gives
        # the same value to rounding (stated before measuring: 1e-14).
        s = self.schedule()
        values = split_engine.thermal_fidelity_curve(s, 2, 2, [0.6])
        n_levels = split_engine.plan_levels([s], 4, 2, 0.6)
        _, initial, _ = split_engine.endpoint_bases(s, n_levels, 1)
        ensemble = enumerate_ensemble(
            initial.energies, 4, 0.6, tail_bound=1e-15, complete_ladder=True
        )
        matrix, _, _ = split_engine.master_overlaps(
            s, int(ensemble.levels[:, -1].max()), 2, split_engine.settings
        )
        per_config = gram_fidelity_values(matrix, ensemble.levels - 1)
        assert (per_config >= 0.0).all() and (per_config <= 1.0).all()
        assert per_config.min() - 1e-12 <= values[0] <= per_config.max() + 1e-12
        assert values[0] == pytest.approx(
            float(np.sum(ensemble.weights * per_config)), abs=1e-14
        )

    def test_module_level_wrapper(self):
        s = self.schedule()
        engine = Engine(settings=PropagationSettings(dt=2e-3))
        result = engine.thermal_fidelity(s, 1, 1, 0.4)
        assert 0.0 <= result.value <= 1.0
        assert result.n_total == 2

    def test_curve_matches_single_temperatures(self, split_engine):
        s = self.schedule()
        taus = [0.6, 0.0, 0.3]
        values = split_engine.thermal_fidelity_curve(s, 2, 2, taus)
        for tau, value in zip(taus, values):
            assert value == split_engine.thermal_fidelity(s, 2, 2, tau).value

    def test_master_matrix_is_validated(self, monkeypatch):
        # An overlap column of norm above one is no physical overlap
        # matrix; the curve rejects it before taking any fidelity from it.
        real = Engine.master_overlaps

        def inflated(self, *args, **kwargs):
            matrix, grid, basis = real(self, *args, **kwargs)
            matrix = matrix.copy()
            matrix[:, 0] *= 1.01
            return matrix, grid, basis

        monkeypatch.setattr(Engine, "master_overlaps", inflated)
        s = PotentialSchedule.splitting(0.5, h_f=20.0)
        engine = Engine(256, PropagationSettings(dt=0.01))
        with pytest.raises(NumericalConsistencyError):
            engine.thermal_fidelity(s, 2, 1, 0.3)

    def test_escalated_curve_projects_with_its_records_energies(self, monkeypatch):
        # The leaking transport case of test_planner, planned at tau = 0 on
        # 180 points: the curve's run trips and widens the grid to 360.
        # The projection reads the ladder of the widened record its
        # overlaps came from, not the one solved on the grid it replaced
        # (they differ by up to 3e-11); F agrees to the bit either way, so
        # the energies are what is checked.
        s = PotentialSchedule.transport(4.0, x0_f=20.0, lam=1.0)
        engine = Engine(settings=PropagationSettings(dt=1e-3))
        engine.plan_levels([s], 1, 1, 0.0)
        planned = engine.family_grid(s)
        assert planned.n_points == 180
        stale = engine.endpoint_bases(s, 1, 1)[1].energies
        projected = []

        def recorded(energies, *args):
            projected.append(energies)
            return thermal.projected_fidelity(energies, *args)

        monkeypatch.setattr(pipeline, "projected_fidelity", recorded)
        engine.thermal_fidelity_curve(s, 1, 0, [0.01])
        assert engine.family_grid(s) == planned.widened()
        (energies,) = projected
        _, initial, _ = engine.endpoint_bases(s, len(energies), 1)
        np.testing.assert_array_equal(energies, initial.energies)
        assert not np.array_equal(energies[:len(stale)], stale)

    def test_escalated_curve_certifies_the_ladder_it_reads(self, monkeypatch):
        # The same case: the certificate reads one ladder, once: the
        # widened record's, which the curve then projects on, not the
        # 180-point one the run started on.
        s = PotentialSchedule.transport(4.0, x0_f=20.0, lam=1.0)
        engine = Engine(settings=PropagationSettings(dt=1e-3))
        engine.plan_levels([s], 1, 1, 0.0)
        stale = engine.endpoint_bases(s, 1, 1)[1].energies[0]
        fermi_levels = []

        def recorded(e_fermi, *args):
            fermi_levels.append(e_fermi)
            return thermal.levels_needed(e_fermi, *args)

        monkeypatch.setattr(pipeline, "levels_needed", recorded)
        engine.thermal_fidelity_curve(s, 1, 0, [0.01])
        assert engine.family_grid(s).n_points == 360
        widened = engine.endpoint_bases(s, 1, 1)[1].energies[0]
        assert widened != stale
        assert fermi_levels == [widened]

    @pytest.mark.parametrize("taus, reads", [([0.0], 0), ([0.0, 0.3, 0.6], 1)])
    def test_curve_certifies_its_ladder_once(self, monkeypatch, taus, reads):
        # A curve whose planned ladder holds reads the certificate once
        # above zero temperature, and never at zero.
        calls = []

        def counted(*args):
            calls.append(args)
            return levels_needed(*args)

        monkeypatch.setattr(pipeline, "levels_needed", counted)
        engine = Engine(settings=PropagationSettings(dt=2e-3))
        engine.thermal_fidelity_curve(self.schedule(), 2, 2, taus)
        assert len(calls) == reads

    @staticmethod
    def count_enumerations(monkeypatch):
        calls = []

        def counted(*args):
            ensemble = thermal.enumerate_ensemble(*args)
            calls.append(ensemble.size)
            return ensemble

        monkeypatch.setattr(pipeline, "enumerate_ensemble", counted)
        return calls

    @staticmethod
    def count_plans(monkeypatch):
        plans = []

        def counted(schedules, n_levels, n_targets, n_points=None):
            plans.append(n_levels)
            return plan_grid(schedules, n_levels, n_targets, n_points)

        monkeypatch.setattr(pipeline, "plan_grid", counted)
        return plans

    def test_curve_enumerates_once(self, split_engine, monkeypatch):
        # One enumeration per curve, of its ground configuration, also
        # when the curve has no zero temperature.
        calls = self.count_enumerations(monkeypatch)
        for taus in ([0.0, 0.2, 0.4, 0.6], [0.3, 0.5]):
            split_engine.thermal_fidelity_curve(self.schedule(), 2, 2, taus)
        assert calls == [1, 1]

    def test_report_searches_levels_once(self, monkeypatch, cpus):
        # The report plans the family for the level estimate of its hottest
        # temperature before any curve, so no curve has to plan again.
        # One lane: the counts see this process only.
        cpus(1)
        calls = self.count_enumerations(monkeypatch)
        plans = self.count_plans(monkeypatch)
        spec = SweepSpec(
            schedule=self.schedule(),
            axis=Axis.TEMPERATURE,
            axis_values=(0.0, 0.3, 0.6),
            n_buffer=(1, 4),
            settings=PropagationSettings(dt=2e-3),
            check_dt=False,
        )
        temperature_compensation_report(spec, engine=Engine())
        assert calls == [1] * 4
        assert len(plans) == 1

    def test_report_estimates_levels_once(self, monkeypatch, cpus):
        # The benchmark's compensation report (N_b = 3..6) plans its one
        # schedule for the largest N_b before any curve; the curves make no
        # estimate of their own and give the CSV a per-curve estimate gives.
        # One lane: the count sees this process only.
        cpus(1)
        configs = Path(__file__).parents[1] / "perfbench" / "configs"
        spec = load_spec(configs / "thermal_split_comp.cfg")
        estimates = []

        def counted(*args, **kwargs):
            estimates.append(args)
            return ensemble_level_count(*args, **kwargs)

        monkeypatch.setattr(pipeline, "ensemble_level_count", counted)
        once = temperature_compensation_report(spec).to_csv()
        assert len(estimates) == 1

        curve = Engine.thermal_fidelity_curve

        def estimating(self, schedule, n_protected, n_buffer, taus, settings=None,
                       tail_bound=DEFAULT_TAIL_BOUND):
            self.plan_levels(
                [schedule], n_protected + n_buffer, n_protected, max(taus), tail_bound
            )
            return curve(self, schedule, n_protected, n_buffer, taus, settings,
                         tail_bound=tail_bound)

        monkeypatch.setattr(Engine, "thermal_fidelity_curve", estimating)
        per_curve = temperature_compensation_report(spec).to_csv()
        assert len(estimates) == 1 + 1 + 4
        assert per_curve.encode() == once.encode()

    def test_compensation_report_memory(self, monkeypatch, cpus):
        # The benchmark's compensation report holds no ensemble.  Stated
        # before measuring: a temperature of its largest curve, 8 fermions
        # on its 35 planned levels, projects with fewer than eight 36 x 35
        # complex arrays (161 kB) beyond what the engine holds when the
        # curve starts, where enumerating 126,301 configurations took
        # several MB; and the whole report's traced peak, set by the
        # planner's scans and the eigensolves, stays under 1 MB.  One lane,
        # so that every run is traced here.
        cpus(1)
        configs = Path(__file__).parents[1] / "perfbench" / "configs"
        spec = load_spec(configs / "thermal_split_comp.cfg")
        curve = Engine.thermal_fidelity_curve
        peaks, extra = [], []

        def traced(self, *args, **kwargs):
            start, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            values = curve(self, *args, **kwargs)
            extra.append(tracemalloc.get_traced_memory()[1] - start)
            return values

        monkeypatch.setattr(Engine, "thermal_fidelity_curve", traced)
        tracemalloc.start()
        try:
            temperature_compensation_report(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(extra) == 4
        assert max(extra) < 8 * 36 * 35 * 16
        assert max(peaks) < 1e6

    def test_short_level_estimate_falls_back(self, monkeypatch):
        # An estimate that falls short is caught by the certificate on the
        # ladder the run was read from, which plans the family again, once,
        # as a right estimate plans it, and reads the run again, so the
        # curve gives what a right estimate gives.  The short ladder's run
        # is evolved first: two runs and two certificate reads.
        s = self.schedule()
        taus = [0.3, 0.6]
        settings = PropagationSettings(dt=2e-3)
        sized = Engine(settings=settings).thermal_fidelity_curve(s, 2, 2, taus)
        plans = self.count_plans(monkeypatch)
        runs, reads = [], []

        def run(*args, **kwargs):
            runs.append(args[0].grid)
            return propagate_basis(*args, **kwargs)

        def read(*args):
            reads.append(args)
            return levels_needed(*args)

        monkeypatch.setattr(pipeline, "propagate_basis", run)
        monkeypatch.setattr(pipeline, "levels_needed", read)
        monkeypatch.setattr(
            pipeline, "ensemble_level_count", lambda schedule, n, *args: n + 1
        )
        engine = Engine(settings=settings)
        short = engine.thermal_fidelity_curve(s, 2, 2, taus)
        need = ensemble_level_count(s, 4, 0.6, DEFAULT_TAIL_BOUND)
        assert plans == [4 + 1 + pipeline.LEVEL_MARGIN, need + pipeline.LEVEL_MARGIN]
        assert len(runs) == 2 and runs[-1] == engine.family_grid(s)
        assert len(reads) == 2
        np.testing.assert_allclose(short, sized, rtol=0, atol=1e-10)

    def test_short_ladder_after_planning_again_raises(self, monkeypatch):
        # A certificate that asks for more levels again after the family
        # was planned again gives no value: it raises.
        s = self.schedule()
        plans = self.count_plans(monkeypatch)
        # The family is planned for 14 levels (13 and the margin).
        asked = iter((20, 1000))
        monkeypatch.setattr(pipeline, "levels_needed", lambda *args: next(asked))
        engine = Engine(settings=PropagationSettings(dt=2e-3))
        with pytest.raises(NeedsMoreLevelsError) as caught:
            engine.thermal_fidelity_curve(s, 2, 2, [0.6])
        assert (caught.value.required, caught.value.available) == (
            1000, 20 + pipeline.LEVEL_MARGIN
        )
        assert len(plans) == 2

    @pytest.mark.parametrize("tau", [0.0, 0.3])
    def test_family_planned_for_fewer_fermions_is_planned_again(self, tau):
        # A curve handed settings, on an engine whose record was planned
        # for a smaller system, plans the family again for its own N and
        # gives what a fresh engine gives.
        s = self.schedule()
        settings = PropagationSettings(dt=2e-3)
        engine = Engine(settings=settings)
        engine.thermal_fidelity(s, 2, 0, tau, settings)
        grown = engine.thermal_fidelity(s, 2, 4, tau, settings).value
        fresh = Engine(settings=settings).thermal_fidelity(s, 2, 4, tau, settings)
        assert grown == fresh.value
