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
    enumerate_ensemble,
    temperature_compensation_report,
)
from pauliblock import pipeline
from pauliblock.config import load_spec
from pauliblock.pipeline import Engine
from pauliblock.planner import ensemble_level_count
from pauliblock.thermal import (
    DEFAULT_TAIL_BOUND,
    _enumerate_below,
    colder_cut,
    ensemble_average,
    estimated_level_count,
)


class TestEnumeration:
    def test_level_estimate_is_the_count_enumeration_needs(self):
        # Configurations counted per excitation bin certify the same cutoff
        # as enumerated ones, on an evenly and an unevenly spaced ladder.
        ladders = (np.arange(80) + 0.5, np.cumsum(np.linspace(1.0, 3.0, 80)))
        for energies in ladders:
            for n_particles, tau in ((2, 0.3), (4, 1.0), (8, 1.6)):
                need = estimated_level_count(energies, n_particles, tau)
                enumerate_ensemble(energies[:need], n_particles, tau)
                with pytest.raises(NeedsMoreLevelsError):
                    enumerate_ensemble(energies[: need - 1], n_particles, tau)

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
        assert ens.m_max == max(levels[-1] for levels in ens.levels.tolist())

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

    @pytest.mark.parametrize("tail_bound", [0.0, -1.0, 1.0, math.nan])
    def test_tail_bound_out_of_range(self, tail_bound):
        # Enumeration, cooling and the level estimate share one check.
        ladder = np.arange(20) + 0.5
        with pytest.raises(ConfigError):
            enumerate_ensemble(ladder, 2, 0.5, tail_bound)
        with pytest.raises(ConfigError):
            estimated_level_count(ladder, 2, 0.5, tail_bound)
        hot = enumerate_ensemble(ladder, 2, 0.5)
        with pytest.raises(ConfigError):
            colder_cut(hot, ladder, 0.3, tail_bound)

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

    def test_colder_cut_is_a_direct_enumeration(self):
        # A colder temperature cut from a hotter ensemble selects the rows
        # and carries the weights that enumerating it on its own gives, so
        # its weighted sum adds the same floats in the same order.
        energies = np.cumsum(np.linspace(1.0, 1.5, 40))
        hot = enumerate_ensemble(energies, 3, 1.2)
        for tau in (0.0, 0.2, 0.5, 0.9):
            mask, weights = colder_cut(hot, energies, tau)
            direct = enumerate_ensemble(energies, 3, tau)
            np.testing.assert_array_equal(hot.levels[mask], direct.levels)
            assert weights.tobytes() == direct.weights.tobytes()

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
        assert (ensemble.size, ensemble.m_max) == (126301, 52)
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

    @staticmethod
    def ensemble(engine, schedule, n_total, tau):
        """(ensemble at ``tau``, its ladder), enumerated on as many of the
        engine's levels for ``schedule`` as :meth:`Engine.plan_levels`
        plans for it."""
        n_levels = engine.plan_levels([schedule], n_total, 2, tau)
        _, initial, _ = engine.endpoint_bases(schedule, n_levels, 1)
        energies = initial.energies[:n_levels]
        return enumerate_ensemble(energies, n_total, tau), energies

    def test_convex_combination_of_config_fidelities(self, split_engine):
        from pauliblock.fidelity import gram_fidelity_values

        s = self.schedule()
        values = split_engine.thermal_fidelity_curve(s, 2, 2, [0.6])
        ensemble, _ = self.ensemble(split_engine, s, 4, 0.6)
        matrix, _, _ = split_engine.master_overlaps(
            s, ensemble.m_max, 2, split_engine.settings
        )
        per_config = gram_fidelity_values(matrix, ensemble.levels - 1)
        assert (per_config >= 0.0).all() and (per_config <= 1.0).all()
        assert per_config.min() - 1e-12 <= values[0] <= per_config.max() + 1e-12
        assert values[0] == pytest.approx(
            ensemble_average(ensemble.weights, per_config), abs=1e-14
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
            ensemble, _ = self.ensemble(split_engine, s, 4, tau)
            assert ensemble.tau == tau
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

    @staticmethod
    def count_enumerations(monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            try:
                result = enumerate_ensemble(*args, **kwargs)
            except NeedsMoreLevelsError:
                calls.append(("retry", args[2]))
                raise
            calls.append(("ok", args[2]))
            return result

        monkeypatch.setattr(pipeline, "enumerate_ensemble", counted)
        return calls

    def test_curve_enumerates_once(self, split_engine, monkeypatch):
        calls = self.count_enumerations(monkeypatch)
        taus = [0.0, 0.2, 0.4, 0.6]
        split_engine.thermal_fidelity_curve(self.schedule(), 2, 2, taus)
        assert [c for c in calls if c[0] == "ok"] == [("ok", 0.6)]
        assert all(c == ("retry", 0.6) for c in calls[:-1])

    def test_report_searches_levels_once(self, monkeypatch, cpus):
        # The report plans the family for the level estimate of its hottest
        # ensemble before any curve, so no enumeration has to retry.  One
        # lane: the count sees this process only.
        cpus(1)
        calls = self.count_enumerations(monkeypatch)
        spec = SweepSpec(
            schedule=self.schedule(),
            axis=Axis.TEMPERATURE,
            axis_values=(0.0, 0.3, 0.6),
            n_buffer=(1, 4),
            settings=PropagationSettings(dt=2e-3),
            check_dt=False,
        )
        temperature_compensation_report(spec, engine=Engine())
        assert len(calls) == 4
        assert all(kind == "ok" for kind, _ in calls)

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
                       tail_bound=DEFAULT_TAIL_BOUND, check_dt=False):
            self.plan_levels(
                [schedule], n_protected + n_buffer, n_protected, max(taus), tail_bound
            )
            return curve(self, schedule, n_protected, n_buffer, taus, settings,
                         tail_bound=tail_bound, check_dt=check_dt)

        monkeypatch.setattr(Engine, "thermal_fidelity_curve", estimating)
        per_curve = temperature_compensation_report(spec).to_csv()
        assert len(estimates) == 1 + 1 + 4
        assert per_curve.encode() == once.encode()

    def test_compensation_report_memory(self, cpus):
        # The benchmark's compensation report holds one hot ensemble at a
        # time: the largest, 126,301 configurations of 8 fermions, is about
        # 126,301 x 24 B = 3 MB of levels, excitations and weights, and its
        # enumeration's temporaries stay under the 10 MB that
        # test_enumeration_memory allows.  Colder temperatures are masks
        # and weights over its rows, nothing of a finished curve stays
        # alive, and the Gram determinants run in fixed-size blocks, so the
        # whole report's traced peak stays under that bound too.  One lane,
        # so that every curve is traced here.
        cpus(1)
        configs = Path(__file__).parents[1] / "perfbench" / "configs"
        spec = load_spec(configs / "thermal_split_comp.cfg")
        tracemalloc.start()
        try:
            temperature_compensation_report(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_short_level_estimate_falls_back(self, monkeypatch):
        # An estimate that falls short is caught by the enumeration's
        # certificate, which plans the family again for more levels.
        s = self.schedule()
        taus = [0.3, 0.6]
        settings = PropagationSettings(dt=2e-3)
        sized = Engine(settings=settings).thermal_fidelity_curve(s, 2, 2, taus)
        calls = self.count_enumerations(monkeypatch)
        monkeypatch.setattr(
            pipeline, "ensemble_level_count", lambda schedule, n, *args: n + 1
        )
        short = Engine(settings=settings).thermal_fidelity_curve(s, 2, 2, taus)
        assert calls[0] == ("retry", 0.6) and calls[-1] == ("ok", 0.6)
        np.testing.assert_allclose(short, sized, rtol=0, atol=1e-10)

    def test_colder_temperature_past_the_hot_cutoff(self, split_engine, monkeypatch):
        # At tau = 0.3 the first shell adds no weight, so the cutoff stops
        # at 0.3 ln(1e8); at 0.27 the first shell must be kept and the next
        # probe reaches 0.27 ln(1e10), past it.  That temperature is then
        # enumerated on its own, on the hotter temperature's ladder, and
        # gives what enumerating it on its own ladder gives.
        s = self.schedule()
        calls = self.count_enumerations(monkeypatch)
        values = split_engine.thermal_fidelity_curve(s, 2, 2, [0.3, 0.27])
        assert [c for c in calls if c[0] == "ok"] == [("ok", 0.3), ("ok", 0.27)]
        hot, hot_ladder = self.ensemble(split_engine, s, 4, 0.3)
        cold = enumerate_ensemble(hot_ladder, 4, 0.27)
        assert cold.e_cut > hot.e_cut
        assert colder_cut(hot, hot_ladder, 0.27) is None
        (direct_value,) = split_engine.thermal_fidelity_curve(s, 2, 2, [0.27])
        assert values[1] == direct_value
        direct, _ = self.ensemble(split_engine, s, 4, 0.27)
        np.testing.assert_array_equal(cold.levels, direct.levels)
        np.testing.assert_array_equal(cold.weights, direct.weights)
