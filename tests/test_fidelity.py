import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliblock import (
    NumericalConsistencyError,
    OverlapMatrix,
    PotentialSchedule,
    PropagationSettings,
    TooLargeError,
    fidelity_fast,
    fidelity_oracle,
)
from pauliblock.fidelity import Method, gram_fidelity_values

from reference import random_subunitary


class TestOracleExamples:
    def test_single_overlap(self):
        c = 0.3 - 0.4j
        a = OverlapMatrix(np.array([[c]]))
        assert fidelity_oracle(a).value == pytest.approx(abs(c) ** 2, abs=1e-14)

    def test_perfect_two_particle_process(self):
        a = OverlapMatrix(np.eye(2))
        assert fidelity_oracle(a).value == pytest.approx(1.0, abs=1e-14)

    def test_no_protected_particles(self):
        a = OverlapMatrix(np.zeros((3, 0)))
        result = fidelity_oracle(a)
        assert result.value == 1.0
        assert result.n_buffer == 3

    def test_combinatorial_guard(self):
        rng = np.random.default_rng(0)
        a = random_subunitary(13, 2, rng)
        with pytest.raises(TooLargeError):
            fidelity_oracle(a)


class TestFastExamples:
    def test_identity_rows(self):
        a = OverlapMatrix(np.eye(5)[:, :3])
        assert fidelity_fast(a).value == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_target_gives_zero(self):
        entries = np.eye(4)[:, :2].astype(complex)
        entries[:, 1] = 0.0  # one target outside the evolved span
        a = OverlapMatrix(entries)
        assert fidelity_fast(a).value == pytest.approx(0.0, abs=1e-14)

    def test_method_tags(self):
        a = OverlapMatrix(np.eye(2))
        assert fidelity_fast(a).method is Method.GRAM_DETERMINANT
        assert fidelity_oracle(a).method is Method.ORACLE


class TestOracleEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        n_total=st.integers(1, 8),
        n_protected=st.integers(0, 4),
    )
    def test_fast_matches_oracle(self, seed, n_total, n_protected):
        n_protected = min(n_protected, n_total)
        rng = np.random.default_rng(seed)
        a = random_subunitary(n_total, n_protected, rng)
        assert abs(fidelity_fast(a).value - fidelity_oracle(a).value) < 1e-10


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        n_total = int(rng.integers(1, 10))
        n_protected = min(int(rng.integers(1, 5)), n_total)
        a = random_subunitary(n_total, n_protected, rng)
        assert -1e-10 <= fidelity_fast(a).value <= 1.0 + 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_buffer_row_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n_protected = int(rng.integers(1, 4))
        n_total = n_protected + int(rng.integers(0, 6))
        full = random_subunitary(n_total + 1, n_protected, rng)
        trimmed = full.dropping_rows_after(n_total)
        assert fidelity_fast(full).value >= fidelity_fast(trimmed).value - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_phase_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = random_subunitary(6, 3, rng)
        row_phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(6, 1)))
        col_phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(1, 3)))
        rephased = OverlapMatrix(a.entries * row_phases * col_phases)
        assert fidelity_fast(rephased).value == pytest.approx(
            fidelity_fast(a).value, abs=1e-12
        )


class TestValidation:
    def test_column_norm_checked(self):
        with pytest.raises(NumericalConsistencyError):
            OverlapMatrix(np.array([[1.2], [0.1]]))

    def test_singular_value_checked(self):
        entries = np.array([[0.8, 0.8], [0.6, 0.6]])  # columns equal: s > 1
        with pytest.raises(NumericalConsistencyError):
            OverlapMatrix(entries)

    def test_fast_path_range_error(self):
        bad = OverlapMatrix(np.array([[1.5 + 0.0j]]), validate=False)
        with pytest.raises(NumericalConsistencyError):
            fidelity_fast(bad)

    def test_more_targets_than_rows_rejected(self):
        from pauliblock import ConfigError

        with pytest.raises(ConfigError):
            OverlapMatrix(np.zeros((1, 2)))


class TestGramBatch:
    def test_matches_single_evaluations(self):
        rng = np.random.default_rng(5)
        master = random_subunitary(8, 2, rng).entries
        row_sets = np.array([[0, 1, 2], [1, 3, 5], [2, 4, 7]])
        batch = gram_fidelity_values(master, row_sets)
        for rows, value in zip(row_sets, batch):
            single = fidelity_oracle(OverlapMatrix(master[rows], validate=False))
            assert value == pytest.approx(single.value, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        n_protected=st.integers(1, 3),
        n_extra=st.integers(0, 4),
    )
    def test_matches_fidelity_oracle_on_random_masters(
        self, seed, n_protected, n_extra
    ):
        # Increasing row sets of N = N_p + n_extra rows, as the thermal
        # ensemble's configurations are.
        rng = np.random.default_rng(seed)
        master = random_subunitary(10, n_protected, rng).entries
        n_rows = n_protected + n_extra
        row_sets = np.array(
            [np.sort(rng.choice(10, n_rows, replace=False)) for _ in range(6)]
        )
        batch = gram_fidelity_values(master, row_sets)
        for rows, value in zip(row_sets, batch):
            single = fidelity_oracle(OverlapMatrix(master[rows], validate=False))
            assert abs(value - single.value) <= 1e-13

    def test_compact_indices(self):
        # A thermal ensemble's one-byte row sets are gathered with as they
        # are and give exactly the values of 8-byte ones.
        rng = np.random.default_rng(11)
        for n_protected in (1, 2, 3):
            master = random_subunitary(40, n_protected, rng).entries
            row_sets = np.array(
                [np.sort(rng.choice(40, 5, replace=False)) for _ in range(50)]
            )
            compact = gram_fidelity_values(master, row_sets.astype(np.uint8))
            wide = gram_fidelity_values(master, row_sets.astype(np.intp))
            assert compact.tobytes() == wide.tobytes()

    def test_range_check(self):
        # Same bound as fidelity_fast: no silent clamp on the thermal path.
        master = np.array([[0.6], [0.8j], [np.sqrt(1.0 + 2e-10)]])
        inside = gram_fidelity_values(master, [[0], [1]])
        np.testing.assert_array_equal(inside, [0.6 * 0.6, 0.8 * 0.8])
        np.testing.assert_array_equal(
            gram_fidelity_values(master, [[0, 1]]), [0.6 * 0.6 + 0.8 * 0.8]
        )
        with pytest.raises(NumericalConsistencyError):
            gram_fidelity_values(master, [[0], [2]])
        two = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]])
        with pytest.raises(NumericalConsistencyError):
            gram_fidelity_values(two, [[0, 1]])


class TestScenario:
    def test_static_process_is_identity(self, engine):
        schedule = PotentialSchedule.expansion(
            1.0, omega_f=1.0, omega_i=1.0, lam=1.0
        )
        result = engine.scenario_fidelity(
            schedule, 2, 1, PropagationSettings(dt=1e-3)
        )
        assert result.value == pytest.approx(1.0, abs=1e-8)
        assert (result.n_total, result.n_protected, result.n_buffer) == (3, 2, 1)

    def test_oracle_agrees_on_full_pipeline(self, engine):
        schedule = PotentialSchedule.splitting(1.0, h_f=20.0)
        result = engine.scenario_fidelity(
            schedule, 2, 2, PropagationSettings(dt=2e-3), verify_oracle=True
        )
        assert 0.0 <= result.value <= 1.0
