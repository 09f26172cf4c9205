import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliblock import (
    NumericalConsistencyError,
    OverlapMatrix,
    PotentialSchedule,
    PropagationSettings,
    fidelity_fast,
)
from pauliblock.fidelity import (
    FidelityResult,
    check_range,
    gram_fidelity_values,
)
from pauliblock.thermal import projected_fidelity

from reference import (
    fidelity_oracle,
    gram_fidelity_values_unblocked,
    random_subunitary,
    verify_against_oracle,
)

# A batch of row sets the size of a thermal ensemble.
N_MANY_SETS = 24_699


def increasing_row_sets(rng, n_levels, n_rows, n_sets):
    """``n_sets`` random increasing selections of ``n_rows`` of ``n_levels``
    rows, as a thermal ensemble's configurations are."""
    order = rng.random((n_sets, n_levels)).argsort(axis=1)
    return np.sort(order[:, :n_rows], axis=1)


class TestOracleExamples:
    def test_single_overlap(self):
        c = 0.3 - 0.4j
        a = OverlapMatrix(np.array([[c]]))
        assert fidelity_oracle(a).value == pytest.approx(abs(c) ** 2, abs=1e-14)

    def test_perfect_two_particle_process(self):
        a = OverlapMatrix(np.eye(2))
        assert fidelity_oracle(a).value == pytest.approx(1.0, abs=1e-14)

    def test_no_protected_particles(self):
        # The empty minor is 1, in the oracle, in fidelity_fast and in
        # every set of a batch.
        a = OverlapMatrix(np.zeros((3, 0)))
        result = fidelity_oracle(a)
        assert result.value == 1.0
        assert result.n_buffer == 3
        assert fidelity_fast(a).value == 1.0
        row_sets = [[0, 1], [0, 2], [1, 2], [2, 1]]
        np.testing.assert_array_equal(
            gram_fidelity_values(a.entries, row_sets), np.ones(4)
        )


class TestFastExamples:
    def test_identity_rows(self):
        a = OverlapMatrix(np.eye(5)[:, :3])
        assert fidelity_fast(a).value == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_target_gives_zero(self):
        entries = np.eye(4)[:, :2].astype(complex)
        entries[:, 1] = 0.0  # one target outside the evolved span
        a = OverlapMatrix(entries)
        assert fidelity_fast(a).value == pytest.approx(0.0, abs=1e-14)


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
        trimmed = OverlapMatrix(full.entries[:n_total])
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
        # Out of range only after construction: the fast path's own range
        # check must catch it.
        bad = OverlapMatrix(np.array([[1.0 + 0.0j]]))
        bad.entries *= 1.5
        with pytest.raises(NumericalConsistencyError):
            fidelity_fast(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_checked(self, bad):
        # Before the SVD, which does not converge on a NaN.
        entries = np.array([[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]], dtype=complex)
        entries[2, 1] = bad
        message = r"A\[2, 1\] = .* is not finite"
        with pytest.raises(NumericalConsistencyError, match=message):
            OverlapMatrix(entries)

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
            single = fidelity_oracle(OverlapMatrix(master[rows]))
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
            single = fidelity_oracle(OverlapMatrix(master[rows]))
            assert abs(value - single.value) <= 1e-13

    @pytest.mark.parametrize("n_protected", [1, 2, 3])
    def test_matches_closed_forms(self, n_protected):
        # The reference adds the same per-level products in the same order,
        # so the Gram entries agree bit for bit, and takes the determinant
        # in closed form for N_p <= 2, where this takes numpy's det (an LU,
        # its product taken through its logarithm).  Every entry is at most
        # 1 in modulus (A is sub-unitary), |g01|^2 <= g00 g11, and the
        # determinant d <= 1 has d |log d| <= 1/e, so each form is within a
        # few eps of the exact determinant: the two agree within 8 eps, and
        # exactly at N_p = 3, one det on both.
        rng = np.random.default_rng(7)
        master = random_subunitary(12, n_protected, rng).entries
        row_sets = increasing_row_sets(rng, 12, 5, N_MANY_SETS)
        values = gram_fidelity_values(master, row_sets)
        closed = gram_fidelity_values_unblocked(master, row_sets)
        bound = 0.0 if n_protected == 3 else 8 * np.finfo(float).eps
        assert np.max(np.abs(values - closed)) <= bound

    def test_compact_indices(self):
        # A thermal ensemble's one-byte row sets are gathered with as they
        # are and give exactly the values of 8-byte ones.
        rng = np.random.default_rng(11)
        for n_protected in (1, 2, 3):
            master = random_subunitary(40, n_protected, rng).entries
            row_sets = increasing_row_sets(rng, 40, 5, N_MANY_SETS)
            compact = gram_fidelity_values(master, row_sets.astype(np.uint8))
            wide = gram_fidelity_values(master, row_sets.astype(np.intp))
            assert compact.tobytes() == wide.tobytes()

    def test_rows_are_added_slot_by_slot(self):
        # Each slot's products are added to the sets' Gram matrices in
        # turn, so the traced peak of 32-row sets at N_p = 2 stays below
        # one complex gather of the sets' rows, (n_sets, N, N_p).
        rng = np.random.default_rng(13)
        master = random_subunitary(64, 2, rng).entries
        row_sets = increasing_row_sets(rng, 64, 32, N_MANY_SETS).astype(np.uint8)
        tracemalloc.start()
        try:
            gram_fidelity_values(master, row_sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < row_sets.size * master.shape[1] * master.itemsize

    def test_range_check_names_the_first_set_in_a_late_block(self):
        # Row 12 has norm 2, so every set holding it leaves [0, 1]; two are
        # planted late in the batch, and the first is named by its index
        # among all sets.
        rng = np.random.default_rng(17)
        master = np.vstack([random_subunitary(12, 1, rng).entries, [[2.0]]])
        row_sets = increasing_row_sets(rng, 12, 4, N_MANY_SETS)
        first = 24_581
        row_sets[[first, first + 50], -1] = 12
        with pytest.raises(NumericalConsistencyError, match=f"row set {first} "):
            gram_fidelity_values(master, row_sets)

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


class TestOneRangeCheck:
    """A NaN or a value past ``RANGE_TOL`` raises on every fidelity path,
    through the one :func:`check_range`; a value within it is clamped where
    a path returns it, and a :class:`FidelityResult` keeps what it is
    handed."""

    # Out-of-range values of the first two paths: TestGramBatch's
    # test_range_check and test_thermal's test_planted_failures_raise.
    @pytest.mark.filterwarnings("error")
    def test_gram_fidelity_values(self):
        master = np.array([[0.5], [np.nan]])
        with pytest.raises(NumericalConsistencyError, match="row set 1 = nan"):
            gram_fidelity_values(master, [[0], [1]])

    def test_projected_fidelity(self):
        energies = np.arange(30) + 0.5
        overlaps = np.zeros((30, 2))
        overlaps[0, 0] = overlaps[1, 1] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericalConsistencyError):
            projected_fidelity(energies, overlaps, 4, 0.3, 0.0)

    @pytest.mark.parametrize("value", [np.nan, -1e-9, 1.0 + 1e-9])
    def test_fidelity_result(self, value):
        with pytest.raises(NumericalConsistencyError, match="fidelity = .* outside"):
            FidelityResult(value, 3, 2, 1)

    def test_first_value_outside_is_named(self):
        with pytest.raises(NumericalConsistencyError, match=r"^F 1 = nan outside"):
            check_range([0.5, np.nan, 2.0], "F")
        with pytest.raises(NumericalConsistencyError, match=r"^F = -1e-09 outside"):
            check_range(-1e-9, "F")

    def test_values_within_the_tolerance_are_clamped(self):
        np.testing.assert_array_equal(
            check_range([-5e-11, 0.25, 1.0 + 5e-11], "F"), [0.0, 0.25, 1.0]
        )
        master = np.array([[np.sqrt(1.0 + 5e-11)]])
        np.testing.assert_array_equal(gram_fidelity_values(master, [[0]]), [1.0])
        assert FidelityResult(1.0 + 5e-11, 1, 1, 0).value == 1.0 + 5e-11


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
        # The ground configuration's Gram determinant against the
        # brute-force sum on the overlap rows the engine read.
        schedule = PotentialSchedule.splitting(1.0, h_f=20.0)
        settings = PropagationSettings(dt=2e-3)
        result = engine.scenario_fidelity(schedule, 2, 2, settings)
        matrix, _, _ = engine.master_overlaps(schedule, 4, 2, settings)
        verify_against_oracle(OverlapMatrix(matrix), result.value)
        assert 0.0 <= result.value <= 1.0
