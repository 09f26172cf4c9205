import tracemalloc

import numpy as np
import pytest

from pauliblock import (
    ConfigError,
    ConvergenceError,
    Engine,
    Grid,
    PotentialSchedule,
    PropagationSettings,
    ResolutionError,
    fermi_gap_profile,
    solve,
)
from pauliblock import spectral
from pauliblock.planner import plan_grid
from pauliblock.spectral import (
    GAP_GRID,
    _fix_phases,
    effective_potential,
    hamiltonian_apply,
)

from reference import solve_tridiagonal

# Converged value of the lowest Fermi gap of V = (x^2 + x^4)/2, frozen from
# a grid-doubling study (stable to ~5e-11 across domains and resolutions).
GAP_LAMBDA1_N1 = 1.6282305313


def quartic_potential(grid, lam=1.0):
    return 0.5 * (grid.x**2 + lam * grid.x**4)


class TestHarmonicOscillator:
    def test_spectrum(self, harmonic_grid, harmonic_basis):
        n = np.arange(20)
        expected = n + 0.5
        np.testing.assert_allclose(
            harmonic_basis.energies[:20], expected, rtol=1e-6
        )

    def test_orthonormality(self, harmonic_basis):
        g = harmonic_basis.grid
        gram = harmonic_basis.states @ harmonic_basis.states.T * g.dx
        np.testing.assert_allclose(gram, np.eye(harmonic_basis.size), atol=1e-8)

    def test_residuals(self, harmonic_grid, harmonic_basis):
        v = 0.5 * harmonic_grid.x**2
        resid = hamiltonian_apply(
            v, harmonic_grid, harmonic_basis.states
        ) - harmonic_basis.energies[:, None] * harmonic_basis.states
        norms = np.sqrt(np.sum(np.abs(resid) ** 2, axis=1) * harmonic_grid.dx)
        assert norms.max() < 1e-6 * max(harmonic_basis.energies.max(), 1.0)

    def test_parity_alternates(self, harmonic_basis):
        grid = harmonic_basis.grid
        for i in range(12):
            state = harmonic_basis.states[i]
            parity = np.dot(state, grid.reflect(state)) * grid.dx
            assert parity == pytest.approx((-1.0) ** i, abs=1e-8)

    def test_phase_convention_deterministic(self, harmonic_grid):
        v = 0.5 * harmonic_grid.x**2
        a = solve(v, harmonic_grid, 6)
        b = solve(v, harmonic_grid, 6)
        np.testing.assert_array_equal(a.states, b.states)
        for state in a.states:
            peak = np.argmax(np.abs(state))
            assert state[peak] > 0


class TestSplitTrap:
    def test_near_degenerate_pairs(self):
        g = Grid(-12.0, 12.0, 2048)
        v = 0.5 * g.x**2 + 20.0 * np.exp(-g.x**2)
        basis = solve(v, g, 20)
        e = basis.energies
        pair_split = e[1::2] - e[0::2]  # within pairs (1,2), (3,4), ...
        inter_gap = e[2::2] - e[1:-1:2]  # between consecutive pairs
        # Two-well structure for about the 18 lowest states: deep pairs are
        # split by far less than the neighboring gap, and the pairing is
        # still visible through the ninth pair.
        for i in range(7):
            assert pair_split[i] < 0.1 * inter_gap[i]
        for i in range(9):
            assert pair_split[i] < 0.5 * inter_gap[i]
        # Strict ascending order still holds through the near degeneracies.
        assert (np.diff(e) > 0).all()

    def test_pairing_dissolves_above_barrier(self):
        g = Grid(-12.0, 12.0, 2048)
        v = 0.5 * g.x**2 + 20.0 * np.exp(-g.x**2)
        basis = solve(v, g, 26)
        e = basis.energies
        pair_split = e[1::2] - e[0::2]
        # Splittings grow by orders of magnitude towards the barrier top.
        assert pair_split[11] > 1e3 * pair_split[0]


# Splitting with a high barrier (T = 0.2, h_f = 100): the final trap's
# lowest two levels are a tunnel pair split below rounding, so N_p = 1 puts
# the protected edge inside the pair.  Its even member, level 0, gives this
# F on every grid.
HIGH_BARRIER = PotentialSchedule.splitting(0.2, h_f=100.0)
HIGH_BARRIER_F = 0.0115767561


def wrap_eigh(monkeypatch, shift_odd):
    """Replace ``np.linalg.eigh`` with one whose second call (the odd block
    of a symmetric solve) returns its energies shifted by
    ``shift_odd(odd_energies, even_energies)``."""
    eigh = np.linalg.eigh
    calls = []

    def wrapped(h):
        energies, vecs = eigh(h)
        calls.append(energies)
        if len(calls) == 2:
            energies = energies + shift_odd(energies, calls[0])
        return energies, vecs

    monkeypatch.setattr(np.linalg, "eigh", wrapped)


class TestParityFromLevelIndex:
    # On a symmetric trap and grid, level n is exactly even for even n and
    # exactly odd for odd n, whatever the energies' rounding.

    def test_asymmetric_trap_does_not_alternate(self):
        grid = Grid(-8.0, 8.0, 128)
        basis = solve(quartic_potential(grid) + 0.1 * grid.x, grid, 4)
        assert not basis.alternating

    def test_inversion_beyond_the_bound_raises(self, monkeypatch):
        # The odd levels 1.5 and 3.5 planted 1.5 lower lie below the even
        # levels before them.  Sorted, the energies read 0, 0.5, 2 and 2.5,
        # and the states keep their levels, so level 1's state carries 0.5
        # and misses by 1; relabelled by energy, state 1 would miss by 1.5.
        grid = Grid(-8.0, 8.0, 128)
        wrap_eigh(monkeypatch, lambda odd, even: -1.5)
        with pytest.raises(ConvergenceError, match="eigenstate 2 residual 1.00e"):
            solve(0.5 * grid.x**2, grid, 4)

    def test_pair_split_below_rounding_keeps_the_even_state_first(
        self, monkeypatch
    ):
        # The high barrier's final pair on 128 points, its odd member put
        # 1e-14 below the even one: the energies ascend, and level 0 stays
        # the even state.
        grid = plan_grid([HIGH_BARRIER], 2, 1, 128)
        potential = HIGH_BARRIER.evaluate(grid, HIGH_BARRIER.T)
        wrap_eigh(monkeypatch, lambda odd, even: even[0] - odd[0] - 1e-14)
        basis = solve(potential, grid, 4)
        assert (np.diff(basis.energies) >= 0).all()
        assert basis.energies[1] - basis.energies[0] < 1e-13
        states = basis.states
        np.testing.assert_array_equal(states[0], grid.reflect(states[0]))
        np.testing.assert_array_equal(states[1], -grid.reflect(states[1]))

    @pytest.mark.parametrize("n_points", [128, 256, 512, 1024])
    def test_protected_edge_inside_a_tunnel_pair(self, n_points):
        # `split --T 0.2 --h-f 100 --n-protected 1 --n-buffer 1 --n-points n`
        # with its time-step check, as the command runs it.
        engine = Engine(n_points, PropagationSettings(dt=1e-3))
        settings = engine.validated_settings(
            [HIGH_BARRIER], 2, 1, 0.0, engine.settings, True
        )
        result = engine.scenario_fidelity(HIGH_BARRIER, 1, 1, settings)
        assert result.value == pytest.approx(HIGH_BARRIER_F, abs=1e-8)


class TestFermiGapProfile:
    def test_harmonic_gaps_are_unity(self):
        profile = fermi_gap_profile(0.0, 10)
        gaps = np.array([g for _, g in profile])
        np.testing.assert_allclose(gaps, 1.0, atol=1e-9)

    def test_quartic_gaps_increase(self):
        profile = fermi_gap_profile(1.0, 20)
        gaps = np.array([g for _, g in profile])
        assert (np.diff(gaps) > 0).all()

    def test_lowest_gap_regression(self):
        profile = fermi_gap_profile(1.0, 1)
        assert profile[0][1] == pytest.approx(GAP_LAMBDA1_N1, abs=1e-8)

    def test_more_anharmonicity_larger_gaps(self):
        g1 = dict(fermi_gap_profile(0.5, 10))
        g2 = dict(fermi_gap_profile(2.0, 10))
        assert all(g2[n] > g1[n] for n in range(1, 11))

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            fermi_gap_profile(-1.0, 5)
        with pytest.raises(ConfigError):
            fermi_gap_profile(1.0, 0)


class TestBackendAgreement:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_fgh_vs_finite_difference(self, lam):
        # Richardson-extrapolated 3-point finite differences agree with the
        # spectral backend to 1e-7 on the lowest 20 energies.
        fgh_grid = Grid(-16.0, 16.0, 1024)
        fgh = solve(quartic_potential(fgh_grid, lam), fgh_grid, 20)
        fd = {}
        for n in (8192, 16384):
            g = Grid(-16.0, 16.0, n)
            fd[n] = solve_tridiagonal(quartic_potential(g, lam), g, 20).energies
        richardson = (4.0 * fd[16384] - fd[8192]) / 3.0
        np.testing.assert_allclose(fgh.energies, richardson, atol=1e-7)


class TestGridConvergence:
    def test_energies_stable_under_doubling(self):
        v1 = quartic_potential(GAP_GRID)
        e1 = solve(v1, GAP_GRID, 21).energies
        doubled = GAP_GRID.refined()
        e2 = solve(quartic_potential(doubled), doubled, 21).energies
        assert np.max(np.abs(e1 - e2)) < 1e-8

    def test_undersampled_grid_raises(self):
        # The high states of the quartic trap need momenta beyond this
        # lattice; the resolution check must catch it rather than return
        # silently wrong energies.
        g = Grid(-400.0, 400.0, 2048)
        with pytest.raises(ResolutionError):
            solve(quartic_potential(g), g, 16)

    def test_k_states_precondition(self):
        g = Grid(-10.0, 10.0, 64)
        with pytest.raises(ConfigError):
            solve(0.5 * g.x**2, g, 16)  # 16 == n/4 is out of range

    def test_grid_above_the_cap_raises_before_any_matrix(self, monkeypatch):
        # The cap lowered to 1,024 points, so that a solve past a missing
        # guard stays small.  Stated before measuring: the guard reads the
        # point count alone, so the traced peak stays under 100 kB, where
        # the dense Hamiltonian of these 2,048 points takes 33 MB.
        monkeypatch.setattr(spectral, "MAX_SOLVE_POINTS", 1024)
        g = Grid(-10.0, 10.0, 2048)
        potential = 0.5 * g.x**2 + 0.1 * g.x
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as raised:
                solve(potential, g, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e3
        assert str(raised.value) == (
            "10 levels on 2048 points: an eigensolve takes at most 1024 points"
        )
        assert (raised.value.n_points, raised.value.cap) == (2048, 1024)
        # At the cap the solve runs.
        g = Grid(-10.0, 10.0, 1024)
        assert solve(0.5 * g.x**2, g, 10).size == 10


def reference_case(name):
    """(potential, grid, n_states) of one of the benchmark's traps."""
    if name == "gap-grid":
        return quartic_potential(GAP_GRID), GAP_GRID, 21
    schedule, n_states, t, grid = {
        # The expansion sweep's initial trap: 14 states on the 324 points
        # planned for it before the targets' side was planned on its own.
        "expansion-324": (
            PotentialSchedule.expansion(10.0, omega_f=0.01, lam=1.0), 14, 0.0,
            Grid(-33.625, 33.625, 324),
        ),
        # The compensation report's final trap, with its tunnel pairs: 55
        # levels on the report's grid for 55 levels and 2 targets, 240
        # points.
        "splitting-240": (
            PotentialSchedule.splitting(2.0, h_f=20.0), 55, 2.0,
            plan_grid([PotentialSchedule.splitting(2.0, h_f=20.0)], 55, 2),
        ),
    }[name]
    return schedule.evaluate(grid, t), grid, n_states


class TestDenseSolver:
    @pytest.mark.parametrize("case", ["expansion-324", "splitting-240", "gap-grid"])
    def test_matches_subset_solver(self, case):
        # numpy's full eigh, kept to the lowest levels, against LAPACK's
        # subset driver on the same Hamiltonian built from scipy's circulant.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        potential, grid, n_states = reference_case(case)
        basis = solve(potential, grid, n_states)
        first_col = np.fft.ifft(0.5 * grid.k_values**2).real
        h = scipy_linalg.circulant(first_col)
        h[np.diag_indices_from(h)] += effective_potential(potential)
        energies, vecs = scipy_linalg.eigh(h, subset_by_index=[0, n_states - 1])
        states = _fix_phases(vecs.T / np.sqrt(grid.dx))
        np.testing.assert_allclose(basis.energies, energies, rtol=0, atol=1e-9)
        np.testing.assert_allclose(basis.states, states, rtol=0, atol=1e-8)

    def test_parity_is_exact_on_symmetric_traps(self):
        # The quartic trap's levels alternate in parity; mirrored samples
        # match to the bit.
        potential, grid, n_states = reference_case("expansion-324")
        basis = solve(potential, grid, n_states)
        assert basis.alternating
        states = basis.states
        parities = (-1.0) ** np.arange(n_states)
        np.testing.assert_array_equal(
            states, parities[:, None] * grid.reflect(states)
        )

    def test_signs_survive_rounding(self):
        # An odd state peaks at a mirror pair of opposite signs; rounding
        # must not decide which one sets the sign.
        potential, grid, n_states = reference_case("expansion-324")
        states = solve(potential, grid, n_states).states
        rng = np.random.default_rng(1)
        for _ in range(20):
            noise = 1e-13 * rng.standard_normal(states.shape)
            flips = rng.choice([-1.0, 1.0], size=(n_states, 1))
            fixed = _fix_phases(flips * states * (1.0 + noise))
            np.testing.assert_array_equal(np.sign(fixed), np.sign(states))
