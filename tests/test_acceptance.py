"""Acceptance suite: one test per criterion, one printed line per verdict.

Heavy scenario work is shared through the session-scoped engine cache, so
the whole module runs at desk scale (tens of minutes).  Frozen numbers
come from converged generation runs (grid auto-escalation active,
dt = 2e-3 validated against dt = 1e-3 and a doubled grid: pinned
fidelities moved by less than 5e-7).
"""

import time

import numpy as np
import pytest

from pauliblock import (
    Axis,
    Grid,
    OverlapMatrix,
    PotentialSchedule,
    PropagationSettings,
    RampShape,
    SweepSpec,
    enumerate_ensemble,
    fermi_gap_profile,
    fidelity_fast,
    fidelity_oracle,
    min_buffer_search,
    propagate_basis,
    run_sweep,
    solve,
    temperature_compensation_report,
)
from pauliblock.fidelity import Method

from reference import random_subunitary

SETTINGS = PropagationSettings(dt=2e-3)

# -- frozen regression values (see module docstring) -------------------------

# (shape, T) -> fidelity at N_b = 0, 6, 12 for the expansion task with
# omega_f/omega_i = 0.01, lambda = 1, N_p = 2, sinusoidal/linear ramps.
EXPANSION_TABLE = {
    ("sinusoidal", 10.0): (0.2105991974, 0.7810507518, 0.9517855176),
    ("sinusoidal", 15.0): (0.2965951531, 0.8848260695, 0.985832043),
    ("sinusoidal", 25.0): (0.4369647784, 0.9644502513, 0.9984691321),
    ("sinusoidal", 40.0): (0.5881942622, 0.9926786796, 0.9999233396),
    ("sinusoidal", 50.0): (0.6614451082, 0.9972175271, 0.9999877521),
    ("linear", 10.0): (0.1947125886, 0.7113085785, 0.9067544236),
    ("linear", 15.0): (0.2500326789, 0.7925249917, 0.9471200149),
    ("linear", 25.0): (0.3307350667, 0.8783212323, 0.9800760454),
    ("linear", 40.0): (0.4194890887, 0.934883436, 0.9936925039),
    ("linear", 50.0): (0.4660714807, 0.9541197735, 0.9966514696),
}
EXPANSION_T25_NB16 = 0.9998364379
REGRESSION_TOL = 1e-4

# Minimal buffer count reaching F >= 0.95 for all grid times >= T.
MINBUFFER_EXPECTED = {25.0: 6, 30.0: 6, 40.0: 4, 50.0: 4}

T_GRID = (10.0, 15.0, 25.0, 40.0, 50.0)
BUFFER_COLUMNS = (0, 6, 12)


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def expansion_schedule(T, shape=RampShape.SINUSOIDAL, lam=1.0):
    return PotentialSchedule.expansion(T, omega_f=0.01, lam=lam, shape=shape)


def random_matrix_set():
    rng = np.random.default_rng(20250810)
    matrices = []
    for _ in range(200):
        n_total = int(rng.integers(1, 9))
        n_protected = int(rng.integers(0, min(n_total, 4) + 1))
        matrices.append(random_subunitary(n_total, n_protected, rng))
    return matrices


class TestAcceptance:
    def test_01_oracle_equivalence(self):
        start = time.time()
        worst = 0.0
        for a in random_matrix_set():
            delta = abs(fidelity_fast(a).value - fidelity_oracle(a).value)
            worst = max(worst, delta)
            assert delta < 1e-10
        elapsed = time.time() - start
        assert elapsed < 10.0
        report(1, f"gram vs brute force on 200 random matrices, "
                  f"max |diff| = {worst:.2e}, {elapsed:.1f}s")

    def test_02_bounds_and_monotonicity(self, engine):
        start = time.time()
        # Random sub-unitary matrices: range plus one-row-append growth.
        rng = np.random.default_rng(42)
        for a in random_matrix_set():
            value = fidelity_fast(a).value
            assert 0.0 <= value <= 1.0 + 1e-10
            if a.n_protected >= 1:
                extended = random_subunitary(a.n_total + 1, a.n_protected, rng)
                trimmed = extended.dropping_rows_after(a.n_total)
                assert (
                    fidelity_fast(extended).value
                    >= fidelity_fast(trimmed).value - 1e-12
                )
        # Twenty full scenario runs across the three tasks.
        scenarios = 0
        for schedule, n_b_top in (
            (PotentialSchedule.splitting(0.5, h_f=20.0), 4),
            (PotentialSchedule.splitting(2.0, h_f=20.0), 4),
            (expansion_schedule(10.0), 9),
        ):
            n_p = 2
            matrix, _, _ = engine.master_overlaps(
                schedule, n_p + n_b_top, n_p, SETTINGS
            )
            previous = None
            for nb in range(n_b_top + 1):
                value = fidelity_fast(OverlapMatrix(matrix[: n_p + nb])).value
                assert 0.0 <= value <= 1.0 + 1e-10
                if previous is not None:
                    assert value >= previous - 1e-12
                previous = value
                scenarios += 1
        assert scenarios == 20
        elapsed = time.time() - start
        assert elapsed < 300.0
        report(2, f"0 <= F <= 1 and buffer-append monotonicity on 200 random "
                  f"matrices and {scenarios} scenario runs, {elapsed:.0f}s")

    def test_03_eigensolver_exactness(self):
        start = time.time()
        grid = Grid(-40.0, 40.0, 512)
        basis = solve(0.5 * grid.x**2, grid, 20)
        np.testing.assert_allclose(
            basis.energies, np.arange(20) + 0.5, rtol=1e-6
        )
        gaps = np.array([g for _, g in fermi_gap_profile(1.0, 20)])
        assert (np.diff(gaps) > 0).all()
        elapsed = time.time() - start
        assert elapsed < 60.0
        report(3, f"harmonic levels exact to 1e-6, lambda=1 Fermi gap "
                  f"strictly increasing over N=1..20, {elapsed:.1f}s")

    def test_04_propagator_order_and_unitarity(self, harmonic_basis):
        start = time.time()
        static = PotentialSchedule.expansion(
            25.0, omega_f=1.0, omega_i=1.0, lam=0.0
        )
        dx = harmonic_basis.grid.dx
        ground = harmonic_basis.states[0]
        final = propagate_basis(
            harmonic_basis, 1, static, PropagationSettings(dt=1e-3)
        )[0]
        drift = abs(np.sqrt(np.sum(np.abs(final) ** 2) * dx) - 1.0)
        assert drift < 1e-10
        overlap = abs(np.vdot(final, ground) * dx)
        assert overlap == pytest.approx(1.0, abs=1e-8)
        # dt-convergence order on a shorter stationary run.
        short = PotentialSchedule.expansion(5.0, omega_f=1.0, omega_i=1.0, lam=0.0)
        energy = harmonic_basis.energies[0]
        dts = np.array([0.02, 0.01, 0.005, 0.0025])
        errors = []
        for dt in dts:
            out = propagate_basis(
                harmonic_basis, 1, short, PropagationSettings(dt=dt)
            )[0]
            exact = ground * np.exp(-1j * energy * short.T)
            errors.append(np.sqrt(np.sum(np.abs(out - exact) ** 2) * dx))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)
        elapsed = time.time() - start
        assert elapsed < 120.0
        report(4, f"norm drift {drift:.1e} over T=25, stationary overlap "
                  f"1 to 1e-8, dt error slope {slope:.3f}, {elapsed:.0f}s")

    def test_05_expansion_figure_trends(self, engine):
        start = time.time()
        values = {}
        for shape in (RampShape.SINUSOIDAL, RampShape.LINEAR):
            spec = SweepSpec(
                schedule=expansion_schedule(25.0, shape),
                axis=Axis.PROCESS_TIME,
                axis_values=T_GRID,
                n_protected=2,
                n_buffer=12,
                settings=SETTINGS,
                check_dt=(shape is RampShape.SINUSOIDAL),
            )
            # The sweep validates dt once per family, then every (T, N_b)
            # column comes from slicing the per-T master overlap matrices.
            run_sweep(spec, engine)  # seeds caches and the dt check
            for T in T_GRID:
                matrix, _, _ = engine.master_overlaps(
                    expansion_schedule(T, shape), 14, 2, SETTINGS
                )
                values[(shape.value, T)] = tuple(
                    fidelity_fast(OverlapMatrix(matrix[: 2 + nb])).value
                    for nb in BUFFER_COLUMNS
                )
        # Buffer layering helps dramatically (figure-trend assertions).
        for shape in ("sinusoidal", "linear"):
            for T in T_GRID:
                f0, f6, f12 = values[(shape, T)]
                assert f12 > f6 > f0
        # The smooth ramp wins at matched (T, N_b) on this grid.
        for T in T_GRID:
            for i in range(3):
                assert values[("sinusoidal", T)][i] >= values[("linear", T)][i]
        # A modest buffer reaches the 0.95 threshold at T = 25.
        matrix, _, _ = engine.master_overlaps(
            expansion_schedule(25.0), 18, 2, SETTINGS
        )
        f_nb16 = fidelity_fast(OverlapMatrix(matrix)).value
        f_nb6 = values[("sinusoidal", 25.0)][1]
        assert f_nb6 >= 0.95 and f_nb16 >= 0.95
        assert f_nb16 == pytest.approx(EXPANSION_T25_NB16, abs=REGRESSION_TOL)
        # Frozen-number regressions.
        for key, expected in EXPANSION_TABLE.items():
            for got, want in zip(values[key], expected):
                assert got == pytest.approx(want, abs=REGRESSION_TOL), key
        elapsed = time.time() - start
        assert elapsed < 1800.0
        report(5, f"expansion trends on T={T_GRID}: monotone in N_b, "
                  f"sinusoidal >= linear, F(N_b=6, T=25) = {f_nb6:.4f} >= 0.95, "
                  f"30 frozen fidelities reproduced to 1e-4, {elapsed:.0f}s")

    def test_05b_minimal_buffer_search(self, engine):
        spec = SweepSpec(
            schedule=expansion_schedule(25.0),
            axis=Axis.PROCESS_TIME,
            axis_values=tuple(MINBUFFER_EXPECTED),
            n_protected=2,
            n_buffer=(0, 16),
            settings=SETTINGS,
            check_dt=False,
        )
        result = min_buffer_search(spec, engine=engine)
        found = dict(result.rows)
        assert found == MINBUFFER_EXPECTED
        values = list(found.values())
        assert all(b <= a for a, b in zip(values, values[1:]))
        report(5, f"minimal buffer counts over T>=25 frozen: {found} "
                  f"(nonincreasing in T, N_b_min(T=25) = {found[25.0]})")

    def test_06_parity_decoupling(self, engine):
        start = time.time()
        matrix, _, _ = engine.master_overlaps(
            expansion_schedule(25.0), 9, 1, SETTINGS
        )
        fids = [
            fidelity_fast(OverlapMatrix(matrix[: 1 + nb])).value
            for nb in range(9)
        ]
        worst = 0.0
        for k in range(4):
            delta = abs(fids[2 * k + 1] - fids[2 * k])
            worst = max(worst, delta)
            assert delta < 1e-6
        elapsed = time.time() - start
        assert elapsed < 600.0
        report(6, f"N_p=1 expansion: odd buffer particles are inert, "
                  f"max |F(2k+1)-F(2k)| = {worst:.1e}, {elapsed:.0f}s")

    def test_07_anharmonicity_robustness(self, engine):
        start = time.time()
        lams = (0.2, 0.5, 1.0, 1.5, 2.0)
        spec = SweepSpec(
            schedule=expansion_schedule(25.0),
            axis=Axis.ANHARMONICITY,
            axis_values=lams,
            n_protected=2,
            n_buffer=8,
            settings=SETTINGS,
            check_dt=False,
        )
        result = run_sweep(spec, engine)
        values = result.fidelities()
        assert all(v >= 0.95 for v in values)
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-3
        elapsed = time.time() - start
        assert elapsed < 1800.0
        report(7, "N_b=8 expansion stays above 0.95 for lambda in "
                  f"{lams} and rises with lambda: "
                  + " ".join(f"{v:.4f}" for v in values)
                  + f", {elapsed:.0f}s")

    def test_08_thermal_limits(self, engine):
        start = time.time()
        split = PotentialSchedule.splitting(2.0, h_f=20.0)
        # tau -> 0 continuity.
        cold = engine.thermal_fidelity(split, 2, 3, 1e-4, SETTINGS)
        zero = engine.scenario_fidelity(split, 2, 3, SETTINGS)
        assert abs(cold.value - zero.value) < 1e-3
        # Weight normalization after truncation.
        initial = engine.endpoint_bases(split, 40, 1)[1]
        ensemble = enumerate_ensemble(initial.energies, 5, 1.0)
        assert abs(ensemble.weights.sum() - 1.0) < 1e-12
        # Tail-bound robustness.
        loose = engine.thermal_fidelity(split, 2, 3, 1.0, SETTINGS,
                                        tail_bound=1e-6)
        tight = engine.thermal_fidelity(split, 2, 3, 1.0, SETTINGS,
                                        tail_bound=1e-8)
        assert abs(loose.value - tight.value) < 1e-4

        # Temperature-compensation spacings per task, within a factor of 2
        # of the reported orders (1 for expansion/transport, 0.25 for
        # splitting), measured as mean crossing spacing per buffer step.
        def mean_spacing(schedule, taus, nb_range):
            spec = SweepSpec(
                schedule=schedule,
                axis=Axis.TEMPERATURE,
                axis_values=taus,
                n_protected=2,
                n_buffer=nb_range,
                settings=SETTINGS,
                check_dt=False,
            )
            rep = temperature_compensation_report(spec, engine=engine)
            crossings = rep.crossings()
            assert len(crossings) >= 2, crossings
            (nb_first, tau_first), (nb_last, tau_last) = crossings[0], crossings[-1]
            return (tau_last - tau_first) / (nb_last - nb_first), crossings

        tau_grid = tuple(round(0.25 * i, 10) for i in range(23))  # 0 .. 5.5
        spacing_exp, cross_exp = mean_spacing(expansion_schedule(25.0),
                                              tau_grid, (6, 8))
        assert 0.5 <= spacing_exp <= 2.0

        tau_grid = tuple(round(0.25 * i, 10) for i in range(15))  # 0 .. 3.5
        transport = PotentialSchedule.transport(11.5, x0_f=90.0, lam=1.0)
        spacing_tra, cross_tra = mean_spacing(transport, tau_grid, (4, 5))
        assert 0.5 <= spacing_tra <= 2.0

        tau_grid = tuple(round(0.1 * i, 10) for i in range(17))  # 0 .. 1.6
        spacing_spl, cross_spl = mean_spacing(split, tau_grid, (3, 6))
        assert 0.125 <= spacing_spl <= 0.5

        elapsed = time.time() - start
        assert elapsed < 7200.0
        report(8, "thermal: tau->0 continuity 1e-3, weights normalized to "
                  "1e-12, tail bound robust to 1e-4; crossing spacings per "
                  f"buffer particle: expansion {spacing_exp:.2f}, transport "
                  f"{spacing_tra:.2f} (order 1), splitting {spacing_spl:.2f} "
                  f"(order 0.25), {elapsed:.0f}s")

    def test_09_adiabatic_scaling(self, engine):
        start = time.time()
        times = np.array([60.0, 95.0, 151.0, 239.0, 379.0, 600.0])
        settings = PropagationSettings(dt=4e-3)
        deficits = []
        for T in times:
            schedule = PotentialSchedule.expansion(
                T, omega_f=0.1, lam=1.0, shape=RampShape.LINEAR
            )
            result = engine.scenario_fidelity(schedule, 1, 0, settings)
            deficits.append(1.0 - result.value)
        slope = np.polyfit(np.log(times), np.log(deficits), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.2)
        elapsed = time.time() - start
        assert elapsed < 1200.0
        report(9, f"1-F follows a power law in T over [60, 600] with "
                  f"log-log slope {slope:.3f} (target -2 +- 0.2), {elapsed:.0f}s")

    def test_10_splitting_robustness(self, engine):
        start = time.time()
        split = PotentialSchedule.splitting(2.0, h_f=20.0)
        matrix, _, _ = engine.master_overlaps(split, 6, 2, SETTINGS)
        fids = {
            nb: fidelity_fast(OverlapMatrix(matrix[: 2 + nb])).value
            for nb in range(5)
        }
        best = min(nb for nb, f in fids.items() if f >= 0.95)
        assert best <= 4
        # Two-well degeneracy structure of the final trap (about 18 states).
        grid, _, targets = engine.endpoint_bases(split, 20, 20)
        e = targets.energies
        pair_split = e[1::2] - e[0::2]
        inter_gap = e[2::2] - e[1:-1:2]
        for i in range(7):
            assert pair_split[i] < 0.1 * inter_gap[i]
        for i in range(9):
            assert pair_split[i] < 0.5 * inter_gap[i]
        elapsed = time.time() - start
        assert elapsed < 1200.0
        report(10, f"splitting to h_f=20 at T=2: F(N_b={best}) = "
                   f"{fids[best]:.4f} >= 0.95 with N_b <= 4; first 9 final "
                   f"eigenpairs near-degenerate (18 paired states), {elapsed:.0f}s")
