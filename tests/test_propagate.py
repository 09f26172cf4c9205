import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pauliblock import (
    ConfigError,
    ContainmentError,
    ConvergenceError,
    EigenBasis,
    Grid,
    PotentialSchedule,
    PropagationSettings,
    RampShape,
    ResolutionError,
    propagate_basis,
    solve,
)
from pauliblock.planner import plan_grid
from pauliblock.propagate import _evolve, _pack

from conftest import evolve_state, gaussian_state, momentum_density

# Frozen from a dt-halving study (values move by ~1e-5 between dt=1e-3 and
# dt=5e-4); guards against regressions of the whole propagation pipeline.
TRANSPORT_REGRESSION_ABS_A = np.array(
    [
        [0.415215997816, 0.514105552671, 0.553954605323],
        [0.514105552669, 0.439229681669, 0.311554770971],
        [0.553954605324, 0.311554770971, 0.622633033909],
    ]
)
TRANSPORT_REGRESSION_F = 0.1142975715723637


def static_harmonic(T=5.0):
    # Expansion schedule with equal endpoints: a time-independent trap.
    return PotentialSchedule.expansion(T, omega_f=1.0, omega_i=1.0, lam=0.0)


class TestStationaryState:
    def test_ground_state_survives(self, harmonic_grid, harmonic_basis):
        schedule = static_harmonic(T=5.0)
        final = propagate_basis(
            harmonic_basis, 1, schedule, PropagationSettings(dt=1e-3)
        )[0]
        overlap = np.vdot(final, harmonic_basis.states[0]) * harmonic_grid.dx
        assert abs(overlap) == pytest.approx(1.0, abs=1e-8)

    def test_norm_drift(self, harmonic_grid, harmonic_basis):
        schedule = static_harmonic(T=5.0)
        final = propagate_basis(
            harmonic_basis, 1, schedule, PropagationSettings(dt=1e-3)
        )[0]
        norm = np.sqrt(np.sum(np.abs(final) ** 2) * harmonic_grid.dx)
        assert abs(norm - 1.0) < 1e-10

    def test_unnormalized_input_rejected(self, harmonic_grid, harmonic_basis):
        # Evolution keeps norms, so the Gram check at the end of
        # propagate_basis catches a state that was never normalized.
        doubled = 2.0 * harmonic_basis.states[:1]
        basis = EigenBasis(harmonic_grid, harmonic_basis.energies[:1], doubled)
        with pytest.raises(ConvergenceError, match="orthonormality"):
            propagate_basis(
                basis, 1, static_harmonic(T=0.01), PropagationSettings(dt=1e-3)
            )


class TestEhrenfest:
    def test_center_follows_classical_oscillator(self):
        # In a harmonic trap the mean position and momentum obey the driven
        # classical equations exactly; an independent high-order ODE solve
        # is the reference at t = T.
        grid = Grid(-15.0, 25.0, 1024)
        for T in (2.0, 5.0, 8.0):
            schedule = PotentialSchedule.transport(T, x0_f=10.0, lam=0.0)
            basis = solve(schedule.evaluate(grid, 0.0), grid, 1)
            final = propagate_basis(
                basis, 1, schedule, PropagationSettings(dt=1e-3)
            )[0]
            center = np.sum(grid.x * np.abs(final) ** 2) * grid.dx
            mean_p = np.sum(grid.k_values * momentum_density(final))

            def rhs(t, y):
                return [y[1], -(y[0] - schedule.control_value(t))]

            ref = solve_ivp(
                rhs,
                (0.0, schedule.T),
                [0.0, 0.0],
                rtol=1e-11,
                atol=1e-12,
                max_step=0.05,
            )
            assert abs(center - ref.y[0, -1]) < 1e-4
            assert abs(mean_p - ref.y[1, -1]) < 1e-4


class TestAdiabaticLimit:
    def test_slow_expansion_recovers_target_ground_state(self, engine):
        # Converged study: at omega_f/omega_i = 0.01 and lam = 1 the
        # single-particle fidelity reaches 1e-3 of unity around T ~ 8e2.
        schedule = PotentialSchedule.expansion(800.0, omega_f=0.01, lam=1.0)
        result = engine.scenario_fidelity(
            schedule, 1, 0, PropagationSettings(dt=4e-3)
        )
        assert result.value > 1.0 - 1e-3


class TestUnitarity:
    def test_gram_identity_static(self, harmonic_basis):
        final = propagate_basis(
            harmonic_basis, 2, static_harmonic(T=2.0), PropagationSettings(dt=1e-3)
        )
        gram = np.conj(final) @ final.T * harmonic_basis.grid.dx
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-8)

    def test_gram_identity_driven(self):
        schedule = PotentialSchedule.transport(6.0, x0_f=20.0)
        grid = Grid(-15.0, 35.0, 2048)
        basis = solve(schedule.evaluate(grid, 0.0), grid, 4)
        final = propagate_basis(basis, 4, schedule, PropagationSettings(dt=1e-3))
        gram = np.conj(final) @ final.T * grid.dx
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-6)


class TestSecondOrderAccuracy:
    def test_error_scales_as_dt_squared(self, harmonic_basis):
        # Against the analytic stationary phase exp(-i E t) of the discrete
        # ground state.
        schedule = static_harmonic(T=5.0)
        ground = harmonic_basis.states[0]
        energy = harmonic_basis.energies[0]
        dts = np.array([0.02, 0.01, 0.005, 0.0025])
        errors = []
        for dt in dts:
            final = propagate_basis(
                harmonic_basis, 1, schedule, PropagationSettings(dt=dt)
            )[0]
            exact = ground * np.exp(-1j * energy * schedule.T)
            diff = final - exact
            errors.append(
                np.sqrt(np.sum(np.abs(diff) ** 2) * harmonic_basis.grid.dx)
            )
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestTransportRegression:
    def test_frozen_overlaps(self, engine):
        schedule = PotentialSchedule.transport(6.0, x0_f=20.0)
        engine_local = type(engine)(n_points=2048)
        matrix, grid, _ = engine_local.master_overlaps(
            schedule, 3, 3, PropagationSettings(dt=1e-3)
        )
        np.testing.assert_allclose(
            np.abs(matrix), TRANSPORT_REGRESSION_ABS_A, atol=1e-4
        )
        from pauliblock.fidelity import OverlapMatrix, fidelity_fast

        value = fidelity_fast(OverlapMatrix(matrix)).value
        assert value == pytest.approx(TRANSPORT_REGRESSION_F, abs=1e-4)


def row_by_row(basis, n_states, schedule, settings):
    # Every state on a row of its own, as without parity pairing.
    return _evolve(basis.states[:n_states], schedule, basis.grid, settings)


def planned_basis(schedule, n_states):
    grid = plan_grid(schedule, n_states)
    return solve(schedule.evaluate(grid, 0.0), grid, n_states)


class TestParityPairing:
    # On a symmetric trap and grid, each even eigenstate shares an FFT row
    # with an odd one; the evolved states must not notice.

    @pytest.mark.parametrize(
        "schedule, n_states",
        [
            (PotentialSchedule.expansion(10.0, omega_f=0.01, lam=1.0), 14),
            (PotentialSchedule.splitting(2.0, h_f=20.0), 54),
        ],
        ids=["expansion", "splitting"],
    )
    def test_packed_matches_row_by_row(self, schedule, n_states):
        basis = planned_basis(schedule, n_states)
        rows, _ = _pack(basis.states, schedule, basis.grid)
        assert len(rows) == n_states // 2
        settings = PropagationSettings(dt=2e-3)
        packed = propagate_basis(basis, n_states, schedule, settings)
        reference = row_by_row(basis, n_states, schedule, settings)
        assert np.max(np.abs(packed - reference)) < 1e-10

    def test_mixed_parity_states_keep_own_rows(self):
        # A tunnel-split pair mixed by the eigensolver is neither even nor
        # odd; such states must propagate exactly as they would alone.
        schedule = PotentialSchedule.expansion(2.0, omega_f=0.5, lam=0.0)
        grid = Grid(-12.0, 12.0, 256)
        pure = solve(schedule.evaluate(grid, 0.0), grid, 4)
        states = pure.states.copy()
        states[0] = (pure.states[0] + pure.states[1]) / np.sqrt(2.0)
        states[1] = (pure.states[0] - pure.states[1]) / np.sqrt(2.0)
        basis = EigenBasis(grid, pure.energies, states)
        rows, _ = _pack(basis.states, schedule, grid)
        assert len(rows) == 3
        settings = PropagationSettings(dt=2e-3)
        packed = propagate_basis(basis, 4, schedule, settings)
        reference = row_by_row(basis, 4, schedule, settings)
        np.testing.assert_array_equal(packed[:2], reference[:2])
        assert np.max(np.abs(packed[2:] - reference[2:])) < 1e-10

    def test_transport_is_not_packed(self):
        # Starting at x = 0 on a symmetric grid the initial states are
        # parity-pure, but the moving trap is not symmetric, so they must
        # not share rows.
        schedule = PotentialSchedule.transport(3.0, x0_f=4.0)
        grid = Grid(-12.0, 12.0, 256)
        basis = solve(schedule.evaluate(grid, 0.0), grid, 4)
        settings = PropagationSettings(dt=2e-3)
        packed = propagate_basis(basis, 4, schedule, settings)
        np.testing.assert_array_equal(
            packed, row_by_row(basis, 4, schedule, settings)
        )

    def test_containment_error_names_the_state(self):
        # Six states on three packed rows leak out of a box too small for
        # the expanded trap; the error must name the state, not its row.
        schedule = PotentialSchedule.expansion(3.0, omega_f=0.05, lam=0.0)
        grid = Grid(-8.0, 8.0, 128)
        basis = solve(schedule.evaluate(grid, 0.0), grid, 6)
        settings = PropagationSettings(dt=5e-3)
        with pytest.raises(ContainmentError) as reference:
            row_by_row(basis, 6, schedule, settings)
        with pytest.raises(ContainmentError) as packed:
            propagate_basis(basis, 6, schedule, settings)
        assert reference.value.state > 3
        assert packed.value.state == reference.value.state
        assert packed.value.step == reference.value.step


def unfused_strang(amplitudes, schedule, grid, settings):
    # The textbook loop: both half-kicks of every step, out-of-place
    # transforms, the phase as a complex exponential.
    steps, dt = settings.steps_for(schedule.T)
    profile = schedule.time_profile(grid)
    kinetic = np.exp(-0.5j * dt * grid.k_values**2)
    psi = np.array(amplitudes, dtype=np.complex128)
    for step in range(steps):
        half = np.exp(-0.5j * dt * profile((step + 0.5) * dt))
        psi = half * np.fft.ifft(kinetic * np.fft.fft(half * psi, axis=1), axis=1)
    return psi


class TestLeanStrangLoop:
    # Fused half-kicks, in-place transforms and the cos + i sin phase must
    # not move the result.  At 1250 steps one health check (step 1000)
    # closes a step mid-run and the last step is not a check step; at 1000
    # steps the last step is also the check step.

    @pytest.mark.parametrize(
        "make",
        [
            lambda T: PotentialSchedule.expansion(T, omega_f=0.5, lam=1.0),
            lambda T: PotentialSchedule.splitting(T, h_f=20.0),
            lambda T: PotentialSchedule.transport(T, x0_f=4.0),
        ],
        ids=["expansion", "splitting", "transport"],
    )
    def test_matches_unfused_loop(self, make):
        settings = PropagationSettings(dt=2e-3)
        for T, steps in ((2.5, 1250), (2.0, 1000)):
            schedule = make(T)
            grid = plan_grid(schedule, 4).widened()
            basis = solve(schedule.evaluate(grid, 0.0), grid, 4)
            assert settings.steps_for(schedule.T)[0] == steps
            final = _evolve(basis.states, schedule, basis.grid, settings)
            reference = unfused_strang(basis.states, schedule, basis.grid, settings)
            assert np.max(np.abs(final - reference)) < 1e-12


class TestFailureModes:
    def test_leaking_transport_reports_containment(self):
        # A packet dragged against the grid edge must be flagged, not
        # silently wrapped around by the periodic transform.
        schedule = PotentialSchedule.transport(
            20.0, x0_i=20.0, x0_f=24.5, lam=0.0
        )
        grid = Grid(-15.0, 25.0, 1024)
        initial = gaussian_state(grid, center=20.0)
        with pytest.raises(ContainmentError):
            evolve_state(initial, grid, schedule, PropagationSettings(dt=1e-3))

    def test_kicked_packet_on_coarse_grid_reports_resolution(self):
        # Kicked off-centre, the packet's momentum 6 cos t + 6 sin t grows
        # towards the edge of the momentum lattice; the propagator must
        # flag it instead of aliasing it.
        settings = PropagationSettings(dt=1e-3)
        grid = Grid(-20.0, 20.0, 128)  # k_max = 10
        initial = gaussian_state(grid, center=-6.0, momentum=6.0)
        with pytest.raises(ResolutionError):
            evolve_state(initial, grid, static_harmonic(T=1.0), settings)
        # Twice the momentum range resolves the same motion.
        fine = Grid(-20.0, 20.0, 256)
        initial = gaussian_state(fine, center=-6.0, momentum=6.0)
        evolve_state(initial, fine, static_harmonic(T=1.0), settings)

    def test_steps_divide_T(self):
        # A step longer than T becomes T itself; otherwise dt is rounded
        # to divide T exactly.
        assert PropagationSettings(dt=5.0).steps_for(1.0) == (1, 1.0)
        assert PropagationSettings(dt=0.3).steps_for(1.0) == (3, 1.0 / 3.0)

    def test_settings_validation(self):
        with pytest.raises(ConfigError):
            PropagationSettings(dt=0.0)
        with pytest.raises(ConfigError):
            PropagationSettings(dt=1e-3, tolerance=-1.0)
