import math

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
    ResolutionError,
    SimulationError,
    propagate_basis,
    solve,
)
from pauliblock.planner import plan_grid
from pauliblock.propagate import (
    CHECK_INTERVAL,
    KICK_BLOCK,
    _evolve,
    _pack,
    _tangent_phase,
    _unpacked,
)

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


def evolve_rows(rows, schedule, grid, settings):
    # The rows evolved alone, each state on a row of its own; a failed
    # health check raises, as a lone propagate_basis call does.
    (final,) = _evolve([(rows, schedule, settings, _unpacked)], grid)
    if isinstance(final, SimulationError):
        raise final
    return final


def row_by_row(basis, n_states, schedule, settings):
    # Every state on a row of its own, as without parity pairing.
    return evolve_rows(basis.states[:n_states], schedule, basis.grid, settings)


def planned_basis(schedule, n_states):
    grid = plan_grid([schedule], n_states, n_states)
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
        rows, _ = _pack(basis, n_states, schedule)
        assert len(rows) == n_states // 2
        settings = PropagationSettings(dt=2e-3)
        packed = propagate_basis(basis, n_states, schedule, settings)
        reference = row_by_row(basis, n_states, schedule, settings)
        assert np.max(np.abs(packed - reference)) < 1e-10

    def test_mixed_parity_states_keep_own_rows(self):
        # A mixed pair is neither even nor odd; a basis that does not record
        # alternating parity keeps every state on a row of its own, and its
        # states propagate exactly as they would alone.
        schedule = PotentialSchedule.expansion(2.0, omega_f=0.5, lam=0.0)
        grid = Grid(-12.0, 12.0, 256)
        pure = solve(schedule.evaluate(grid, 0.0), grid, 4)
        states = pure.states.copy()
        states[0] = (pure.states[0] + pure.states[1]) / np.sqrt(2.0)
        states[1] = (pure.states[0] - pure.states[1]) / np.sqrt(2.0)
        basis = EigenBasis(grid, pure.energies, states)
        rows, _ = _pack(basis, 4, schedule)
        assert len(rows) == 4
        settings = PropagationSettings(dt=2e-3)
        packed = propagate_basis(basis, 4, schedule, settings)
        reference = row_by_row(basis, 4, schedule, settings)
        np.testing.assert_array_equal(packed[:2], reference[:2])
        assert np.max(np.abs(packed[2:] - reference[2:])) < 1e-10

    def test_tunnel_pair_targets_share_a_row(self):
        # The compensation report's targets: the two lowest levels of the
        # final splitting trap, a tunnel pair split by 1.6e-5, on the 240
        # points planned for the report's 54 levels, evolved backward.
        schedule = PotentialSchedule.splitting(2.0, h_f=20.0)
        grid = plan_grid([schedule], 54, 2)
        assert grid.n_points == 240
        final = solve(schedule.evaluate(grid, schedule.T), grid, 2)
        rows, _ = _pack(final, 2, schedule.time_reversed())
        assert len(rows) == 1

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
    profile = schedule.potential(grid.x)
    kinetic = np.exp(-0.5j * dt * grid.k_values**2)
    psi = np.array(amplitudes, dtype=np.complex128)
    for step in range(steps):
        half = np.exp(-0.5j * dt * profile((step + 0.5) * dt))
        psi = half * np.fft.ifft(kinetic * np.fft.fft(half * psi, axis=1), axis=1)
    return psi


class TestLeanStrangLoop:
    # Fused half-kicks, in-place transforms, the phase from one tangent and
    # the unscaled inverse transform must not move the result.  At 1250 steps one health check (step 1000)
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
            grid = plan_grid([schedule], 4, 4).widened()
            basis = solve(schedule.evaluate(grid, 0.0), grid, 4)
            assert settings.steps_for(schedule.T)[0] == steps
            final = evolve_rows(basis.states, schedule, basis.grid, settings)
            reference = unfused_strang(basis.states, schedule, basis.grid, settings)
            assert np.max(np.abs(final - reference)) < 1e-12


class TestTangentPhase:
    # exp(i phi) from t = tan(phi/2) against libm's cos and sin, on angles
    # over +-1e4 rad, on 0 and on the floats at and next to odd multiples
    # of pi, where t is largest.  Bound, stated before measuring: 4 eps on
    # the error and on ||P|^2 - 1| (re^2 + im^2 itself rounds by up to
    # 2 eps).

    def test_matches_libm(self):
        rng = np.random.default_rng(20261020)
        odd = (2 * np.arange(-1591, 1591) + 1) * np.pi
        angles = np.concatenate([
            rng.uniform(-1e4, 1e4, 100_000),
            [0.0],
            odd,
            np.nextafter(odd, np.inf),
            np.nextafter(odd, -np.inf),
        ])
        phases = np.empty(len(angles), dtype=np.complex128)
        _tangent_phase(angles / 2, phases)
        exact = np.array([complex(math.cos(a), math.sin(a)) for a in angles])
        eps = np.finfo(float).eps
        assert np.max(np.abs(phases - exact)) <= 4 * eps
        modulus = phases.real**2 + phases.imag**2
        assert np.max(np.abs(modulus - 1.0)) <= 4 * eps
        assert phases[100_000] == 1.0


class TestLongRunRounding:
    # The benchmark's longest run: the two targets of the expansion at
    # T = 25 evolved backward, 12,500 steps on the 320 points planned for
    # its sweep.  Bound on the change of their Gram matrix, stated before
    # measuring.  Per step, on a unit state, each of the two transforms
    # errs by at most 3.5 eps log2(n) (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., sec. 24.1), 32 eps at ceil(log2 320)
    # = 9; each of the two products by at most 2 eps of rounding and 2 eps
    # of its factor's modulus; 72 eps in all.  Added up over the steps,
    # each state moves by 12,500 x 72 eps = 2.0e-10, so each Gram entry by
    # at most twice that, 4e-10.

    def test_gram_defect_stays_at_rounding(self):
        schedules = [
            PotentialSchedule.expansion(T, omega_f=0.01, lam=1.0)
            for T in (10.0, 15.0, 25.0)
        ]
        grid = plan_grid(schedules, 14, 2)
        assert grid.n_points == 320
        schedule = schedules[-1]
        settings = PropagationSettings(dt=2e-3)
        assert settings.steps_for(schedule.T)[0] == 12_500
        targets = solve(schedule.evaluate(grid, schedule.T), grid, 2)
        final = propagate_basis(targets, 2, schedule.time_reversed(), settings)
        initial = np.conj(targets.states) @ targets.states.T * grid.dx
        gram = np.conj(final) @ final.T * grid.dx
        assert np.max(np.abs(gram - initial)) < 4e-10


class TestKickLattice:
    # A run on a symmetric trap and grid evaluates its trap on the n/2 + 1
    # points at x <= 0 alone, whose kick phases it mirrors onto the rest; a
    # moving trap needs every point.  Three such runs stacked in one array.

    def test_trap_points_of_each_run(self, monkeypatch):
        grid = Grid(-14.0, 14.0, 250)
        schedules = [
            PotentialSchedule.expansion(0.1, omega_f=0.5),
            PotentialSchedule.splitting(0.1, h_f=20.0),
            PotentialSchedule.transport(0.1, x0_f=1.0),
        ]
        runs = []
        for schedule in schedules:
            basis = solve(schedule.evaluate(grid, 0.0), grid, 2)
            rows, unpack = _pack(basis, 2, schedule)
            runs.append((rows, schedule, PropagationSettings(dt=1e-3), unpack))
        evaluated = []
        trap = PotentialSchedule.trap

        def recording_trap(schedule, x):
            evaluated.append((schedule, x))
            return trap(schedule, x)

        monkeypatch.setattr(PotentialSchedule, "trap", recording_trap)
        finals = _evolve(runs, grid)
        monkeypatch.undo()
        assert [schedule for schedule, _ in evaluated] == schedules
        for (_, x), points in zip(evaluated, (126, 126, 250)):
            np.testing.assert_array_equal(x, grid.x[:points])
        for final in finals:
            assert final.shape == (2, 250)


class TestStackedEvolve:
    # Runs of several schedules, time steps, durations and state counts,
    # packed and unpacked, evolve as the rows of one array; each must hold
    # the bits of its run alone.  The grid's 250 points are no multiple of
    # a SIMD width.

    def test_each_run_matches_its_own_evolve(self):
        grid = Grid(-14.0, 14.0, 250)
        stack = [
            # (schedule, states, dt): steps, rows
            (PotentialSchedule.transport(0.3, x0_f=1.0), 2, 3e-3),  # 100, 2
            (PotentialSchedule.expansion(2.5, omega_f=0.5), 4, 2e-3),  # 1250, 2
            (PotentialSchedule.splitting(1.0, h_f=20.0), 3, 1e-3),  # 1000, 2
            (PotentialSchedule.expansion(1.3, omega_f=0.5), 1, 1e-3),  # 1300, 1
            (PotentialSchedule.expansion(0.01, omega_f=0.5), 2, 2e-3),  # 5, 1
            (PotentialSchedule.splitting(0.01, h_f=5.0), 2, 0.05),  # 1, 1
        ]
        runs = []
        for schedule, n_states, dt in stack:
            basis = solve(schedule.evaluate(grid, 0.0), grid, n_states)
            runs.append((basis, n_states, schedule, PropagationSettings(dt)))
        steps = [settings.steps_for(s.T)[0] for _, _, s, settings in runs]
        assert steps == [100, 1250, 1000, 1300, 5, 1]
        # Runs end at, before and after a check step, mid-block and in the
        # first block.
        assert CHECK_INTERVAL == 1000 and 100 % KICK_BLOCK and 1250 % KICK_BLOCK
        packed = [len(_pack(b, n, s)[0]) for b, n, s, _ in runs]
        assert packed == [2, 2, 2, 1, 1, 1]
        stacked = propagate_basis(*runs[0], also=runs[1:])
        assert len(stacked) == len(runs)
        for run, states in zip(runs, stacked):
            np.testing.assert_array_equal(states, propagate_basis(*run))

    def test_tripping_run_leaves_the_others_running(self, monkeypatch):
        # The leaking case of test_containment_error_names_the_state, slowed
        # to 1200 steps so that it trips at the check of step 1000, stacked
        # behind a run of 1400 steps that stays contained: the leaking run
        # leaves the array with the error its lone call raises, and the
        # quiet run carries on to the bits of its lone call.
        grid = Grid(-8.0, 8.0, 128)
        leaking = PotentialSchedule.expansion(6.0, omega_f=0.05, lam=0.0)
        quiet = PotentialSchedule.expansion(7.0, omega_f=1.0, lam=0.0)
        settings = PropagationSettings(dt=5e-3)
        basis = solve(leaking.evaluate(grid, 0.0), grid, 6)
        alone = propagate_basis(basis, 2, quiet, settings)
        with pytest.raises(ContainmentError) as raised:
            propagate_basis(basis, 6, leaking, settings)
        assert raised.value.step == CHECK_INTERVAL
        # One inverse transform per step: the rows it transforms, the quiet
        # run's packed row and the leaking run's three up to the trip, the
        # quiet row alone after it.
        transformed = []
        ifft = np.fft.ifft

        def counting_ifft(a, *args, **kwargs):
            transformed.append(len(a))
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counting_ifft)
        states, error = propagate_basis(
            basis, 2, quiet, settings, also=[(basis, 6, leaking, settings)]
        )
        monkeypatch.undo()
        assert transformed == [4] * CHECK_INTERVAL + [1] * 400
        np.testing.assert_array_equal(states, alone)
        assert type(error) is type(raised.value)
        assert error.state == raised.value.state
        assert error.step == raised.value.step
        assert error.ratio == raised.value.ratio

    def test_runs_on_another_grid_are_rejected(self):
        schedule = static_harmonic(T=0.01)
        settings = PropagationSettings(dt=1e-3)
        bases = [
            solve(schedule.evaluate(grid, 0.0), grid, 1)
            for grid in (Grid(-8.0, 8.0, 64), Grid(-8.0, 8.0, 128))
        ]
        other = (bases[1], 1, schedule, settings)
        with pytest.raises(ConfigError, match="together"):
            propagate_basis(bases[0], 1, schedule, settings, also=[other])


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
