import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from pauliblock import (
    OverlapMatrix,
    PotentialSchedule,
    PropagationSettings,
    fidelity_fast,
    propagate_basis,
    solve,
)
from pauliblock import pipeline, planner
from pauliblock.errors import ContainmentError
from pauliblock.pipeline import Engine
from pauliblock.planner import (
    FLOW_STEPS,
    K_SAFETY,
    MARGIN_ACTION,
    _bottom,
    _ceiling,
    _endpoint_trap,
    _tail_momentum,
    flow_reach,
    plan_grid,
    plan_reach,
)
from pauliblock.spectral import holds_states

from reference import energy_ceiling, level_count, semiclassical_ladder

# (schedule, level count, target count) for the three tasks at the sizes
# the sweeps use.
CASES = {
    "expansion": (PotentialSchedule.expansion(25.0, omega_f=0.01, lam=1.0), 14, 2),
    "transport": (PotentialSchedule.transport(11.5, x0_f=90.0), 6, 2),
    "splitting": (PotentialSchedule.splitting(2.0, h_f=20.0), 52, 2),
}


def endpoint_traps(schedule):
    return [
        ((lambda x, t=t: schedule.potential(np.asarray(x, dtype=float))(t)),
         schedule.center(t))
        for t in (0.0, schedule.T)
    ]


def outer_turning_points(potential, center, energy):
    """Outermost roots of V = energy, bracketed from far outside inward."""
    far = 1.0
    while True:
        xs = np.linspace(center - far, center + far, 20001)
        inside = np.nonzero(potential(xs) <= energy)[0]
        if inside.size and 0 < inside[0] and inside[-1] < xs.size - 1:
            break
        far *= 2.0
    f = lambda x: potential(x) - energy
    left = brentq(f, xs[inside[0] - 1], xs[inside[0]])
    right = brentq(f, xs[inside[-1]], xs[inside[-1] + 1])
    return left, right


def five_smooth(n):
    for prime in (2, 3, 5):
        while n % prime == 0:
            n //= prime
    return n == 1


def decay(potential, energy, a, b):
    """WKB decay integral of kappa = sqrt(2(V - E)) between a and b."""
    kappa = lambda x: math.sqrt(2.0 * max(potential(x) - energy, 0.0))
    return quad(kappa, min(a, b), max(a, b), limit=200)[0]


def reversed_flow(schedule, energy, n_particles=16):
    """(largest |p|, least x, largest x) of particles on the final trap's
    shell ``energy`` run through the reversed schedule by scipy's DOP853,
    an independent reference for the planner's velocity-Verlet flow."""
    reverse = schedule.time_reversed()
    potential, center = endpoint_traps(schedule)[1]
    left, right = outer_turning_points(potential, center, energy)
    x0 = np.linspace(left, right, n_particles // 2 + 2)[1:-1]
    p0 = np.sqrt(2.0 * np.maximum(energy - potential(x0), 0.0))
    start = np.concatenate((x0, x0, p0, -p0))
    h = 1e-5

    def rhs(t, y):
        x, p = np.split(y, 2)
        force = reverse.potential(x - h)(t) - reverse.potential(x + h)(t)
        return np.concatenate((p, force / (2 * h)))

    path = solve_ivp(
        rhs, (0.0, schedule.T), start, method="DOP853", rtol=1e-10, atol=1e-10,
        dense_output=True,
    ).sol(np.linspace(0.0, schedule.T, 4001))
    x, p = np.split(path, 2)
    return np.abs(p).max(), x.min(), x.max()


class TestPlanGrid:
    def test_contract(self):
        for schedule, n_levels, n_targets in CASES.values():
            self.check_contract(schedule, n_levels, n_targets)

    def check_contract(self, schedule, n_levels, n_targets):
        grid = plan_grid([schedule], n_levels, n_targets)
        for (v, c), n_states in zip(endpoint_traps(schedule), (n_levels, n_targets)):
            e_max = energy_ceiling(v, c, n_states)
            # The ceiling holds the side's levels semiclassically.
            assert level_count(v, c, e_max) >= n_states - 1e-3
            # Turning points at E_max sit inside, with the tunnelling margin
            # to spare on both sides.
            left, right = outer_turning_points(v, c, e_max)
            assert grid.x_min < left and right < grid.x_max
            assert decay(v, e_max, grid.x_min, left) >= 0.99 * MARGIN_ACTION
            assert decay(v, e_max, right, grid.x_max) >= 0.99 * MARGIN_ACTION
            v_min = v(np.linspace(left, right, 20001)).min()
            assert grid.k_max >= K_SAFETY * math.sqrt(2.0 * (e_max - v_min))
        # The targets' tail shell, flowed backward by an independent
        # integrator, stays on the lattice and in the domain.
        trap = _endpoint_trap(schedule, schedule.T)
        e_targets = _ceiling(trap, n_targets)
        v_min, omega = _bottom(trap, e_targets)
        k_tail = _tail_momentum(math.sqrt(2.0 * (e_targets - v_min)), omega)
        p_flow, x_min, x_max = reversed_flow(schedule, v_min + 0.5 * k_tail**2)
        assert grid.k_max >= 0.99 * p_flow
        assert grid.x_min <= x_min + 0.01 and x_max - 0.01 <= grid.x_max
        n = grid.n_points
        assert n % 2 == 0 and five_smooth(n)
        assert holds_states(n, n_levels)
        # Minimal: the next smaller even 5-smooth count misses the planner's
        # momentum bound or the state guard.
        _, _, k_need = plan_reach([schedule], n_levels, n_targets)
        assert grid.k_max >= k_need
        smaller = next(m for m in range(n - 2, 0, -2) if five_smooth(m))
        k_smaller = math.pi * smaller / (grid.x_max - grid.x_min)
        assert k_smaller < k_need or not holds_states(smaller, n_levels)

    def test_planned_states_pass_grid_checks(self):
        # Including the lowest level counts, whose momentum spread is
        # quantum, and stiff quartic traps, whose upper levels are spaced
        # wider than their bottom curvature suggests: the plan must not
        # need an escalation to solve.
        expansion = [
            (PotentialSchedule.expansion(10.0, omega_f=0.01, lam=lam), n)
            for lam in (0.2, 1.0, 2.0)
            for n in (1, 2, 4, 8, 12, 14, 20)
        ]
        splitting = PotentialSchedule.splitting(2.0, h_f=20.0)
        transport = PotentialSchedule.transport(11.5, x0_f=90.0)
        for schedule, n_states in (
            *[(schedule, n_levels) for schedule, n_levels, _ in CASES.values()],
            (PotentialSchedule.expansion(60.0, omega_f=0.1, lam=1.0), 1),
            (PotentialSchedule.expansion(800.0, omega_f=0.01, lam=1.0), 1),
            (PotentialSchedule.splitting(0.5, h_f=20.0), 6),
            *expansion,
            *[(splitting, n) for n in (4, 8, 20, 54)],
            *[(transport, n) for n in (2, 6)],
        ):
            grid = plan_grid([schedule], n_states, n_states)
            for t in (0.0, schedule.T):
                solve(schedule.evaluate(grid, t), grid, n_states)

    def test_harmonic_level_count_is_exact(self):
        # Bohr-Sommerfeld is exact for the harmonic oscillator: N(E) = E/omega.
        omega = 0.5
        trap = lambda x: 0.5 * omega**2 * x**2
        assert level_count(trap, 0.0, 10.0) == pytest.approx(20.0, rel=1e-4)
        assert energy_ceiling(trap, 0.0, 20) == pytest.approx(10.0, rel=1e-4)
        np.testing.assert_allclose(
            semiclassical_ladder(trap, 0.0, 30),
            omega * (np.arange(30) + 0.5),
            rtol=0,
            atol=1e-3 * omega,
        )

    def test_n_points_override_keeps_planned_domain(self):
        schedule, n_levels, n_targets = CASES["transport"]
        planned = plan_grid([schedule], n_levels, n_targets)
        forced = plan_grid([schedule], n_levels, n_targets, n_points=2048)
        assert (forced.x_min, forced.x_max) == (planned.x_min, planned.x_max)
        assert forced.n_points == 2048

    def test_benchmark_grids_are_pinned(self):
        # Grids planned for the benchmark schedules, bit for bit, all with
        # N_p = 2 targets: the expansion sweep (14 levels, one plan for its
        # three process times, which T = 10 sizes), the compensation sweep
        # (35 levels for N_b = 6 at tau = 1.6; 54 and 55 were its counts
        # before the levels were certified by the occupation bound) and
        # the default transport scenario (2 levels; at T = 10 the trap runs
        # faster and needs more points).
        expansion = [
            PotentialSchedule.expansion(t, omega_f=0.01, lam=1.0)
            for t in (10.0, 15.0, 25.0)
        ]
        splitting = [PotentialSchedule.splitting(2.0, h_f=20.0)]
        for schedules, n_levels, pinned in (
            (expansion, 14, (-18.234375, 18.234375, 320)),
            (expansion[2:], 14, (-18.234375, 18.234375, 250)),
            (splitting, 35, (-11.734375, 11.734375, 144)),
            (splitting, 54, (-13.5546875, 13.5546875, 240)),
            (splitting, 55, (-13.640625, 13.640625, 240)),
            ([CASES["transport"][0]], 2, (-3.857421875, 93.857421875, 800)),
            ([PotentialSchedule.transport(10.0, x0_f=90.0)], 2,
             (-3.857421875, 93.857421875, 864)),
        ):
            grid = plan_grid(schedules, n_levels, 2)
            assert (grid.x_min, grid.x_max, grid.n_points) == pinned

    def test_more_states_give_a_larger_grid(self):
        schedule = CASES["splitting"][0]
        small, large = plan_grid([schedule], 8, 2), plan_grid([schedule], 52, 2)
        assert large.x_max > small.x_max and large.dx < small.dx

    def test_one_pass_flow_matches_lone_flows(self, monkeypatch):
        # The family plan_reach flows for expansion T = 10, 25 and 50 (14
        # levels, 2 targets): one pass of FLOW_STEPS steps, from which
        # T = 50, whose steps are the longest, leaves for a pass with twice
        # the steps.  Each triple is its schedule's lone flow, and T = 50's
        # is a lone flow with FLOW_STEPS doubled from the start, bit for bit.
        schedules = [
            PotentialSchedule.expansion(t, omega_f=0.01, lam=1.0)
            for t in (10.0, 25.0, 50.0)
        ]
        flows = []

        def recorded(*args):
            flows.append(args)
            return flow_reach(*args)

        monkeypatch.setattr(planner, "flow_reach", recorded)
        plan_reach(schedules, 14, 2)
        ((flowed, trap, shell),) = flows
        assert list(flowed) == schedules
        together = flow_reach(schedules, trap, shell)
        assert together == [flow_reach([s], trap, shell)[0] for s in schedules]
        monkeypatch.setattr(planner, "FLOW_STEPS", 2 * FLOW_STEPS)
        assert together[2] == flow_reach(schedules[2:], trap, shell)[0]
        # The doubled flow is another flow: T = 10 does not restart, and
        # its triple moves.
        assert together[0] != flow_reach(schedules[:1], trap, shell)[0]


class TestGridDoubling:
    def test_expansion_fidelity_is_grid_converged(self):
        # Pinned expansion cases, the second the size of the benchmark
        # sweep: widening or refining the planned grid moves the fidelity,
        # read from the targets evolved backward, by less than 1e-7.
        schedule = PotentialSchedule.expansion(10.0, omega_f=0.01, lam=1.0)
        n_p = 2
        settings = PropagationSettings(dt=2e-3)
        for n_total in (8, 14):
            planned = plan_grid([schedule], n_total, n_p)

            def fidelity(grid):
                initial = solve(schedule.evaluate(grid, 0.0), grid, n_total)
                targets = solve(schedule.evaluate(grid, schedule.T), grid, n_p)
                evolved = propagate_basis(
                    targets, n_p, schedule.time_reversed(), settings
                )
                matrix = initial.states @ np.conj(evolved).T * grid.dx
                return fidelity_fast(OverlapMatrix(matrix)).value

            reference = fidelity(planned)
            assert 0.5 < reference < 1.0
            for grid in (planned.widened(), planned.refined()):
                assert abs(fidelity(grid) - reference) < 1e-7


class TestEngineGrids:
    def test_more_states_replan_instead_of_failing(self):
        schedule = PotentialSchedule.splitting(2.0, h_f=20.0)
        engine = Engine()
        small, _, _ = engine.endpoint_bases(schedule, 4, 4)
        # spectral.solve refuses 40 states on this grid (40 >= n_points/4).
        assert 4 * 40 >= small.n_points
        grid, initial, _ = engine.endpoint_bases(schedule, 40, 1)
        assert grid.n_points > 4 * 40
        assert initial.size == 40
        assert engine.family_grid(schedule) == grid

    def test_transport_targets_are_solved_on_whole_lattice_shifts(self, cpus):
        # The shift x0_f - x0_i is exactly 60 lattice steps of the planned
        # grid; the targets are still the final trap's own eigensolve, for
        # the planned target count, whether all or only the protected two
        # are asked for.
        schedule = PotentialSchedule.transport(5.0, x0_f=10.0)
        cpus(1)
        engine = Engine()
        for n_targets in (4, 2):
            grid, _, targets = engine.endpoint_bases(schedule, 4, n_targets)
            assert grid.n_points == 108
            assert (schedule.x0_f - schedule.x0_i) / grid.dx == 60.0
            reference = solve(schedule.evaluate(grid, schedule.T), grid, 4)
            np.testing.assert_array_equal(
                targets.energies, reference.energies[:n_targets]
            )
            np.testing.assert_array_equal(
                targets.states, reference.states[:n_targets]
            )

    def test_leak_during_propagation_escalates(self, monkeypatch):
        # Braking at the end of the reversed ramp throws the target past
        # the initial trap: the planned domain holds every eigenstate of
        # both endpoint traps and the target's classical flow, but the
        # target reaches its edge during propagation.
        schedule = PotentialSchedule.transport(4.0, x0_f=20.0, lam=1.0)
        settings = PropagationSettings(dt=1e-3)
        leaking = Engine()
        planned, _, _ = leaking.endpoint_bases(schedule, 2, 1)
        with pytest.raises(ContainmentError):
            leaking.evolved_states(schedule, 1, settings)
        escalated = leaking.scenario_fidelity(schedule, 1, 1, settings)
        assert leaking.family_grid(schedule) == planned.widened()

        # Reference: an engine whose first grid is already wide enough.
        planner = pipeline.plan_grid
        monkeypatch.setattr(
            pipeline, "plan_grid", lambda *args: planner(*args).widened()
        )
        wide = Engine()
        reference = wide.scenario_fidelity(schedule, 1, 1, settings)
        assert wide.family_grid(schedule) == planned.widened()
        assert 0.1 < reference.value < 0.9
        assert escalated.value == pytest.approx(reference.value, abs=1e-12)
