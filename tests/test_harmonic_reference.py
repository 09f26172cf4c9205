"""Closed-form references for harmonic transport and expansion.

At lambda = 0 the trap is harmonic (omega = 1), and moving it displaces
every level coherently: seen from the final trap, the evolved level j is
D(alpha)|j> up to a phase per level, with alpha = (dx + i dp)/sqrt(2) the
classical residual (dx, dp) of a particle that starts at rest in the
initial trap (Cahill and Glauber, Phys. Rev. 177, 1857 (1969); Torrontegui
et al., PRA 83, 013415 (2011)).  So F = det(A^dagger A), with
A[j, i] = <i|D(alpha)|j> the Laguerre closed form, for every grid, FFT and
time step: the package's fidelity is held against it to a bound derived
from dt alone.

The bound (:func:`dt_bound`) is derived, not fitted to a measured error.
For a quadratic Hamiltonian a split-operator step is exact quantum
evolution under a quadratic step, so the package's error has two parts.

* The centre.  A state's centre follows the classical kick-drift-kick map
  with the trap frozen at mid-step.  Against the exact flow, one step of
  that map errs by dt^3 (|p|/6 + |x - x0|/12) in phase space, and freezing
  the trap by dt^3 (|x0'|/12 + |x0''|/24).  Unitary steps do not grow
  these, so |alpha| is off by at most dt^2/sqrt(2) times their integral
  along the classical path.  The backward run of a symmetric ramp is the
  forward one mirrored, with the same |p| and |x - x0|.  F depends on
  |alpha| alone, so that part of its error is |dF/d|alpha|| times it.
* The shape.  The map's linear part keeps p^2/2 + (1 - dt^2/4) x^2/2, a
  trap squeezed by r = dt^2/16 against the true one.  Between the two
  squeezes each evolved target n < N_p only turns, which F ignores, so it
  errs by at most 2 r ||K|n>||, with K = (a^2 - a^dagger^2)/2.  The N_p
  columns of A then move by at most sqrt(N_p) times that in the 2-norm.
  Singular values of A are at most 1, so F = prod sigma^2 moves by at most
  2 N_p times that norm.

The planned grid holds each state's amplitude at the momentum edge to
``KSPACE_EDGE_TOL`` (1e-4) of its peak and at the domain's edge to 1e-6.
The weight it cuts off is of the order of the square, 1e-8 per overlap,
which enters F like the shape error.

At dt = 1e-3 the bound is 9.5e-7 to 3.3e-6 for these cases.  A dropped
closing half-kick, an O(dt) defect, moved F by 3.1e-6 to 3.4e-5, beyond
it in every case.  The sinusoidal ramp uses x0_f = 2.5: at x0_f = 10 its
residual is |alpha| = 2.64, and F is below 5e-4.

Expansion at lambda = 0 is a harmonic trap whose frequency ramps from
omega_0 = 1 to omega_f.  Every level then follows one Ermakov scaling
b'' + omega(t)^2 b = omega_0^2 / b^3, b(0) = 1, b'(0) = 0: the evolved
level n is b^(-1/2) h_n(x/b) exp(i b' x^2 / 2b) up to a phase per level
(Lewis and Riesenfeld, J. Math. Phys. 10, 1458 (1969); Chen et al., PRL
104, 063002 (2010)), h_n being the Hermite functions.  Its overlaps with
the final trap's levels come by quadrature on a lattice fine enough for
the widest state and the steepest chirp.

The bound (:func:`expansion_dt_bound`) is derived the same way.  The
package's step is again exact quantum evolution under a quadratic step,
so it evolves every level by the metaplectic image of its classical
kick-drift-kick map, the level's shape set by (b, b') of that map alone.
Writing w = omega^2, one step of the map with w frozen at mid-step errs
against the exact flow by dt^3 L (x, p), with L = [[-w'/12, w/6],
[w''/24 + w^2/12, w'/12]] from the Taylor series of both.  Carried to T
by the exact flow Phi(T, t), the two classical paths from (1, 0) and
(0, 1) then err by at most dt^2 times the integral of |Phi(T, t)| |L|
|(x, p)| (entrywise).  Since b^2 = x_1^2 + x_2^2 and b b' = x_1 p_1 +
x_2 p_2, that bounds the errors of b and b' to first order, and F moves
by at most its slopes in b and b' times them, plus the grid's cut-off
weight as for transport.

At dt = 1e-3 the bound is 6.6e-8 to 6.5e-7 for the cases at
omega_f = 0.25 and 3.9e-7 to 3.0e-6 for those at omega_f = 0.01, and a
dropped closing half-kick moves F beyond it in every case.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import eval_genlaguerre

from pauliblock import Engine, PotentialSchedule, PropagationSettings, RampShape
from pauliblock.spectral import KSPACE_EDGE_TOL

T = 6.0
N_PROTECTED = 2
DT = 1e-3
GRID_OVERLAP_ERROR = KSPACE_EDGE_TOL**2


def ramp(shape, x0_f):
    """x0(t), x0'(t) and x0''(t) of the ramp from 0 to ``x0_f``."""
    if shape is RampShape.LINEAR:
        v = x0_f / T
        return (lambda t: v * t, lambda t: v + 0.0 * t, lambda t: 0.0 * t)
    w = math.pi / (2.0 * T)
    return (
        lambda t: x0_f * np.sin(w * t) ** 2,
        lambda t: x0_f * w * np.sin(2.0 * w * t),
        lambda t: 2.0 * x0_f * w * w * np.cos(2.0 * w * t),
    )


def classical_path(x0):
    """Dense solution (x, p)(t) of x'' = x0(t) - x from rest at x = 0."""
    return solve_ivp(
        lambda t, y: [y[1], x0(t) - y[0]], (0.0, T), [0.0, 0.0],
        method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True,
    ).sol


def displacement_element(alpha, m, n):
    """<m|D(alpha)|n> (Cahill and Glauber)."""
    if m < n:
        return (-1) ** (n - m) * np.conj(displacement_element(alpha, n, m))
    size = abs(alpha) ** 2
    return (
        math.sqrt(math.factorial(n) / math.factorial(m))
        * alpha ** (m - n)
        * math.exp(-size / 2.0)
        * eval_genlaguerre(n, m - n, size)
    )


def exact_fidelity(alpha, n_total):
    a = np.array([
        [displacement_element(alpha, i, j) for i in range(N_PROTECTED)]
        for j in range(n_total)
    ])
    return float(np.linalg.det(a.conj().T @ a).real)


def dt_bound(path, x0, dx0, ddx0, alpha, n_total, dt):
    """Bound on |F - F_exact| at time step ``dt`` (see the module text)."""
    t = np.linspace(0.0, T, 6001)
    x, p = path(t)
    rate = (
        np.abs(p) / 6 + np.abs(x - x0(t)) / 12
        + np.abs(dx0(t)) / 12 + np.abs(ddx0(t)) / 24
    )
    centre = dt**2 * np.trapezoid(rate, t) / math.sqrt(2.0)
    h = 1e-6
    size = abs(alpha)
    slope = abs(exact_fidelity(size + h, n_total) - exact_fidelity(size - h, n_total))
    slope /= 2 * h
    squeeze = max(
        0.5 * math.sqrt(n * (n - 1) + (n + 1) * (n + 2)) for n in range(N_PROTECTED)
    )
    column = 2 * (dt**2 / 16) * squeeze + GRID_OVERLAP_ERROR
    return slope * centre + 2 * N_PROTECTED * math.sqrt(N_PROTECTED) * column


@pytest.mark.parametrize(
    "shape, x0_f, n_buffer",
    [
        (RampShape.LINEAR, 10.0, 0),
        (RampShape.LINEAR, 10.0, 2),
        (RampShape.SINUSOIDAL, 2.5, 0),
        (RampShape.SINUSOIDAL, 2.5, 2),
    ],
    ids=["linear-Nb0", "linear-Nb2", "sinusoidal-Nb0", "sinusoidal-Nb2"],
)
def test_harmonic_transport_matches_closed_form(shape, x0_f, n_buffer):
    x0, dx0, ddx0 = ramp(shape, x0_f)
    path = classical_path(x0)
    x, p = path(T)
    alpha = complex(x - x0_f, p) / math.sqrt(2.0)
    n_total = N_PROTECTED + n_buffer
    exact = exact_fidelity(alpha, n_total)
    assert 0.05 < exact < 0.9995
    bound = dt_bound(path, x0, dx0, ddx0, alpha, n_total, DT)

    schedule = PotentialSchedule.transport(T, x0_f=x0_f, lam=0.0, shape=shape)
    result = Engine().scenario_fidelity(
        schedule, N_PROTECTED, n_buffer, PropagationSettings(DT)
    )
    assert abs(result.value - exact) <= bound, (result.value, exact, bound)


def frequency(shape, omega_f, duration):
    """omega(t), omega'(t) and omega''(t) of the expansion ramp from 1 to
    ``omega_f`` over ``duration``."""
    d = omega_f - 1.0
    if shape is RampShape.LINEAR:
        rate = d / duration
        return (lambda t: 1.0 + rate * t, lambda t: rate + 0.0 * t, lambda t: 0.0 * t)
    k = math.pi / duration
    return (
        lambda t: 1.0 + 0.5 * d * (1.0 - np.cos(k * t)),
        lambda t: 0.5 * d * k * np.sin(k * t),
        lambda t: 0.5 * d * k * k * np.cos(k * t),
    )


def scaling(shape, omega_f, duration):
    """Dense solution (b, b', x_1, p_1, x_2, p_2)(t): the Ermakov scaling
    and the classical paths from (1, 0) and (0, 1) in the ramping trap."""
    omega = frequency(shape, omega_f, duration)[0]

    def rhs(t, y):
        w = omega(t) ** 2
        b, db, x1, p1, x2, p2 = y
        return [db, 1.0 / b**3 - w * b, p1, -w * x1, p2, -w * x2]

    return solve_ivp(
        rhs, (0.0, duration), [1.0, 0.0, 1.0, 0.0, 0.0, 1.0],
        method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True,
    ).sol


def hermite_functions(n, x):
    """h_0 .. h_(n-1) at ``x``, by their three-term recurrence."""
    h = np.empty((n, len(x)))
    h[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if n > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for k in range(1, n - 1):
        h[k + 1] = (
            math.sqrt(2.0 / (k + 1)) * x * h[k] - math.sqrt(k / (k + 1)) * h[k - 1]
        )
    return h


def scaled_fidelity(b, db, omega_f, n_total):
    """F of the levels b^(-1/2) h_n(x/b) exp(i b' x^2 / 2b), n < n_total,
    against the N_p lowest levels of the trap of frequency ``omega_f``, by
    the trapezoid rule on a lattice four times finer than the steepest
    momentum asks."""
    width = math.sqrt(2 * n_total + 1) + 8.0
    reach = max(b, omega_f**-0.5) * width
    k_max = abs(db) / b * reach + width / min(b, omega_f**-0.5)
    x = np.linspace(-reach, reach, max(2048, int(4 * reach * k_max / math.pi)))
    evolved = hermite_functions(n_total, x / b) / math.sqrt(b)
    evolved = evolved * np.exp(0.5j * db / b * x * x)
    targets = omega_f**0.25 * hermite_functions(N_PROTECTED, math.sqrt(omega_f) * x)
    a = np.conj(evolved) @ targets.T * (x[1] - x[0])
    return float(np.linalg.det(a.conj().T @ a).real)


def expansion_dt_bound(path, shape, omega_f, duration, n_total, dt):
    """Bound on |F - F_exact| of an expansion over ``duration`` at time
    step ``dt`` (see the module text)."""
    omega, d_omega, dd_omega = frequency(shape, omega_f, duration)
    t = np.linspace(0.0, duration, 6001)
    _, _, x1, p1, x2, p2 = path(t)
    w = omega(t) ** 2
    dw = 2.0 * omega(t) * d_omega(t)
    ddw = 2.0 * d_omega(t) ** 2 + 2.0 * omega(t) * dd_omega(t)
    local = np.abs(np.array([[-dw / 12, w / 6], [ddw / 24 + w * w / 12, dw / 12]]))
    _, _, X1, P1, X2, P2 = path(duration)
    # Phi(T, t) = S(T) S(t)^-1, S(t) = [[x1, x2], [p1, p2]] of det 1.
    flow = np.abs(np.einsum(
        "ij,jkt->ikt", [[X1, X2], [P1, P2]], np.array([[p2, -x2], [-p1, x1]])
    ))
    (e1x, e1p), (e2x, e2p) = (
        dt**2 * np.trapezoid(
            np.einsum("ijt,jkt,kt->it", flow, local, np.abs([x, p])), t, axis=1
        )
        for x, p in ((x1, p1), (x2, p2))
    )
    b = math.hypot(X1, X2)
    db = (X1 * P1 + X2 * P2) / b
    error_b = (abs(X1) * e1x + abs(X2) * e2x) / b
    error_db = (
        abs(P1) * e1x + abs(X1) * e1p + abs(P2) * e2x + abs(X2) * e2p
    ) / b + abs(db) * error_b / b
    h = 1e-6
    slope_b = abs(
        scaled_fidelity(b + h, db, omega_f, n_total)
        - scaled_fidelity(b - h, db, omega_f, n_total)
    ) / (2 * h)
    slope_db = abs(
        scaled_fidelity(b, db + h, omega_f, n_total)
        - scaled_fidelity(b, db - h, omega_f, n_total)
    ) / (2 * h)
    grid = 2 * N_PROTECTED * math.sqrt(N_PROTECTED) * GRID_OVERLAP_ERROR
    return slope_b * error_b + slope_db * error_db + grid


# A quarter of the initial frequency in T = 5, which plans grids of 90 to
# 100 points; and a hundredth of it in T = 10 and 25, which plans grids of
# 1200 to 1600 points.  The sinusoidal N_b = 8 case at T = 25 is
# acceptance 07's case at lambda = 0.  N_b = 0 is left out at
# omega_f = 0.01: its exact F is below the 0.05 floor asserted here.
@pytest.mark.parametrize(
    "shape, n_buffer, duration, omega_f",
    [
        (RampShape.LINEAR, 0, 5.0, 0.25),
        (RampShape.LINEAR, 4, 5.0, 0.25),
        (RampShape.SINUSOIDAL, 0, 5.0, 0.25),
        (RampShape.SINUSOIDAL, 4, 5.0, 0.25),
        (RampShape.LINEAR, 4, 10.0, 0.01),
        (RampShape.SINUSOIDAL, 4, 10.0, 0.01),
        (RampShape.SINUSOIDAL, 8, 10.0, 0.01),
        (RampShape.LINEAR, 4, 25.0, 0.01),
        (RampShape.SINUSOIDAL, 4, 25.0, 0.01),
        (RampShape.SINUSOIDAL, 8, 25.0, 0.01),
    ],
    ids=[
        "linear-Nb0", "linear-Nb4", "sinusoidal-Nb0", "sinusoidal-Nb4",
        "linear-Nb4-T10-wf0.01", "sinusoidal-Nb4-T10-wf0.01",
        "sinusoidal-Nb8-T10-wf0.01", "linear-Nb4-T25-wf0.01",
        "sinusoidal-Nb4-T25-wf0.01", "sinusoidal-Nb8-T25-wf0.01",
    ],
)
def test_harmonic_expansion_matches_the_ermakov_scaling(
    shape, n_buffer, duration, omega_f
):
    path = scaling(shape, omega_f, duration)
    b, db, x1, p1, x2, p2 = path(duration)
    # The scaling is the width of the classical paths' ellipse.
    assert b == pytest.approx(math.hypot(x1, x2), rel=1e-9)
    assert db == pytest.approx((x1 * p1 + x2 * p2) / b, rel=1e-9)
    n_total = N_PROTECTED + n_buffer
    exact = scaled_fidelity(b, db, omega_f, n_total)
    assert 0.05 < exact < 0.9995
    bound = expansion_dt_bound(path, shape, omega_f, duration, n_total, DT)

    schedule = PotentialSchedule.expansion(
        duration, omega_f=omega_f, lam=0.0, shape=shape
    )
    result = Engine().scenario_fidelity(
        schedule, N_PROTECTED, n_buffer, PropagationSettings(DT)
    )
    assert abs(result.value - exact) <= bound, (result.value, exact, bound)
