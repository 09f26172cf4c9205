"""Closed-form references for harmonic transport.

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
