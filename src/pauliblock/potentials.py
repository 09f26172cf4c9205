"""Trap potentials and control schedules for the three tasks.

All three tasks drive a single control parameter from an initial to a
final value over the process time ``T``:

* expansion:  V(x,t) = 0.5 * omega(t)^2 * (x^2 + lam * x^4),
  omega: omega_i -> omega_f
* transport:  V(x,t) = 0.5 * omega^2 * ((x-x0)^2 + lam * (x-x0)^4),
  x0: x0_i -> x0_f
* splitting:  V(x,t) = 0.5 * omega^2 * x^2 + h(t) * exp(-x^2/d^2),
  h: h_i -> h_f, barrier width fixed to d = 1/sqrt(omega)

The ramp is either linear, ``c(t) = c_i + (c_f - c_i) * t/T``, or
sinusoidal, ``c(t) = c_i + (c_f - c_i) * sin(pi*t/(2T))^2``.

Each trap is written once, in :meth:`PotentialSchedule.trap`, a closure
c -> V(x) at fixed positions, which :meth:`PotentialSchedule.potential`
turns into a closure t -> V(x, t): the eigensolves (through
:meth:`PotentialSchedule.evaluate`), the grid planner, the propagator and
the Fermi-gap profile all read it.  The pair of fields each task drives is
named once, in ``_CONTROLS``, which the ramp and the time reversal read.
"""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError


class Task(enum.Enum):
    EXPANSION = "expansion"
    TRANSPORT = "transport"
    SPLITTING = "splitting"


class RampShape(enum.Enum):
    LINEAR = "linear"
    SINUSOIDAL = "sinusoidal"


# The pair of fields each task drives from its initial to its final value.
_CONTROLS = {
    Task.EXPANSION: ("omega_i", "omega_f"),
    Task.TRANSPORT: ("x0_i", "x0_f"),
    Task.SPLITTING: ("h_i", "h_f"),
}


@dataclass(frozen=True)
class PotentialSchedule:
    """One control task: endpoint parameters, ramp shape and duration."""

    task: Task
    shape: RampShape
    T: float
    lam: float = 1.0
    omega_i: float = 1.0  # expansion only
    omega_f: float = 1.0  # expansion only
    omega: float = 1.0  # transport / splitting trap frequency
    x0_i: float = 0.0  # transport only
    x0_f: float = 0.0  # transport only
    h_i: float = 0.0  # splitting only
    h_f: float = 0.0  # splitting only

    def __post_init__(self):
        for name in ("lam", "omega_i", "omega_f", "omega", "x0_i", "x0_f", "h_i", "h_f"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not 0 < self.T < math.inf:
            raise ConfigError(
                f"process time must be positive and finite, got {self.T}"
            )
        if self.lam < 0:
            raise ConfigError(f"anharmonicity must be >= 0, got {self.lam}")
        for name in ("omega_i", "omega_f", "omega"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")

    @classmethod
    def expansion(cls, T, omega_f, omega_i=1.0, lam=1.0, shape=RampShape.SINUSOIDAL):
        return cls(Task.EXPANSION, shape, T, lam, omega_i=omega_i, omega_f=omega_f)

    @classmethod
    def transport(cls, T, x0_f, x0_i=0.0, omega=1.0, lam=1.0, shape=RampShape.SINUSOIDAL):
        return cls(Task.TRANSPORT, shape, T, lam, omega=omega, x0_i=x0_i, x0_f=x0_f)

    @classmethod
    def splitting(cls, T, h_f, h_i=0.0, omega=1.0, lam=0.0, shape=RampShape.SINUSOIDAL):
        # The quartic term plays no role in the splitting task.
        return cls(Task.SPLITTING, shape, T, lam, omega=omega, h_i=h_i, h_f=h_f)

    def with_duration(self, T):
        return replace(self, T=T)

    def with_anharmonicity(self, lam):
        return replace(self, lam=lam)

    def time_reversed(self):
        """The schedule run backward, c_rev(t) = c(T - t) to rounding: both
        ramps are symmetric under t -> T - t with c_i and c_f swapped."""
        first, last = _CONTROLS[self.task]
        return replace(
            self, **{first: getattr(self, last), last: getattr(self, first)}
        )

    def control_value(self, t):
        """The driven parameter (omega, x0 or h) at time t in [0, T].

        ``t`` may also be an array of times, such as the column of a run's
        steps: one formula gives the value of each, with the bits a call on
        that time alone gives, since a number goes through the same array
        arithmetic.  t = 0 and t = T give c_i and c_f exactly, and any time
        outside [0, T] raises.
        """
        T = self.T
        t = np.asarray(t, dtype=float)
        outside = ~((-1e-12 * T <= t) & (t <= T * (1 + 1e-12)))
        if outside.any():
            raise ConfigError(
                f"time {t[outside].flat[0]} outside the schedule range [0, {T}]"
            )
        first, last = _CONTROLS[self.task]
        c_i, c_f = getattr(self, first), getattr(self, last)
        if self.shape is RampShape.LINEAR:
            c = c_i + (c_f - c_i) * t / T
        else:
            s = np.sin(np.pi * t / (2.0 * T))
            c = c_i + (c_f - c_i) * (s * s)
        c = np.where(t <= 0, c_i, np.where(t >= T, c_f, c))
        return c if c.ndim else float(c)

    @property
    def is_symmetric(self):
        """Whether V(-x, t) = V(x, t) throughout: always for expansion and
        splitting, for transport only while the trap stays at x = 0."""
        if self.task is Task.TRANSPORT:
            return self.x0_i == 0.0 and self.x0_f == 0.0
        return True

    def center(self, t):
        """Instantaneous trap center (nonzero only for transport)."""
        return self.control_value(t) if self.task is Task.TRANSPORT else 0.0

    def harmonic_floor(self):
        """(omega, shift) with V(x, 0) >= 0.5 omega^2 (x - x0_i)^2 + shift
        everywhere: the initial trap's harmonic part and the least of the
        rest.  By min-max, its level j then sits at or above
        omega (j - 1/2) + shift."""
        if self.task is Task.EXPANSION:
            return self.omega_i, 0.0
        if self.task is Task.SPLITTING:
            return self.omega, min(self.h_i, 0.0)
        return self.omega, 0.0

    def evaluate(self, grid, t):
        """Potential values on the grid at time t (energies in hbar*omega)."""
        return self.potential(grid.x)(t)

    def potential(self, x):
        """Closure t -> V(x, t) at the positions ``x`` (any shape), its
        static factors computed once.  ``t`` may also be an array of times,
        such as a column: their control values (:meth:`control_value`) are
        broadcast against ``x``, so each time's V holds the bits of a call
        on that time alone."""
        trap = self.trap(x)
        return lambda t: trap(self.control_value(t))

    def trap(self, x):
        """Closure c -> V(x) of the trap at the control value ``c``
        (omega, x0 or h; a number, or an array broadcast against ``x``).
        The one formula of each task's trap."""
        if self.task is Task.EXPANSION:
            x2 = x * x
            static = 0.5 * (x2 + self.lam * x2 * x2)

            def at(c):
                return (c * c) * static

        elif self.task is Task.SPLITTING:
            base = 0.5 * self.omega**2 * x**2
            width = 1.0 / math.sqrt(self.omega)
            bump = np.exp(-(x**2) / width**2)

            def at(c):
                return base + c * bump

        else:
            half_w2 = 0.5 * self.omega**2
            lam = self.lam

            def at(c):
                u = x - c
                u2 = u * u
                return half_w2 * (u2 + lam * u2 * u2)

        return at
