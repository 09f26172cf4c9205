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

    @property
    def barrier_width(self):
        """Gaussian barrier width d = 1/sqrt(omega) of the splitting task."""
        return 1.0 / math.sqrt(self.omega)

    def control_endpoints(self):
        if self.task is Task.EXPANSION:
            return self.omega_i, self.omega_f
        if self.task is Task.TRANSPORT:
            return self.x0_i, self.x0_f
        return self.h_i, self.h_f

    def control_value(self, t):
        """The driven parameter (omega, x0 or h) at time t in [0, T]."""
        if not (-1e-12 * self.T <= t <= self.T * (1 + 1e-12)):
            raise ConfigError(f"time {t} outside the schedule range [0, {self.T}]")
        c_i, c_f = self.control_endpoints()
        if t <= 0:
            return c_i
        if t >= self.T:
            return c_f
        if self.shape is RampShape.LINEAR:
            return c_i + (c_f - c_i) * t / self.T
        return c_i + (c_f - c_i) * math.sin(math.pi * t / (2.0 * self.T)) ** 2

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

    def evaluate(self, grid, t):
        """Potential values on the grid at time t (energies in hbar*omega)."""
        return self.evaluate_at(grid.x, t)

    def evaluate_at(self, x, t):
        c = self.control_value(t)
        if self.task is Task.EXPANSION:
            return 0.5 * c * c * (x**2 + self.lam * x**4)
        if self.task is Task.TRANSPORT:
            u = x - c
            u2 = u * u
            return 0.5 * self.omega**2 * (u2 + self.lam * u2 * u2)
        d = self.barrier_width
        return 0.5 * self.omega**2 * x**2 + c * np.exp(-(x**2) / d**2)

    def time_profile(self, grid):
        """Closure t -> V(x,t) on the grid with static factors precomputed.

        Equivalent to ``evaluate`` but cheap enough to call once per time
        step inside the propagator.
        """
        x = grid.x
        if self.task is Task.EXPANSION:
            static = 0.5 * (x**2 + self.lam * x**4)

            def profile(t):
                c = self.control_value(t)
                return (c * c) * static

        elif self.task is Task.SPLITTING:
            base = 0.5 * self.omega**2 * x**2
            bump = np.exp(-(x**2) / self.barrier_width**2)

            def profile(t):
                return base + self.control_value(t) * bump

        else:
            half_w2 = 0.5 * self.omega**2
            lam = self.lam

            def profile(t):
                u = x - self.control_value(t)
                u2 = u * u
                return half_w2 * (u2 + lam * u2 * u2)

        return profile
