"""Uniform 1D spatial lattice and its momentum lattice.

Natural units are used throughout the package: hbar = m = 1, so momenta
are wavenumbers and the harmonic length scale of a trap of frequency
``omega`` is ``d = 1/sqrt(omega)``.

The grid is periodic: position samples are ``x_min + j*dx`` for
``j = 0..n_points-1`` (the right endpoint is identified with the left),
and the companion momentum lattice is the FFT wavenumber set spanning
``[-pi/dx, pi/dx)`` with spacing ``2*pi/(n_points*dx)``.
"""

from functools import cached_property

import numpy as np

from .errors import ConfigError

# Relative amplitude allowed at the grid boundary before a state is
# considered to have leaked out of the box.
EDGE_AMPLITUDE_TOL = 1e-6


class Grid:
    """Uniform periodic lattice on ``[x_min, x_max)``.

    Parameters
    ----------
    x_min, x_max : float
        Domain edges, ``x_max > x_min``.
    n_points : int
        Number of lattice points; must be even, so that a domain symmetric
        about 0 has the lattice point ``x[n_points/2] = 0``.  Counts with no
        prime factor above 5 transform fastest.
    """

    def __init__(self, x_min, x_max, n_points):
        if not (x_max > x_min):
            raise ConfigError(f"empty domain [{x_min}, {x_max}]")
        if n_points < 2 or n_points % 2:
            raise ConfigError(
                f"n_points must be an even number of at least 2, got {n_points}"
            )
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.n_points = int(n_points)
        self.dx = (self.x_max - self.x_min) / self.n_points

    @cached_property
    def x(self):
        return self.x_min + self.dx * np.arange(self.n_points)

    @cached_property
    def k_values(self):
        """Momentum lattice in FFT order, spanning [-pi/dx, pi/dx)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, self.dx)

    @property
    def k_max(self):
        return np.pi / self.dx

    @property
    def is_symmetric(self):
        """Whether the domain is symmetric about 0 (see :meth:`reflect`)."""
        return self.x_min == -self.x_max

    def reflect(self, states):
        """Lattice reflection j -> (n - j) mod n of ``states`` (last axis).

        On a symmetric grid it maps x_j to -x_j, so even states are its +1
        and odd states its -1 eigenvectors.
        """
        return np.concatenate((states[..., :1], states[..., :0:-1]), axis=-1)

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.x_min, self.x_max, self.n_points) == (
            other.x_min,
            other.x_max,
            other.n_points,
        )

    def __hash__(self):
        return hash((self.x_min, self.x_max, self.n_points))

    def __repr__(self):
        return f"Grid(x_min={self.x_min}, x_max={self.x_max}, n_points={self.n_points})"

    def widened(self):
        """Domain doubled about its center, keeping dx (n_points doubled)."""
        center = 0.5 * (self.x_min + self.x_max)
        half = self.x_max - self.x_min
        return Grid(center - half, center + half, 2 * self.n_points)

    def refined(self):
        """Same domain with twice the points (halved dx, doubled k range)."""
        return Grid(self.x_min, self.x_max, 2 * self.n_points)

