import numpy as np
import pytest

from pauliblock import EigenBasis, Grid, propagate_basis, solve
from pauliblock.pipeline import Engine


@pytest.fixture(scope="session")
def engine():
    """Shared caching engine so expensive propagations are computed once."""
    return Engine()


@pytest.fixture(scope="session")
def harmonic_grid():
    return Grid(-40.0, 40.0, 512)


@pytest.fixture(scope="session")
def harmonic_basis(harmonic_grid):
    return solve(0.5 * harmonic_grid.x**2, harmonic_grid, 24)


def gaussian_state(grid, center=0.0, width=1.0, momentum=0.0):
    """Normalized Gaussian wave packet (analytic, not an eigensolve), as
    an array of amplitudes on ``grid``."""
    x = grid.x
    psi = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * momentum * x)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return psi


def momentum_density(psi):
    """|FFT(psi)|^2 normalized to unit sum, in the bin order of
    ``Grid.k_values``."""
    density = np.abs(np.fft.fft(psi)) ** 2
    return density / density.sum()


def evolve_state(psi, grid, schedule, settings):
    """One state ``psi`` evolved to t = T, through :func:`propagate_basis`."""
    basis = EigenBasis(grid, np.zeros(1), psi[None])
    return propagate_basis(basis, 1, schedule, settings)[0]
