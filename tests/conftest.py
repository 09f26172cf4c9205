from collections import Counter

import numpy as np
import pytest

from pauliblock import EigenBasis, Grid, pipeline, propagate_basis, solve
from pauliblock.pipeline import Engine


@pytest.fixture(scope="session")
def engine():
    """Shared caching engine so expensive propagations are computed once."""
    return Engine()


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)``: from then on in the test, each batch and each set of
    thermal curves is shared out over lanes as if this process could use
    ``n`` CPUs (1 runs everything here, in order)."""

    def use(n):
        monkeypatch.setattr(pipeline, "default_workers", lambda: n)

    return use


def count_runs(monkeypatch):
    """Wrap ``pipeline.propagate_basis``; return a Counter of the runs it
    evolves in this process, those stacked ``also`` included, keyed by
    ``(T, dt, grid)``."""
    counts = Counter()
    real = pipeline.propagate_basis

    def counted(basis, n_states, schedule, settings, also=None):
        for run_basis, _, run_schedule, run_settings in (
            (basis, n_states, schedule, settings), *(also or ())
        ):
            counts[run_schedule.T, run_settings.dt, run_basis.grid] += 1
        return real(basis, n_states, schedule, settings, also=also)

    monkeypatch.setattr(pipeline, "propagate_basis", counted)
    return counts


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
