import numpy as np
import pytest

from pauliblock import ConfigError, ContainmentError, Grid
from pauliblock.spectral import check_containment

from conftest import gaussian_state, momentum_density


def random_state(grid, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(
        grid.n_points
    )
    return amps / np.sqrt(np.vdot(amps, amps).real * grid.dx)


def overlap(a, b, grid):
    """<a|b> on ``grid``, antilinear in the first slot, as the pipeline
    takes it."""
    return np.vdot(a, b) * grid.dx


class TestGrid:
    def test_spacing_and_span(self):
        g = Grid(-10.0, 10.0, 256)
        assert g.dx == pytest.approx(20.0 / 256)
        assert g.k_values.min() == pytest.approx(-np.pi / g.dx)
        assert g.k_values.max() == pytest.approx(np.pi / g.dx - g.dk)
        spacings = np.diff(np.sort(g.k_values))
        np.testing.assert_allclose(spacings, g.dk, rtol=1e-12)

    def test_even_point_count_required(self):
        with pytest.raises(ConfigError):
            Grid(-1.0, 1.0, 301)
        assert Grid(-1.0, 1.0, 300).n_points == 300

    def test_empty_domain_rejected(self):
        with pytest.raises(ConfigError):
            Grid(2.0, -2.0, 64)

    def test_widened_and_refined(self):
        g = Grid(-5.0, 15.0, 64)
        w = g.widened()
        assert (w.x_min, w.x_max, w.n_points) == (-15.0, 25.0, 128)
        assert w.dx == pytest.approx(g.dx)
        r = g.refined()
        assert (r.x_min, r.x_max) == (g.x_min, g.x_max)
        assert r.dx == pytest.approx(g.dx / 2)

    def test_reflect_mirrors_symmetric_lattice(self):
        g = Grid(-5.0, 5.0, 10)
        assert g.is_symmetric and not Grid(-5.0, 15.0, 64).is_symmetric
        # x_0 = x_min is its own image: the periodic lattice identifies
        # -x_min = x_max with x_min.
        np.testing.assert_allclose(g.reflect(g.x)[1:], -g.x[1:], atol=1e-12)
        rows = np.arange(20.0).reshape(2, 10)
        np.testing.assert_array_equal(g.reflect(g.reflect(rows)), rows)


class TestInnerProduct:
    def test_self_overlap_of_normalized_state(self):
        g = Grid(-8.0, 8.0, 128)
        w = random_state(g, 1)
        assert overlap(w, w, g) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstates_orthogonal(self, harmonic_basis):
        ground, excited = harmonic_basis.states[:2]
        assert abs(overlap(ground, excited, harmonic_basis.grid)) < 1e-8

    def test_displaced_gaussian_overlap(self):
        # Oscillator ground state psi ~ exp(-x^2/(2 d^2)) displaced by s:
        # |<g0|gs>| = exp(-s^2/(4 d^2)); s = 2, d = 1 -> 1/e.
        g = Grid(-20.0, 20.0, 512)

        def ground(center):
            return np.exp(-((g.x - center) ** 2) / 2.0) / np.pi**0.25

        assert abs(overlap(ground(0.0), ground(2.0), g)) == pytest.approx(
            0.367879, abs=1e-4
        )


class TestTransforms:
    # The kinetic factor exp(-i k^2 dt/2) and the resolution check pair
    # the FFT bins of a state with ``Grid.k_values``.

    def test_parseval(self):
        # The continuum transform dx/sqrt(2 pi) FFT keeps the norm with
        # the momentum weight dk.
        g = Grid(-12.0, 12.0, 256)
        for seed in range(5):
            w = random_state(g, seed)
            mom = g.dx / np.sqrt(2.0 * np.pi) * np.fft.fft(w)
            assert abs(np.vdot(mom, mom).real * g.dk - 1.0) < 1e-12

    def test_constant_is_delta_at_zero_momentum(self):
        g = Grid(-5.0, 5.0, 128)
        amps = np.abs(np.fft.fft(np.full(g.n_points, 0.3 + 0.1j)))
        assert np.argmax(amps) == 0  # k = 0 is the first FFT bin
        assert g.k_values[0] == 0.0
        assert amps[1:].max() < 1e-12 * amps[0]

    @pytest.mark.parametrize("width,momentum", [(1.0, 0.0), (2.0, 0.0), (1.0, 3.0)])
    def test_gaussian_maps_to_gaussian(self, width, momentum):
        # Width d in position <-> width 1/d in momentum, center at the boost.
        g = Grid(-40.0, 40.0, 1024)
        density = momentum_density(gaussian_state(g, width=width, momentum=momentum))
        k = g.k_values
        mean = np.sum(k * density)
        var = np.sum((k - mean) ** 2 * density)
        assert mean == pytest.approx(momentum, abs=1e-8)
        assert np.sqrt(var) == pytest.approx(1.0 / (2.0 * width), rel=1e-6)


class TestContainment:
    def test_contained_gaussian(self):
        g = Grid(-20.0, 20.0, 256)
        w = gaussian_state(g)
        check_containment(w[None, :], g)

    def test_leaking_state_flagged(self):
        g = Grid(-3.0, 3.0, 64)
        w = gaussian_state(g, width=2.0)
        with pytest.raises(ContainmentError):
            check_containment(w[None, :], g)
