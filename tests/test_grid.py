import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliblock import (
    ConfigError,
    ContainmentError,
    Grid,
    GridMismatchError,
    Wavefunction,
    inner_product,
    to_momentum,
    to_position,
)
from pauliblock.spectral import check_containment

from conftest import gaussian_state


def random_state(grid, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(
        grid.n_points
    )
    return Wavefunction(grid, amps).normalized()


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
        assert inner_product(w, w) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstates_orthogonal(self, harmonic_basis):
        ground = harmonic_basis.state(0)
        excited = harmonic_basis.state(1)
        assert abs(inner_product(ground, excited)) < 1e-8

    def test_displaced_gaussian_overlap(self):
        # Oscillator ground state psi ~ exp(-x^2/(2 d^2)) displaced by s:
        # |<g0|gs>| = exp(-s^2/(4 d^2)); s = 2, d = 1 -> 1/e.
        g = Grid(-20.0, 20.0, 512)

        def ground(center):
            psi = np.exp(-((g.x - center) ** 2) / 2.0) / np.pi**0.25
            return Wavefunction(g, psi)

        assert abs(inner_product(ground(0.0), ground(2.0))) == pytest.approx(
            0.367879, abs=1e-4
        )

    def test_conjugate_symmetry(self):
        g = Grid(-8.0, 8.0, 128)
        a, b = random_state(g, 2), random_state(g, 3)
        assert inner_product(a, b) == pytest.approx(
            np.conj(inner_product(b, a)), abs=1e-14
        )

    def test_grid_mismatch_rejected(self):
        a = random_state(Grid(-8.0, 8.0, 128), 4)
        b = random_state(Grid(-9.0, 9.0, 128), 5)
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        re1=st.floats(-3, 3),
        im1=st.floats(-3, 3),
        re2=st.floats(-3, 3),
        im2=st.floats(-3, 3),
    )
    def test_linear_second_antilinear_first(self, seed, re1, im1, re2, im2):
        g = Grid(-4.0, 4.0, 64)
        a, b, c = (random_state(g, seed + i) for i in range(3))
        alpha, beta = complex(re1, im1), complex(re2, im2)
        combo = Wavefunction(g, alpha * b.amplitudes + beta * c.amplitudes)
        lhs = inner_product(a, combo)
        rhs = alpha * inner_product(a, b) + beta * inner_product(a, c)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        scaled_first = Wavefunction(g, alpha * a.amplitudes)
        assert inner_product(scaled_first, b) == pytest.approx(
            np.conj(alpha) * inner_product(a, b), abs=1e-10
        )


class TestTransforms:
    def test_round_trip_identity(self):
        g = Grid(-12.0, 12.0, 256)
        w = random_state(g, 7)
        back = to_position(to_momentum(w))
        np.testing.assert_allclose(back.amplitudes, w.amplitudes, atol=1e-12)

    def test_parseval(self):
        g = Grid(-12.0, 12.0, 256)
        for seed in range(5):
            w = random_state(g, seed)
            assert abs(to_momentum(w).norm - w.norm) < 1e-12

    def test_constant_is_delta_at_zero_momentum(self):
        g = Grid(-5.0, 5.0, 128)
        w = Wavefunction(g, np.full(g.n_points, 0.3 + 0.1j))
        mom = to_momentum(w)
        amps = np.abs(mom.amplitudes)
        assert np.argmax(amps) == 0  # k = 0 is the first FFT bin
        assert amps[1:].max() < 1e-12 * amps[0]

    @pytest.mark.parametrize("width,momentum", [(1.0, 0.0), (2.0, 0.0), (1.0, 3.0)])
    def test_gaussian_maps_to_gaussian(self, width, momentum):
        # Width d in position <-> width 1/d in momentum, center at the boost.
        g = Grid(-40.0, 40.0, 1024)
        w = gaussian_state(g, width=width, momentum=momentum)
        mom = to_momentum(w)
        k = g.k_values
        density = np.abs(mom.amplitudes) ** 2
        density /= density.sum() * g.dk
        mean = np.sum(k * density) * g.dk
        var = np.sum((k - mean) ** 2 * density) * g.dk
        assert mean == pytest.approx(momentum, abs=1e-8)
        assert np.sqrt(var) == pytest.approx(1.0 / (2.0 * width), rel=1e-6)

    def test_wrong_space_rejected(self):
        g = Grid(-5.0, 5.0, 64)
        w = random_state(g, 11)
        with pytest.raises(GridMismatchError):
            to_position(w)
        with pytest.raises(GridMismatchError):
            to_momentum(to_momentum(w))


class TestContainment:
    def test_contained_gaussian(self):
        g = Grid(-20.0, 20.0, 256)
        w = gaussian_state(g)
        check_containment(w.amplitudes[None, :], g)

    def test_leaking_state_flagged(self):
        g = Grid(-3.0, 3.0, 64)
        w = gaussian_state(g, width=2.0)
        with pytest.raises(ContainmentError):
            check_containment(w.amplitudes[None, :], g)
