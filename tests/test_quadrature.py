"""Quadrature: breakpoint-aware trapezoid rules over the grid nodes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_volterra.piecewise import uniform_grid
from hybrid_volterra.quadrature import cube_diagonal, integrate_to, node_cumulative

GRID = uniform_grid(1.0, panels=256)


def _integral(grid, w, upper):
    return float(integrate_to(grid, w, upper)[0])


def _triangle(grid, F, upper):
    """Iterated integral over 0 <= s1 <= s <= upper of F[s, s1]."""
    return _integral(grid, np.diagonal(node_cumulative(grid, F)), upper)


class TestIntegrate:
    """Single integrals of node data from 0 to an upper limit."""

    def test_linear_exact(self):
        assert _integral(GRID, GRID.times, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_exponential(self):
        v = _integral(GRID, np.exp(GRID.times), 1.0)
        assert abs(v - (math.e - 1.0)) < 1e-5

    def test_step_with_split(self):
        grid = uniform_grid(2.0, panels=64, interior=[1.0])
        step = np.where(np.arange(grid.size) < grid.panels + 1, 1.0, 3.0)
        out = integrate_to(grid, step, np.array([1.0, 1.5, 2.0]))
        # the limit at the breakpoint itself takes the left segment
        assert np.allclose(out, [1.0, 2.5, 4.0], atol=1e-12)

    def test_zero_upper(self):
        assert _integral(GRID, GRID.times, 0.0) == 0.0

    def test_negative_upper_rejected(self):
        with pytest.raises(ValueError):
            integrate_to(GRID, GRID.times, -0.5)

    def test_partial_upper_inside_segment(self):
        v = _integral(GRID, np.ones(GRID.size), 0.3333)
        assert v == pytest.approx(0.3333, abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
        st.floats(0.1, 1.0, allow_nan=False),
    )
    def test_linearity(self, a, b, upper):
        f = np.sin(GRID.times)
        g = GRID.times**2
        combined = _integral(GRID, a * f + b * g, upper)
        parts = a * _integral(GRID, f, upper) + b * _integral(GRID, g, upper)
        assert combined == pytest.approx(parts, rel=1e-10, abs=1e-10)

    def test_refinement_is_second_order(self):
        exact = math.e - 1.0
        errs = []
        for m in (64, 128, 256):
            grid = uniform_grid(1.0, panels=m)
            errs.append(abs(_integral(grid, np.exp(grid.times), 1.0) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_split_consistency_for_continuous_integrand(self):
        """An extra breakpoint must not change the value on smooth data."""
        # piecewise-linear integrand: the trapezoid is exact on it, so the
        # two grids agree to rounding despite different node sets
        plain = uniform_grid(2.0, panels=128)
        split = uniform_grid(2.0, panels=128, interior=[0.7])
        uppers = np.array([0.5, 0.7, 1.3, 2.0])
        a = integrate_to(plain, 2.0 * plain.times + 1.0, uppers)
        b = integrate_to(split, 2.0 * split.times + 1.0, uppers)
        assert np.max(np.abs(a - b)) < 1e-12


class TestIntegrateDouble:
    """Triangle integrals: the diagonal of node_cumulative, integrated on."""

    def test_unit_triangle(self):
        F = np.ones((GRID.size, GRID.size))
        assert _triangle(GRID, F, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_zero(self):
        assert _triangle(GRID, np.zeros((GRID.size, GRID.size)), 1.0) == 0.0

    def test_product_kernel(self):
        t = GRID.times
        assert abs(_triangle(GRID, t[:, None] * t[None, :], 1.0) - 0.125) < 1e-5

    def test_zero_upper(self):
        t = GRID.times
        assert _triangle(GRID, t[:, None] + t[None, :], 0.0) == 0.0


class TestGridHelpers:
    def test_node_cumulative_linear(self):
        grid = uniform_grid(1.0, panels=16)
        cum = node_cumulative(grid, grid.times)
        assert np.allclose(cum, grid.times**2 / 2.0, atol=1e-15)

    def test_node_cumulative_respects_jumps(self):
        grid = uniform_grid(2.0, panels=16, interior=[1.0])
        w = np.where(np.arange(grid.size) < grid.panels + 1, 1.0, 3.0)
        cum = node_cumulative(grid, w)
        assert cum[-1] == pytest.approx(4.0, abs=1e-14)
        # left and right nodes at the breakpoint carry the same integral
        assert cum[grid.panels] == pytest.approx(1.0, abs=1e-14)
        assert cum[grid.panels + 1] == pytest.approx(1.0, abs=1e-14)

    def test_node_cumulative_shape_check(self):
        grid = uniform_grid(1.0, panels=4)
        with pytest.raises(ValueError):
            node_cumulative(grid, np.ones(3))

    def test_node_cumulative_from_a_later_segment_is_bit_identical(self):
        grid = uniform_grid(2.0, panels=8, interior=[0.3, 0.9, 1.4])
        nodes = grid.panels + 1
        rows = np.vstack([np.cos(3.0 * grid.times), np.exp(grid.times) - grid.times ** 2])
        whole = node_cumulative(grid, rows)
        np.testing.assert_array_equal(node_cumulative(grid, rows[0]), whole[0])
        for first in range(nodes, grid.size, nodes):
            for stop in range(first + nodes, grid.size + 1, nodes):
                part = node_cumulative(grid, rows[:, first:stop], first, whole[:, first])
                assert part.tobytes() == whole[:, first:stop].tobytes()
                row = node_cumulative(grid, rows[0, first:stop], first, whole[0, first])
                assert row.tobytes() == whole[0, first:stop].tobytes()

    def test_node_cumulative_breakpoint_nodes_carry_one_integral(self):
        grid = uniform_grid(2.0, panels=8, interior=[0.3, 0.9, 1.4])
        nodes = grid.panels + 1
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(3, grid.size))  # a jump at every breakpoint
        cum = node_cumulative(grid, rows)
        ends = np.arange(nodes, grid.size, nodes)
        np.testing.assert_array_equal(cum[:, ends - 1], cum[:, ends])
        assert np.all(cum[:, 0] == 0.0)

    @pytest.mark.parametrize("first, width", [(0, 8), (1, 9), (9, 27), (3, 6)],
                             ids=["part-segment", "off-start", "past-the-end", "both"])
    def test_node_cumulative_needs_whole_segments(self, first, width):
        grid = uniform_grid(2.0, panels=8, interior=[0.9])  # 18 nodes
        with pytest.raises(ValueError, match="whole segments"):
            node_cumulative(grid, np.ones((2, width)), first)

    def test_integrate_to_matches_cumulative_at_nodes(self):
        grid = uniform_grid(1.0, panels=32)
        w = np.cos(grid.times)
        cum = node_cumulative(grid, w)
        out = integrate_to(grid, w, grid.times[[3, 17, 30]])
        assert np.allclose(out, cum[[3, 17, 30]], atol=1e-14)

    def test_integrate_to_partial_panel(self):
        grid = uniform_grid(1.0, panels=10)
        out = integrate_to(grid, grid.times, np.array([0.55]))
        # integrand is linear, so even the partial panel is exact
        assert out[0] == pytest.approx(0.55**2 / 2.0, abs=1e-14)

    def test_integrate_to_one_row_per_limit(self):
        grid = uniform_grid(1.0, panels=8)
        uppers = np.array([0.25, 0.5, 1.0])
        rows = np.vstack([np.ones(grid.size) * (i + 1) for i in range(3)])
        out = integrate_to(grid, rows, uppers)
        assert np.allclose(out, uppers * np.array([1.0, 2.0, 3.0]), atol=1e-14)

    @pytest.mark.parametrize(
        "shared, tiled",
        [
            (lambda t: np.cos(t), lambda t, e: np.tile(np.cos(t), (e, 1))),
            (lambda t: np.cos(t)[None, :], lambda t, e: np.tile(np.cos(t), (e, 1))),
            (lambda t: 0.7, lambda t, e: np.full((e, t.size), 0.7)),
        ],
        ids=["flat", "one-row", "scalar"],
    )
    def test_integrate_to_shared_row_equals_tiled(self, shared, tiled):
        grid = uniform_grid(2.0, panels=8, interior=[0.6])
        uppers = np.array([0.0, 0.3, 0.6, 1.45, 2.0])
        t = grid.times
        # a shared row takes prefix sums, tiled rows weight rows: the same
        # weights summed in another order
        a = integrate_to(grid, shared(t), uppers)
        b = integrate_to(grid, tiled(t, uppers.size), uppers)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14)

    def test_integrate_to_rows_constant_in_s(self):
        grid = uniform_grid(1.0, panels=8)
        uppers = np.array([0.25, 0.5, 1.0])
        col = np.array([[1.0], [2.0], [3.0]])
        out = integrate_to(grid, col, uppers)
        assert np.allclose(out, uppers * col[:, 0], atol=1e-14)

    def test_integrate_to_wrong_row_count(self):
        grid = uniform_grid(1.0, panels=8)  # 9 nodes
        for shape in [(2, 9), (4, 9), (3, 5), (3, 9, 1)]:
            with pytest.raises(ValueError):
                integrate_to(grid, np.ones(shape), np.array([0.2, 0.5, 0.9]))

    def test_triangle_inner_integrals_on_diagonal(self):
        grid = uniform_grid(1.0, panels=64)
        t = grid.times
        F = np.broadcast_to(t[:, None] * t[None, :], (t.size, t.size))
        inner = np.diagonal(node_cumulative(grid, F))
        # inner[i] = int_0^{t_i} t_i * u du = t_i^3 / 2
        assert np.allclose(inner, t**3 / 2.0, atol=1e-14)

    def test_cube_diagonal_order_two(self):
        grid = uniform_grid(1.0, panels=32)
        t = grid.times
        F = np.ones((t.size, t.size))
        out = cube_diagonal(grid, F, 2)
        assert np.allclose(out, t**2, atol=1e-13)

    def test_cube_diagonal_order_three(self):
        grid = uniform_grid(1.0, panels=16)
        F = np.ones((grid.size,) * 3)
        out = cube_diagonal(grid, F, 3)
        assert np.allclose(out, grid.times**3, atol=1e-12)

    def test_cube_diagonal_shape_check(self):
        grid = uniform_grid(1.0, panels=4)
        with pytest.raises(ValueError):
            cube_diagonal(grid, np.ones((grid.size, grid.size + 1)), 2)
