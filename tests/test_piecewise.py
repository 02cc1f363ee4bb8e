"""Piecewise representation: one-sided limits, interpolation, weighted norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_volterra.piecewise import (
    Grid,
    PiecewiseFn,
    norm_continuous,
    uniform_grid,
)
from oracles import norm_discrete, norm_mixed


def _step_1_then_2():
    """1 on [0, 1), 2 on (1, 2]."""
    grid = uniform_grid(2.0, panels=8, interior=[1.0])
    vals = np.where(np.arange(grid.size) < grid.panels + 1, 1.0, 2.0)
    return PiecewiseFn(grid, vals)


class TestGrid:
    def test_times_duplicate_breakpoints(self):
        grid = uniform_grid(2.0, panels=4, interior=[1.0])
        assert grid.num_segments == 2
        assert grid.size == 10
        # node 4 and node 5 both sit at t=1, holding the two one-sided values
        assert grid.times[4] == 1.0 and grid.times[5] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 1.0]), panels=1)
        with pytest.raises(ValueError):
            Grid(np.array([0.5, 1.0]), panels=4)
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 1.0, 1.0]), panels=4)

    def test_segment_of_sides(self):
        grid = uniform_grid(2.0, panels=4, interior=[1.0])
        assert grid.segment_of(np.array([1.0]), side="left")[0] == 0
        assert grid.segment_of(np.array([1.0]), side="right")[0] == 1

    def test_out_of_range(self):
        grid = uniform_grid(1.0, panels=4)
        with pytest.raises(ValueError):
            grid.segment_of(np.array([1.5]))

    def test_value_equality(self):
        a, b = uniform_grid(1.0, 4), uniform_grid(1.0, 4)
        assert a == b and not (a != b)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != uniform_grid(1.0, 8)
        assert a != uniform_grid(1.0, 4, interior=[0.5])
        assert a != "grid"

    def test_difference_across_equal_grids(self):
        f = PiecewiseFn.from_expression(uniform_grid(1.0, 4), "t")
        g = PiecewiseFn.from_expression(uniform_grid(1.0, 4), "2*t")
        assert np.array_equal((g - f).values, f.values)
        with pytest.raises(ValueError, match="grids differ"):
            g - PiecewiseFn.from_expression(uniform_grid(1.0, 8), "t")


class TestEval:
    def test_step_left_and_right(self):
        f = _step_1_then_2()
        assert f.eval(1.0) == 1.0
        assert f.eval_left(1.0) == 1.0
        assert f.eval_right(1.0) == 2.0

    def test_constant(self):
        grid = uniform_grid(2.0, panels=8, interior=[0.7])
        f = PiecewiseFn.from_expression(grid, "3")
        for t in (0.0, 0.35, 0.7, 1.9, 2.0):
            assert f.eval(t) == 3.0

    def test_linear_interpolation_exact(self):
        grid = uniform_grid(1.0, panels=8)
        f = PiecewiseFn.from_expression(grid, "t")
        assert f.eval(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_vector_eval(self):
        f = _step_1_then_2()
        out = f.eval(np.array([0.5, 1.0, 1.5]))
        assert out.tolist() == [1.0, 1.0, 2.0]

    def test_non_finite_rejected(self):
        grid = uniform_grid(1.0, panels=4)
        with pytest.raises(ValueError):
            PiecewiseFn(grid, np.full(grid.size, np.nan))

    def test_subtraction_requires_same_grid(self):
        a = PiecewiseFn.from_expression(uniform_grid(1.0, 4), "t")
        b = PiecewiseFn.from_expression(uniform_grid(2.0, 4), "t")
        with pytest.raises(ValueError):
            a - b


class TestNormContinuous:
    def test_constant_one(self):
        f = PiecewiseFn.from_expression(uniform_grid(2.0, 64), "1")
        assert norm_continuous(f, 5.0) == 1.0

    def test_weight_cancels_exponential(self):
        mu = 3.0
        f = PiecewiseFn.from_expression(uniform_grid(1.0, 256), f"exp({mu}*t)")
        assert norm_continuous(f, mu) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        f = PiecewiseFn.from_expression(uniform_grid(1.0, 16), "0")
        assert norm_continuous(f, 2.0) == 0.0

    def test_mu_zero_is_sup(self):
        f = PiecewiseFn.from_expression(uniform_grid(1.0, 64), "t - 0.75")
        assert norm_continuous(f, 0.0) == 0.75

    def test_negative_mu_rejected(self):
        f = PiecewiseFn.from_expression(uniform_grid(1.0, 16), "t")
        with pytest.raises(ValueError):
            norm_continuous(f, -1.0)


class TestNormDiscrete:
    def test_unweighted_max(self):
        assert norm_discrete(np.array([2.0, 3.0]), np.array([0.5, 1.0]), 0.0) == 3.0

    def test_large_mu_damps(self):
        v = norm_discrete(np.array([2.0, 3.0]), np.array([0.5, 1.0]), 50.0)
        assert v < 1e-10

    def test_empty_is_zero(self):
        assert norm_discrete(np.array([]), np.array([]), 1.0) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            norm_discrete(np.array([1.0]), np.array([0.5, 1.0]), 0.0)


class TestNormMixed:
    def test_identity_beta(self):
        grid = uniform_grid(2.0, 64)
        beta = PiecewiseFn.from_expression(grid, "t")
        sig = 0.5 * grid.times[None, :]
        assert norm_mixed([beta], sig, 0.0) == 2.0

    def test_all_zero(self):
        grid = uniform_grid(1.0, 16)
        beta = PiecewiseFn.from_expression(grid, "0")
        assert norm_mixed([beta], grid.times[None, :], 3.0) == 0.0

    def test_weight_uses_moving_time(self):
        grid = uniform_grid(1.0, 64)
        beta = PiecewiseFn.from_expression(grid, "1")
        assert norm_mixed([beta], grid.times[None, :], 1.0) == 1.0

    def test_empty_list(self):
        assert norm_mixed([], np.zeros((0, 0)), 1.0) == 0.0

    def test_misaligned(self):
        grid = uniform_grid(1.0, 16)
        beta = PiecewiseFn.from_expression(grid, "t")
        with pytest.raises(ValueError):
            norm_mixed([beta], np.zeros((2, grid.size)), 1.0)


def _random_fn(grid, rng):
    return PiecewiseFn(grid, rng.uniform(-5, 5, grid.size))


_GRID = uniform_grid(1.5, panels=16, interior=[0.5, 1.0])


class TestNormProperties:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 10.0, allow_nan=False))
    def test_triangle_and_homogeneity(self, seed, mu):
        rng = np.random.default_rng(seed)
        f, g = _random_fn(_GRID, rng), _random_fn(_GRID, rng)
        nf, ng = norm_continuous(f, mu), norm_continuous(g, mu)
        both = norm_continuous(PiecewiseFn(_GRID, f.values + g.values), mu)
        assert both <= nf + ng + 1e-12
        scaled = norm_continuous(PiecewiseFn(_GRID, -2.5 * f.values), mu)
        assert scaled == pytest.approx(2.5 * nf, rel=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0.0, 5.0, allow_nan=False),
        st.floats(0.0, 5.0, allow_nan=False),
    )
    def test_mu_monotone(self, seed, mu1, extra):
        rng = np.random.default_rng(seed)
        f = _random_fn(_GRID, rng)
        eta = rng.uniform(-3, 3, 2)
        tau = np.array([0.5, 1.0])
        sig = np.vstack([0.5 * _GRID.times])
        beta = [_random_fn(_GRID, rng)]
        mu2 = mu1 + extra
        assert norm_continuous(f, mu2) <= norm_continuous(f, mu1) + 1e-12
        assert norm_discrete(eta, tau, mu2) <= norm_discrete(eta, tau, mu1) + 1e-12
        assert norm_mixed(beta, sig, mu2) <= norm_mixed(beta, sig, mu1) + 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_discrete_triangle(self, seed):
        rng = np.random.default_rng(seed)
        tau = np.array([0.3, 0.9])
        a, b = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
        assert norm_discrete(a + b, tau, 1.0) <= (
            norm_discrete(a, tau, 1.0) + norm_discrete(b, tau, 1.0) + 1e-12
        )
