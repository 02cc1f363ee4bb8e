"""Series equations: cube-form operator, contraction coefficient, solver."""

import math

import numpy as np
import pytest

from conftest import exp_problem
from hybrid_volterra.expressions import parse_kernel, symmetrize_second_order
from hybrid_volterra.piecewise import PiecewiseFn, uniform_grid
from hybrid_volterra.series import (
    SeriesProblem,
    apply_series_operator,
    nested_equals_cube,
    series_arity,
    series_contraction_coefficient,
    series_solve,
)
from hybrid_volterra.solvers import picard_solve

# y(t) = 1 + int y + (1/2) int int y y reduces to Y' = 1 + Y + Y^2/2 with
# Y(0) = 0 and y = Y'; solving the Riccati equation in closed form gives
# y(t) = (1 + tan(t/2 + pi/4)^2) / 2.  Frozen reference values:
ODE_ORACLE = {
    0.1: 1.1109054907092228,
    0.25: 1.3287340696204837,
    0.5: 1.9209547800688114,
}


def _exp_series(panels=256, lipschitz=(1.0,)):
    return SeriesProblem.build(
        horizon=1.0, y0="1", kernels=("x1",), panels=panels, lipschitz=lipschitz
    )


def _riccati_series(panels=256):
    return SeriesProblem.build(
        horizon=0.5, y0="1", kernels=("x1", "x1*x2"), panels=panels,
        lipschitz=(1.0, 2.5),
    )


class TestBuild:
    def test_arity_by_order(self):
        assert series_arity(1) == ("t", "s1", "x1")
        assert series_arity(2) == ("t", "s1", "s2", "x1", "x2")

    def test_order_and_horizon(self):
        p = _riccati_series()
        assert p.order == 2 and p.horizon == 0.5

    def test_missing_kernel_becomes_zero(self):
        p = SeriesProblem.build(horizon=1.0, y0="1", kernels=(None, "x1*x2"))
        assert p.kernels[0].is_zero

    def test_wrong_kernel_arity_rejected(self):
        with pytest.raises(ValueError):
            SeriesProblem.build(horizon=1.0, kernels=(parse_kernel("t", ("t",)),))

    def test_y0_arity_rejected(self):
        with pytest.raises(ValueError):
            SeriesProblem.build(horizon=1.0, y0=parse_kernel("s", ("s",)))

    def test_lipschitz_length_checked(self):
        with pytest.raises(ValueError):
            SeriesProblem.build(horizon=1.0, kernels=("x1",), lipschitz=(1.0, 2.0))

    def test_negative_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            SeriesProblem.build(horizon=1.0, kernels=("x1",), lipschitz=(-1.0,))

    def test_high_order_needs_flag(self):
        # the order-4 kernel does not split, so it would build a nodes^4 array
        kernels = ("x1", "x1*x2", "x1*x2*x3", "exp(x1*x2*x3*x4)")
        with pytest.raises(ValueError):
            SeriesProblem.build(horizon=1.0, kernels=kernels, panels=4)
        p = SeriesProblem.build(
            horizon=1.0, kernels=kernels, panels=4, allow_high_order=True
        )
        assert p.order == 4


class TestApplyOperator:
    def test_zero_kernels_return_forcing(self):
        p = SeriesProblem.build(horizon=1.0, y0="sin(t)", kernels=())
        y = PiecewiseFn.from_expression(p.grid, "0")
        out = apply_series_operator(p, y)
        assert np.allclose(out.values, np.sin(p.grid.times), atol=1e-15)

    def test_order_one_is_plain_integral(self):
        p = _exp_series()
        y = PiecewiseFn.from_expression(p.grid, "1")
        out = apply_series_operator(p, y)
        assert np.allclose(out.values, 1.0 + p.grid.times, atol=1e-13)

    def test_order_two_constants(self):
        p = _riccati_series()
        y = PiecewiseFn.from_expression(p.grid, "1")
        out = apply_series_operator(p, y)
        t = p.grid.times
        assert np.allclose(out.values, 1.0 + t + t**2 / 2.0, atol=1e-12)
        p1 = SeriesProblem.build(horizon=1.0, y0="1", kernels=("x1", "x1*x2"))
        y1 = PiecewiseFn.from_expression(p1.grid, "1")
        assert apply_series_operator(p1, y1).eval(1.0) == pytest.approx(
            2.5, abs=1e-12
        )

    def test_order_three_cube(self):
        p = SeriesProblem.build(horizon=1.0, kernels=(None, None, "1"), panels=64)
        y = PiecewiseFn.from_expression(p.grid, "0")
        out = apply_series_operator(p, y)
        assert np.allclose(out.values, p.grid.times**3 / 6.0, atol=1e-12)

    def test_time_dependent_kernel(self):
        # f1 = t * x1 with y = 1 gives t^2
        p = SeriesProblem.build(horizon=1.0, kernels=("t*x1",), panels=32)
        y = PiecewiseFn.from_expression(p.grid, "1")
        out = apply_series_operator(p, y)
        assert np.allclose(out.values, p.grid.times**2, atol=1e-13)


class TestContractionCoefficient:
    def test_zero_constants(self):
        assert series_contraction_coefficient((0.0, 0.0), 1.0, 1.0) == 0.0

    def test_reference_value(self):
        v = series_contraction_coefficient((1.0, 1.0), 1.0, 1.0)
        assert v == pytest.approx(1.2642411176571153, abs=1e-12)
        assert v == pytest.approx(-math.expm1(-1.0) * 2.0, abs=1e-15)

    def test_vanishes_for_large_mu(self):
        assert series_contraction_coefficient((1.0, 1.0), 1.0, 1e8) < 1e-7

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            series_contraction_coefficient((1.0,), 1.0, 0.0)

    def test_order_weighting(self):
        # L = (a, b, c) weights 1, T, T^2/2
        v = series_contraction_coefficient((2.0, 3.0, 4.0), 2.0, 1.0)
        base = -math.expm1(-2.0)
        assert v == pytest.approx(base * (2.0 + 3.0 * 2.0 + 4.0 * 2.0), abs=1e-12)


class TestSeriesSolve:
    def test_order_one_exponential(self):
        y, report = series_solve(_exp_series())
        assert report.converged
        assert y.eval(1.0) == pytest.approx(math.e, abs=1e-4)

    def test_matches_hybrid_picard_at_order_one(self):
        ys, _ = series_solve(_exp_series())
        yh, _ = picard_solve(exp_problem())
        assert np.max(np.abs(ys.values - yh.xi.values)) < 1e-9

    def test_order_two_against_ode_oracle(self):
        y, report = series_solve(_riccati_series())
        assert report.converged
        for t, ref in ODE_ORACLE.items():
            assert y.eval(t) == pytest.approx(ref, abs=1e-4)

    def test_zero_kernels_one_iteration(self):
        p = SeriesProblem.build(horizon=1.0, y0="cos(t)", kernels=())
        y, report = series_solve(p)
        assert report.converged and report.iterations == 1
        assert np.allclose(y.values, np.cos(p.grid.times), atol=1e-15)

    def test_kmax_flagged(self):
        _, report = series_solve(_exp_series(), kmax=1)
        assert not report.converged

    def test_blow_up_keeps_last_finite_iterate(self):
        p = SeriesProblem.build(horizon=2.0, y0="1", kernels=("exp(x1)",))
        y, report = series_solve(p)
        assert report.failed and not report.converged
        assert report.notes == (
            f"diverged: non-finite update in sweep {report.iterations + 1}",
        )
        assert report.iterations == len(report.deltas) >= 1
        assert np.all(np.isfinite(y.values))

    def test_blow_up_through_an_unsplit_kernel_raises_no_warning(self):
        # the order-2 kernel does not split, so it takes the cube path; the
        # suite turns a RuntimeWarning into an error
        p = SeriesProblem.build(horizon=3.0, y0="1",
                                kernels=("exp(x1)", "(exp(x1)*exp(x2))^1"), panels=64)
        assert p.kernel_terms[1] is None
        y, report = series_solve(p)
        assert report.failed and not report.converged
        assert report.notes == ("diverged: non-finite update in sweep 3",)
        assert np.all(np.isfinite(y.values))

    def test_forcing_error_returns_no_iterate(self):
        p = SeriesProblem.build(horizon=1.0, y0="1/t", kernels=("x1",))
        y, report = series_solve(p)
        assert y is None and report.failed and report.iterations == 0
        assert report.notes == ("kernel error in the forcing term y0: division by zero",)

    def test_default_mu_targets_half_coefficient(self):
        _, report = series_solve(_exp_series())
        coeff = series_contraction_coefficient((1.0,), 1.0, report.mu)
        assert coeff <= 0.5
        assert report.mu == 2.0  # mu=1 gives 0.632, first doubling suffices

    def test_mu_defaults_to_one_without_constants(self):
        p = SeriesProblem.build(horizon=1.0, y0="1", kernels=("x1",))
        _, report = series_solve(p)
        assert report.mu == 1.0

    def test_observed_factor_below_coefficient(self):
        p = SeriesProblem.build(
            horizon=1.0, y0="1", kernels=("0.5*sin(x1)",),
            lipschitz=(0.5,), panels=128,
        )
        mu = 1.0
        coeff = series_contraction_coefficient(p.lipschitz, p.horizon, mu)
        assert coeff < 1.0
        _, report = series_solve(p, mu=mu)
        m = report.max_deltas
        for k in range(2, len(m) - 1):
            if m[k] < 1e-11 or m[k + 1] < 1e-11:
                break
            assert m[k + 1] <= (coeff + 0.05) * m[k]


class TestNestedEqualsCube:
    def test_product_kernel_exact(self):
        x = PiecewiseFn.from_expression(uniform_grid(1.0, 256), "1")
        half, nested = nested_equals_cube("x1*x2", x)
        assert half == pytest.approx(0.5, abs=1e-12)
        assert nested == pytest.approx(0.5, abs=1e-12)

    def test_sum_kernel(self):
        # int int (s1+s2) = 1 over the square, so the halved cube form is
        # 0.5, and the triangle form is 0.5 as well
        x = PiecewiseFn.from_expression(uniform_grid(1.0, 256), "1")
        half, nested = nested_equals_cube("s1 + s2", x)
        assert half == pytest.approx(0.5, abs=1e-12)
        assert nested == pytest.approx(0.5, abs=1e-5)

    def test_zero_kernel(self):
        x = PiecewiseFn.from_expression(uniform_grid(1.0, 64), "t")
        assert nested_equals_cube("0", x) == (0.0, 0.0)

    def test_partial_upper(self):
        x = PiecewiseFn.from_expression(uniform_grid(1.0, 128), "1")
        half, nested = nested_equals_cube("1", x, upper=0.5)
        assert half == pytest.approx(0.125, abs=1e-12)
        assert nested == pytest.approx(0.125, abs=1e-12)

    def test_asymmetric_rejected(self):
        x = PiecewiseFn.from_expression(uniform_grid(1.0, 64), "1")
        with pytest.raises(ValueError):
            nested_equals_cube("s1", x)

    def test_wrong_arity_rejected(self):
        x = PiecewiseFn.from_expression(uniform_grid(1.0, 64), "1")
        with pytest.raises(ValueError):
            nested_equals_cube(parse_kernel("x1", ("x1",)), x)

    def test_upper_outside_grid_rejected(self):
        x = PiecewiseFn.from_expression(uniform_grid(1.0, 64), "1")
        with pytest.raises(ValueError):
            nested_equals_cube("x1*x2", x, upper=2.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_symmetric_quadratic(self, seed):
        rng = np.random.default_rng(seed)
        c = [float(v) for v in rng.uniform(-1, 1, 4)]
        raw = (f"{c[0]!r} + {c[1]!r}*s1*x2 + {c[2]!r}*x1*x2"
               f" + {c[3]!r}*s1*s2")
        sym = symmetrize_second_order(parse_kernel(raw, series_arity(2)))
        x = PiecewiseFn.from_expression(uniform_grid(1.0, 1024), "0.5 - t")
        half, nested = nested_equals_cube(sym, x)
        assert abs(half - nested) < 2e-6

    def test_time_dependent_symmetric_kernel(self):
        x = PiecewiseFn.from_expression(uniform_grid(1.0, 512), "t")
        half, nested = nested_equals_cube("t*(s1 + s2) + x1*x2", x)
        assert abs(half - nested) < 1e-5
