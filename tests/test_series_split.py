"""Series kernels split into slot factors: O(n N) cube integrals.

A kernel c(t) * prod_i b_i(s_i, x_i), or a sum of such terms, integrates
over [0, t]^n to c(t) times the product of the cumulative integrals of its
factors.  These tests hold that path to the size-N^n cube it replaces,
guard the cost class of one sweep, and solve an order-5 problem that the
cube could not afford.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hybrid_volterra import series
from hybrid_volterra.expressions import KernelExpr
from hybrid_volterra.piecewise import PiecewiseFn
from hybrid_volterra.problem_io import load_problem_file
from hybrid_volterra.series import SeriesProblem, apply_series_operator, series_solve

ROOT = Path(__file__).resolve().parent.parent


def _order_n(source: str, n: int, panels: int) -> SeriesProblem:
    """A problem whose only kernel is ``source`` at order n."""
    return SeriesProblem.build(
        horizon=1.0, y0="1", kernels=(None,) * (n - 1) + (source,), panels=panels,
        allow_high_order=True,
    )


def _count_cubes(monkeypatch) -> list:
    calls = []
    cube = series.cube_diagonal

    def counting(grid, F, order):
        calls.append(order)
        return cube(grid, F, order)

    monkeypatch.setattr(series, "cube_diagonal", counting)
    return calls


SPLIT_KERNELS = [
    (1, "t*x1"),
    (1, "exp(-t)*x1 + s1"),
    (2, "x1*x2"),
    (2, "s1*x1*s2*x2 + x1*x2"),
    (2, "t*x1*x2"),
    (2, "sin(s1)*x1 - x2/(1 + s2)"),
    (3, "exp(-t)*x1*x2*x3"),
    (3, "x1*x2*x3 + s1*s2*s3"),
]


class TestAgainstCube:
    """``(k)^1`` equals k but does not split, so it takes the cube path."""

    @pytest.mark.parametrize("n, source", SPLIT_KERNELS)
    def test_split_equals_cube(self, n, source):
        panels = 16 if n == 3 else 32
        split = _order_n(source, n, panels)
        cube = _order_n(f"({source})^1", n, panels)
        assert split.kernel_terms[n - 1] is not None
        assert cube.kernel_terms[n - 1] is None
        y = PiecewiseFn.from_expression(split.grid, "1 + 0.5*sin(3*t) - t*t")
        a = apply_series_operator(split, y).values
        b = apply_series_operator(cube, y).values
        assert np.max(np.abs(a - b)) <= 1e-13

    @pytest.mark.parametrize("n, source", [(2, "x1*x2"), (2, "t*x1*x2"), (3, "x1*x2*x3")])
    def test_split_makes_no_cube(self, monkeypatch, n, source):
        p = _order_n(source, n, 8)
        calls = _count_cubes(monkeypatch)
        apply_series_operator(p, PiecewiseFn.from_expression(p.grid, "1"))
        assert calls == []

    def test_non_separable_kernel_keeps_the_cube(self, monkeypatch):
        p = _order_n("exp(x1*x2)", 2, 8)
        assert p.kernel_terms[1] is None
        calls = _count_cubes(monkeypatch)
        apply_series_operator(p, PiecewiseFn.from_expression(p.grid, "t"))
        assert calls == [2]

    def test_terms(self):
        p = _order_n("s1*x1*s2*x2 + 2*x1*x2", 2, 4)
        assert [tuple(f and f.source for f in term) for term in p.kernel_terms[1]] == [
            (None, "s1 * x1", "s2 * x2"), (None, "2 * x1", "x2")
        ]
        q = _order_n("exp(-t)*x1*x2", 2, 4)
        assert [tuple(f.source for f in term) for term in q.kernel_terms[1]] == [
            ("exp(-t)", "x1", "x2")
        ]
        assert _order_n("0", 2, 4).kernel_terms == ([], [])
        # a directly constructed problem is split as one from build
        assert SeriesProblem(q.y0, q.kernels, q.grid).kernel_terms == q.kernel_terms


def test_cost_class_of_one_sweep(monkeypatch):
    """``series_quadratic``'s kernels split: no cube, no array of N^2 entries."""
    problem = load_problem_file(ROOT / "problems" / "series_quadratic.yaml").problem
    n = problem.grid.size
    y = PiecewiseFn.from_expression(problem.grid, "1 + t")
    calls = _count_cubes(monkeypatch)
    shapes = []
    evaluate = KernelExpr.evaluate

    def counting(self, bindings):
        out = evaluate(self, bindings)
        shapes.append(np.shape(out))
        return out

    monkeypatch.setattr(KernelExpr, "evaluate", counting)
    tracemalloc.start()
    try:
        apply_series_operator(problem, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == []
    assert shapes and all(math.prod(s) <= n for s in shapes)
    assert peak < n * n * 8


class TestOrderCap:
    def test_separable_order_five_builds_without_flag(self):
        p = SeriesProblem.build(horizon=1.0, kernels=(None,) * 4 + ("x1*x2*x3*x4*x5",))
        assert p.order == 5 and p.kernel_terms[4] is not None

    def test_non_separable_order_four_is_refused(self):
        with pytest.raises(ValueError, match="order 4 builds arrays of size nodes"):
            SeriesProblem.build(horizon=1.0, kernels=(None,) * 3 + ("exp(x1*x2*x3*x4)",))

    def test_t_referencing_non_separable_order_four_is_refused(self):
        with pytest.raises(ValueError, match="allow_high_order"):
            SeriesProblem.build(
                horizon=1.0, kernels=(None,) * 3 + ("x1*x2*x3*exp(-t*x4)",)
            )


def _rk4_reference(times, horizon: float, order: int, steps: int = 5000) -> np.ndarray:
    """y = Y' at ``times`` (multiples of horizon / steps) for
    Y' = 1 + sum_{n <= order} Y^n / n!, Y(0) = 0."""
    def rhs(Y):
        return 1.0 + sum(Y ** n / math.factorial(n) for n in range(1, order + 1))

    h = horizon / steps
    Ys = [0.0]
    for _ in range(steps):
        Y = Ys[-1]
        k1 = rhs(Y)
        k2 = rhs(Y + 0.5 * h * k1)
        k3 = rhs(Y + 0.5 * h * k2)
        k4 = rhs(Y + h * k3)
        Ys.append(Y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0)
    return np.array([rhs(Ys[round(t / h)]) for t in times])


def test_order_five_separable_solve():
    """y = 1 + sum_n (1/n!) (int y)^n reduces to the ODE Y' = 1 + sum Y^n/n!."""
    kernels = tuple("*".join(f"x{i}" for i in range(1, n + 1)) for n in range(1, 6))
    p = SeriesProblem.build(horizon=0.5, y0="1", kernels=kernels, panels=256)
    y, report = series_solve(p)
    assert report.converged and not report.failed
    times = [0.1, 0.25, 0.5]
    got = np.array([y.eval(t) for t in times])
    assert np.max(np.abs(got - _rk4_reference(times, 0.5, 5))) <= 1e-4


def test_one_cumulative_pass_per_sweep(monkeypatch):
    """The slot factors of every term and order share one cumulative pass."""
    kernels = ("0.1*x1 + 0.05*t*s1*x1^2", "0.02*x1*x2 + 0.01*exp(-t)*s1*s2*x1*x2")
    problem = SeriesProblem.build(horizon=1.0, y0="1", kernels=kernels, panels=16)
    assert [len(terms) for terms in problem.kernel_terms] == [2, 2]
    cube = SeriesProblem.build(horizon=1.0, y0="1", kernels=[f"({k})^1" for k in kernels],
                               panels=16)
    y = PiecewiseFn.from_expression(problem.grid, "1 + 0.5*sin(3*t)")
    expected = apply_series_operator(cube, y).values
    calls = []
    cumulative = series.node_cumulative

    def counting(*args, **kwargs):
        calls.append(1)
        return cumulative(*args, **kwargs)

    monkeypatch.setattr(series, "node_cumulative", counting)
    got = apply_series_operator(problem, y).values
    assert len(calls) == 1
    assert np.max(np.abs(got - expected)) <= 1e-13
