"""Trapezoid weight rows against the cumulative-sum construction.

``integrate_to`` reduces integrands with weight rows; ``node_cumulative``
builds the same trapezoid sums by a cumulative pass.  They must agree on
random data for every kind of upper limit: inside a panel, on a node, on a
breakpoint (both duplicated nodes carry it), at 0 and at the horizon.
"""

import numpy as np
import pytest

from hybrid_volterra.piecewise import uniform_grid
from hybrid_volterra.quadrature import (
    apply_weights,
    integrate_to,
    node_cumulative,
    weight_rows,
)

TOL = 1e-14
GRID = uniform_grid(2.0, panels=12, interior=[0.35, 1.2])


def _cumulative_to(grid, rows, upper):
    """Reference: node_cumulative to the node below, plus the partial panel."""
    seg, j, frac = grid.locate(upper, side="left")
    base = seg * (grid.panels + 1) + j
    step = (np.diff(grid.partition) / grid.panels)[seg]
    r = np.arange(upper.size) if rows.shape[0] == upper.size else 0
    cum = node_cumulative(grid, rows)
    w0, w1 = rows[r, base], rows[r, base + 1]
    return cum[r, base] + 0.5 * (2.0 * w0 + frac * (w1 - w0)) * frac * step


def _uppers(grid, rng):
    """Random limits plus 0, the horizon, every breakpoint and some nodes."""
    return np.concatenate(
        [
            rng.uniform(0.0, grid.horizon, 20),
            [0.0, grid.horizon],
            grid.partition[1:-1],
            grid.times[rng.integers(0, grid.size, 8)],
        ]
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_row_per_limit_matches_cumulative(seed):
    rng = np.random.default_rng(seed)
    upper = _uppers(GRID, rng)
    rows = rng.normal(size=(upper.size, GRID.size))
    got = integrate_to(GRID, rows, upper)
    assert np.max(np.abs(got - _cumulative_to(GRID, rows, upper))) <= TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_row_matches_cumulative(seed):
    rng = np.random.default_rng(seed)
    upper = _uppers(GRID, rng)
    row = rng.normal(size=GRID.size)
    got = integrate_to(GRID, row, upper)
    assert np.max(np.abs(got - _cumulative_to(GRID, row[None, :], upper))) <= TOL


def test_single_limit():
    rng = np.random.default_rng(3)
    row = rng.normal(size=(1, GRID.size))
    for u in (0.0, 0.35, 0.9, 1.2, 2.0):
        upper = np.array([u])
        got = integrate_to(GRID, row, upper)
        assert got.shape == (1,)
        assert abs(got[0] - _cumulative_to(GRID, row, upper)[0]) <= TOL


def test_rows_constant_in_s():
    rng = np.random.default_rng(4)
    upper = _uppers(GRID, rng)
    col = rng.normal(size=(upper.size, 1))
    got = integrate_to(GRID, col, upper)
    ref = _cumulative_to(GRID, np.repeat(col, GRID.size, axis=1), upper)
    assert np.max(np.abs(got - ref)) <= TOL


def test_triangle_inner_integrals_match_cumulative_diagonal():
    rng = np.random.default_rng(5)
    F = rng.normal(size=(GRID.size, GRID.size))
    got = apply_weights(weight_rows(GRID, GRID.times), F)
    assert np.max(np.abs(got - np.diagonal(node_cumulative(GRID, F)))) <= TOL


def test_duplicated_nodes_share_the_breakpoint_integral():
    """Both nodes at a breakpoint integrate to it through the left segment."""
    rng = np.random.default_rng(6)
    row = rng.normal(size=GRID.size)
    w = GRID.panels + 1
    for l in (1, 2):
        last, first = l * w - 1, l * w
        a, b = integrate_to(GRID, row, GRID.times[[last, first]])
        assert a == b
        assert abs(a - node_cumulative(GRID, row)[first]) <= TOL


def test_weight_rows_are_trapezoid_weights():
    """Nonnegative, summing to the limit, zero past the node closing u's panel."""
    upper = np.array([0.0, 0.1, 0.35, 0.5, 1.2, 2.0])
    W = weight_rows(GRID, upper)
    assert W.shape == (upper.size, GRID.size)
    assert np.all(W >= 0.0)
    assert np.allclose(W.sum(axis=1), upper, atol=1e-15)
    for e, u in enumerate(upper):
        beyond = np.flatnonzero(GRID.times > u + 1e-12)
        assert np.all(W[e, beyond[1:]] == 0.0)
