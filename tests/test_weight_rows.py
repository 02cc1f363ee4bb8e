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
    cut,
    integrate_to,
    limits_of,
    node_cumulative,
    read_prefix,
    row_prefix,
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


def _all_uppers(grid, rng):
    """``_uppers`` plus both duplicated nodes of every breakpoint."""
    w = grid.panels + 1
    dup = [i for l in range(1, grid.num_segments) for i in (l * w - 1, l * w)]
    return np.concatenate([_uppers(grid, rng), grid.times[dup]])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_row_prefix_matches_weight_rows(seed):
    rng = np.random.default_rng(10 + seed)
    upper = _all_uppers(GRID, rng)
    row = rng.normal(size=GRID.size)
    got = integrate_to(GRID, row, upper)
    ref = apply_weights(weight_rows(GRID, upper), np.tile(row, (upper.size, 1)))
    assert np.max(np.abs(got - ref)) <= TOL


def _kept(grid, rows, upper, keep):
    """``rows`` read at ``upper``, each cut to its first ``keep`` nodes."""
    limits = limits_of(grid, upper)
    prefix = row_prefix(grid, rows)
    return read_prefix(prefix, rows, limits, cut(limits, keep, prefix.shape))


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-limit"])
def test_kept_nodes_match_dense_mask(shared):
    """A :func:`cut` of ``keep`` node counts cuts the integrand as the
    dense mask of node indices does, for one row and for a table of rows,
    here one per limit: row e read at limit e."""
    rng = np.random.default_rng(20)
    upper = _all_uppers(GRID, rng)
    base = GRID.locate(upper, side="left")
    base = base[0] * (GRID.panels + 1) + base[1]
    # around the limit's own nodes, and far on either side
    keep = np.concatenate([np.maximum(base - 1, 0), base, base + 1, base + 2,
                           [0, GRID.size]])
    upper = np.concatenate([upper] * 4 + [upper[:2]])
    rows = rng.normal(size=(1 if shared else upper.size, GRID.size))
    got = _kept(GRID, rows[0], upper, keep) if shared else np.diagonal(
        _kept(GRID, rows, upper, keep))
    kept = np.arange(GRID.size)[None, :] < keep[:, None]
    ref = apply_weights(np.where(kept, weight_rows(GRID, upper), 0.0),
                        np.broadcast_to(rows, kept.shape))
    assert np.max(np.abs(got - ref)) <= TOL


def test_shared_row_non_finite_values_raise_no_warning():
    """An overflowed integrand gives a non-finite integral, silently."""
    row = np.ones(GRID.size)
    row[5] = np.inf
    row[30] = -np.inf
    upper = GRID.times[[0, 3, 6, 38]]
    got = integrate_to(GRID, row, upper)
    assert np.isfinite(got[:2]).all() and not np.isfinite(got[2:]).any()
    kept = _kept(GRID, row, upper, np.array([0, 4, 5, 5]))
    assert np.isfinite(kept).all()
