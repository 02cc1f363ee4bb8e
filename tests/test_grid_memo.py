"""Where evaluation times fall on the grid, and who keeps it.

``Grid.locate`` and the quadrature cut of a set of limits
(``quadrature.limits_of``) are worked out on every call and keep nothing,
so a caller that changes its array gets a fresh answer and a grid that has
answered many calls gives the same bits as a fresh one.  An evaluation
batch of the operator (``operator._Batch``) locates its times once and
keeps the answer read-only; a solve builds one batch, ``problem.sweep``,
whatever its sweep count, and the march evaluates index views of it.
"""

import numpy as np
import pytest

from conftest import mixed_problem
from hybrid_volterra.operator import EPS, _Batch
from hybrid_volterra.piecewise import Grid, PiecewiseFn, uniform_grid
from hybrid_volterra.quadrature import (
    cut,
    integrate_to,
    limits_of,
    read_prefix,
    row_prefix,
    weight_rows,
)
from hybrid_volterra.solvers import picard_solve, segment_solve


def _grid():
    return uniform_grid(2.0, panels=12, interior=[0.35, 1.2])


def _fresh(grid):
    return Grid(grid.partition, grid.panels)


def _uppers(grid, rng):
    """Random times plus 0, the horizon, every breakpoint and both of its nodes."""
    ends = np.arange(1, grid.num_segments) * (grid.panels + 1)
    return np.concatenate(
        [
            rng.uniform(0.0, grid.horizon, 10),
            [0.0, grid.horizon],
            grid.partition[1:-1],
            grid.times[ends - 1],  # the last node of the segment on the left
            grid.times[ends],  # the first node of the segment on the right
        ]
    )


def test_cached_arrays_are_read_only():
    """What a batch keeps of where its times fall, and the grid's weights."""
    problem = mixed_problem(panels=12)
    grid = problem.grid
    upper = np.array([0.1, 0.35, 1.9])
    limits = _Batch(problem, upper, upper - EPS).limits
    assert limits.base.tolist() == grid.nodes(upper)[0].tolist()
    for a in limits:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert not grid.weights.flags.writeable
    assert not grid.half_steps.flags.writeable


def test_changing_the_callers_array_changes_the_answer():
    grid = _grid()
    rng = np.random.default_rng(0)
    row = rng.normal(size=grid.size)
    fn = PiecewiseFn(grid, row)
    upper = np.array([0.1, 0.35, 1.9])
    integrate_to(grid, row, upper)
    fn.eval(upper)
    upper[:] = [0.2, 1.2, 2.0]
    fresh = _fresh(grid)
    assert np.array_equal(integrate_to(grid, row, upper),
                          integrate_to(fresh, row, upper))
    assert np.array_equal(fn.eval(upper), PiecewiseFn(fresh, row).eval(upper))


@pytest.mark.parametrize("read_only_view", [False, True])
def test_array_changed_in_place_gets_no_stale_answer(read_only_view):
    """A writeable array, or a read-only view of one, changed in place gets
    the answer for its new values."""
    grid = _grid()
    rng = np.random.default_rng(3)
    row = rng.normal(size=grid.size)
    base = np.array([0.1, 0.35, 1.9])
    upper = base[:] if read_only_view else base
    if read_only_view:
        upper.setflags(write=False)
    fn = PiecewiseFn(grid, row)
    integrate_to(grid, row, upper)
    fn.eval(upper)
    base[:] = [0.2, 1.2, 2.0]
    fresh = _fresh(grid)
    assert np.array_equal(integrate_to(grid, row, upper), integrate_to(fresh, row, upper))
    assert np.array_equal(fn.eval(upper), PiecewiseFn(fresh, row).eval(upper))


@pytest.mark.parametrize("seed", [0, 1])
def test_reused_grid_matches_fresh_grid_bit_for_bit(seed):
    grid = _grid()
    rng = np.random.default_rng(seed)
    upper = _uppers(grid, rng)
    row = rng.normal(size=grid.size)
    rows = rng.normal(size=(upper.size, grid.size))
    keep = rng.integers(0, grid.size + 1, upper.size)
    fn = PiecewiseFn(grid, row)

    def kept(g, rows):
        limits = limits_of(g, upper)
        prefix = row_prefix(g, rows)
        return read_prefix(prefix, rows, limits, cut(limits, keep, prefix.shape))

    def results(g):
        f = PiecewiseFn(g, row)
        return [
            integrate_to(g, row, upper),
            kept(g, row),
            integrate_to(g, rows, upper),
            kept(g, rows),
            weight_rows(g, upper),
            f.eval(upper),
            f.eval_right(upper),
        ]

    # ask about these times and others, then ask again
    first = results(grid)
    for k in range(5):
        integrate_to(grid, row, upper[: k + 1])
        fn.eval(upper[k:])
    again = results(grid)
    expected = results(_fresh(grid))
    for a, b, c in zip(first, again, expected):
        assert a.tobytes() == c.tobytes()
        assert b.tobytes() == c.tobytes()


@pytest.mark.parametrize("solve,limit", [(picard_solve, 3), (segment_solve, 2)],
                         ids=["picard", "segment"])
def test_each_time_set_is_located_once(monkeypatch, solve, limit):
    """The segment searches of a solve do not grow with its sweep count."""
    calls = []
    segment_of = Grid.segment_of

    def counted(self, *args, **kwargs):
        calls.append(1)
        return segment_of(self, *args, **kwargs)

    monkeypatch.setattr(Grid, "segment_of", counted)
    counts = []
    for tol in (1e-6, 1e-12):
        calls.clear()
        _, report = solve(mixed_problem(128), tol=tol)
        assert report.converged
        counts.append(len(calls))
    assert counts[0] == counts[1] <= limit


@pytest.mark.parametrize("solve", [picard_solve, segment_solve], ids=["picard", "segment"])
def test_one_batch_per_time_set(monkeypatch, solve):
    """A solve builds one batch, ``problem.sweep``, for every sweep and the
    image, whatever the sweep count: the segments of the march evaluate
    index views of it (``operator._Subset``), which locate nothing."""
    built = []
    init = _Batch.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Batch, "__init__", counted)
    counts = []
    for tol in (1e-6, 1e-12):
        built.clear()
        problem = mixed_problem(64)
        _, report = solve(problem, tol=tol)
        assert report.converged
        counts.append((len(built), report.iterations))
        assert report.image is not None and "sweep" in vars(problem)
    assert counts[0][0] == counts[1][0] == 1
    assert counts[0][1] < counts[1][1]


@pytest.mark.parametrize("side", ["lft", "Left", "", None])
def test_unknown_side_is_rejected(side):
    grid = _grid()
    t = np.array([0.35])
    with pytest.raises(ValueError, match="side"):
        grid.locate(t, side=side)
    with pytest.raises(ValueError, match="side"):
        grid.segment_of(t, side=side)
