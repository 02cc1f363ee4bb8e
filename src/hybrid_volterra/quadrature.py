"""Composite trapezoid quadrature on a :class:`~.piecewise.Grid`.

Integrands are node-value arrays whose last axis matches grid.times.
Duplicated breakpoint nodes carry the two one-sided values and belong to
different segments, so no panel straddles a jump and discontinuities cost
nothing.

An integral from 0 to an upper limit u is a fixed linear functional of the
node values.  It is the grid's vector of full-segment trapezoid weights
(``Grid.weights``: half a step at both ends of a segment, a whole step
inside) summed over the nodes before the last node at or below u, plus
that node's and the next node's weights in the panels up to u, with the
integrand linearly interpolated on the partial panel.  That cut of a set
of limits is :class:`Limits` (:func:`limits_of`, one
:meth:`~.piecewise.Grid.locate` of the limits); a caller that integrates
to the same limits many times, such as an evaluation batch of the
operator, works it out once and passes it to :func:`read_prefix` and
:func:`cut`.  The functions:

* :func:`integrate_to` -- the one entry point, which works out the cut of
  its limits on every call.  A row shared by every limit takes a prefix
  sum of the weighted row (:func:`row_prefix`), read at each limit's node
  (:func:`read_prefix`): O(N + E) for E limits, and O(E) once the prefix
  is built.  One row per limit takes weight rows: O(E N);
* :func:`row_prefix` and :func:`read_prefix` -- the one running sum: the
  prefix sums of one row or of a table of R rows at once, ``(R, N)``,
  read at every limit as ``(R, E)``, each row with its own cut of its
  nodes (worked out once for many tables by :func:`cut`).  A prefix may
  be taken on from a later column, with each row's sum before it as the
  first term of its sum, and written into a table's own prefix, so a
  table filled again from there keeps the bits of one filled from
  column 0;
* :func:`node_cumulative` -- the integral from 0 to every grid node: that
  running sum at the node plus half a step of the node's value;
* :func:`cube_diagonal` -- the integral over the cube [0, t]^n at every
  node, by nested :func:`node_cumulative` passes;
* :func:`weight_rows` and :func:`apply_weights` -- for rows per limit
  only: the (E, N) weight rows of E upper limits, and the row sums of
  each integrand row times its weight row.

A double integral over the triangle 0 <= s1 <= s <= t of F[s, s1] takes as
its outer integrand the inner integrals ``integrate_to(grid, F, grid.times)``,
one row per limit s; for ``F = a(s) b(s1)`` they are
``a * node_cumulative(grid, b)``.

Non-finite node values give non-finite integrals and raise no
floating-point warning: the solver reports them.  Each public function
that does the arithmetic is its private core (``_integrate_to``,
``_row_prefix``, ``_read_prefix``, ``_node_cumulative``) under the shared
guard :data:`~.expressions.quiet`, a decorated call rather than an
``np.errstate`` block.  A sweep of the operator holds that guard itself
and calls the cores, so it sets the error state once, not once per
quadrature call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expressions import quiet
from .piecewise import Grid


class Limits(NamedTuple):
    """Where a set of upper limits falls on the grid and cuts its trapezoid
    weights (:func:`limits_of`).

    ``base`` is the node at or below each limit in its segment and ``frac``
    the fraction of that node's panel up to the limit, as
    :func:`~.piecewise.interpolate` reads them.  The integral to limit e is
    ``grid.weights`` summed over the nodes before ``base[e]``, plus
    ``lo[e]`` times the integrand at ``base[e]`` and ``hi[e]`` times it at
    ``base[e] + 1``.  A limit at a breakpoint ends in the segment to its
    left.
    """

    base: np.ndarray
    frac: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def limits_of(grid: Grid, upper) -> Limits:
    """The :class:`Limits` of ``upper``, from one :meth:`~.piecewise.Grid.locate`."""
    m = grid.panels
    full = grid.weights
    seg, j, frac = grid.locate(upper, side="left")
    base = seg * (m + 1) + j
    h = (np.diff(grid.partition) / m)[seg]
    # the node at base carries a whole panel (half one at a segment start)
    # in ``full``; keep half a panel for the trapezoid up to that node, then
    # add the partial panel [t_base, upper] split between base and base + 1
    lo = full[base] + (-0.5 * h + 0.5 * frac * h * (2.0 - frac))
    hi = 0.5 * frac * frac * h
    return Limits(base, frac, lo, hi)


def weight_rows(grid: Grid, upper: np.ndarray) -> np.ndarray:
    """Trapezoid weights, shape (E, N): row e integrates from 0 to ``upper[e]``.

    A limit at a breakpoint ends in the segment to its left.
    """
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    base, _, lo, hi = limits_of(grid, upper)
    # row e keeps the grid's weights before node base_e: the window of N
    # entries of [1] * N + [0] * N that holds base_e ones, gathered as a copy
    N = grid.size
    ones_then_zeros = np.repeat([1.0, 0.0], N)
    item = ones_then_zeros.itemsize
    windows = np.ndarray((N + 1, N), buffer=ones_then_zeros, strides=(item, item))
    W = windows[N - base]
    W *= grid.weights
    r = np.arange(upper.size)
    W[r, base] = lo
    W[r, base + 1] = hi
    return W


def apply_weights(W: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row sums of the weight rows ``W`` times the integrand rows ``w``.

    ``w`` holds one row per weight row: shape ``W.shape``, or (E, 1) for
    rows constant in s.
    """
    return np.einsum("ij,ij->i", W, np.broadcast_to(w, W.shape))


def _integrate_to(grid: Grid, w: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Integral of the node integrand ``w`` from 0 to each ``upper``.

    ``w`` is either one row shared by every upper limit (shape ``(N,)``,
    ``(1, N)`` or a scalar) or one row per upper limit (shape ``(E, N)``, or
    ``(E, 1)`` for rows constant in s), where N is grid.size and E is the
    number of upper limits.

    A shared row is integrated from the exclusive prefix sums of its
    weighted nodes, O(N + E); rows per limit by :func:`weight_rows`,
    O(E N).  Non-finite node values give non-finite integrals, as in any
    weighted sum, and raise no floating-point warning.
    """
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    E, N = upper.size, grid.size
    w = np.asarray(w, dtype=float)
    rows = w.reshape(1, 1) if w.ndim == 0 else w.reshape(-1, w.shape[-1])
    if w.ndim > 2 or rows.shape[0] not in (1, E) or rows.shape[1] not in (1, N):
        raise ValueError(
            f"integrand shape {w.shape} is neither one row nor one row per "
            f"upper limit over {N} nodes ({E} limits)"
        )
    if rows.shape[0] != 1:
        return apply_weights(weight_rows(grid, upper), rows)
    row = np.broadcast_to(rows[0], N)
    return _read_prefix(_row_prefix(grid, row), row, limits_of(grid, upper))


integrate_to = quiet(_integrate_to)


class Cut(NamedTuple):
    """How :func:`read_prefix` reads a table of rows cut to their first
    ``keep`` nodes, at a set of upper limits (:func:`cut`).

    ``index`` holds, per row and limit, the flat index into the table's
    prefix of the row's prefix before node min(keep, base), where base is
    the node at or below the limit; ``at_base`` and ``after`` say whether
    the nodes base and base + 1 lie in the cut.
    """

    index: np.ndarray
    at_base: np.ndarray
    after: np.ndarray


def cut(limits: Limits, keep: np.ndarray, shape: tuple) -> Cut:
    """The :class:`Cut` of a prefix table of ``shape``, for rows cut to
    their first ``keep`` nodes at the limits of ``limits``: an (E,)
    ``keep`` cuts every row alike, an (R, E) one each row by its own, and
    a count of N or more keeps the whole row.  Worked out once, it serves
    every :func:`read_prefix` of the same cut of many tables."""
    base = limits.base
    # each row's prefix entries start at a multiple of its width in the flat prefix
    start = np.arange(0, int(np.prod(shape)), shape[-1]).reshape(shape[:-1] + (1,))
    return Cut(np.minimum(keep, base) + start, base < keep, base + 1 < keep)


def _row_prefix(
    grid: Grid, rows: np.ndarray, first: int = 0, start: np.ndarray | float = 0.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exclusive prefix sums of the trapezoid-weighted node rows ``rows``.

    ``rows`` is one row (W,) or a table of rows (R, W) over the grid
    columns ``first`` to ``first + W``; the prefix has W + 1 entries per
    row: entry k sums the weighted nodes before column ``first + k``.
    ``start`` is each row's sum over the columns before ``first``, zero by
    default; it enters the running sum first, so a prefix begun at a later
    column matches the one over the whole row bit for bit.  The prefix is
    written into ``out``, an array of its shape such as the columns of a
    table's prefix from ``first`` on, or into a new array, and returned.
    Built once per table, it serves every later :func:`read_prefix` of it.
    """
    width = rows.shape[-1]
    prefix = np.empty(rows.shape[:-1] + (width + 1,)) if out is None else out
    prefix[..., 0] = start
    np.multiply(grid.weights[first:first + width], rows, out=prefix[..., 1:])
    np.cumsum(prefix, axis=-1, out=prefix)
    return prefix


row_prefix = quiet(_row_prefix)


def _read_prefix(
    prefix: np.ndarray, rows: np.ndarray, limits: Limits, keep: Cut | None = None,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Integral of each node row of ``rows`` from 0 to each upper limit.

    ``rows`` is one row or a table of rows over the grid columns from 0
    on, ``prefix`` is its :func:`row_prefix`, and ``limits`` is the
    :class:`Limits` of the E upper limits; the result has shape (E,) or
    (R, E), O(R E).  Every column a limit reads (the node at or below it
    and the next) must lie in ``rows``.  ``keep``, the :class:`Cut` of
    this prefix at these limits (:func:`cut`), cuts the integrand of each
    row at each limit to its first nodes.  ``work``, two float arrays of
    the result's shape, holds the read, and the result is the first of
    them; by default the read makes both.  A caller that reads tables of
    one shape at the same limits again and again keeps them, so that no
    read makes an array of the table read's size.  Such a read clips its
    indices instead of checking them, so its caller checks once, when it
    makes ``work``, that every column read lies in ``rows``; a read into
    new arrays checks them itself.
    """
    base, _, lo, hi = limits
    mode = "raise" if work is None else "clip"
    if work is None:
        shape = rows.shape[:-1] + base.shape
        work = (np.empty(shape), np.empty(shape))
    out, term = work
    if keep is None:
        prefix.take(base, axis=-1, out=out, mode=mode)
    else:
        prefix.take(keep.index, out=out, mode=mode)
    # the panel's part at base, then at base + 1, each added only where the
    # cut keeps its node, so a value past the cut never enters the sum
    rows.take(base, axis=-1, out=term, mode=mode)
    term *= lo
    np.add(out, term, out=out, where=True if keep is None else keep.at_base)
    rows.take(base + 1, axis=-1, out=term, mode=mode)
    term *= hi
    np.add(out, term, out=out, where=True if keep is None else keep.after)
    return out


read_prefix = quiet(_read_prefix)


def _node_cumulative(
    grid: Grid, w: np.ndarray, first: int = 0, start: np.ndarray | float = 0.0
) -> np.ndarray:
    """Cumulative integral from 0 to every grid node, along the last axis.

    ``w`` is one row (W,) or a table of rows (R, W) over the grid columns
    ``first`` to ``first + W``: whole segments, from the start of one (0 by
    default).  ``start`` is each row's integral up to column ``first``, as
    in :func:`row_prefix`.  The integral to a node is the row's exclusive
    prefix there plus half a step of the node's value, none at a segment's
    first node: a run begun at a later segment matches the whole grid bit
    for bit, and the two nodes of a breakpoint carry the same integral.
    """
    w = np.asarray(w, dtype=float)
    nodes = grid.panels + 1
    width = w.shape[-1]
    if first % nodes or width % nodes or first + width > grid.size:
        raise ValueError(f"columns {first} to {first + width} are not whole segments")
    prefix = _row_prefix(grid, w, first, start)
    return prefix[..., :-1] + grid.half_steps[first:first + width] * w


node_cumulative = quiet(_node_cumulative)


def cube_diagonal(grid: Grid, F: np.ndarray, order: int) -> np.ndarray:
    """Iterated cumulative integral of an order-``order`` tensor integrand.

    ``F`` has ``order`` axes, each of length grid.size; axis ``k`` is the
    k-th integration variable.  Returns, for every node t, the integral of F
    over the cube [0, t]^order (one nested cumulative pass per axis, then
    the main diagonal).
    """
    F = np.asarray(F, dtype=float)
    if F.shape != (grid.size,) * order:
        raise ValueError(f"expected shape {(grid.size,) * order}, got {F.shape}")
    C = F
    for axis in range(order):
        C = np.moveaxis(node_cumulative(grid, np.moveaxis(C, axis, -1)), -1, axis)
    idx = np.arange(grid.size)
    return C[tuple([idx] * order)]
