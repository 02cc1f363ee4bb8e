"""Composite trapezoid quadrature on a :class:`~.piecewise.Grid`.

Integrands are node-value arrays whose last axis matches grid.times.
Duplicated breakpoint nodes carry the two one-sided values and belong to
different segments, so no panel straddles a jump and discontinuities cost
nothing.

An integral from 0 to an upper limit u is a fixed linear functional of the
node values, a weight row.  It is the grid's vector of full-segment
trapezoid weights (half a step at both ends of a segment, a whole step
inside) cut after the last node at or below u, plus the partial panel that
ends exactly at u, with the integrand linearly interpolated there.  The
functions:

* :func:`weight_rows` -- the (E, N) weight rows of E upper limits, built
  from that O(N) vector with no cumulative pass;
* :func:`apply_weights` -- the weighted row reduction, with one integrand
  row shared by every limit or one row per limit;
* :func:`integrate_to` -- the two together;
* :func:`node_cumulative` -- the integral from 0 to every grid node, by a
  cumulative sum, for :func:`cube_diagonal`;
* :func:`cube_diagonal` -- the integral over the cube [0, t]^n at every
  node, by nested cumulative passes.

A double integral over the triangle 0 <= s1 <= s <= t of F[s, s1] takes as
its outer integrand the inner integrals
``apply_weights(weight_rows(grid, grid.times), F)``, one per row s.
"""

from __future__ import annotations

import numpy as np

from .piecewise import Grid


def weight_rows(grid: Grid, upper: np.ndarray) -> np.ndarray:
    """Trapezoid weights, shape (E, N): row e integrates from 0 to ``upper[e]``.

    A limit at a breakpoint ends in the segment to its left.
    """
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    m = grid.panels
    step = np.diff(grid.partition) / m
    full = np.repeat(step, m + 1).reshape(grid.num_segments, m + 1)
    full[:, [0, -1]] *= 0.5
    seg, j, frac = grid.locate(upper, side="left")
    base = seg * (m + 1) + j
    # row e keeps ``full`` up to node base_e: the window of N entries of
    # [1] * N + [0] * N that holds base_e + 1 ones, gathered as a copy
    N = grid.size
    ones_then_zeros = np.repeat([1.0, 0.0], N)
    item = ones_then_zeros.itemsize
    windows = np.ndarray((N, N), buffer=ones_then_zeros, strides=(item, item))
    W = windows[N - 1 - base]
    W *= full.reshape(-1)
    # the node at base carries a whole panel (half one at a segment start)
    # in ``full``; keep half a panel for the trapezoid up to that node, then
    # add the partial panel [t_base, upper] split between base and base + 1
    r = np.arange(upper.size)
    h = step[seg]
    W[r, base] += -0.5 * h + 0.5 * frac * h * (2.0 - frac)
    W[r, base + 1] += 0.5 * frac * frac * h
    return W


def apply_weights(W: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted row sums of the integrand ``w`` under the weight rows ``W``.

    ``w`` is either one row shared by every weight row (shape ``(N,)``,
    ``(1, N)`` or a scalar) or one row per weight row (shape ``(E, N)``, or
    ``(E, 1)`` for rows constant in s), where (E, N) is ``W.shape``.
    """
    E, N = W.shape
    w = np.asarray(w, dtype=float)
    rows = w.reshape(1, 1) if w.ndim == 0 else w.reshape(-1, w.shape[-1])
    if w.ndim > 2 or rows.shape[0] not in (1, E) or rows.shape[1] not in (1, N):
        raise ValueError(
            f"integrand shape {w.shape} is neither one row nor one row per "
            f"upper limit over {N} nodes ({E} limits)"
        )
    if rows.shape[0] == 1:
        # a contiguous shared row sums bit for bit like the tiled rows
        return np.einsum("ij,j->i", W, np.ascontiguousarray(np.broadcast_to(rows[0], N)))
    return np.einsum("ij,ij->i", W, np.broadcast_to(rows, (E, N)))


def integrate_to(grid: Grid, w: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Integral of the node integrand ``w`` from 0 to each ``upper``.

    ``w`` is either one row shared by every upper limit (shape ``(N,)``,
    ``(1, N)`` or a scalar) or one row per upper limit (shape ``(E, N)``, or
    ``(E, 1)`` for rows constant in s), where N is grid.size and E is the
    number of upper limits.
    """
    return apply_weights(weight_rows(grid, upper), w)


def node_cumulative(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Cumulative integral from 0 to every grid node, along the last axis."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != grid.size:
        raise ValueError(f"integrand last axis {w.shape[-1]} != grid size {grid.size}")
    m = grid.panels
    nseg = grid.num_segments
    step = np.diff(grid.partition) / m  # node spacing per segment
    shaped = w.reshape(w.shape[:-1] + (nseg, m + 1))
    panel = 0.5 * (shaped[..., :-1] + shaped[..., 1:]) * step[:, None]
    within = np.concatenate(
        [np.zeros(panel.shape[:-1] + (1,)), np.cumsum(panel, axis=-1)], axis=-1
    )
    seg_totals = within[..., -1]
    offsets = np.concatenate(
        [np.zeros(seg_totals.shape[:-1] + (1,)), np.cumsum(seg_totals, axis=-1)[..., :-1]],
        axis=-1,
    )
    out = within + offsets[..., None]
    return out.reshape(w.shape)


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
