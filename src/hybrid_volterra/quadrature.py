"""Composite trapezoid quadrature on a :class:`~.piecewise.Grid`.

Integrands are node-value arrays whose last axis matches grid.times.
Duplicated breakpoint nodes carry the two one-sided values and belong to
different segments, so no panel straddles a jump and discontinuities cost
nothing.  Three functions:

* :func:`node_cumulative` -- the integral from 0 to every grid node;
* :func:`integrate_to` -- the integral from 0 to arbitrary upper limits,
  with one integrand row shared by all limits or one row per limit; an
  upper limit inside a segment ends a partial panel exactly there, with the
  integrand linearly interpolated;
* :func:`cube_diagonal` -- the integral over the cube [0, t]^n at every
  node, by nested cumulative passes.

A double integral over the triangle 0 <= s1 <= s <= t takes the diagonal of
:func:`node_cumulative` of the (s, s1) node matrix as its outer integrand.
"""

from __future__ import annotations

import numpy as np

from .piecewise import Grid


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


def integrate_to(grid: Grid, w: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Integral of the node integrand ``w`` from 0 to each ``upper``.

    ``w`` is either one row shared by every upper limit (shape ``(N,)``,
    ``(1, N)`` or a scalar; cumulated once) or one row per upper limit
    (shape ``(E, N)``, or ``(E, 1)`` for rows constant in s), where N is
    grid.size and E is the number of upper limits.
    """
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    w = np.asarray(w, dtype=float)
    rows = w.reshape(1, 1) if w.ndim == 0 else w.reshape(-1, w.shape[-1])
    if w.ndim > 2 or rows.shape[0] not in (1, upper.size) or rows.shape[1] not in (1, grid.size):
        raise ValueError(
            f"integrand shape {w.shape} is neither one row nor one row per "
            f"upper limit over {grid.size} nodes ({upper.size} limits)"
        )
    rows = np.broadcast_to(rows, (rows.shape[0], grid.size))
    cum = node_cumulative(grid, rows)
    seg, j, frac = grid.locate(upper, side="left")
    base = seg * (grid.panels + 1) + j
    step = (np.diff(grid.partition) / grid.panels)[seg]
    r = np.arange(upper.size) if rows.shape[0] == upper.size else 0
    w0 = rows[r, base]
    w1 = rows[r, base + 1]
    wu = w0 + frac * (w1 - w0)
    return cum[r, base] + 0.5 * (w0 + wu) * frac * step


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
