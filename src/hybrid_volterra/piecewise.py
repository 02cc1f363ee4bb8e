"""Piecewise-continuous functions on a segmented grid, with a weighted norm.

Solutions live in the space of functions on [0, T] that are continuous on
each open segment between breakpoints and have one-sided limits at the
breakpoints.  The value *at* a breakpoint is the left limit; the right
limit is stored separately.  A :class:`Grid` fixes the partition
``0 = a_0 < a_1 < ... < a_M = T`` and samples each segment uniformly with
``m`` panels (``m + 1`` nodes), so both one-sided values at an interior
breakpoint are represented: the last node of the segment ending there and
the first node of the segment starting there share the same time.

:meth:`Grid.locate` maps a set of times to where they fall (segment,
node offset, fraction of a panel) and computes that on every call; a
caller that reads the same times many times, such as an evaluation batch
of the operator, locates them once and keeps the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expressions import KernelExpr, parse_kernel

_TIME_TOL = 1e-10
_SIDES = ("left", "right")


class NonFiniteValues(ValueError):
    """Node values that are not all finite (an iteration blew up)."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Shared sample grid: a partition of [0, T] and per-segment nodes.

    ``weights`` holds the composite trapezoid weight of every node over its
    whole segment: half a step at both ends of a segment, a whole step
    inside.  ``half_steps`` holds half a step at every node, 0 at each
    segment's first node.  Both are read-only.  Two grids are equal when
    their partitions and panel counts are; everything else follows from
    those.
    """

    partition: np.ndarray
    panels: int
    times: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    half_steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        part = np.asarray(self.partition, dtype=float)
        if part.ndim != 1 or part.size < 2:
            raise ValueError("partition must contain at least [0, T]")
        if not np.all(np.diff(part) > 0):
            raise ValueError("partition must be strictly increasing")
        if abs(part[0]) > _TIME_TOL:
            raise ValueError("partition must start at 0")
        if self.panels < 2:
            raise ValueError("need at least 2 panels per segment")
        object.__setattr__(self, "partition", part)
        unit = np.arange(self.panels + 1, dtype=float) / self.panels
        times = np.concatenate(
            [part[l] + unit * (part[l + 1] - part[l]) for l in range(part.size - 1)]
        )
        object.__setattr__(self, "times", times)
        step = np.diff(part) / self.panels
        weights = np.repeat(step, self.panels + 1).reshape(part.size - 1, self.panels + 1)
        weights[:, [0, -1]] *= 0.5
        weights = weights.reshape(-1)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        half_steps = np.repeat(0.5 * step, self.panels + 1)
        half_steps[::self.panels + 1] = 0.0
        half_steps.setflags(write=False)
        object.__setattr__(self, "half_steps", half_steps)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Grid):
            return NotImplemented
        return self.panels == other.panels and np.array_equal(
            self.partition, other.partition
        )

    def __hash__(self):
        return hash((self.panels, tuple(self.partition.tolist())))

    @property
    def horizon(self) -> float:
        return float(self.partition[-1])

    @property
    def num_segments(self) -> int:
        return self.partition.size - 1

    @property
    def size(self) -> int:
        return self.num_segments * (self.panels + 1)

    def segment_slice(self, l: int) -> slice:
        w = self.panels + 1
        return slice(l * w, (l + 1) * w)

    def segment_of(self, t: np.ndarray, side: str = "left") -> np.ndarray:
        """Segment index containing each time; breakpoints resolve by ``side``."""
        _check_side(side)
        t = np.asarray(t, dtype=float)
        if np.any(t < -_TIME_TOL) or np.any(t > self.horizon + _TIME_TOL):
            bad = t[(t < -_TIME_TOL) | (t > self.horizon + _TIME_TOL)]
            raise ValueError(f"time {float(np.ravel(bad)[0])} outside [0, {self.horizon}]")
        idx = np.searchsorted(self.partition[1:-1], t, side=side)
        return np.clip(idx, 0, self.num_segments - 1)

    def locate(self, t, side: str = "left"):
        """Map times to (segment, node offset, fraction) for interpolation."""
        _check_side(side)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        seg = self.segment_of(t, side)
        a = self.partition[seg]
        b = self.partition[seg + 1]
        theta = np.clip((t - a) / (b - a) * self.panels, 0.0, self.panels)
        j = np.minimum(theta.astype(int), self.panels - 1)
        frac = theta - j
        return seg, j, frac

    def nodes(self, t, side: str = "left"):
        """Map times to (node, fraction): the index in ``times`` of the node
        at or below each time in its segment (by ``side`` at a breakpoint)
        and the fraction of that node's panel, as :func:`interpolate` reads
        them.
        """
        seg, j, frac = self.locate(t, side)
        return seg * (self.panels + 1) + j, frac


def _check_side(side: str) -> None:
    if side not in _SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def uniform_grid(horizon: float, panels: int = 256, interior: Sequence[float] = ()) -> Grid:
    pts = [0.0] + sorted(float(p) for p in interior) + [float(horizon)]
    return Grid(np.asarray(pts), panels)


class PiecewiseFn:
    """Node samples of a piecewise-continuous function on a :class:`Grid`."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.size,):
            raise ValueError(f"expected {grid.size} node values, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise NonFiniteValues("node values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def from_expression(cls, grid: Grid, expr, var: str = "t") -> "PiecewiseFn":
        if isinstance(expr, str):
            expr = parse_kernel(expr, (var,))
        vals = np.broadcast_to(np.asarray(expr.evaluate({var: grid.times}), dtype=float),
                               grid.times.shape).copy()
        return cls(grid, vals)

    def _eval(self, t, side: str):
        return interpolate(self.values, *self.grid.nodes(t, side))

    def eval(self, t):
        """Value at ``t``; at a breakpoint this is the left limit."""
        out = self._eval(t, "left")
        return float(out[0]) if np.ndim(t) == 0 else out

    def eval_left(self, t):
        return self.eval(t)

    def eval_right(self, t):
        """Right limit at ``t`` (equals eval away from breakpoints)."""
        out = self._eval(t, "right")
        return float(out[0]) if np.ndim(t) == 0 else out

    def __sub__(self, other: "PiecewiseFn") -> "PiecewiseFn":
        if other.grid != self.grid:
            raise ValueError("grids differ")
        return PiecewiseFn(self.grid, self.values - other.values)


def interpolate(values: np.ndarray, node: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Node ``values`` (..., N) at the times that :meth:`Grid.nodes` maps to
    ``node`` and ``frac``: linear within each panel."""
    at_node = values[..., node]
    return at_node + frac * (values[..., node + 1] - at_node)


# ---------------------------------------------------------------------------
# Weighted norm.  An exponentially weighted supremum, evaluated as a maximum
# over stored nodes (both one-sided values at breakpoints are nodes, so they
# participate).


def norm_continuous(fn: PiecewiseFn, mu: float) -> float:
    """max over nodes of e^{-mu t} |f(t)|."""
    _check_mu(mu)
    return float(np.max(np.exp(-mu * fn.grid.times) * np.abs(fn.values)))


def _check_mu(mu: float) -> None:
    if not (mu >= 0) or not np.isfinite(mu):
        raise ValueError(f"weight mu must be finite and >= 0, got {mu}")
