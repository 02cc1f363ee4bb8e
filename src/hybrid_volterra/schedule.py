"""Impulse schedules: fixed times, moving-time functions, and breakpoints.

A schedule collects the fixed impulse times ``tau`` (strictly increasing in
(0, T), each a breakpoint), the moving-time functions ``sigma_i``
(expressions in ``t`` mapping [0, T] into [0, T]), and the separation scale
``h``.  The solution can jump at the fixed times and at the roots of
``t = sigma_i(t)``, so the breakpoint set is the sorted union of ``tau`` and
all roots.

Roots are located by a sign-change scan of ``sigma_i(t) - t`` on a uniform
grid, then every bracket of one ``sigma_i`` is narrowed at once by
k-section, one array evaluation per step; a tangential root is found only
when a scan point lands within the root tolerance.  Monotonicity of
``sigma_i`` is not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .expressions import KernelExpr, parse_kernel

MERGE_TOL = 1e-10
ROOT_TOL = 1e-12
ROOT_GRID = 4096
# the parts each refinement step cuts a bracket into: one array evaluation
# narrows every bracket _SECTIONS-fold
_SECTIONS = 1024


def solve_sigma_roots(
    sigma: KernelExpr,
    horizon: float,
    grid: int = ROOT_GRID,
    tol: float = ROOT_TOL,
) -> np.ndarray:
    """Roots of ``t = sigma(t)`` on [0, horizon], sorted and deduplicated.

    Every returned root r satisfies |sigma(r) - r| <= tol (verified after
    refinement).  Roots crossing between scan points are refined together,
    every bracket at once (:func:`_refine`); roots that only touch the
    diagonal are reported when a scan point hits them within tol.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if grid < 2:
        raise ValueError("scan grid needs at least 2 points")
    ts = np.linspace(0.0, horizon, grid + 1)
    d = np.asarray(sigma.evaluate({"t": ts}), dtype=float) - ts
    if not np.all(np.isfinite(d)):
        raise ValueError("sigma is not finite on [0, horizon]")

    # scan points sitting on the diagonal (covers tangential roots)
    roots = ts[np.abs(d) <= tol].tolist()
    sign = np.sign(d)
    k = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    if k.size:
        r = _refine(sigma, ts[k], ts[k + 1], d[k] < 0, max(tol * 1e-3, 1e-15))
        d_r = np.asarray(sigma.evaluate({"t": r}), dtype=float) - r
        roots += r[np.abs(d_r) <= tol].tolist()

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > MERGE_TOL:
            merged.append(r)
    return np.asarray(merged)


def _refine(
    sigma: KernelExpr, lo: np.ndarray, hi: np.ndarray, lo_negative: np.ndarray, width: float
) -> np.ndarray:
    """A root of sigma(t) - t in each bracket [lo, hi] where it changes sign.

    ``lo_negative`` marks the brackets where it is negative at ``lo``.  Each
    step cuts every bracket still ``width`` or wider into :data:`_SECTIONS`
    equal parts, evaluates all their ends in one array evaluation, and
    keeps the first part whose upper end lies past the sign change.  The
    root is the midpoint of the last bracket: narrower than ``width``, or
    no longer shrinking (a few ulps wide).
    """
    lo, hi = lo.copy(), hi.copy()
    frac = np.linspace(0.0, 1.0, _SECTIONS + 1)
    live = np.flatnonzero(hi - lo >= width)
    while live.size:
        a, b = lo[live], hi[live]
        t = a[:, None] + (b - a)[:, None] * frac
        t[:, -1] = b
        f = np.asarray(sigma.evaluate({"t": t}), dtype=float) - t
        past = (f < 0) != lo_negative[live, None]
        # lo lies before the sign change and hi past it, whatever an
        # evaluation at them in another array gives within rounding
        past[:, 0], past[:, -1] = False, True
        j = past.argmax(axis=1)
        row = np.arange(live.size)
        lo[live], hi[live] = t[row, j - 1], t[row, j]
        narrowed = hi[live] - lo[live]
        live = live[(narrowed >= width) & (narrowed < b - a)]
    return 0.5 * (lo + hi)


def build_breakpoints(
    tau: Sequence[float],
    roots: Sequence[np.ndarray],
    horizon: float,
    tol: float = MERGE_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge fixed times and moving-time roots into (breakpoints, partition).

    ``breakpoints`` is the sorted, deduplicated union; ``partition`` clips it
    to (0, T) and appends the endpoints 0 and T.  A point within ``tol``
    after a breakpoint merges into it; a fixed time that merges with a root
    becomes the breakpoint, so every fixed time (at least ``tol`` apart, as
    :meth:`ImpulseSchedule.build` checks) is a breakpoint.
    """
    pool = [(float(t), True) for t in tau]
    for r in roots:
        pool.extend((float(x), False) for x in np.atleast_1d(r))
    pool.sort()
    merged: list[float] = []
    pinned = False  # the last breakpoint is a fixed time
    for p, fixed in pool:
        if not merged or p - merged[-1] > tol:
            merged.append(p)
            pinned = fixed
        elif fixed and not pinned:
            merged[-1], pinned = p, True
    interior = [p for p in merged if tol < p < horizon - tol]
    partition = np.asarray([0.0] + interior + [float(horizon)])
    return np.asarray(merged), partition


@dataclass(frozen=True, eq=False)
class ImpulseSchedule:
    """Fixed times, moving-time functions, separation scale, breakpoints.

    Two schedules are equal when their horizons, fixed times, moving-time
    functions and separation scales are; the roots, breakpoints and
    partition are derived from those.
    """

    horizon: float
    tau: np.ndarray
    sigma: tuple[KernelExpr, ...]
    h: float
    roots: tuple[np.ndarray, ...] = field(default=(), repr=False)
    breakpoints: np.ndarray = field(default=None, repr=False)
    partition: np.ndarray = field(default=None, repr=False)

    @classmethod
    def build(
        cls,
        horizon: float,
        tau: Sequence[float] = (),
        sigma: Sequence[KernelExpr] = (),
        h: Optional[float] = None,
        root_grid: int = ROOT_GRID,
        root_tol: float = ROOT_TOL,
    ) -> "ImpulseSchedule":
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        tau_arr = np.asarray([float(t) for t in tau], dtype=float)
        # each fixed time is a breakpoint of its own (build_breakpoints); a
        # NaN lies inside no interval and fails
        if not np.all((tau_arr > MERGE_TOL) & (tau_arr < horizon)):
            raise ValueError(f"fixed impulse times must lie strictly inside ({MERGE_TOL:g}, horizon)")
        if tau_arr.size > 1 and not np.all(np.diff(tau_arr) > MERGE_TOL):
            raise ValueError(f"fixed impulse times must increase by more than {MERGE_TOL:g}")
        sig = tuple(
            parse_kernel(s, ("t",)) if isinstance(s, str) else s for s in sigma
        )
        for s in sig:
            if not isinstance(s, KernelExpr) or s.arity != ("t",):
                raise ValueError("sigma must be an expression in t alone")
            vals = np.asarray(s.evaluate({"t": np.linspace(0, horizon, 1025)}), dtype=float)
            if np.any(vals < -MERGE_TOL) or np.any(vals > horizon + MERGE_TOL):
                raise ValueError("sigma values must stay within [0, horizon]")
        if h is None:
            h = float(horizon)
        if not (h > 0):
            raise ValueError(f"separation scale h must be positive, got {h}")
        roots = tuple(solve_sigma_roots(s, horizon, root_grid, root_tol) for s in sig)
        bps, partition = build_breakpoints(tau_arr, roots, horizon)
        return cls(float(horizon), tau_arr, sig, float(h), roots, bps, partition)

    def __eq__(self, other):
        if not isinstance(other, ImpulseSchedule):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and np.array_equal(self.tau, other.tau)
            and self.sigma == other.sigma
            and self.h == other.h
        )

    def __hash__(self):
        return hash((self.horizon, tuple(self.tau.tolist()), self.sigma, self.h))

    @property
    def n_tau(self) -> int:
        return int(self.tau.size)

    @property
    def n_sigma(self) -> int:
        return len(self.sigma)

    def sigma_values(self, times: np.ndarray) -> np.ndarray:
        """sigma_i at the given times, stacked one row per moving impulse."""
        times = np.asarray(times, dtype=float)
        if not self.sigma:
            return np.zeros((0, times.size))
        return np.vstack(
            [np.broadcast_to(np.asarray(s.evaluate({"t": times}), dtype=float), times.shape)
             for s in self.sigma]
        )


@dataclass(frozen=True)
class SeparationReport:
    """Result of the h-separation check; ``clause`` names the first failure."""

    ok: bool
    clause: Optional[str] = None
    indices: Optional[tuple] = None
    time: Optional[float] = None
    detail: str = ""


def check_separation(schedule: ImpulseSchedule, grid: int = 1024) -> SeparationReport:
    """Grid check of the h-separation rules behind the contraction bounds.

    Clauses, in the order tested:

    1. ``tau-gap``: consecutive fixed times differ by at least h.
    2. ``sigma-gap``: sigma_{j}(t) - sigma_{j-1}(t) >= h on the grid.
    3. ``tau-sigma-gap``: whenever sigma_j(s) < tau_i, the gap is >= h.
    4. ``sigma-cross-gap``: whenever s <= sigma_j(t) on a grid pair (t, s),
       sigma_{j+1}(t) - sigma_j(s) >= h (used by the mixed-row bound).
    """
    h = schedule.h
    tau = schedule.tau
    for i in range(1, tau.size):
        gap = tau[i] - tau[i - 1]
        if gap < h - 1e-14:
            return SeparationReport(
                False, "tau-gap", (i, i + 1), float(tau[i]),
                f"tau_{i + 1} - tau_{i} = {gap:.6g} < h = {h:.6g}",
            )

    ts = np.linspace(0.0, schedule.horizon, grid + 1)
    if schedule.n_sigma:
        sig = schedule.sigma_values(ts)
        for j in range(1, sig.shape[0]):
            gaps = sig[j] - sig[j - 1]
            k = int(np.argmin(gaps))
            if gaps[k] < h - 1e-14:
                return SeparationReport(
                    False, "sigma-gap", (j, j + 1), float(ts[k]),
                    f"sigma_{j + 1} - sigma_{j} = {gaps[k]:.6g} < h at t = {ts[k]:.6g}",
                )
        for i, t_i in enumerate(tau):
            for j in range(sig.shape[0]):
                below = sig[j] < t_i
                if np.any(below):
                    gaps = t_i - sig[j][below]
                    k = int(np.argmin(gaps))
                    if gaps[k] < h - 1e-14:
                        where = ts[below][k]
                        return SeparationReport(
                            False, "tau-sigma-gap", (i + 1, j + 1), float(where),
                            f"tau_{i + 1} - sigma_{j + 1}(s) = {gaps[k]:.6g} < h at s = {where:.6g}",
                        )
        for j in range(sig.shape[0] - 1):
            # pairs (t, s) with s <= sigma_j(t): compare sigma_{j+1}(t) with sigma_j(s)
            lim = sig[j][:, None]  # sigma_j(t)
            admissible = ts[None, :] <= lim
            gaps = sig[j + 1][:, None] - sig[j][None, :]
            bad = admissible & (gaps < h - 1e-14)
            if np.any(bad):
                ti, si = np.argwhere(bad)[0]
                return SeparationReport(
                    False, "sigma-cross-gap", (j + 1, j + 2), float(ts[ti]),
                    f"sigma_{j + 2}(t) - sigma_{j + 1}(s) < h at t = {ts[ti]:.6g}, s = {ts[si]:.6g}",
                )
    return SeparationReport(True)
