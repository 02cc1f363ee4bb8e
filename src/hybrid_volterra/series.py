"""Multilinear series equations over the cube [0, t]^n.

Solves
    y(t) = y0(t) + sum_{n=1}^{N} (1/n!) integral_{[0,t]^n}
               f_n(t, s1..sn, y(s1)..y(sn)) ds1..dsn,

the symmetric-kernel normal form in which each order-n term integrates
over the full cube and carries a 1/n! factor.  For a symmetric kernel this
equals the nested (simplex) form without the factor;
:func:`nested_equals_cube` demonstrates the identity numerically, and
asymmetric kernels can be brought to this form with
:func:`~hybrid_volterra.expressions.symmetrize_second_order`.

Successive approximation contracts in the weighted sup norm once
    ((1 - e^{-mu T}) / mu) * sum_{m=0}^{N-1} (T^m / m!) L_{m+1} < 1,
where L_n is a Lipschitz constant of f_n in each state slot
(:func:`series_contraction_coefficient`).

When the problem is built, each order-n kernel is split over the groups
(t), (s1, x1), ..., (sn, xn) into a sum of terms c_r(t) * prod_i
b_{r,i}(s_i, x_i) (:func:`~.expressions.time_split`, the degenerate-kernel
reduction).  The cube integral of such a term is c_r(t) times the product
of the cumulative integrals of its factors, so a sweep costs O(n N) in the
number N of grid nodes, whether or not the kernel references t.  A t-free
kernel that does not split costs a size-N^n array per sweep
(:func:`~.quadrature.cube_diagonal`), and one that references t and does
not split one such array per node, N^(n+1); orders above three are
refused for such kernels unless explicitly allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .expressions import KernelExpr, parse_kernel, quiet, time_split, zero_kernel
from .piecewise import Grid, PiecewiseFn, norm_continuous, uniform_grid
from .quadrature import cube_diagonal, integrate_to, node_cumulative
from .solvers import _NUMERICAL_FAILURES, SolveReport, _finish, _iterate, _stop

# the highest order whose kernel may build a size-N^n array unasked
MAX_ORDER = 3


def series_arity(n: int) -> tuple[str, ...]:
    """Argument names of the order-n kernel: t, s1..sn, x1..xn."""
    return ("t",) + tuple(f"s{i}" for i in range(1, n + 1)) + tuple(
        f"x{i}" for i in range(1, n + 1)
    )


def series_groups(n: int) -> tuple[tuple[str, str], ...]:
    """The state slots of the order-n kernel: (s1, x1), ..., (sn, xn)."""
    return tuple((f"s{i}", f"x{i}") for i in range(1, n + 1))


@dataclass(frozen=True)
class SeriesProblem:
    """Forcing term, one kernel per order, and the sample grid.

    Derived once, when the problem is built: ``kernel_terms``, per order n
    the kernel split into time factors c(t) times one factor per state
    slot, over :func:`series_groups` (:func:`~.expressions.time_split`;
    None when it does not split).
    """

    y0: KernelExpr
    kernels: tuple[KernelExpr, ...]
    grid: Grid
    lipschitz: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.y0.arity != ("t",):
            raise ValueError("y0 must be an expression in t alone")
        for n, k in enumerate(self.kernels, start=1):
            if k.arity != series_arity(n):
                raise ValueError(
                    f"order-{n} kernel must have arguments {series_arity(n)}"
                )
        if self.lipschitz is not None:
            if len(self.lipschitz) != len(self.kernels):
                raise ValueError("need one Lipschitz constant per kernel order")
            if any(not (L >= 0) for L in self.lipschitz):
                raise ValueError("Lipschitz constants must be nonnegative")
        object.__setattr__(
            self,
            "kernel_terms",
            tuple(
                time_split(k, series_groups(n))
                for n, k in enumerate(self.kernels, start=1)
            ),
        )

    @classmethod
    def build(
        cls,
        *,
        horizon: float,
        y0="0",
        kernels=(),
        panels: int = 256,
        lipschitz=None,
        allow_high_order: bool = False,
    ) -> "SeriesProblem":
        """Assemble from kernel sources; order = position in ``kernels``.

        An order above :data:`MAX_ORDER` whose kernel does not split is
        refused unless ``allow_high_order`` is set.
        """
        ks = []
        for n, src in enumerate(kernels, start=1):
            arity = series_arity(n)
            if src is None:
                ks.append(zero_kernel(arity))
            elif isinstance(src, str):
                ks.append(parse_kernel(src, arity))
            else:
                ks.append(src)
        grid = uniform_grid(float(horizon), panels)
        y0k = parse_kernel(y0, ("t",)) if isinstance(y0, str) else y0
        lip = None if lipschitz is None else tuple(float(L) for L in lipschitz)
        problem = cls(y0k, tuple(ks), grid, lip)
        # only a kernel that does not split builds a size-N^n array
        unsplit = [
            n for n, terms in enumerate(problem.kernel_terms, start=1)
            if terms is None and n > MAX_ORDER
        ]
        if unsplit and not allow_high_order:
            n = unsplit[-1]
            raise ValueError(
                f"order {n} builds arrays of size nodes^{n}; "
                "pass allow_high_order=True to proceed anyway"
            )
        return problem

    @property
    def order(self) -> int:
        return len(self.kernels)

    @property
    def horizon(self) -> float:
        return self.grid.horizon


def _cube_bindings(times: np.ndarray, values: np.ndarray, n: int) -> dict:
    """s_i / x_i broadcast along axis i-1 of an n-dimensional cube."""
    out = {}
    for i in range(1, n + 1):
        shape = [1] * n
        shape[i - 1] = times.size
        out[f"s{i}"] = times.reshape(shape)
        out[f"x{i}"] = values.reshape(shape)
    return out


def apply_series_operator(problem: SeriesProblem, y: PiecewiseFn) -> PiecewiseFn:
    """One sweep: forcing term plus all cube integrals of the current y.

    A kernel that splits adds, per term, c(t) times the product of the
    cumulative integrals of its slot factors: O(n N), and one cumulative
    pass for every such kernel at once.  One that does not takes the
    size-N^n cube, once, or once per node when it references t.
    """
    grid = problem.grid
    times = grid.times
    out = np.broadcast_to(
        np.asarray(problem.y0.evaluate({"t": times}), dtype=float), times.shape
    ).astype(float, copy=True)
    split = _split_cube(grid, problem.kernel_terms, y.values)
    for n, (kernel, terms) in enumerate(
        zip(problem.kernels, problem.kernel_terms), start=1
    ):
        weight = 1.0 / math.factorial(n)
        if terms is not None:
            out += weight * split[n - 1]
            continue
        bindings = _cube_bindings(times, y.values, n)
        full = (times.size,) * n
        if not kernel.references("t"):
            F = np.broadcast_to(kernel.evaluate(bindings), full)
            out += weight * cube_diagonal(grid, F, n)
        else:
            for r in range(times.size):
                F = np.broadcast_to(
                    kernel.evaluate({"t": times[r], **bindings}), full
                )
                out[r] += weight * cube_diagonal(grid, F, n)[r]
    return PiecewiseFn(grid, out)


@quiet
def _split_cube(grid: Grid, kernel_terms, values: np.ndarray) -> list:
    """Cube integral at every node of each order's kernel that splits.

    ``kernel_terms`` holds, per order, the kernel's terms, or None when it
    does not split and its entry of the result is None.  Each term
    ``(c, b_1, ..., b_n)`` integrates over [0, t]^n to c(t) times the
    product over i of the cumulative integral of b_i(s_i, y(s_i)), and
    every slot factor of every order takes one
    :func:`~.quadrature.node_cumulative` of their stacked rows.  Non-finite
    node values give non-finite integrals and raise no floating-point
    warning.
    """
    times = grid.times
    # every factor references one group, so one binding serves them all
    nodes = {"t": times}
    for i in range(1, len(kernel_terms) + 1):
        nodes[f"s{i}"] = times
        nodes[f"x{i}"] = values
    slots = [b for terms in kernel_terms for _, *bs in terms or () for b in bs]
    table = np.empty((len(slots), times.size))
    for row, b in zip(table, slots):
        row[:] = b.evaluate(nodes)
    cumulative = iter(node_cumulative(grid, table) if slots else ())
    totals = []
    for terms in kernel_terms:
        totals.append(None if terms is None else np.zeros(times.shape))
        for c, *bs in terms or ():
            term = 1.0 if c is None else c.evaluate(nodes)
            for _ in bs:
                term = term * next(cumulative)
            totals[-1] += term
    return totals


def series_contraction_coefficient(
    lipschitz, horizon: float, mu: float
) -> float:
    """((1-e^{-mu T})/mu) * sum_m (T^m/m!) L_{m+1} - contraction when < 1."""
    if not (mu > 0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    T = float(horizon)
    total = sum(
        (T ** m / math.factorial(m)) * float(L)
        for m, L in enumerate(lipschitz)
    )
    return -math.expm1(-mu * T) / mu * total


def _default_series_mu(problem: SeriesProblem) -> float:
    if problem.lipschitz is None:
        return 1.0
    mu = 1.0
    for _ in range(64):
        if series_contraction_coefficient(problem.lipschitz, problem.horizon, mu) <= 0.5:
            return mu
        mu *= 2.0
    return mu


def series_solve(
    problem: SeriesProblem,
    mu: float | None = None,
    tol: float = 1e-10,
    kmax: int = 200,
) -> tuple[PiecewiseFn | None, SolveReport]:
    """Successive approximation from the forcing term.

    A kernel domain error or a non-finite update stops it as it stops
    :func:`~hybrid_volterra.solvers.picard_solve`, in a sweep or in the
    image of the last iterate that gives the final residual: the last
    finite iterate is returned with ``failed`` set and the residual NaN, or
    None when the forcing term itself fails to evaluate.
    """
    if mu is None:
        mu = _default_series_mu(problem)
    report = SolveReport("series", 0, float(mu), False)
    try:
        cur = PiecewiseFn.from_expression(problem.grid, problem.y0)
    except _NUMERICAL_FAILURES as exc:
        _stop(report, exc, "the forcing term y0")
        return None, report

    def sweep(cur: PiecewiseFn):
        new = apply_series_operator(problem, cur)
        return new, (norm_continuous(new - cur, mu), 0.0, 0.0)

    cur, report.converged = _iterate(report, cur, sweep, tol, kmax)
    if not report.failed:
        _finish(partial(_image, problem), cur, report)
    return cur, report


def _image(problem: SeriesProblem, cur: PiecewiseFn) -> tuple[PiecewiseFn, float]:
    """The image of ``cur`` and its sup distance from ``cur``."""
    image = apply_series_operator(problem, cur)
    return image, float(np.max(np.abs(image.values - cur.values)))


def nested_equals_cube(
    kernel, x: PiecewiseFn, upper: float | None = None
) -> tuple[float, float]:
    """(cube integral / 2!, nested integral) of a symmetric order-2 kernel.

    ``kernel`` is an expression in (t, s1, s2, x1, x2); the state slots are
    filled from ``x`` and both integrals run over [0, upper] (default: the
    grid horizon), the first over the square and the second over the
    triangle s1 <= s2.  The returns agree up to quadrature error precisely
    because the kernel is symmetric under the simultaneous swap
    (s1, x1) <-> (s2, x2); asymmetric input is rejected, since the
    identity is false for it.
    """
    if isinstance(kernel, str):
        kernel = parse_kernel(kernel, series_arity(2))
    if kernel.arity != series_arity(2):
        raise ValueError(f"kernel must have arguments {series_arity(2)}")
    grid = x.grid
    t = grid.horizon if upper is None else float(upper)
    if not 0.0 <= t <= grid.horizon + 1e-12:
        raise ValueError("upper limit must lie within the grid of x")
    times = grid.times
    xv = x.values
    binds = {
        "t": t,
        "s1": times[:, None],
        "s2": times[None, :],
        "x1": xv[:, None],
        "x2": xv[None, :],
    }
    F = np.broadcast_to(
        np.asarray(kernel.evaluate(binds), float), (times.size, times.size)
    ).copy()
    scale = max(1.0, float(np.max(np.abs(F))))
    if np.max(np.abs(F - F.T)) > 1e-9 * scale:
        raise ValueError("kernel is not symmetric under (s1, x1) <-> (s2, x2)")
    inner_rows = integrate_to(grid, F, np.full(times.size, t))
    cube = float(integrate_to(grid, inner_rows, t)[0])
    triangle = integrate_to(grid, F.T, times)
    nested = float(integrate_to(grid, triangle, t)[0])
    return cube / 2.0, nested
