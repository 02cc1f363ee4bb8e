"""The three-component solution operator for hybrid integral equations.

The state is a triple: a continuous part xi on the sample grid, one value
eta_i per fixed impulse time tau_i, and one trace beta_p per moving time
sigma_p (beta_p(t) plays the role of x(sigma_p(t))).  One application of
the operator evaluates, at a batch of times t with membership times m,

    x0(t)
    + integral_0^t f1(t, s, xi(s)) ds
    + integral_0^t integral_0^s f2(t, s, s1, xi(s), xi(s1)) ds1 ds
    + sum_{tau_i < m} G1(t, tau_i, eta_i)
    + sum_{tau_i < m} sum_{j < i} G2(t, tau_i, tau_j, eta_i, eta_j)
    + integral_0^t sum_{sigma_i(s) < m} sum_{tau_j < m}
          g(t, s, sigma_i(s), tau_j, xi(s), beta_i(s), eta_j) ds
    + sum_{sigma_i(t) < m} sum_{tau_j < m} G3(t, sigma_i(t), tau_j, beta_i(t), eta_j)

All membership tests are strict.  The membership time m is t nudged one
tick left or right: the continuous component uses the right limit at the
first node of every segment and the left limit everywhere else (so the two
stored values at a duplicated breakpoint node are the one-sided limits, and
the value *at* a breakpoint is the left one); the discrete component
evaluates at tau_l with m = tau_l - eps, which is exactly the left limit
there; the mixed component for impulse p evaluates at sigma_p(t) with the
left-limit membership.  Jumps are therefore never special-cased: they fall
out of re-evaluating the same formula with memberships taken one tick
earlier or later (:func:`jump_at`).

Quadrature nodes coincide with grid nodes, so xi and beta_i enter the
integrands by their stored node values; only x0, sigma_i and the t argument
see off-node times.  Every integral is a weighted row sum under the
trapezoid weight rows of the evaluation times.  The inner f2 integrals and
the g node rows do not depend on t unless the kernel references it, so
:func:`apply_operator` builds them once per triple (one N x N f2 pass) and
the three components share them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import KernelExpr, parse_kernel, zero_kernel
from .piecewise import (
    Grid,
    PiecewiseFn,
    norm_continuous,
    norm_discrete,
    norm_mixed,
)
from .quadrature import apply_weights, weight_rows
from .schedule import MERGE_TOL, ImpulseSchedule
from .contraction import LipschitzSet

EPS = MERGE_TOL

ARITIES: dict[str, tuple[str, ...]] = {
    "x0": ("t",),
    "f1": ("t", "s", "x"),
    "f2": ("t", "s", "s1", "x", "x1"),
    "G1": ("t", "tau", "eta"),
    "G2": ("t", "taui", "tauj", "etai", "etaj"),
    "G3": ("t", "sig", "tau", "beta", "eta"),
    "g": ("t", "s", "sig", "tau", "x", "beta", "eta"),
}


def _coerce(name: str, value) -> KernelExpr:
    arity = ARITIES[name]
    if value is None:
        return zero_kernel(arity)
    if isinstance(value, str):
        return parse_kernel(value, arity)
    if isinstance(value, KernelExpr):
        if value.arity != arity:
            raise ValueError(
                f"kernel {name} must have arguments {arity}, got {value.arity}"
            )
        return value
    raise TypeError(f"kernel {name} must be a string or KernelExpr")


@dataclass(frozen=True)
class HybridProblem:
    """A full problem instance: kernels, impulse schedule, sample grid."""

    x0: KernelExpr
    f1: KernelExpr
    f2: KernelExpr
    G1: KernelExpr
    G2: KernelExpr
    G3: KernelExpr
    g: KernelExpr
    schedule: ImpulseSchedule
    grid: Grid
    lipschitz: LipschitzSet | None = None

    def __post_init__(self):
        for name in ARITIES:
            k = getattr(self, name)
            if not isinstance(k, KernelExpr) or k.arity != ARITIES[name]:
                raise ValueError(f"kernel {name} must have arguments {ARITIES[name]}")
        if not np.array_equal(self.grid.partition, self.schedule.partition):
            raise ValueError("grid partition must match the schedule partition")
        object.__setattr__(self, "tau", np.asarray(self.schedule.tau, dtype=float))
        object.__setattr__(
            self, "sigma_grid", self.schedule.sigma_values(self.grid.times)
        )

    @classmethod
    def build(
        cls,
        *,
        schedule: ImpulseSchedule,
        panels: int = 256,
        x0="0",
        f1=None,
        f2=None,
        G1=None,
        G2=None,
        G3=None,
        g=None,
        lipschitz: LipschitzSet | None = None,
    ) -> "HybridProblem":
        """Assemble a problem; kernels may be source strings, absent = zero."""
        grid = Grid(schedule.partition, panels)
        return cls(
            x0=_coerce("x0", x0),
            f1=_coerce("f1", f1),
            f2=_coerce("f2", f2),
            G1=_coerce("G1", G1),
            G2=_coerce("G2", G2),
            G3=_coerce("G3", G3),
            g=_coerce("g", g),
            schedule=schedule,
            grid=grid,
            lipschitz=lipschitz,
        )

    @property
    def n_tau(self) -> int:
        return self.schedule.n_tau

    @property
    def n_sigma(self) -> int:
        return self.schedule.n_sigma


@dataclass(frozen=True)
class SolutionTriple:
    """(continuous part, fixed-impulse values, moving-impulse traces)."""

    xi: PiecewiseFn
    eta: np.ndarray
    beta: tuple[PiecewiseFn, ...]

    def __post_init__(self):
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        object.__setattr__(self, "beta", tuple(self.beta))
        for b in self.beta:
            if b.grid is not self.xi.grid and not np.array_equal(
                b.grid.times, self.xi.grid.times
            ):
                raise ValueError("beta traces must live on the same grid as xi")

    def beta_rows(self) -> np.ndarray:
        g = self.xi.grid
        if not self.beta:
            return np.zeros((0, g.size))
        return np.vstack([b.values for b in self.beta])


def default_init(problem: HybridProblem) -> SolutionTriple:
    """Zeroth iterate: the forcing term in every component."""
    g = problem.grid
    xi = PiecewiseFn.from_expression(g, problem.x0)
    eta = (
        problem.x0.evaluate({"t": problem.tau})
        if problem.n_tau
        else np.zeros(0)
    )
    eta = np.broadcast_to(np.asarray(eta, dtype=float), (problem.n_tau,)).copy()
    beta = []
    for p in range(problem.n_sigma):
        vals = problem.x0.evaluate({"t": problem.sigma_grid[p]})
        vals = np.broadcast_to(np.asarray(vals, dtype=float), g.times.shape).copy()
        beta.append(PiecewiseFn(g, vals))
    return SolutionTriple(xi, np.asarray(eta, dtype=float), tuple(beta))


# ---------------------------------------------------------------------------
# Core evaluation


@dataclass(frozen=True)
class _MemoryRows:
    """Node rows of the memory terms that do not depend on the evaluation time.

    ``f2_inner[k]`` is the inner integral over s1 in [0, s_k] of f2 at the
    node s = s_k when f2 does not reference t; ``g_rows[i][j]`` is g at the
    nodes for the pair (sigma_i, tau_j) when g does not reference t.  Either
    is None when its term is absent or references t.  One triple's rows
    serve every evaluation of it, whatever the evaluation and membership
    times.
    """

    f2_inner: np.ndarray | None
    g_rows: list | None


def _g_active(problem: HybridProblem) -> bool:
    return bool(problem.n_sigma and problem.tau.size and not problem.g.is_zero)


def _f2_inner(
    problem: HybridProblem, xi: np.ndarray, t, node_weights: np.ndarray
) -> np.ndarray:
    """Inner triangle integrals of f2 at time ``t``, one per node s."""
    times = problem.grid.times
    F = problem.f2.evaluate(
        {
            "t": t,
            "s": times[:, None],
            "s1": times[None, :],
            "x": xi[:, None],
            "x1": xi[None, :],
        }
    )
    return apply_weights(node_weights, np.broadcast_to(F, (times.size, times.size)))


def _g_rows(problem: HybridProblem, triple: SolutionTriple, t) -> list:
    """g at the nodes for every (sigma_i, tau_j) pair, with ``t`` bound."""
    times = problem.grid.times
    beta_rows = triple.beta_rows()
    return [
        [
            problem.g.evaluate(
                {
                    "t": t,
                    "s": times[None, :],
                    "sig": problem.sigma_grid[i][None, :],
                    "tau": tau_j,
                    "x": triple.xi.values[None, :],
                    "beta": beta_rows[i][None, :],
                    "eta": eta_j,
                }
            )
            for tau_j, eta_j in zip(problem.tau, triple.eta)
        ]
        for i in range(problem.n_sigma)
    ]


def _memory_rows(
    problem: HybridProblem,
    triple: SolutionTriple,
    same_xi: _MemoryRows | None = None,
) -> _MemoryRows:
    """The t-independent f2 and g node rows of ``triple``.

    The f2 rows cost one N x N kernel pass; ``same_xi``, rows of a triple
    with the same continuous part, lends its f2 rows instead.
    """
    f2_inner = None if same_xi is None else same_xi.f2_inner
    if f2_inner is None and not problem.f2.is_zero and not problem.f2.references("t"):
        grid = problem.grid
        f2_inner = _f2_inner(
            problem, triple.xi.values, 0.0, weight_rows(grid, grid.times)
        )
    g_rows = None
    if _g_active(problem) and not problem.g.references("t"):
        g_rows = _g_rows(problem, triple, 0.0)
    return _MemoryRows(f2_inner, g_rows)


def _sc_eval(
    problem: HybridProblem,
    triple: SolutionTriple,
    eval_times: np.ndarray,
    memb_times: np.ndarray,
    sigma_at_eval: np.ndarray | None = None,
    beta_at_eval: np.ndarray | None = None,
    memory: _MemoryRows | None = None,
) -> np.ndarray:
    """The operator formula at ``eval_times`` with memberships ``memb_times``.

    ``sigma_at_eval`` / ``beta_at_eval`` carry sigma_i and beta_i already
    evaluated at the evaluation times (shape (n_sigma, E)); they exist so
    node-aligned callers can supply the stored one-sided values instead of
    interpolating.  When omitted they are computed here, with beta read by
    its left-limit convention.  ``memory`` is :func:`_memory_rows` of
    ``triple``, computed here when omitted.

    Every integral is a weighted row reduction under the weight rows of the
    evaluation times, built once per call.
    """
    grid = problem.grid
    te = np.asarray(eval_times, dtype=float)
    m = np.asarray(memb_times, dtype=float)
    E = te.size
    times = grid.times
    xi = triple.xi.values
    eta = triple.eta
    tau = problem.tau
    n_sigma = problem.n_sigma
    g_active = _g_active(problem)
    if memory is None:
        memory = _memory_rows(problem, triple)

    if n_sigma and sigma_at_eval is None:
        sigma_at_eval = np.vstack(
            [
                np.broadcast_to(
                    np.asarray(s.evaluate({"t": te}), dtype=float), te.shape
                )
                for s in problem.schedule.sigma
            ]
        )
    if n_sigma and beta_at_eval is None:
        beta_at_eval = np.vstack([b.eval(te) for b in triple.beta])

    out = np.broadcast_to(
        np.asarray(problem.x0.evaluate({"t": te}), dtype=float), te.shape
    ).astype(float, copy=True)

    has_integrals = not problem.f1.is_zero or not problem.f2.is_zero or g_active
    W = weight_rows(grid, te) if has_integrals else None

    if not problem.f1.is_zero:
        w = problem.f1.evaluate({"t": te[:, None], "s": times[None, :], "x": xi[None, :]})
        out += apply_weights(W, w)

    if not problem.f2.is_zero:
        # outer integrand: the inner integral up to s, one shared row unless
        # the kernel references t, then one row per evaluation time
        inner = memory.f2_inner
        if inner is None:
            node_weights = W if np.array_equal(te, times) else weight_rows(grid, times)
            inner = np.empty((E, times.size))
            for r, t in enumerate(te):
                inner[r] = _f2_inner(problem, xi, t, node_weights)
        out += apply_weights(W, inner)

    if tau.size and not problem.G1.is_zero:
        vals = problem.G1.evaluate(
            {"t": te[:, None], "tau": tau[None, :], "eta": eta[None, :]}
        )
        vals = np.broadcast_to(vals, (E, tau.size))
        mask = tau[None, :] < m[:, None]
        out += np.sum(vals * mask, axis=1)

    if tau.size >= 2 and not problem.G2.is_zero:
        ii, jj = np.tril_indices(tau.size, k=-1)
        vals = problem.G2.evaluate(
            {
                "t": te[:, None],
                "taui": tau[ii][None, :],
                "tauj": tau[jj][None, :],
                "etai": eta[ii][None, :],
                "etaj": eta[jj][None, :],
            }
        )
        vals = np.broadcast_to(vals, (E, ii.size))
        mask = tau[ii][None, :] < m[:, None]
        out += np.sum(vals * mask, axis=1)

    if g_active:
        rows = memory.g_rows
        if rows is None:
            rows = _g_rows(problem, triple, te[:, None])
        for i in range(n_sigma):
            # weights of the nodes s with sigma_i(s) inside the membership
            masked = np.where(problem.sigma_grid[i][None, :] < m[:, None], W, 0.0)
            for j in range(tau.size):
                out += apply_weights(masked, rows[i][j]) * (tau[j] < m)

    if n_sigma and tau.size and not problem.G3.is_zero:
        for i in range(n_sigma):
            vals = problem.G3.evaluate(
                {
                    "t": te,
                    "sig": sigma_at_eval[i],
                    "tau": tau[:, None],
                    "beta": beta_at_eval[i],
                    "eta": eta[:, None],
                }
            )
            vals = np.broadcast_to(vals, (tau.size, E))
            mask = (sigma_at_eval[i][None, :] < m[None, :]) & (
                tau[:, None] < m[None, :]
            )
            out += np.sum(vals * mask, axis=0)

    return out


def _node_membership_times(grid: Grid) -> np.ndarray:
    """t - eps everywhere except the first node of each segment (t + eps)."""
    m = grid.times - EPS
    w = grid.panels + 1
    first = np.arange(grid.num_segments) * w
    m[first] = grid.times[first] + EPS
    return m


def apply_continuous(
    problem: HybridProblem, triple: SolutionTriple, memory: _MemoryRows | None = None
) -> PiecewiseFn:
    """New continuous part, one-sided values at duplicated breakpoint nodes."""
    grid = problem.grid
    vals = _sc_eval(
        problem,
        triple,
        grid.times,
        _node_membership_times(grid),
        sigma_at_eval=problem.sigma_grid if problem.n_sigma else None,
        beta_at_eval=triple.beta_rows() if problem.n_sigma else None,
        memory=memory,
    )
    return PiecewiseFn(grid, vals)


def apply_discrete(
    problem: HybridProblem, triple: SolutionTriple, memory: _MemoryRows | None = None
) -> np.ndarray:
    """New fixed-impulse values: the formula at tau_l with left memberships."""
    if not problem.n_tau:
        return np.zeros(0)
    return _sc_eval(problem, triple, problem.tau, problem.tau - EPS, memory=memory)


def apply_mixed(
    problem: HybridProblem, triple: SolutionTriple, memory: _MemoryRows | None = None
) -> tuple[PiecewiseFn, ...]:
    """New moving traces: component p is the formula at sigma_p(t)."""
    if not problem.n_sigma:
        return ()
    if memory is None:
        memory = _memory_rows(problem, triple)
    out = []
    for u in problem.sigma_grid:
        vals = _sc_eval(problem, triple, u, u - EPS, memory=memory)
        out.append(PiecewiseFn(problem.grid, vals))
    return tuple(out)


def apply_operator(problem: HybridProblem, triple: SolutionTriple) -> SolutionTriple:
    """One full sweep of all three components (simultaneous update).

    The t-independent memory rows of ``triple`` are built once and shared by
    the three components.
    """
    memory = _memory_rows(problem, triple)
    return SolutionTriple(
        apply_continuous(problem, triple, memory),
        apply_discrete(problem, triple, memory),
        apply_mixed(problem, triple, memory),
    )


def jump_at(problem: HybridProblem, triple: SolutionTriple, alpha: float) -> float:
    """Predicted jump of the continuous part at breakpoint ``alpha``.

    Computed as the difference of the operator formula at alpha with
    memberships one tick right and one tick left; no displayed jump formula
    is involved, so it stays valid when the running integral itself jumps
    (for instance under a constant moving-time function).
    """
    bps = problem.schedule.breakpoints
    if not any(abs(alpha - b) <= MERGE_TOL for b in np.atleast_1d(bps)):
        raise ValueError(f"{alpha} is not a breakpoint of this problem")
    t = np.array([float(alpha)])
    memory = _memory_rows(problem, triple)
    right = _sc_eval(problem, triple, t, t + EPS, memory=memory)
    left = _sc_eval(problem, triple, t, t - EPS, memory=memory)
    return float(right[0] - left[0])


# ---------------------------------------------------------------------------
# Distances


def component_deltas(
    new: SolutionTriple,
    old: SolutionTriple,
    problem: HybridProblem,
    mu: float,
) -> tuple[float, float, float]:
    """Weighted distances between two triples, one per component."""
    d_xi = norm_continuous(new.xi - old.xi, mu)
    d_eta = norm_discrete(new.eta - old.eta, problem.tau, mu)
    diffs = [PiecewiseFn(problem.grid, nb.values - ob.values)
             for nb, ob in zip(new.beta, old.beta)]
    d_beta = norm_mixed(diffs, problem.sigma_grid, mu) if diffs else 0.0
    return d_xi, d_eta, d_beta


def residual(problem: HybridProblem, triple: SolutionTriple) -> float:
    """Unweighted sup distance between the triple and its image."""
    image = apply_operator(problem, triple)
    return max(component_deltas(image, triple, problem, mu=0.0))
