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
see off-node times.  When the problem is built, each of f1, f2 and g is
split into a sum of time factors c_r(t) times factors free of t
(:func:`~.expressions.factor`; a t-free kernel is its own single term), so
its integral to t is sum_r c_r(t) times the integral of a node row shared
by every evaluation time: prefix sums, O(1) per time once built.  The g
rows are cut where sigma_i reaches the membership time, a prefix of the
nodes when sigma_i is nondecreasing on the grid (checked once per problem)
and a dense mask otherwise.  A kernel that references t and does not split
gives one row per time and takes O(E N) weight rows.

One thing is precomputed per continuous part xi: :func:`_memory`, the f1
rows a_r(s, xi(s)) and the f2 rows of inner integrals, with their prefix
sums.  When f2 splits into a sum of products c_r(t) a_r(s, x) b_r(s1, x1)
its row is a_r(s) * cumulative integral of b_r(s1), O(N) per term; a t-free
f2 that does not split costs one N x N kernel pass.  Every evaluation of
that part takes the memory as an argument.  A sweep is therefore O(N) when
every memory kernel splits, O(N^2) for a t-free f2 that does not, O(E N)
for an f1 or g that references t and does not, and O(N^3) only for such
an f2.  Picard, the segment march and :func:`jump_at` reach the formula
through the same two membership helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import KernelExpr, parse_kernel, time_split, zero_kernel
from .piecewise import (
    Grid,
    PiecewiseFn,
    norm_continuous,
    norm_discrete,
    norm_mixed,
)
from .quadrature import (
    apply_weights,
    integrate_to,
    node_cumulative,
    read_prefix,
    row_prefix,
    weight_rows,
)
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

# the variables, besides t, of each memory kernel's integrand: f2's outer
# and inner integral are separate groups
F1_GROUPS = (("s", "x"),)
F2_GROUPS = (("s", "x"), ("s1", "x1"))
G_GROUPS = (("s", "sig", "tau", "x", "beta", "eta"),)


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
    """A full problem instance: kernels, impulse schedule, sample grid.

    Derived once, when the problem is built: ``tau``; ``sigma_grid``, each
    moving time at the grid nodes; ``sigma_nondecreasing``, per moving time
    whether those values never decrease; ``f1_terms``, ``f2_terms`` and
    ``g_terms``, each memory kernel split into time factors c(t) times
    factors over :data:`F1_GROUPS`, :data:`F2_GROUPS` or :data:`G_GROUPS`
    (:func:`~.expressions.time_split`; None when it does not split).

    The split sets the cost of a sweep in N, the number of grid nodes: O(N)
    when every memory kernel splits; O(N^2) for an f2 that does not
    reference t and does not split (one N x N kernel pass); O(E N) for E
    evaluation times when f1 or g references t and does not split; O(N^3)
    only for an f2 that references t and does not split.
    """

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
        sigma_grid = self.schedule.sigma_values(self.grid.times)
        object.__setattr__(self, "sigma_grid", sigma_grid)
        # per moving impulse: sigma_i(s) < m holds on a prefix of the nodes
        object.__setattr__(
            self, "sigma_nondecreasing", np.all(np.diff(sigma_grid, axis=1) >= 0, axis=1)
        )
        object.__setattr__(self, "f1_terms", time_split(self.f1, F1_GROUPS))
        object.__setattr__(self, "f2_terms", time_split(self.f2, F2_GROUPS))
        object.__setattr__(self, "g_terms", time_split(self.g, G_GROUPS))

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
            if b.grid != self.xi.grid:
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


def _memory(problem: HybridProblem, xi: np.ndarray) -> list[tuple]:
    """The f1 and f2 integrands of the continuous part ``xi`` as node rows.

    One ``(c, row, prefix)`` per time factor c of ``problem.f1_terms`` and
    ``problem.f2_terms`` (the t-free terms of a kernel summed into one row
    with c None): the f1 integral to time t is c(t) times the integral of
    ``row`` to t, and so is the f2 double integral, whose row holds the
    inner integrals a_r(s) * (integral of b_r to s).  ``prefix`` is the
    row's :func:`~.quadrature.row_prefix`, so every evaluation time costs
    O(1) per entry.  A t-free f2 that does not split gives its row of inner
    integrals by one N x N kernel pass.  Built once per continuous part and
    passed to every evaluation of it; a kernel that references t and does
    not split is left to :func:`_sc_eval`.
    """
    grid = problem.grid
    times = grid.times
    # each factor references one group, so one binding serves them all
    nodes = {"s": times, "x": xi, "s1": times, "x1": xi}
    rows = []
    for c, a in problem.f1_terms or ():
        rows.append((c, np.broadcast_to(a.evaluate(nodes), times.shape)))
    f2 = problem.f2
    if problem.f2_terms:
        factors = [(c, a.evaluate(nodes), b.evaluate(nodes)) for c, a, b in problem.f2_terms]
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite: caught by the solver
            inner = [
                (c, a * node_cumulative(grid, np.broadcast_to(b, times.shape)))
                for c, a, b in factors
            ]
            if f2.references("t"):
                rows += inner
            else:
                rows.append((None, sum(row for _, row in inner)))
    elif problem.f2_terms is None and not f2.references("t"):
        F = f2.evaluate(
            {"t": 0.0, "s": times[:, None], "s1": times[None, :],
             "x": xi[:, None], "x1": xi[None, :]}
        )
        rows.append((None, apply_weights(weight_rows(grid, times), F)))
    return [(c, row, row_prefix(grid, row)) for c, row in rows]


def _sc_eval(
    problem: HybridProblem,
    triple: SolutionTriple,
    eval_times: np.ndarray,
    memb_times: np.ndarray,
    memory: list[tuple],
    sigma_at_eval: np.ndarray | None = None,
    beta_at_eval: np.ndarray | None = None,
) -> np.ndarray:
    """The operator formula at ``eval_times`` with memberships ``memb_times``.

    ``memory`` is :func:`_memory` of the continuous part of ``triple``.
    ``sigma_at_eval`` / ``beta_at_eval`` carry sigma_i and beta_i already
    evaluated at the evaluation times (shape (n_sigma, E)); they exist so
    node-aligned callers can supply the stored one-sided values instead of
    interpolating.  When omitted they are computed here, with beta read by
    its left-limit convention.

    Shared integrand rows are integrated by prefix sums; the weight rows
    of the evaluation times are built only for a kernel that references t
    and does not split.
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
    g_active = bool(n_sigma and tau.size and not problem.g.is_zero)

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

    for c, row, prefix in memory:
        part = read_prefix(grid, prefix, row, te)
        if c is not None:
            c_at = c.evaluate({"t": te})
            with np.errstate(invalid="ignore", over="ignore"):
                part = c_at * part
        out += part

    if problem.f1_terms is None:
        # f1 references t and does not split: one row per evaluation time
        w = problem.f1.evaluate({"t": te[:, None], "s": times[None, :], "x": xi[None, :]})
        out += integrate_to(grid, w, te)

    if problem.f2_terms is None and problem.f2.references("t"):
        # f2 references t and does not split: one row of inner integrals
        # per evaluation time
        W = weight_rows(grid, te)
        node_weights = W if np.array_equal(te, times) else weight_rows(grid, times)
        inner = np.empty((E, times.size))
        for r, t in enumerate(te):
            F = problem.f2.evaluate(
                {"t": t, "s": times[:, None], "s1": times[None, :],
                 "x": xi[:, None], "x1": xi[None, :]}
            )
            inner[r] = apply_weights(node_weights, F)
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
        # node rows of g's factors for each (sigma_i, tau_j) pair, shared by
        # every evaluation time and scaled by their time factors; one row
        # per evaluation time when g references t and does not split; only
        # the nodes s with sigma_i(s) inside the membership count
        terms = problem.g_terms if problem.g_terms is not None else [(None, problem.g)]
        c_at = [None if c is None else c.evaluate({"t": te}) for c, _ in terms]
        beta_rows = triple.beta_rows()
        for i in range(n_sigma):
            sig = problem.sigma_grid[i]
            keep = gate = None
            if problem.sigma_nondecreasing[i]:
                # the nodes before the first with sigma_i(s) >= m
                keep = np.searchsorted(sig, m)
            else:
                gate = sig[None, :] < m[:, None]
            for tau_j, eta_j in zip(tau, eta):
                nodes = {"t": te[:, None], "s": times, "sig": sig, "tau": tau_j,
                         "x": xi, "beta": beta_rows[i], "eta": eta_j}
                for (_, a), c in zip(terms, c_at):
                    row = a.evaluate(nodes)
                    if gate is not None:
                        row = np.where(gate, row, 0.0)
                    part = integrate_to(grid, row, te, keep)
                    if c is not None:
                        with np.errstate(invalid="ignore", over="ignore"):
                            part = c * part
                    out += part * (tau_j < m)

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


# ---------------------------------------------------------------------------
# Membership conventions


def _continuous_at(
    problem: HybridProblem, triple: SolutionTriple, nodes, memory: list[tuple]
) -> np.ndarray:
    """The continuous component at the grid nodes ``nodes`` (index or slice).

    Memberships are one tick left of each node, except at the first node
    of every segment, one tick right: the two stored values at a duplicated
    breakpoint node are the one-sided limits.  sigma and beta are read at
    their stored node values.
    """
    grid = problem.grid
    memb = grid.times - EPS
    first = np.arange(grid.num_segments) * (grid.panels + 1)
    memb[first] = grid.times[first] + EPS
    node_values = problem.n_sigma > 0
    return _sc_eval(
        problem,
        triple,
        grid.times[nodes],
        memb[nodes],
        memory,
        sigma_at_eval=problem.sigma_grid[:, nodes] if node_values else None,
        beta_at_eval=triple.beta_rows()[:, nodes] if node_values else None,
    )


def _trace_at(
    problem: HybridProblem, triple: SolutionTriple, p: int, nodes, memory
) -> np.ndarray:
    """Moving trace p at the grid nodes ``nodes``: the formula at sigma_p(t).

    Memberships are one tick left of sigma_p(t), the left limit there.
    """
    u = problem.sigma_grid[p][nodes]
    return _sc_eval(problem, triple, u, u - EPS, memory)


def apply_operator(problem: HybridProblem, triple: SolutionTriple) -> SolutionTriple:
    """One full sweep of all three components (simultaneous update).

    The continuous part at every node with one-sided values at duplicated
    breakpoint nodes; each fixed-impulse value as the formula at tau_l with
    left memberships; each moving trace as the formula at sigma_p(t).  The
    three share one memory of the continuous part.
    """
    grid = problem.grid
    memory = _memory(problem, triple.xi.values)
    eta = (
        _sc_eval(problem, triple, problem.tau, problem.tau - EPS, memory)
        if problem.n_tau
        else np.zeros(0)
    )
    return SolutionTriple(
        PiecewiseFn(grid, _continuous_at(problem, triple, slice(None), memory)),
        eta,
        tuple(
            PiecewiseFn(grid, _trace_at(problem, triple, p, slice(None), memory))
            for p in range(problem.n_sigma)
        ),
    )


def jump_at(problem: HybridProblem, triple: SolutionTriple, alpha):
    """Predicted jump of the continuous part at breakpoint ``alpha``.

    Computed as the difference of the operator formula at alpha with
    memberships one tick right and one tick left; no displayed jump formula
    is involved, so it stays valid when the running integral itself jumps
    (for instance under a constant moving-time function).  ``alpha`` is one
    breakpoint (a float is returned) or an array of them (an array of the
    same shape is returned); the memory of the continuous part is built once
    for all.
    """
    alpha = np.asarray(alpha, dtype=float)
    t = alpha.reshape(-1)
    bps = np.atleast_1d(problem.schedule.breakpoints)
    off = ~np.any(np.abs(t[:, None] - bps[None, :]) <= MERGE_TOL, axis=1)
    if off.any():
        raise ValueError(f"{t[off][0]} is not a breakpoint of this problem")
    memory = _memory(problem, triple.xi.values)
    right = _sc_eval(problem, triple, t, t + EPS, memory)
    jumps = right - _sc_eval(problem, triple, t, t - EPS, memory)
    return float(jumps[0]) if alpha.ndim == 0 else jumps.reshape(alpha.shape)


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
