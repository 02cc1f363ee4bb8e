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
nodes when sigma_i is nondecreasing on the grid (checked once per problem).

One thing is filled per iterate: :func:`_memory`, a table of node rows
with one row-wise prefix sum.  Its rows are each f1 term a_r(s, xi(s)),
each f2 row of inner integrals a_r(s) * (integral of b_r to s) (O(N) per
term when f2 splits into products c_r(t) a_r(s, x) b_r(s1, x1); one N x N
kernel pass for a t-free f2 that does not split), and one g row per moving
impulse i with a nondecreasing sigma_i, fixed impulse j and term, each
with its time factor, its cut and its tau_j.  The t-free G1 and G2 terms
are one cumulative vector over the fixed impulses, built once per problem
when neither reads eta (:attr:`HybridProblem.impulse_prefix`).  An
evaluation reads the whole table once per batch of times; each term it
leaves out is one evaluator of the batch, chosen when the problem is built
(:attr:`HybridProblem.batch_terms`).  What a batch needs that no iterate
changes, where its times fall on the grid included, is built once per
batch (:class:`_Batch`), and whatever evaluates a batch holds it.  So is
the one reader of each table layout (:meth:`_Batch.reader`,
:class:`_Reader`): the cut of every row, each g row cut where its sigma_i
reaches m and empty unless its tau_j is below m, the rows' time factors
and the arrays the read works in, so that a sweep over tens of thousands
of times and rows makes no array of that size.
:func:`apply_operator` makes one evaluation per sweep of the batch
``problem.sweep``: the nodes, the fixed-impulse times and every moving
trace at once, and so does a sweep of the segment march that carries the
unsolved remainder.  A sweep of a segment marched alone makes one of its
segment's nodes, the fixed-impulse times it owns and the trace entries it
refreshes, an index view of that batch (:class:`_Subset`), through the
same table and membership helpers, so a problem locates and evaluates its
times once however it is solved, and every eta_l is the formula at tau_l.
The one state the operator reads is an array laid out as those times, by
component through :class:`_View`: the solvers iterate it, and
:func:`apply_operator`, :func:`jump_at` and :func:`component_deltas` lay
out the triples they are given so once (:func:`_values`).  A
:class:`SolutionTriple` is built only for what is returned.  The weighted
deltas of a picard sweep and of :func:`component_deltas` are one
function of that layout (:func:`_deltas`).  The image of a triple holds
both one-sided values of every interior breakpoint at its duplicated
node, so the jump the formula predicts there is the difference of the
image's two values: a solver keeps the image of the iterate it returns,
and nothing evaluates the triple again for its jumps.  :func:`jump_at`
evaluates both sides of given breakpoints, one tick right and one tick
left, for a caller without an image.  A batch knows which of its times
are grid nodes (``_Batch.nodes``), where beta is read at its stored
values, so every evaluation has one shape: fill the table
(:func:`_memory`), then :func:`_sc_eval`.  Each runs under the one
floating-point guard of the function that makes it
(:func:`apply_operator`, :func:`jump_at` or :func:`~.solvers._sweep`),
which also takes its deltas or its distance there: the helpers under it
call the unguarded quadrature cores and walk their kernels directly
(:func:`_walk`), so only a power enters a guard of its own.

A table spans the grid columns 0 to the ``hi`` of its window
(:class:`_Window`), and one routine fills it (:func:`_memory`).  Its first
call makes the table's arrays; every call writes the rows, the f2 inner
integrals and the prefix from the window's first changeable column
``live`` on, each running sum taken on from the table's own value at
``live`` and begun at 0.0 at column 0, so every read has the bits of a
table filled from column 0.  A new table is filled from column 0.  Picard
keeps one table of the whole grid, whose ``live`` is 0, for its sweeps and
its image, and so does the march that carries the remainder;
:func:`apply_operator` and :func:`jump_at` fill a new one.  Strict
memberships let the march of the segments alone keep one table per
segment (:func:`_window`): before the segment's own nodes, and before the
first trace entry of each g row that the segment still refreshes, nothing
changes while it iterates, so each later sweep fills it from ``live``,
and a sweep of segment l costs O(n_l + fresh columns), for its n_l nodes
and the trace entries it refreshes, where every memory kernel splits.  A
t-free f2 that does not split still costs one N x N pass per table.  The
last segment's table holds the g rows of every fixed impulse that a
membership of a sweep admits, so the image of the iterate that march
returns is that table filled from its ``live`` column once more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .expressions import KernelExpr, _eval_node, parse_kernel, quiet, time_split, zero_kernel
from .piecewise import Grid, PiecewiseFn, _check_mu, interpolate
from .quadrature import (
    Cut,
    Limits,
    _integrate_to,
    _node_cumulative,
    _read_prefix,
    _row_prefix,
    apply_weights,
    cut,
    limits_of,
    weight_rows,
)
from .schedule import MERGE_TOL, ImpulseSchedule
from .contraction import LipschitzSet

EPS = MERGE_TOL
_NONE = np.zeros(0, dtype=np.intp)
_NONE.setflags(write=False)

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


def _read_only(a):
    """``a`` as an array, or each array of the tuple ``a``, made read-only;
    None stays None."""
    if a is None:
        return a
    if isinstance(a, tuple):
        for part in a:
            part.setflags(write=False)
        return a
    a = np.asarray(a)
    a.setflags(write=False)
    return a


class _lazy:
    """An array attribute, or a tuple of arrays, built on first use, then
    kept read-only in the instance's ``__dict__``, whose entry shadows this
    descriptor.  Unlike ``functools.cached_property`` on Python 3.11 it
    takes no lock, which cost about 3 us per first use and showed on small
    problems."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = _read_only(self.build(instance))
        return value


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
    moving time at the grid nodes, which must lie in [0, T] up to EPS;
    ``sigma_nondecreasing``, per moving time whether those values never
    decrease; ``tau_pairs``, the index arrays (i, j), j < i, of the
    fixed-impulse pairs G2 sums over; ``f1_terms``, ``f2_terms`` and
    ``g_terms``, each memory kernel split into time factors c(t) times
    factors over :data:`F1_GROUPS`, :data:`F2_GROUPS` or :data:`G_GROUPS`
    (:func:`~.expressions.time_split`; None when it does not split);
    ``f1_free``, whether f1 is t-free, so that one row of a memory table
    holds it and a t-free f2 (:func:`_xi_rows`); and ``whole_grid``, the
    window of a table over the whole grid (:class:`_Window`).  On first
    use, from those: the path of each term, :attr:`g_row_impulses` and
    :attr:`batch_terms`; :attr:`sweep`, the evaluation batch of one sweep;
    and :attr:`impulse_prefix`, the G1 and G2 sums when they read no eta.
    Each sweep and image of either solver evaluates :attr:`sweep` or, in
    the march of the segments alone, an index view of it
    (:class:`_Subset`), so a solve locates and evaluates its times once;
    only :func:`jump_at` builds a batch of its own.

    The paths set the cost of a sweep in N, the number of grid nodes: O(N)
    when every memory kernel splits, O(N^2) for an f2 that does not
    reference t and does not split (one N x N kernel pass), and the cost
    of each of :attr:`batch_terms` beyond.
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
        # the schedule checks sigma on its own sample; a node between two
        # sample points can still leave the horizon
        if sigma_grid.size and (
            sigma_grid.min() < -EPS or sigma_grid.max() > self.schedule.horizon + EPS
        ):
            raise ValueError("sigma values must stay within [0, horizon]")
        object.__setattr__(self, "sigma_grid", sigma_grid)
        # per moving impulse: sigma_i(s) < m holds on a prefix of the nodes
        nondecreasing = np.all(np.diff(sigma_grid, axis=1) >= 0, axis=1)
        object.__setattr__(self, "sigma_nondecreasing", nondecreasing)
        # the pairs (i, j), j < i, of fixed impulses that G2 sums over, as
        # np.tril_indices(n_tau, k=-1) gives them
        pairs = np.nonzero(np.tri(self.tau.size, k=-1, dtype=bool))
        object.__setattr__(self, "tau_pairs", pairs)
        object.__setattr__(self, "f1_terms", time_split(self.f1, F1_GROUPS))
        object.__setattr__(self, "f2_terms", time_split(self.f2, F2_GROUPS))
        object.__setattr__(self, "g_terms", time_split(self.g, G_GROUPS))
        # f1 is one t-free row of the memory table, which a t-free f2 joins
        object.__setattr__(self, "f1_free", bool(self.f1_terms) and self.f1_terms[0][0] is None)
        object.__setattr__(self, "whole_grid", _Window(0, self.grid.size, self.tau.size))

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

    @cached_property
    def sweep(self) -> "_Batch":
        """The evaluation batch of one sweep (:class:`_Batch`).

        Its evaluation times are the grid nodes, with memberships one tick
        left of each node except at the first node of every segment, one
        tick right: the two stored values at a duplicated breakpoint node
        are the one-sided limits.  Then the fixed impulse times and each
        trace's moving times, one tick left.  Its first N times are the
        grid nodes.
        """
        times = self.grid.times
        node_memb = times - EPS
        first = np.arange(self.grid.num_segments) * (self.grid.panels + 1)
        node_memb[first] = times[first] + EPS
        moving = self.sigma_grid.reshape(-1)
        return _Batch(self, np.concatenate([times, self.tau, moving]),
                      np.concatenate([node_memb, self.tau - EPS, moving - EPS]),
                      slice(0, times.size))

    def decay(self, mu: float) -> "_View":
        """The weights of the norms at weight ``mu``, read-only and laid out
        by component as the times of one sweep (:class:`_View`): e^{-mu t}
        at the grid nodes, e^{-mu tau_i} at the fixed impulse times, and
        e^{-mu sigma_i(t)} at the nodes, (n_sigma, N).  ``mu`` must be
        finite and at least 0.  A picard solve builds them once.
        """
        _check_mu(mu)
        return _View._make(_read_only(np.exp(-mu * a))
                           for a in (self.grid.times, self.tau, self.sigma_grid))

    @_lazy
    def g_row_impulses(self) -> np.ndarray:
        """The moving impulses whose g terms are rows of an iterate's memory
        table: those with a nondecreasing sigma_i, when g splits and there
        are fixed impulses.  :func:`_g_per_batch` evaluates the others."""
        if not (self.g_terms and self.tau.size):
            return _NONE
        return np.flatnonzero(self.sigma_nondecreasing)

    @cached_property
    def batch_terms(self) -> tuple:
        """The evaluators of the terms that no memory table holds, in the
        order :func:`_sc_eval` runs them; ``term(problem, batch, view, out)``
        adds its term at the times of ``batch`` into ``out``.

        * :func:`_f1_per_time`: an f1 that references t and does not split,
          one row per evaluation time, O(E N) for E times;
        * :func:`_f2_per_time`: such an f2, one N x N pass per time, O(E N^2);
        * :func:`_G1_per_time`, :func:`_G2_per_time`: G1, G2 that reference t;
        * :func:`_g_per_batch`: the g terms of the moving impulses not in
          :attr:`g_row_impulses`, O(E N) per impulse pair and term;
        * :func:`_G3`: G3, when there are fixed and moving impulses.
        """
        n_tau, n_sigma = self.tau.size, self.n_sigma
        return tuple(term for term, used in (
            (_f1_per_time, self.f1_terms is None),
            (_f2_per_time, self.f2_terms is None and self.f2.references("t")),
            (_G1_per_time, n_tau and self.G1.references("t")),
            (_G2_per_time, n_tau >= 2 and self.G2.references("t")),
            (_g_per_batch, n_tau and not self.g.is_zero
             and self.g_row_impulses.size < n_sigma),
            (_G3, n_sigma and n_tau and not self.G3.is_zero),
        ) if used)

    @cached_property
    def impulse_kernels(self) -> tuple[KernelExpr | None, KernelExpr | None]:
        """G1 and G2 where :func:`_impulse_prefix` sums them over the fixed
        impulses: each when it is nonzero, t-free and has impulses (pairs,
        for G2) to sum over, else None."""
        n_tau, terms = self.tau.size, self.batch_terms
        G1, G2 = self.G1, self.G2
        return (G1 if n_tau and not G1.is_zero and _G1_per_time not in terms else None,
                G2 if n_tau >= 2 and not G2.is_zero and _G2_per_time not in terms else None)

    @_lazy
    @quiet
    def impulse_prefix(self) -> np.ndarray | None:
        """:func:`_impulse_prefix` when neither of :attr:`impulse_kernels`
        reads eta: the same for every iterate, so it is built once per
        problem, read-only, and every memory table holds it (each picard
        sweep, the image, :func:`jump_at` and the march).  None when there
        is no prefix or it reads eta.  A kernel error is not kept, and
        raises again in the next table build.  The build holds its own
        guard, once per problem: a caller outside a sweep may read it
        first."""
        if any(k is not None and not k.free.isdisjoint(("eta", "etai", "etaj"))
               for k in self.impulse_kernels):
            return None
        return _impulse_prefix(self, None)

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
        """The traces stacked one row per moving impulse, (n_sigma, N).

        Built once per triple and read-only: a caller that writes copies it.
        """
        return self._beta_rows

    @_lazy
    def _beta_rows(self) -> np.ndarray:
        if not self.beta:
            return np.zeros((0, self.xi.grid.size))
        return np.vstack([b.values for b in self.beta])


def default_init(problem: HybridProblem) -> SolutionTriple:
    """Zeroth iterate: the forcing term in every component.

    It is x0 at the times of one sweep (``problem.sweep``): the nodes, the
    fixed impulse times and every sigma_i at the nodes, as the batch of
    that sweep keeps it, so the sweeps do not evaluate it again.
    """
    return _triple(problem, problem.sweep.x0.copy())


def _triple(problem: HybridProblem, values: np.ndarray) -> SolutionTriple:
    """The triple whose components are ``values`` at the times of one sweep."""
    view = _View.of(problem, values)
    grid = problem.grid
    return SolutionTriple(PiecewiseFn(grid, view.xi), view.eta,
                          tuple(PiecewiseFn(grid, row) for row in view.beta))


def _values(triple: SolutionTriple) -> np.ndarray:
    """The components of ``triple`` as one new array laid out as the times
    of one sweep: the inverse of :func:`_triple`."""
    return np.concatenate([triple.xi.values, triple.eta, triple.beta_rows().reshape(-1)])


class _View(NamedTuple):
    """The state the operator reads: values laid out as the times of one
    sweep (``problem.sweep``), by component.  ``xi`` holds the N node
    values of the continuous part, ``eta`` one value per fixed impulse and
    ``beta`` the traces, one row per moving impulse, (n_sigma, N).

    :meth:`of` views one array so, with no copy made: a solver iterates
    one array and builds a :class:`SolutionTriple` only for what it
    returns, and a public function that takes a triple reads it through
    :func:`_values` once.
    """

    xi: np.ndarray
    eta: np.ndarray
    beta: np.ndarray

    @classmethod
    def of(cls, problem: HybridProblem, values: np.ndarray) -> "_View":
        N, n_tau = problem.grid.size, problem.n_tau
        return cls(values[:N], values[N:N + n_tau],
                   values[N + n_tau:].reshape(problem.n_sigma, N))


# ---------------------------------------------------------------------------
# Core evaluation


def _walk(kernel: KernelExpr, bindings):
    """``kernel`` at ``bindings``, the value :meth:`~.expressions.KernelExpr.evaluate`
    gives, without its floating-point guard: every kernel of a sweep is
    walked under the one guard the sweep holds (:func:`apply_operator`,
    :func:`jump_at` and the solvers' sweeps and images).  A domain error
    raises as there; only a power enters a guard of its own.  It is the one
    place a sweep evaluates a kernel, so a test can watch every evaluation."""
    return _eval_node(kernel.root, bindings)


class _Batch:
    """The parts of one evaluation batch that no iterate changes.

    A batch is built by what evaluates it and kept for as long as that
    evaluates it: the problem keeps ``problem.sweep`` for every sweep and
    image of either solver, and each :func:`jump_at` builds its own.  A
    segment of the march alone evaluates an index view of ``problem.sweep``
    (:class:`_Subset`), which builds no part the sweep batch holds.  ``te``
    and ``m`` are read-only copies of the evaluation and membership times,
    and the first ``nodes.stop - nodes.start`` times are the grid nodes
    ``nodes``, at which beta is read at its stored values
    (:func:`_beta_at`): all N nodes for ``problem.sweep``, none for
    :func:`jump_at`.  Each part is built on first use and read-only:
    ``limits``, where the times fall on the grid, from one
    :meth:`~.piecewise.Grid.locate` of ``te``
    (:func:`~.quadrature.limits_of`): the quadrature cut that every read of
    a memory table at ``te`` takes, and the node and fraction that every
    interpolation at ``te`` takes; ``x0`` at ``te``; ``sigma``, each moving
    time at ``te`` (n_sigma, E); ``tau_below``, tau_j < m (E, n_tau);
    ``impulse_count``, the number of fixed impulses below m; ``g3_gate``,
    sigma_i(te) < m and tau_j < m (n_sigma, n_tau, E); and by
    :meth:`factor` each time factor at ``te``.  One object reads a memory
    table (:func:`_memory`) at ``te``: :meth:`reader`, built once per table
    layout, holds the cut of every row, the rows' time factors and the
    arrays the read works in (:class:`_Reader`).  A part whose kernel fails
    to evaluate is not kept, and fails again.
    """

    def __init__(self, problem: "HybridProblem", te: np.ndarray, m: np.ndarray,
                 nodes: slice = slice(0, 0)):
        self.problem = problem
        self.te = _read_only(np.array(te, dtype=float))
        self.m = _read_only(np.array(m, dtype=float))
        self.nodes = nodes
        self._factors: dict[int, np.ndarray] = {}
        self._readers: dict[tuple[int, int], _Reader] = {}

    @_lazy
    def limits(self) -> Limits:
        return limits_of(self.problem.grid, self.te)

    @_lazy
    def x0(self) -> np.ndarray:
        x0 = np.empty(self.te.shape)
        x0[:] = self.problem.x0.evaluate({"t": self.te})
        return x0

    @_lazy
    def sigma(self) -> np.ndarray:
        return self.problem.schedule.sigma_values(self.te)

    @_lazy
    def tau_below(self) -> np.ndarray:
        return self.problem.tau[None, :] < self.m[:, None]

    @_lazy
    def impulse_count(self) -> np.ndarray:
        return np.searchsorted(self.problem.tau, self.m)

    @_lazy
    def g3_gate(self) -> np.ndarray:
        return (self.sigma[:, None, :] < self.m) & self.tau_below.T[None, :, :]

    def reader(self, memory: "_Memory") -> "_Reader":
        """How every row of the table ``memory`` is read at ``te``
        (:class:`_Reader`), built once per batch and table layout: the
        rows of every table of a problem follow from the number of fixed
        impulses whose g rows it holds (:class:`_Memory`), so the layout is
        that number and the table's width.

        The f1 and f2 rows are read whole.  The g row of moving impulse i
        and fixed impulse j keeps the nodes before the first with
        sigma_i(s) >= m, and none (read as 0) unless tau_j < m: a value
        outside that gate never enters the sum, even an inf.  Building it
        checks once that every column a read at ``te`` takes, the node at
        or below each time and the next, lies in the table, since such a
        read does not check its indices again.
        """
        admitted, width = memory.window.admitted, memory.rows.shape[1]
        found = self._readers.get((admitted, width))
        if found is not None:
            return found
        problem, m = self.problem, self.m
        R, n_xi, E = memory.rows.shape[0], memory.n_xi, m.size
        if E and int(self.limits.base.max()) + 1 >= width:
            raise IndexError(f"a read at these times reaches past the {width} "
                             "columns of the table")
        keep = weight = None
        if R > n_xi:
            counts = np.empty((R, E), dtype=np.intp)
            counts[:n_xi] = problem.grid.size
            # the g rows by moving impulse i, fixed impulse j < admitted and term
            g = counts[n_xi:].reshape(-1, admitted, len(problem.g_terms), E)
            below = self.tau_below.T[:admitted, None, :]
            for k, i in enumerate(problem.g_row_impulses):
                g[k] = np.where(below, np.searchsorted(problem.sigma_grid[i], m), 0)
            keep = _read_only(cut(self.limits, counts, memory.prefix.shape))
        if memory.factors:
            weight = np.ones((R, E))
            for c, rows in memory.factors:
                weight[rows] = self.factor(c)
            weight = _read_only(weight)
        found = self._readers[admitted, width] = _Reader(
            keep, weight, (np.empty((R, E)), np.empty((R, E))))
        return found

    def factor(self, c: KernelExpr) -> np.ndarray:
        """The time factor ``c`` (one of the problem's terms) at ``te``."""
        found = self._factors.get(id(c))
        if found is None:
            found = self._factors[id(c)] = _read_only(c.evaluate({"t": self.te}))
        return found


class _Subset(_Batch):
    """The times ``index`` (an index array) of the batch ``parent``, a
    batch of their own: a segment of the march alone evaluates its nodes,
    fixed-impulse times and fresh trace entries as such an index view of
    ``problem.sweep``.  Its first times are the grid nodes ``nodes``, as in
    any batch.

    ``te``, ``m`` and every part that does not depend on a memory table
    (``limits``, ``x0``, ``sigma``, ``tau_below``, ``impulse_count``,
    ``g3_gate`` and each time factor) are the parent's arrays at ``index``,
    each indexed on first use, so the parent locates and evaluates its
    times once for all of its subsets and its own evaluations.  A subset
    builds its :meth:`reader` of a table as any batch does, from those
    parts.
    """

    def __init__(self, parent: _Batch, index: np.ndarray, nodes: slice):
        self.problem, self.parent, self.index = parent.problem, parent, index
        self.te = _read_only(parent.te[index])
        self.m = _read_only(parent.m[index])
        self.nodes = nodes
        self._factors, self._readers = {}, {}

    limits = _lazy(lambda self: Limits._make(a[self.index] for a in self.parent.limits))
    x0 = _lazy(lambda self: self.parent.x0[self.index])
    sigma = _lazy(lambda self: self.parent.sigma[:, self.index])
    tau_below = _lazy(lambda self: self.parent.tau_below[self.index])
    impulse_count = _lazy(lambda self: self.parent.impulse_count[self.index])
    g3_gate = _lazy(lambda self: self.parent.g3_gate[..., self.index])

    def factor(self, c: KernelExpr) -> np.ndarray:
        found = self._factors.get(id(c))
        if found is None:
            whole = self.parent.factor(c)
            found = whole if whole.ndim == 0 else _read_only(whole[self.index])
            self._factors[id(c)] = found
        return found


class _Reader(NamedTuple):
    """How a batch reads every row of one table layout (:meth:`_Batch.reader`).

    ``keep`` is the :class:`~.quadrature.Cut` of every row, each g row cut
    where its sigma_i reaches m and empty unless its fixed impulse is below
    m, or None when the table holds no g row and every row is read whole.
    ``weight`` (R, E) holds the time factor that each row is multiplied by
    at the batch's times, c(t) or 1 for a row of t-free terms, or is None
    when no row has a factor.  Both are read-only.  ``work`` holds two
    float arrays (R, E) that every read works in, so that a sweep over tens
    of thousands of times and rows makes no array of that size: such arrays
    took fresh pages from the allocator in every sweep.
    """

    keep: Cut | None
    weight: np.ndarray | None
    work: tuple[np.ndarray, np.ndarray]


class _Window(NamedTuple):
    """The columns of the memory table of one segment of the march alone.

    The table spans the grid columns 0 to ``hi``.  Its rows change with
    the iterate only from column ``live`` on, a segment start: before it
    every row reads solved segments alone (the continuous part before the
    segment, the trace entries consumed before it, the fixed-impulse
    values it admits).  ``admitted`` is the number of fixed impulses that
    the membership times of the table's readers admit: the table holds no
    g row of the others, which no reader counts.  The whole grid is
    ``_Window(0, N, n_tau)`` (``HybridProblem.whole_grid``), the table of
    picard and of the march that carries the remainder.
    """

    live: int
    hi: int
    admitted: int


class _Memory(NamedTuple):
    """The memory of one iterate: one table of node rows and one prefix sum.

    Row r of ``rows`` (R, hi) holds the columns 0 to ``hi`` of ``window``
    and is integrated to every evaluation time t by one read of
    ``prefix``, :func:`~.quadrature.row_prefix` of the whole table.  The
    f1 and f2 rows come first, and their integrals enter the operator as
    they are or times a time factor c(t): ``factors`` holds each factor
    with the indices of its rows.  Then come the g rows, in the order of
    ``problem.g_row_impulses``, the fixed impulses and ``problem.g_terms``:
    the integrand of moving impulse i is cut to the nodes s with sigma_i(s)
    below the membership time, and a row of fixed impulse j counts when
    ``tau_j < m``.  A batch reads the table through its one reader of the
    table's layout (:meth:`_Batch.reader`), which cuts every row and
    multiplies the rows by their time factors.  ``impulses`` is the
    exclusive prefix over the fixed impulses of the t-free G1 and G2 values
    (:func:`_impulse_prefix`), or None; every table of a problem holds the
    same one when they read no eta.  A later iterate fills the same arrays
    again (:func:`_memory`): picard and the march that carries the
    remainder keep one table for their sweeps and their image, and a
    segment marched alone one for its sweeps.
    """

    n_xi: int  # the number of f1 and f2 rows, as :func:`_xi_rows`
    cumulative: np.ndarray | None  # the f2 inner integrals, as :func:`_xi_rows`
    rows: np.ndarray
    prefix: np.ndarray
    factors: tuple
    impulses: np.ndarray | None
    window: _Window


def _f2_square(problem: HybridProblem) -> bool:
    """Whether f2 is t-free and does not split: one N x N pass per table."""
    return problem.f2_terms is None and _f2_per_time not in problem.batch_terms


def _xi_rows(problem: HybridProblem, xi: np.ndarray, cols: slice, start):
    """The f1 and f2 integrands of the continuous part ``xi`` as node rows.

    The rows cover the columns ``cols``, whole segments.  One ``(c, row)``
    per time factor c of ``problem.f1_terms`` and ``problem.f2_terms`` (the
    t-free terms of both kernels summed into one row with c None, the f1
    row first when ``problem.f1_free``): the f1 integral to time t is c(t)
    times the integral of ``row`` to t, and so is the f2 double integral,
    whose row holds the inner integrals a_r(s) * (integral of b_r to s).  Those inner integrals are returned too,
    (K, W) for K terms, by one :func:`~.quadrature.node_cumulative` of the
    stacked b_r begun from ``start``, each b_r's integral up to
    ``cols.start``, else None.  A t-free f2 that does not split gives its
    row of inner integrals by one N x N kernel pass over the whole grid.
    A kernel that references t and does not split is one of
    ``problem.batch_terms``.
    """
    grid = problem.grid
    times, x = grid.times[cols], xi[cols]
    # each factor references one group, so one binding serves them all
    nodes = {"s": times, "x": x, "s1": times, "x1": x}
    rows = [(c, _walk(a, nodes)) for c, a in problem.f1_terms or ()]
    cumulative = free = None  # free: the row of the t-free f2 terms
    f2 = problem.f2
    if problem.f2_terms:
        outer, B = [], np.empty((len(problem.f2_terms), times.size))
        for r, (c, a, b) in enumerate(problem.f2_terms):
            outer.append((c, _walk(a, nodes)))
            B[r] = _walk(b, nodes)
        cumulative = _node_cumulative(grid, B, cols.start, start)
        inner = [(c, a * cum) for (c, a), cum in zip(outer, cumulative)]
        if f2.references("t"):
            rows += inner
        else:
            free = sum((row for _, row in inner[1:]), inner[0][1])
    elif _f2_square(problem):
        F = _walk(f2, {"t": 0.0, "s": grid.times[:, None], "s1": grid.times[None, :],
                       "x": xi[:, None], "x1": xi[None, :]})
        free = _integrate_to(grid, F, grid.times)[cols]
    if free is None:
        return rows, cumulative
    if problem.f1_free:
        return [(None, rows[0][1] + free)], cumulative
    return rows + [(None, free)], cumulative


def _impulse_prefix(problem: HybridProblem, eta: np.ndarray | None) -> np.ndarray | None:
    """Exclusive prefix over tau of the t-free G1 and G2 terms, or None.

    Entry k sums G1(tau_i, eta_i) and G2(tau_i, tau_j, eta_i, eta_j), j < i,
    over the impulses i < k: the terms of every time whose membership
    admits the first k fixed impulses.  The kernels are
    ``problem.impulse_kernels``; ``eta`` is None when neither reads it
    (``problem.impulse_prefix``).
    """
    G1, G2 = problem.impulse_kernels
    if G1 is None and G2 is None:
        return None
    tau = problem.tau
    per_impulse = np.zeros(tau.size)
    if G1 is not None:
        per_impulse += _walk(G1, {"tau": tau} if eta is None else {"tau": tau, "eta": eta})
    if G2 is not None:
        ii, jj = problem.tau_pairs
        pairs = {"taui": tau[ii], "tauj": tau[jj]}
        if eta is not None:
            pairs.update(etai=eta[ii], etaj=eta[jj])
        vals = _walk(G2, pairs)
        per_impulse += np.bincount(
            ii, weights=np.broadcast_to(vals, ii.shape), minlength=tau.size
        )
    return np.concatenate([[0.0], np.cumsum(per_impulse)])


def _memory(problem: HybridProblem, view: _View, table: _Memory | None = None,
            window: _Window | None = None) -> _Memory:
    """The memory table of ``view``, read by every evaluation of it.

    Its rows are the f1 and f2 rows of :func:`_xi_rows`, then one g row per
    moving impulse i of ``problem.g_row_impulses``, fixed impulse j and
    term (c, a) of ``problem.g_terms``: a(s, sigma_i(s), tau_j, xi(s),
    beta_i(s), eta_j) at the nodes, cut where sigma_i reaches the
    membership time.  The kernels and moving impulses left out are
    ``problem.batch_terms``.  The rows cover the columns 0 to ``hi`` of
    the table's window (:class:`_Window`): ``window``, by default the whole
    grid, for a new table.

    One routine fills every table.  A new table's arrays are made on the
    first call and filled from column 0; ``table``, an earlier iterate's,
    is filled again in its own arrays from its window's ``live`` column
    on.  The rows, the f2 inner integrals and the prefix are written from
    that column on, and each running sum is taken on from the table's own
    value at ``live``, or begun at 0.0 at column 0, so every read has the
    bits of a table filled from column 0.  The G1 and G2 prefix is built
    again from the eta of ``view`` when it reads eta and the fill begins
    at column 0; otherwise it is the earlier iterate's, whose entries every
    reader of the table shares with ``view``, since a window that admits
    an eta its segment changes begins at column 0 (:func:`_window`).
    """
    if table is None:
        window, live = window or problem.whole_grid, 0
    else:
        window, live = table.window, table.window.live
    cols = slice(live, window.hi)
    start = table.cumulative[:, live] if live and table.cumulative is not None else 0.0
    entries, cumulative = _xi_rows(problem, view.xi, cols, start)
    n_xi = len(entries)
    for i in problem.g_row_impulses:
        times, x = problem.grid.times[cols], view.xi[cols]
        sig, b = problem.sigma_grid[i][cols], view.beta[i, cols]
        for tau_j, eta_j in zip(problem.tau[:window.admitted], view.eta):
            nodes = {"s": times, "sig": sig, "tau": tau_j, "x": x, "beta": b, "eta": eta_j}
            entries += [(c, _walk(a, nodes)) for c, a in problem.g_terms]
    if table is None:
        factors = {}
        for r, (c, _) in enumerate(entries):
            if c is not None:
                factors.setdefault(id(c), (c, []))[1].append(r)
        R, hi = len(entries), window.hi
        table = _Memory(
            n_xi=n_xi,
            cumulative=None if cumulative is None else np.empty((len(cumulative), hi)),
            rows=np.empty((R, hi)),
            prefix=np.empty((R, hi + 1)),
            factors=tuple(factors.values()),
            impulses=problem.impulse_prefix,
            window=window,
        )
    rows = table.rows
    for r, (_, row) in enumerate(entries):
        rows[r, cols] = row
    if cumulative is not None:
        table.cumulative[:, cols] = cumulative
    _row_prefix(problem.grid, rows[:, cols], live, table.prefix[:, live] if live else 0.0,
                out=table.prefix[:, live:])
    if problem.impulse_prefix is None and not live:
        table = table._replace(impulses=_impulse_prefix(problem, view.eta))
    return table


def _read_rows(memory: _Memory, batch: _Batch) -> np.ndarray:
    """Every row of the table ``memory`` at the times of ``batch``, summed:
    one read of the table's prefix through the batch's reader of it
    (:meth:`_Batch.reader`), times the rows' time factors when any has one,
    and one sum over the rows.  A g row whose fixed impulse is not below m
    is read as 0, whatever it holds.  The caller holds the floating-point
    guard."""
    keep, weight, work = batch.reader(memory)
    parts = _read_prefix(memory.prefix, memory.rows, batch.limits, keep, work)
    if weight is not None:
        parts *= weight
    return np.add.reduce(parts, axis=0)


def _window(
    problem: HybridProblem, nodes: slice, batch: _Batch, solved: np.ndarray
) -> _Window:
    """The columns of the table of a segment marched alone (:class:`_Window`).

    The segment updates the continuous part on ``nodes``, the fixed
    impulses it owns and the trace entries it refreshes; ``batch``, the one
    that each of its sweeps evaluates, holds the segment's nodes, its
    fixed-impulse times and each fresh entry's moving time sigma_p(t), the
    last two one tick left; ``solved`` (n_sigma, N) marks the entries that
    earlier segments consumed.  Table rows can change from ``live`` on:
    from the segment's first node, and for the g rows of impulse i at
    every node whose trace entry is not yet consumed (a suffix, sigma_i
    being nondecreasing).  ``admitted`` counts the fixed impulses below the
    last membership time.  A trace entry up to EPS past the segment's end
    can admit one after its first node, such as a fixed impulse merged
    into the horizon, whose eta the segment changes: then ``live`` is 0,
    and the g rows and the G1 and G2 prefix are filled from column 0.
    ``hi`` bounds every column that the evaluations of the segment read:
    the node at or below each time and the next, past the segment's end
    for an entry consumed up to EPS past it.  ``live`` and ``hi`` are
    segment boundaries, so the f2 inner integrals run over whole segments;
    a table without rows takes the whole grid, read nowhere.
    """
    grid = problem.grid
    w = grid.panels + 1
    admitted = int(np.searchsorted(problem.tau, batch.m.max()))
    impulses = problem.g_row_impulses
    if not (problem.f1_terms or problem.f2_terms or _f2_square(problem) or impulses.size):
        return _Window(0, grid.size, admitted)
    live = min([nodes.start] + [int(np.count_nonzero(solved[i])) for i in impulses])
    if admitted > np.searchsorted(problem.tau, grid.times[nodes.start] + EPS, side="right"):
        live = 0
    hi = max(nodes.stop, int(batch.limits.base.max()) + 2)
    return _Window(live - live % w, min(hi + (-hi) % w, grid.size), admitted)


def _sc_eval(problem: HybridProblem, view: _View, batch: _Batch,
             memory: _Memory) -> np.ndarray:
    """The operator formula at the evaluation and membership times of
    ``batch`` (:class:`_Batch`), which holds what no iterate changes.

    ``view`` is the state (:class:`_View`).  ``memory`` is :func:`_memory`
    of ``view``, read once for the whole batch, and each term the table
    leaves out is one of ``problem.batch_terms``.  Every value is computed
    per evaluation time, so no value depends on where its time sits in the
    batch.  The caller holds the floating-point guard.
    """
    out = np.empty(batch.te.size)
    out[:] = batch.x0
    if len(memory.rows):
        out += _read_rows(memory, batch)
    if memory.impulses is not None:
        # the t-free G1 and G2 terms of the fixed impulses below m
        out += memory.impulses[batch.impulse_count]
    for term in problem.batch_terms:
        term(problem, batch, view, out)
    return out


def _f1_per_time(problem, batch, view, out):
    """f1 that references t and does not split: one row per evaluation time."""
    grid, te, xi = problem.grid, batch.te, view.xi
    w = _walk(problem.f1, {"t": te[:, None], "s": grid.times[None, :], "x": xi[None, :]})
    out += _integrate_to(grid, w, te)


def _f2_per_time(problem, batch, view, out):
    """f2 that references t and does not split: one N x N pass per time."""
    grid, te = problem.grid, batch.te
    times, xi = grid.times, view.xi
    W = weight_rows(grid, te)
    node_weights = W if np.array_equal(te, times) else weight_rows(grid, times)
    inner = np.empty((te.size, times.size))
    for r, t in enumerate(te):
        F = _walk(problem.f2, {"t": t, "s": times[:, None], "s1": times[None, :],
                               "x": xi[:, None], "x1": xi[None, :]})
        inner[r] = apply_weights(node_weights, F)
    out += apply_weights(W, inner)


def _G1_per_time(problem, batch, view, out):
    """G1 that references t, over the fixed impulses below m."""
    tau, eta, below = problem.tau, view.eta, batch.tau_below
    vals = _walk(problem.G1, {"t": batch.te[:, None], "tau": tau[None, :], "eta": eta[None, :]})
    out += np.where(below, vals, 0.0).sum(axis=1)


def _G2_per_time(problem, batch, view, out):
    """G2 that references t, over the pairs of fixed impulses below m."""
    tau, eta = problem.tau, view.eta
    ii, jj = problem.tau_pairs
    below = batch.tau_below[:, ii]
    vals = _walk(problem.G2, {"t": batch.te[:, None], "taui": tau[ii][None, :],
                              "tauj": tau[jj][None, :], "etai": eta[ii][None, :],
                              "etaj": eta[jj][None, :]})
    out += np.where(below, vals, 0.0).sum(axis=1)


def _g_per_batch(problem, batch, view, out):
    """The g terms of the moving impulses whose rows the table does not
    hold, with one weight row per evaluation time.  Each impulse's gate
    keeps the nodes with sigma_i(s) < m.  It masks the integrand, not the
    weights, so a non-finite value outside it stays out of the sum."""
    grid, te = problem.grid, batch.te
    times, xi, beta_rows = grid.times, view.xi, view.beta
    terms = problem.g_terms or [(None, problem.g)]
    c_at = [None if c is None else batch.factor(c) for c, _ in terms]
    W = weight_rows(grid, te)
    for i in np.setdiff1d(np.arange(problem.n_sigma), problem.g_row_impulses):
        sig = problem.sigma_grid[i]
        gate = sig[None, :] < batch.m[:, None]
        for j, (tau_j, eta_j) in enumerate(zip(problem.tau, view.eta)):
            nodes = {"t": te[:, None], "s": times, "sig": sig, "tau": tau_j,
                     "x": xi, "beta": beta_rows[i], "eta": eta_j}
            for (_, a), c in zip(terms, c_at):
                part = apply_weights(W, np.where(gate, _walk(a, nodes), 0.0))
                if c is not None:
                    part = c * part
                out += np.where(batch.tau_below[:, j], part, 0.0)


def _G3(problem, batch, view, out):
    """G3 over the moving and fixed impulses with sigma_i(t), tau_j < m."""
    te, tau, eta = batch.te, problem.tau, view.eta
    beta_at = _beta_at(view, batch)
    for i in range(problem.n_sigma):
        vals = _walk(problem.G3, {"t": te, "sig": batch.sigma[i], "tau": tau[:, None],
                                  "beta": beta_at[i], "eta": eta[:, None]})
        out += np.where(batch.g3_gate[i], vals, 0.0).sum(axis=0)


def _beta_at(view: _View, batch: _Batch) -> np.ndarray:
    """Each beta_i at the evaluation times of ``batch``, (n_sigma, E).  At
    its first times, the grid nodes ``batch.nodes``, beta is read at its
    stored node values: at a duplicated breakpoint node the interpolant
    would give the left limit for both.  At the others it is read by its
    left-limit convention, as :meth:`~.piecewise.PiecewiseFn.eval` gives
    it: one gather over the stacked traces at the nodes where the times
    fall (``batch.limits``)."""
    rows = view.beta
    stored = rows[:, batch.nodes]
    n = stored.shape[1]
    node, frac = batch.limits.base, batch.limits.frac
    at = np.empty((rows.shape[0], batch.te.size))
    at[:, :n] = stored
    at[:, n:] = interpolate(rows, node[n:], frac[n:])
    return at


# ---------------------------------------------------------------------------
# Membership conventions


@quiet
def apply_operator(problem: HybridProblem, triple: SolutionTriple) -> SolutionTriple:
    """One full sweep of all three components (simultaneous update).

    The continuous part at every node with one-sided values at duplicated
    breakpoint nodes, read with beta at its stored node values; each
    fixed-impulse value as the formula at tau_l with left memberships; each
    moving trace as the formula at sigma_p(t) with left memberships.  All
    three are one evaluation of one batch, ``problem.sweep``, against one
    new memory table of the triple (:func:`_memory`), under one
    floating-point guard.
    """
    view = _View.of(problem, _values(triple))
    return _triple(problem, _sc_eval(problem, view, problem.sweep, _memory(problem, view)))


@quiet
def jump_at(problem: HybridProblem, triple: SolutionTriple, alpha):
    """Predicted jump of the continuous part at breakpoint ``alpha``.

    Computed as the difference of the operator formula at alpha with
    memberships one tick right and one tick left; no displayed jump formula
    is involved, so it stays valid when the running integral itself jumps
    (for instance under a constant moving-time function).  ``alpha`` is one
    breakpoint (a float is returned) or an array of them (an array of the
    same shape is returned); both sides of every breakpoint are one
    evaluation of one batch against one new memory table.  Each breakpoint
    must be an interior point of the partition, where the grid holds a
    node on each side: a breakpoint within ``MERGE_TOL`` of 0 or of the
    horizon is none, and is rejected.
    """
    alpha = np.asarray(alpha, dtype=float)
    t = alpha.reshape(-1)
    points = problem.grid.partition[1:-1]
    off = ~np.any(np.abs(t[:, None] - points[None, :]) <= MERGE_TOL, axis=1)
    if off.any():
        raise ValueError(f"{t[off][0]} is not a breakpoint inside the partition")
    view = _View.of(problem, _values(triple))
    batch = _Batch(problem, np.concatenate([t, t]), np.concatenate([t + EPS, t - EPS]))
    both = _sc_eval(problem, view, batch, _memory(problem, view))
    jumps = both[:t.size] - both[t.size:]
    return float(jumps[0]) if alpha.ndim == 0 else jumps.reshape(alpha.shape)


# ---------------------------------------------------------------------------
# Distances


def _deltas(problem: HybridProblem, weights: _View, new: np.ndarray,
            old: np.ndarray) -> tuple[float, float, float]:
    """The weighted distance of each component between ``new`` and ``old``,
    two arrays laid out as the times of one sweep: the maximum over the
    component of ``weights`` (``problem.decay(mu)``) times ``|new - old|``,
    0 for an empty component.  A difference that overflows gives a distance
    that is not finite; the caller holds the floating-point guard.  Every
    sweep of picard and :func:`component_deltas` take their deltas here."""
    distance = _View.of(problem, np.abs(new - old))
    return tuple(float((w * d).max()) if d.size else 0.0 for w, d in zip(weights, distance))


@quiet
def component_deltas(
    new: SolutionTriple,
    old: SolutionTriple,
    problem: HybridProblem,
    mu: float,
) -> tuple[float, float, float]:
    """Weighted distances between two triples, one per component.

    The exponentially weighted suprema of the differences of their node
    values, at weight ``mu`` (:meth:`HybridProblem.decay`), as a picard
    sweep takes its deltas (:func:`_deltas`); an empty component is 0.  A
    difference that overflows gives a distance that is not finite.
    """
    return _deltas(problem, problem.decay(mu), _values(new), _values(old))
