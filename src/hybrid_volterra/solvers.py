"""Fixed-point solvers for hybrid problems.

Two routes to the same discrete fixed point:

* :func:`picard_solve` - global successive approximation: all three
  components are re-evaluated over the whole horizon each sweep, and
  progress is measured in the exponentially weighted norms at weight mu.
* :func:`segment_solve` - marches segment by segment through the partition
  and accepts the segments left to right.  Segment l stops on its own
  deltas: its continuous nodes, the fixed-impulse values eta_j it owns
  (tau_j at its end) and the moving-trace entries beta_p(t) that it consumes
  first (sigma_p(t) in the segment, past the end of the one before).  On a
  grid of at most ``_AHEAD_TIMES`` times, each of its sweeps carries the
  unsolved remainder: it is a picard sweep, against one table of the whole
  grid that the march keeps across its segments, that keeps the nodes,
  fixed-impulse values and trace entries that earlier segments solved at
  their bits.  So a later segment starts from values that earlier sweeps
  have iterated, not from the forcing term, and needs fewer sweeps.  Every
  membership test looks strictly into the past, so the march is well posed
  and the segment's own values have the bits of an evaluation of the
  segment alone.  On a larger grid, where the sweeps saved no longer pay
  for a picard sweep each, each segment iterates alone: an index view of
  ``problem.sweep`` (:class:`~.operator._Subset`) of its own times, against
  a table of its own columns (:func:`~.operator._window`).  When a
  carrying sweep fails, on a kernel error (at a solved time too) or a
  non-finite value, in any segment, the march starts again from its first
  iterate and takes each segment alone: it ends with the bytes of a march
  of the segments alone, which can converge where the carrying march fails.

Both iterate one array laid out as the times of ``problem.sweep`` (xi at
the N nodes, then eta, then the beta rows), the one state the operator
reads, by component through :class:`~.operator._View`.  A picard sweep is
one evaluation of ``problem.sweep`` on it, against the one memory table
of the whole grid that picard keeps and fills in every sweep and in its
image, and its deltas are those of :func:`~.operator.component_deltas`
(:func:`~.operator._deltas`).  A carrying march sweep is the same
evaluation, which keeps the solved values.  The batch of a segment
marched alone is an index view of ``problem.sweep``: the segment's nodes,
its fixed-impulse times, then its fresh trace entries, and the sweep
writes its evaluation into a copy of the array there.  So eta_j is the
operator formula at tau_j in both solvers, and a march sweep is a picard
sweep restricted to the values it writes.  A solve locates and evaluates
its times once.
A sweep of either solver and an image are one function under one
floating-point guard (:func:`_sweep`): it fills its table, evaluates,
checks the update for finiteness and takes its deltas or its distance.

Both return the solution triple plus a :class:`SolveReport` with per-sweep
component deltas (useful for checking contraction-rate predictions); the
triple, and the image below, are the only :class:`~.operator.SolutionTriple`
a solve builds.  The report also keeps the image of the returned iterate,
from one more evaluation of ``problem.sweep``, with the bits of
:func:`~.operator.apply_operator`, against the solver's own table:
picard's or the carrying march's, filled once more, or the last
segment's of a march alone, which spans the grid, filled from that
segment's first changeable column.  The final
residual is the image's sup distance from the iterate, and its two values
at each duplicated breakpoint node give the jump the operator predicts
there, so a caller needs no second evaluation of the iterate.  A kernel
domain error or a non-finite update stops either solver, in a sweep or in
that image: it returns the last finite iterate, unconverged, with
``failed`` set and a note saying which failure it was.

Each solver is its iteration (:func:`_picard`, :func:`_march`), which
returns the last iterate as an array, and then that image and triple
(:func:`_solved`).  :func:`convergence_table` runs the iteration alone,
because it reads only the node values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .contraction import NoContractiveWeight, find_mu
from .expressions import EvaluationError, quiet
from .operator import (
    EPS,
    HybridProblem,
    SolutionTriple,
    _deltas,
    _memory,
    _sc_eval,
    _Subset,
    _triple,
    _values,
    _View,
    _window,
)
from .piecewise import NonFiniteValues, PiecewiseFn


@dataclass
class SolveReport:
    """What a solver did: sweep count, per-sweep deltas, final residual.

    ``image`` is the operator's image of the returned iterate (a
    :class:`~.operator.SolutionTriple`, or the
    :class:`~.piecewise.PiecewiseFn` of a series solve), None when the
    solver failed before it or took none (a level of
    :func:`convergence_table`).
    """

    method: str
    iterations: int
    mu: float
    converged: bool
    deltas: list[tuple[float, float, float]] = field(default_factory=list)
    final_residual: float = math.nan
    notes: tuple[str, ...] = ()
    failed: bool = False  # stopped on a kernel error or a non-finite update
    image: SolutionTriple | PiecewiseFn | None = field(default=None, repr=False, compare=False)

    @property
    def max_deltas(self) -> list[float]:
        return [max(d) for d in self.deltas]


def _default_mu(problem: HybridProblem) -> tuple[float, tuple[str, ...]]:
    """Weight for progress measurement: certified if constants allow."""
    if problem.lipschitz is not None:
        s = problem.schedule
        try:
            mu = find_mu(problem.lipschitz, s.horizon, s.h, s.n_tau, s.n_sigma)
            return mu, (f"mu={mu:.6g} from declared constants",)
        except NoContractiveWeight:
            return 1.0, ("declared constants admit no contractive weight; mu=1",)
    return 1.0, ()


# what stops a solver early, keeping its last finite iterate
_NUMERICAL_FAILURES = (EvaluationError, NonFiniteValues)


def _require_finite_floats(*values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise NonFiniteValues("non-finite update")


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteValues("non-finite update")


def _stop(report: SolveReport, exc: Exception, where: str | None = None) -> None:
    """Record a numerical failure, by default in the sweep after the last one."""
    where = f"sweep {report.iterations + 1}" if where is None else where
    if isinstance(exc, NonFiniteValues):
        note = f"diverged: non-finite update in {where}"
    else:
        note = f"kernel error in {where}: {exc}"
    report.converged = False
    report.failed = True
    report.notes += (note,)


def _start(problem: HybridProblem, init, report: SolveReport) -> np.ndarray | None:
    """The first iterate as a new array laid out as the times of one sweep
    (:class:`~.operator._View`): ``init``, else the forcing term x0 at
    those times, as ``problem.sweep`` keeps it; None if that fails."""
    if init is not None:
        return _values(init)
    try:
        x0 = problem.sweep.x0
        if not np.isfinite(x0).all():
            raise NonFiniteValues("non-finite forcing term")
    except _NUMERICAL_FAILURES as exc:
        _stop(report, exc, "the forcing term x0")
        return None
    return x0.copy()


def _iterate(report: SolveReport, cur, sweep, tol: float, kmax: int):
    """Iterate ``cur, deltas = sweep(cur)`` until every delta is at most ``tol``.

    Records each sweep in ``report``; a numerical failure ends the loop
    through :func:`_stop`.  Returns the last finite iterate and whether it
    met ``tol`` within ``kmax`` sweeps.
    """
    for _ in range(kmax):
        try:
            new, deltas = sweep(cur)
            _require_finite_floats(*deltas)
        except _NUMERICAL_FAILURES as exc:
            _stop(report, exc)
            return cur, False
        report.deltas.append(deltas)
        report.iterations += 1
        cur = new
        if max(deltas) <= tol:
            return cur, True
    return cur, False


def _finish(image_of, cur, report: SolveReport) -> None:
    """Keep the image of the returned iterate ``cur`` on ``report``, with its
    unweighted sup distance from ``cur`` as the final residual: both are
    ``image_of(cur)``.  A numerical failure there stops the solve as one in
    a sweep does, and leaves the residual NaN."""
    try:
        image, distance = image_of(cur)
        _require_finite_floats(distance)
    except _NUMERICAL_FAILURES as exc:
        _stop(report, exc, "the residual")
        return
    report.image, report.final_residual = image, distance


def _image(problem: HybridProblem, cur: np.ndarray, table=None) -> tuple[SolutionTriple, float]:
    """The image of the iterate ``cur`` as a triple and its unweighted sup
    distance from ``cur``: one :func:`_sweep` of ``problem.sweep`` against
    ``table``, the solver's own, filled once more."""
    (image, _), distance = _sweep(problem, problem.sweep, None, _distance, (cur, table))
    return _triple(problem, image), distance


def _solved(problem: HybridProblem, cur: np.ndarray | None, report: SolveReport,
            image_of) -> tuple[SolutionTriple | None, SolveReport]:
    """What a solver returns after its iteration: the triple of the iterate
    ``cur`` (None when there is none), with :func:`_finish` keeping
    ``image_of(cur)`` on ``report`` unless the iteration failed."""
    if cur is None:
        return None, report
    if not report.failed:
        _finish(image_of, cur, report)
    return _triple(problem, cur), report


def _picard(problem: HybridProblem, init, mu: float, notes: tuple[str, ...],
            tol: float, kmax: int):
    """The iteration of :func:`picard_solve` at the weight ``mu``: the last
    iterate as an array laid out as the times of one sweep (None when the
    forcing term fails), its report, and how to take its image."""
    report = SolveReport("picard", 0, float(mu), False, notes=notes)
    cur = _start(problem, init, report)
    if cur is None:
        return None, report, None
    sweep = partial(_sweep, problem, problem.sweep, None,
                    partial(_deltas, problem, problem.decay(mu)))
    # one table of the whole grid, filled by every sweep and by the image
    (cur, table), report.converged = _iterate(report, (cur, None), sweep, tol, kmax)
    return cur, report, partial(_image, problem, table=table)


def picard_solve(
    problem: HybridProblem,
    init: SolutionTriple | None = None,
    mu: float | None = None,
    tol: float = 1e-10,
    kmax: int = 200,
) -> tuple[SolutionTriple | None, SolveReport]:
    """Global successive approximation from ``init`` (default: forcing term).

    Stops when all three weighted component deltas fall to ``tol``, or on
    a numerical failure.  The returned triple is None only when the forcing
    term itself fails to evaluate.  The deltas are those of
    :func:`~.operator.component_deltas` of the two iterates of each sweep:
    both take them from :func:`~.operator._deltas`.
    """
    notes: tuple[str, ...] = ()
    if mu is None:
        mu, notes = _default_mu(problem)
    return _solved(problem, *_picard(problem, init, mu, notes, tol, kmax))


def _sup(a: np.ndarray) -> float:
    return float(np.abs(a).max(initial=0.0))


def _distance(new: np.ndarray, old: np.ndarray) -> float:
    """The unweighted sup distance between two iterates: an image's."""
    return _sup(new - old)


def _sups(owned: tuple, new: np.ndarray, old: np.ndarray) -> tuple[float, float, float]:
    """The plain sup of ``new - old`` over each index of ``owned``: the
    deltas of a march segment, over its nodes, its fixed-impulse times and
    its fresh trace entries."""
    return tuple(_sup(new[own] - old[own]) for own in owned)


@quiet
def _sweep(problem: HybridProblem, batch, window, deltas, state, solved=None):
    """One sweep of either solver, or the image of an iterate, under its
    one floating-point guard.

    ``state`` is the iterate, an array laid out as the times of one sweep
    (:class:`~.operator._View`), and the solver's memory table, None before
    the first sweep makes it over the columns of ``window``
    (:func:`~.operator._window`; the whole grid when None).  The table is
    filled with the iterate (:func:`~.operator._memory`) and ``batch`` is
    evaluated against it.  The new iterate is that evaluation, with the
    iterate's own values kept at the indices ``solved`` when given (what
    earlier march segments solved), or, for a segment's index view of
    ``problem.sweep`` (:class:`~.operator._Subset`), a copy of the iterate
    with the evaluation written in at ``batch.index``; it must be finite.
    Returns the new state and ``deltas(new, old)``: picard's weighted
    deltas (:func:`~.operator._deltas`), a segment's plain sups over the
    values it owns (:func:`_sups`), or an image's distance (:func:`_distance`).
    """
    old, table = state
    view = _View.of(problem, old)
    table = _memory(problem, view, table, window)
    new = _sc_eval(problem, view, batch, table)
    if solved is not None:
        new[solved] = old[solved]
    _require_finite(new)
    if batch is not problem.sweep:
        new, out = old.copy(), new
        new[batch.index] = out
    return (new, table), deltas(new, old)


# The most times (N nodes, the fixed-impulse times and every trace entry)
# at which the march carries the unsolved remainder.  A carrying sweep
# costs a picard sweep, O(N) besides its fixed cost, and a sweep alone
# O(n_l + fresh columns), so the sweeps that carrying saves pay only while
# the fixed cost dominates, and the more segments, the sooner they stop
# paying.  In process (2 vCPUs), on the mixed problem (4 segments) carrying
# took 0.59x the time of the march of the segments alone at 2058 times,
# 0.68-0.90x at 4106 to 16394 and 1.07x at 32778; with 13 fixed
# impulses (15 segments) 0.75x at 1963 times, 0.87-0.96x at 3883 to 4843,
# 1.09x at 5803 and 1.29x at 8683.
_AHEAD_TIMES = 5120


def _march(problem: HybridProblem, init, tol: float, kmax: int):
    """The iteration of :func:`segment_solve`: the last iterate as an array
    laid out as the times of one sweep (None when the forcing term fails),
    its report, and how to take its image.

    A march of more than one segment over at most ``_AHEAD_TIMES`` times
    carries the unsolved remainder in its sweeps (:func:`_segments`).  When
    one of its sweeps fails, on a kernel error or a non-finite value, in
    any segment, at a solved time too, the march starts again from the same first iterate, which
    no sweep writes in place, and takes each segment alone, with a new
    report: so an input whose march fails in a sweep ends as a march of
    the segments alone does, with the same iterate, sweep count and notes,
    and the march of the segments alone can converge where the carrying
    march fails.
    """
    report = SolveReport("segment", 0, 0.0, True)
    cur = _start(problem, init, report)
    if cur is None:
        return None, report, None
    if problem.grid.num_segments > 1 and problem.sweep.te.size <= _AHEAD_TIMES:
        carried = _segments(problem, cur, report, tol, kmax, ahead=True)
        if not report.failed:
            return carried
        report = SolveReport("segment", 0, 0.0, True)
    return _segments(problem, cur, report, tol, kmax, ahead=False)


def _segments(problem: HybridProblem, cur: np.ndarray, report: SolveReport, tol: float,
              kmax: int, ahead: bool):
    """The march from the iterate ``cur``, segment by segment, as
    :func:`_march` returns it.

    When ``ahead`` is set, each sweep of segment l is a picard sweep that
    keeps the values earlier segments solved, against one table of the
    whole grid for every segment and the image, so that a later segment
    starts from values that the earlier sweeps have iterated.  Otherwise
    each segment iterates alone, on its own times and table.  A numerical
    failure in a sweep ends the march with ``report.failed`` set.
    """
    grid = problem.grid
    N = grid.size
    traces = N + problem.n_tau  # where the beta rows start in the iterate
    consumed = np.zeros(problem.sigma_grid.shape, dtype=bool)
    eta = slice(N, N)
    table = None
    for l in range(grid.num_segments):
        nodes = grid.segment_slice(l)
        end = float(grid.partition[l + 1]) + EPS
        now = problem.sigma_grid <= end
        fresh = traces + np.flatnonzero(now & ~consumed)
        # the fixed impulses the segment owns: at or before its end, after
        # the last segment's
        eta = slice(eta.stop, N + int(np.searchsorted(problem.tau, end, side="right")))
        sups = partial(_sups, (nodes, eta, fresh))
        if ahead:  # keep what earlier segments solved
            solved = np.concatenate([np.arange(nodes.start), np.arange(N, eta.start),
                                     traces + np.flatnonzero(consumed)])
            sweep = partial(_sweep, problem, problem.sweep, None, sups, solved=solved)
        else:
            index = np.concatenate([np.arange(nodes.start, nodes.stop),
                                    np.arange(eta.start, eta.stop), fresh])
            batch = _Subset(problem.sweep, index, nodes)
            sweep = partial(_sweep, problem, batch, _window(problem, nodes, batch, consumed),
                            sups)
            table = None
        consumed = now
        (cur, table), done = _iterate(report, (cur, table), sweep, tol, kmax)
        if report.failed:
            return cur, report, None
        if not done:
            report.converged = False
            report.notes += (f"segment {l} hit the sweep limit",)
    # the carrying march's table spans the grid, and so does the last
    # segment's alone, which admits every fixed impulse that a membership
    # of a sweep admits: the image fills it again with the returned iterate
    return cur, report, partial(_image, problem, table=table)


def segment_solve(
    problem: HybridProblem,
    init: SolutionTriple | None = None,
    tol: float = 1e-10,
    kmax: int = 200,
) -> tuple[SolutionTriple | None, SolveReport]:
    """March the partition left to right with an inner sweep per segment.

    The first node of a segment carries the right limit at its breakpoint
    and is fully determined by earlier segments.  Segment l refreshes the
    fixed-impulse values and the moving-trace entries it owns, those with
    tau_j or sigma_p in (end_{l-1}, end_l] (closed below for the first
    segment), in each sweep from the sweep's starting iterate, as it
    updates its nodes: an entry consumed earlier reads only segments
    already solved.  Every sigma_p lies in [0, T] at the nodes, so the
    last segment leaves no entry unconsumed.  Deltas are plain suprema (no weight): each segment is
    short, so no damping is needed for a sound stop rule.
    """
    return _solved(problem, *_march(problem, init, tol, kmax))


# ---------------------------------------------------------------------------
# Resolution study


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup errors against a Richardson reference as resolution doubles."""

    resolutions: tuple[int, ...]
    errors: tuple[float, ...]
    ratios: tuple[float, ...]

    def rows(self) -> list[dict]:
        out = []
        for i, (res, err) in enumerate(zip(self.resolutions, self.errors)):
            row = {"panels": res, "sup_error": err}
            if i > 0:
                row["ratio"] = self.ratios[i - 1]
            out.append(row)
        return out


class UnconvergedRun(RuntimeError):
    """A run of the resolution study that ended unconverged; ``report`` says why."""

    def __init__(self, panels: int, report: SolveReport):
        super().__init__(f"solver did not converge at {panels} panels")
        self.panels = panels
        self.report = report


def at_resolution(problem: HybridProblem, panels: int) -> HybridProblem:
    """The same problem re-sampled with ``panels`` panels per segment."""
    return HybridProblem.build(
        schedule=problem.schedule,
        panels=panels,
        x0=problem.x0,
        f1=problem.f1,
        f2=problem.f2,
        G1=problem.G1,
        G2=problem.G2,
        G3=problem.G3,
        g=problem.g,
        lipschitz=problem.lipschitz,
    )


def convergence_table(
    problem: HybridProblem,
    resolutions: tuple[int, ...] = (16, 32, 64, 128),
    method: str = "picard",
    tol: float = 1e-12,
    kmax: int = 200,
) -> ConvergenceReport:
    """Solve at doubling resolutions and report sup errors and ratios.

    The reference is the Richardson extrapolant (4 x_fine - x_half) / 3 of
    the two finest runs; errors are suprema over the coarsest grid's nodes,
    which are exact nodes of every finer grid because resolutions double.
    A second-order scheme shows ratios near 4, and the last ratio is 4
    whatever the order, because of that reference.  A run that does not
    converge raises :class:`UnconvergedRun`.

    The study finds picard's weight once (:func:`_default_mu`): it depends
    on the declared constants, the horizon, ``h`` and the impulse counts,
    which every resolution shares.  Each level runs the solver's iteration
    alone, for its node values, so it takes no image: a level whose
    converged iterate has an image that fails to evaluate does not stop the
    study, and the report of :class:`UnconvergedRun` carries no
    ``final_residual`` (NaN) and no ``image``.
    """
    res = tuple(int(r) for r in resolutions)
    if len(res) < 2:
        raise ValueError("need at least two resolutions")
    for a, b in zip(res, res[1:]):
        if b != 2 * a:
            raise ValueError(f"resolutions must double: {a} -> {b}")
    if method == "picard":
        mu, notes = _default_mu(problem)
        run = partial(_picard, init=None, mu=mu, notes=notes)
    elif method == "segment":
        run = partial(_march, init=None)
    else:
        raise ValueError(f"unknown method {method!r}")

    base = res[0]
    nseg = problem.grid.num_segments
    sols = []
    for r in res:
        cur, rep, _ = run(at_resolution(problem, r), tol=tol, kmax=kmax)
        if not rep.converged:
            raise UnconvergedRun(r, rep)
        stride = r // base
        w = r + 1
        keep = np.concatenate(
            [l * w + stride * np.arange(base + 1) for l in range(nseg)]
        )
        sols.append(cur[keep])  # xi at the coarsest nodes: the iterate begins with them
    ref = (4.0 * sols[-1] - sols[-2]) / 3.0
    errors = tuple(float(np.max(np.abs(s - ref))) for s in sols)
    ratios = tuple(
        errors[i] / errors[i + 1] if errors[i + 1] > 0 else math.inf
        for i in range(len(errors) - 1)
    )
    return ConvergenceReport(res, errors, ratios)
