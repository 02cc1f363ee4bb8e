"""Command-line front end (installed as ``hv``).

Subcommands::

    hv solve PROBLEM               iterate to a solution, write CSV/report
    hv analyze PROBLEM             roots, separation, contraction analysis
    hv series-solve PROBLEM        solve a cube-integral series problem
    hv convergence-report PROBLEM  sup errors and ratios across resolutions
    hv roots PROBLEM               crossing times of the moving impulses
    hv check-matrix A11 .. A33     verdicts for an explicit 3x3 matrix

Exit codes: 0 success, 1 invalid input (including a ``--mu`` that is not
positive and finite or that is given to ``solve --method segment``, a
``--state-bound`` that is not positive or whose box ``[-B, B]`` is wider
than the largest float, a ``--tol`` that is not positive or a ``--kmax``
below 1) or an ``--out``/``--report`` path that cannot be written, 2
separation requirement failed, 3 iteration did not converge, 4 a kernel
domain error or a non-finite value in ``solve``, ``series-solve``,
``convergence-report`` or ``analyze --estimate``, or a matrix whose
invariants, criterion quantities or spectral radius overflow: finite
``check-matrix`` entries (an entry that is not finite exits 1), which
still print the invariants, the radius and its verdict where those are
finite, or the bound matrix of ``analyze``, which still prints its report
(``solve`` notes it in its report and keeps its own exit code).  A path
that cannot be written exits 1 even where the run would have exited 2, 3
or 4, because the outputs it promised are not there.  Output is
deterministic for fixed inputs; ``HV_SEED`` seeds the Lipschitz estimator
behind ``analyze --estimate``.
"""

from __future__ import annotations

import math
import os
import sys

import click
import numpy as np

from .contraction import (
    LipschitzSet,
    NoContractiveWeight,
    char_invariants,
    contraction_bounds,
    criterion_quantities,
    find_mu,
    is_contractive_criterion,
    is_contractive_eigen,
    spectral_radius,
)
from .expressions import EvaluationError, estimate_lipschitz
from .operator import HybridProblem
from .problem_io import (
    LoadedProblem,
    ProblemFileError,
    SolverSettings,
    dump_report,
    load_problem_file,
    write_report,
    write_solution_csv,
)
from .schedule import check_separation
from .series import series_contraction_coefficient, series_solve
from .solvers import UnconvergedRun, convergence_table, picard_solve, segment_solve

_TIME_ARGS = frozenset(("t", "s", "s1", "tau", "taui", "tauj", "sig"))

# constant name -> (kernel attribute, argument the constant bounds)
_ESTIMATE_PLAN = (
    ("L1", "f1", "x"),
    ("L21", "f2", "x"),
    ("L22", "f2", "x1"),
    ("LG1", "G1", "eta"),
    ("LG21", "G2", "etai"),
    ("LG22", "G2", "etaj"),
    ("LG31", "G3", "eta"),
    ("LG32", "G3", "beta"),
    ("Lg1", "g", "x"),
    ("Lg2", "g", "beta"),
    ("Lg3", "g", "eta"),
)


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str, want: str) -> LoadedProblem:
    try:
        loaded = load_problem_file(path)
    except ProblemFileError as exc:
        _fail(str(exc), 1)
    if loaded.kind != want:
        other = "series-solve" if loaded.kind == "series" else "solve"
        _fail(f"{path} is a {loaded.kind} problem; use `hv {other}`", 1)
    return loaded


def _seed() -> int:
    raw = os.environ.get("HV_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        _fail(f"HV_SEED must be an integer, got {raw!r}", 1)


def _iteration_settings(settings: SolverSettings, mu, tol, kmax) -> SolverSettings:
    """``settings`` overridden by --mu/--tol/--kmax; exit 1 on an invalid value."""
    resolved = SolverSettings(
        mu=settings.mu if mu is None else mu,
        tol=settings.tol if tol is None else tol,
        kmax=settings.kmax if kmax is None else kmax,
    )
    if resolved.mu is not None and not 0 < resolved.mu < math.inf:
        _fail(f"--mu must be positive and finite, got {resolved.mu!r}", 1)
    if not resolved.tol > 0:
        _fail(f"--tol must be positive, got {resolved.tol!r}", 1)
    if resolved.kmax < 1:
        _fail(f"--kmax must be at least 1, got {resolved.kmax}", 1)
    return resolved


def _write(writer, path, data) -> None:
    """``writer(path, data)``; exit 1 when ``path`` cannot be written."""
    try:
        writer(path, data)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}", 1)


def _exit_unfinished(rep, kmax: int, where: str = "") -> None:
    """Exit 4 after a numerical failure, or 3 when the sweep limit was hit."""
    if rep.failed:
        _fail(f"iteration stopped after {rep.iterations} sweeps{where}: {rep.notes[-1]}", 4)
    if not rep.converged:
        _fail(f"did not converge within {kmax} iterations{where}", 3)


def _finish_run(rep, kmax: int, solution, report: dict, out, report_path, headline: str):
    """Write the CSV and the report of a run, echo its summary, set its exit code.

    ``solution`` is the function the CSV holds, None when the forcing term
    itself failed; the mu line is echoed unless ``report["mu"]`` is None.
    """
    out = out if solution is not None else None
    if out:
        _write(write_solution_csv, out, solution)
        report["solution_csv"] = str(out)
    if report_path:
        _write(write_report, report_path, report)

    click.echo(headline)
    click.echo(f"iterations: {rep.iterations}")
    if report["mu"] is not None:
        click.echo(f"mu: {rep.mu!r}")
    click.echo(f"converged: {str(rep.converged).lower()}")
    click.echo(f"final residual: {rep.final_residual:.6e}")
    for note in rep.notes:
        click.echo(f"note: {note}")
    if out:
        click.echo(f"wrote solution: {out}")
    if report_path:
        click.echo(f"wrote report: {report_path}")
    _exit_unfinished(rep, kmax)


def _separation_block(problem: HybridProblem) -> dict:
    rep = check_separation(problem.schedule)
    block = {"ok": bool(rep.ok)}
    if rep.ok:
        block["detail"] = "verified on grid (1024 points per check)"
    else:
        block["clause"] = rep.clause
        block["detail"] = rep.detail
    return block


def _conventions(problem: HybridProblem) -> list[str]:
    notes = [
        "impulse sums are strict: a term enters only for times strictly "
        "below the evaluation time, and values at breakpoints are left limits",
        f"the bound matrix uses global impulse counts ({problem.n_tau} fixed, "
        f"{problem.n_sigma} moving) rather than per-time counts",
        "moving-impulse columns of the bound matrix use the declared "
        "separation scale h for their geometric tails",
        "separation is checked on a finite grid, not proven",
    ]
    return notes


def _matrix_numbers(m) -> tuple[dict[str, float], str | None]:
    """The invariants, criterion quantities and spectral radius of the 3x3
    matrix ``m``, by name, and why no verdict is given when one of them is
    not finite, else None."""
    tr, s2, d = char_invariants(m)
    p0, p1, p3, q4 = criterion_quantities(m)
    numbers = {"trace": tr, "pair_sum": s2, "det": d, "p0": p0, "p1": p1, "p3": p3,
               "q4": q4, "spectral radius": spectral_radius(m)}
    bad = ", ".join(f"{k} {v!r}" for k, v in numbers.items() if not math.isfinite(v))
    return numbers, f"the matrix's invariants overflow: {bad}" if bad else None


def _contraction_block(lip: LipschitzSet, horizon: float, h: float, n_tau: int, n_sigma: int,
                       mu: float | None) -> tuple[dict, str | None]:
    """The report's contraction block, and why it holds no verdicts, when
    its bound matrix overflows (:func:`_matrix_numbers`), else None: then
    its ``note`` says so in their place."""
    block = {"constants": {k: getattr(lip, k) for k, _, _ in _ESTIMATE_PLAN}}
    if mu is None:
        try:
            mu = find_mu(lip, horizon, h, n_tau, n_sigma)
            block["mu_star"] = float(mu)
        except NoContractiveWeight as exc:
            block["mu_star"] = None
            block["note"] = str(exc)
            return block, None
    else:
        block["mu"] = float(mu)
    matrix = contraction_bounds(lip, mu, horizon, h, n_tau, n_sigma)
    numbers, overflow = _matrix_numbers(matrix)
    block["matrix"] = [[float(v) for v in row] for row in matrix.entries]
    block["invariants"] = {k: numbers[k] for k in ("trace", "pair_sum", "det")}
    if overflow:
        block["note"] = overflow
        return block, overflow
    block["criterion_quantities"] = [numbers[k] for k in ("p0", "p1", "p3", "q4")]
    block["contractive_criterion"] = bool(is_contractive_criterion(matrix))
    block["spectral_radius"] = numbers["spectral radius"]
    block["contractive_eigen"] = bool(is_contractive_eigen(matrix))
    return block, None


def _estimated_constants(problem: HybridProblem, bound: float, seed: int) -> LipschitzSet:
    horizon = problem.grid.horizon
    values = {}
    for name, attr, wrt in _ESTIMATE_PLAN:
        expr = getattr(problem, attr)
        if expr.is_zero:
            values[name] = 0.0
            continue
        box = {
            arg: (0.0, horizon) if arg in _TIME_ARGS else (-bound, bound)
            for arg in expr.arity
        }
        try:
            values[name] = estimate_lipschitz(
                expr, wrt, box, samples=512, seed=seed, safety=1.1
            )
        except EvaluationError as exc:
            _fail(f"cannot estimate {name} ({attr}) on the state box: {exc}", 4)
    return LipschitzSet(**values)


def _jump_rows(problem: HybridProblem, triple, image) -> list[dict]:
    """One row per interior point of the partition, read from stored nodes.

    ``image`` is the operator's image of ``triple``.  At a partition point
    the last node of the segment to its left and the first node of the one
    to its right hold the two one-sided values, so the predicted jump is
    the difference of ``image`` there and ``left`` and ``right`` are the
    values of ``triple``.  A breakpoint within ``MERGE_TOL`` of 0 or of
    the horizon is no partition point: the solution has no jump there and
    it gets no row.
    """
    grid = problem.grid
    right = (grid.panels + 1) * np.arange(1, grid.num_segments)
    left = right - 1
    xi, image_xi = triple.xi.values, image.xi.values
    columns = (image_xi[right] - image_xi[left], xi[left], xi[right])
    rows = []
    for alpha, predicted, left, right in zip(
        grid.partition[1:-1].tolist(), *(c.tolist() for c in columns)
    ):
        rows.append(
            {
                "t": alpha,
                "predicted_jump": predicted,
                "realized_jump": right - left,
                "left": left,
                "right": right,
                "mismatch": abs(predicted - (right - left)),
            }
        )
    return rows


@click.group()
def cli() -> None:
    """Solvers and contraction analysis for integral equations with impulses."""


@cli.command()
@click.argument("problem_file", type=click.Path())
@click.option(
    "--method",
    type=click.Choice(["picard", "segment"]),
    default="picard",
    show_default=True,
    help="Global sweeps, or a left-to-right march over the partition.",
)
@click.option("--out", type=click.Path(), default=None, help="Solution CSV path.")
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write a YAML run report here.")
@click.option("--mu", type=float, default=None, help="Weight of the iteration norm.")
@click.option("--tol", type=float, default=None, help="Convergence tolerance.")
@click.option("--kmax", type=int, default=None, help="Iteration cap.")
@click.option(
    "--require-separation",
    "--require-h7",
    "require_separation",
    is_flag=True,
    help="Exit 2 unless the impulse-separation rules hold on the check grid.",
)
def solve(problem_file, method, out, report_path, mu, tol, kmax, require_separation):
    """Solve the integral equation in PROBLEM_FILE."""
    loaded = _load(problem_file, "hybrid")
    problem = loaded.problem
    if method == "segment" and mu is not None:
        # the march stops on plain sups; a mu in the file serves picard
        _fail("--mu applies to --method picard only", 1)
    settings = _iteration_settings(loaded.settings, mu, tol, kmax)

    sep = _separation_block(problem)
    if require_separation and not sep["ok"]:
        _fail(f"separation requirement failed: {sep['detail']}", 2)

    if method == "picard":
        triple, rep = picard_solve(
            problem, mu=settings.mu, tol=settings.tol, kmax=settings.kmax
        )
    else:
        triple, rep = segment_solve(problem, tol=settings.tol, kmax=settings.kmax)

    report = {
        "problem": str(problem_file),
        "method": rep.method,
        "mu": float(rep.mu) if method == "picard" else None,
        "iterations": rep.iterations,
        "converged": bool(rep.converged),
        "final_residual": float(rep.final_residual),
        "tolerance": float(settings.tol),
        "notes": list(rep.notes),
        "separation": sep,
        # a failed solve has no image of its last iterate
        "jumps": [] if rep.failed else _jump_rows(problem, triple, rep.image),
        "conventions": _conventions(problem),
    }
    if problem.lipschitz is not None:
        # a bound matrix that overflows leaves a note; the exit is the solve's
        report["contraction"], _ = _contraction_block(
            problem.lipschitz, problem.grid.horizon, problem.schedule.h, problem.n_tau,
            problem.n_sigma, report["mu"])
    # no iterate to write when the forcing term itself fails
    xi = None if triple is None else triple.xi
    _finish_run(rep, settings.kmax, xi, report, out, report_path, f"method: {rep.method}")


@cli.command()
@click.argument("problem_file", type=click.Path())
@click.option("--mu", type=float, default=None,
              help="Evaluate the bound matrix at this weight instead of searching.")
@click.option("--estimate", is_flag=True,
              help="Estimate missing Lipschitz constants by sampling the kernels.")
@click.option("--state-bound", type=float, default=2.0, show_default=True,
              help="Half-width of the state box used by --estimate.")
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option(
    "--require-separation",
    "--require-h7",
    "require_separation",
    is_flag=True,
    help="Exit 2 if a separation rule fails on the check grid.",
)
def analyze(problem_file, mu, estimate, state_bound, report_path, require_separation):
    """Report breakpoints, separation, and contraction verdicts."""
    loaded = _load(problem_file, "hybrid")
    problem = loaded.problem
    schedule = problem.schedule
    mu = _iteration_settings(SolverSettings(), mu, None, None).mu

    report = {
        "problem": str(problem_file),
        "horizon": float(problem.grid.horizon),
        "h": float(schedule.h),
        "tau": [float(t) for t in schedule.tau],
        "sigma": [s.to_source() for s in schedule.sigma],
        "sigma_roots": [
            [float(r) for r in np.atleast_1d(roots)] for roots in schedule.roots
        ],
        "breakpoints": [float(b) for b in np.atleast_1d(schedule.breakpoints)],
        "partition": [float(p) for p in schedule.partition],
        "separation": _separation_block(problem),
    }

    lip = problem.lipschitz
    if estimate:
        # the state box [-bound, bound] must have a finite width to be sampled
        if not (state_bound > 0 and math.isfinite(2 * state_bound)):
            _fail(
                f"--state-bound must be positive and at most {sys.float_info.max / 2!r}"
                f" (half the largest float), got {state_bound!r}",
                1,
            )
        seed = _seed()
        lip = _estimated_constants(problem, state_bound, seed)
        report["lipschitz_source"] = (
            f"estimated by sampling (seed {seed}, safety factor 1.1, "
            f"state box [-{state_bound:g}, {state_bound:g}])"
        )
    elif lip is not None:
        report["lipschitz_source"] = "declared in problem file"

    overflow = None
    if lip is not None:
        report["contraction"], overflow = _contraction_block(
            lip, problem.grid.horizon, schedule.h, problem.n_tau, problem.n_sigma, mu)
    else:
        report["contraction"] = None
        report["note"] = (
            "no Lipschitz constants; declare them in the file or pass --estimate"
        )
    report["conventions"] = _conventions(problem)

    text = dump_report(report)
    click.echo(text, nl=False)
    if report_path:
        _write(write_report, report_path, text)
    if require_separation and not report["separation"]["ok"]:
        _fail(f"separation requirement failed: {report['separation']['detail']}", 2)
    if overflow:
        _fail(overflow, 4)


@cli.command("series-solve")
@click.argument("problem_file", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Solution CSV path.")
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option("--mu", type=float, default=None)
@click.option("--tol", type=float, default=None)
@click.option("--kmax", type=int, default=None)
def series_solve_cmd(problem_file, out, report_path, mu, tol, kmax):
    """Solve the cube-integral series problem in PROBLEM_FILE."""
    loaded = _load(problem_file, "series")
    problem = loaded.problem
    settings = _iteration_settings(loaded.settings, mu, tol, kmax)

    y, rep = series_solve(problem, mu=settings.mu, tol=settings.tol, kmax=settings.kmax)
    report = {
        "problem": str(problem_file),
        "method": rep.method,
        "order": problem.order,
        "mu": float(rep.mu),
        "iterations": rep.iterations,
        "converged": bool(rep.converged),
        "final_residual": float(rep.final_residual),
        "tolerance": float(settings.tol),
        "notes": list(rep.notes),
    }
    if problem.lipschitz is not None:
        report["contraction_coefficient"] = series_contraction_coefficient(
            problem.lipschitz, problem.horizon, rep.mu
        )
    _finish_run(rep, settings.kmax, y, report, out, report_path, f"order: {problem.order}")


@cli.command("convergence-report")
@click.argument("problem_file", type=click.Path())
@click.option("--resolutions", default="16,32,64,128", show_default=True,
              help="Comma-separated nodes per segment; each must double the last.")
@click.option("--method", type=click.Choice(["picard", "segment"]), default="picard",
              show_default=True)
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--kmax", type=int, default=200, show_default=True)
@click.option("--report", "report_path", type=click.Path(), default=None)
def convergence_report(problem_file, resolutions, method, tol, kmax, report_path):
    """Errors against a Richardson reference across doubling resolutions."""
    loaded = _load(problem_file, "hybrid")
    settings = _iteration_settings(SolverSettings(), None, tol, kmax)
    try:
        res = tuple(int(part) for part in resolutions.split(","))
    except ValueError:
        _fail(f"--resolutions must be comma-separated integers, got {resolutions!r}", 1)
    try:
        table = convergence_table(
            loaded.problem, res, method=method, tol=settings.tol, kmax=settings.kmax
        )
    except ValueError as exc:
        _fail(str(exc), 1)
    except UnconvergedRun as exc:
        _exit_unfinished(exc.report, settings.kmax, f" at {exc.panels} panels")

    click.echo(f"{'panels':>8}  {'sup_error':>14}  {'ratio':>8}")
    for i, (r, err) in enumerate(zip(table.resolutions, table.errors)):
        ratio = f"{table.ratios[i - 1]:8.3f}" if i > 0 else f"{'-':>8}"
        click.echo(f"{r:>8}  {err:14.6e}  {ratio}")
    if len(res) == 2:
        click.echo("note: two resolutions make the ratio degenerate; use three or more")
    if report_path:
        _write(
            write_report,
            report_path,
            {
                "problem": str(problem_file),
                "method": method,
                "rows": table.rows(),
            },
        )
        click.echo(f"wrote report: {report_path}")


@cli.command()
@click.argument("problem_file", type=click.Path())
def roots(problem_file):
    """Times at which each moving impulse crosses the current time."""
    loaded = _load(problem_file, "hybrid")
    schedule = loaded.problem.schedule
    for i, (sig, rts) in enumerate(zip(schedule.sigma, schedule.roots)):
        values = ", ".join(repr(float(r)) for r in np.atleast_1d(rts))
        click.echo(f"sigma[{i}] = {sig.to_source()}: roots [{values}]")
    if not schedule.sigma:
        click.echo("no moving impulses")
    bps = ", ".join(repr(float(b)) for b in np.atleast_1d(schedule.breakpoints))
    click.echo(f"breakpoints: [{bps}]")


# an entry such as -0.5 is a number, not an option
@cli.command("check-matrix", context_settings={"ignore_unknown_options": True})
@click.argument("entries", nargs=9, type=float)
def check_matrix(entries):
    """Verdicts for the 3x3 matrix given row by row as nine numbers."""
    for value in entries:
        if not math.isfinite(value):
            _fail(f"matrix entries must be finite, got {value!r}", 1)
    m = np.asarray(entries, dtype=float).reshape(3, 3)
    numbers, overflow = _matrix_numbers(m)
    # a finite radius decides by eigenvalues where only a criterion
    # quantity overflows: that verdict alone is withheld
    if overflow and not all(math.isfinite(numbers[k]) for k in
                            ("trace", "pair_sum", "det", "spectral radius")):
        _fail(overflow, 4)
    click.echo(f"trace: {numbers['trace']!r}")
    click.echo(f"pair_sum: {numbers['pair_sum']!r}")
    click.echo(f"det: {numbers['det']!r}")
    if not overflow:
        quantities = ", ".join(repr(numbers[k]) for k in ("p0", "p1", "p3", "q4"))
        click.echo(f"criterion quantities: {quantities}")
        click.echo(f"contractive by criterion: {str(is_contractive_criterion(m)).lower()}")
    click.echo(f"spectral radius: {numbers['spectral radius']!r}")
    click.echo(f"contractive by eigenvalues: {str(is_contractive_eigen(m)).lower()}")
    if overflow:
        _fail(overflow, 4)


def main(argv=None):
    try:
        cli.main(args=argv, prog_name="hv", standalone_mode=False)
    except click.exceptions.Abort:
        raise SystemExit(1)
    except click.ClickException as exc:
        exc.show()
        raise SystemExit(1)
    raise SystemExit(0)


if __name__ == "__main__":
    main()
