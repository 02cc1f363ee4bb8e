"""One workload in one process, started by ``run.py``; not meant to be run by hand.

Closed loop with a single client: each ``hv`` call goes in-process through
``hybrid_volterra.cli.main`` and the next starts only after the previous
one returned and its output was checked.  Only the call itself is timed;
a short calibration probe runs between calls.  After one unmeasured cycle of the workload's calls, whole cycles run until
``--seconds`` have passed.

``--setup-only`` imports the CLI, writes and loads the workload's inputs and
exits; ``run.py`` times that from process start to exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

QUAD = ("node_cumulative", "integrate_to", "row_integrate_to",
        "triangle_inner_nodes", "cube_diagonal")
OPER = ("apply_continuous", "apply_discrete", "apply_mixed", "jump_at", "residual")
# module -> entry points reported with calls, s and self_s per workload call
REPORTED = {
    "quadrature": QUAD,
    "operator": OPER,
    "expressions": ("evaluate", "parse_kernel", "estimate_lipschitz"),
    "schedule": ("solve_sigma_roots", "check_separation"),
    "contraction": ("find_mu", "contraction_bounds"),
    "problem_io": ("load_problem_file", "write_report", "write_solution_csv"),
    "piecewise": ("eval", "norm_continuous", "norm_discrete", "norm_mixed"),
    "series": ("apply_series_operator",),
}
NO_CALLS = {"piecewise.norm_continuous", "piecewise.norm_discrete",
            "piecewise.norm_mixed"}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    out = []
    for module, names in REPORTED.items():
        for name in names:
            key = f"{module}.{name}"
            if key not in NO_CALLS:
                out.append((f"{key}.calls", "count"))
            out += [(f"{key}.s", "s"), (f"{key}.self_s", "s")]
    out += [(f"{m}.self_s", "s") for m in tracing.MODULES]
    out += [("quadrature.bytes_in", "B"), ("problem_io.bytes_written", "B"),
            ("solvers.sweeps", "count"), ("solvers.sweep_s", "s"),
            ("series.sweeps", "count")]
    out += [(f"operator.term.{t}.s", "s") for t in tracing.TERMS]
    out += [(f"operator.term.{t}.isolated_s", "s") for t in tracing.TERMS]
    out += [(f"{m}.n_exp", "1") for m in _scaled_metrics()]
    out += [("trace.call_s_p50", "s"), ("trace.overhead", "ratio"),
            ("trace.accounted", "ratio")]
    return out


def _scaled_metrics() -> list[str]:
    return ([f"quadrature.{n}.s" for n in QUAD] + ["quadrature.self_s", "quadrature.bytes_in"]
            + [f"operator.{n}.s" for n in OPER] + ["operator.self_s"]
            + [f"operator.term.{t}.s" for t in tracing.TERMS])


def invoke(argv: list[str]) -> workloads.Outcome:
    from hybrid_volterra import cli

    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as caught:  # an uncaught error is a failed call
            exc = caught
    return workloads.Outcome(time.perf_counter() - start, code, exc, out.getvalue(), err.getvalue())


# On a 2-vCPU virtual machine on a shared host, the speed of the same code
# changed by up to 1.8x for seconds to minutes at a time.  Timing a fixed
# task next to every call restates the call's time at a reference speed:
# the calibrated time is the call's wall time times PROBE_REF_S over the
# mean of the probe times just before and just after it.
PROBE_DATA = np.sin(np.arange(65536.0)).reshape(256, 256)
PROBE_REF_S = 0.004


def probe() -> float:
    """Seconds for a fixed mix of numpy and interpreter work, about 4 ms."""
    start = time.perf_counter()
    for _ in range(4):
        np.cumsum(PROBE_DATA, axis=1)
        float((PROBE_DATA * PROBE_DATA).sum())
    sum(i * i for i in range(30000))
    return time.perf_counter() - start


class Series:
    """Times of the completed calls of a loop, and of all its calls."""

    def __init__(self):
        self.done: list[float] = []
        self.every: list[float] = []

    def add(self, seconds: float, completed: bool) -> None:
        self.every.append(seconds)
        if completed:
            self.done.append(seconds)

    @property
    def timed(self) -> list[float]:
        """Times of completed calls; of all calls if none completed."""
        return self.done or self.every

    def p50(self) -> float:
        return statistics.median(self.timed)

    def tail(self) -> tuple[float, int]:
        """Highest whole percentile with at least ten samples beyond it.

        With 20 samples or fewer no percentile above the median has ten
        beyond it, so the median is reported as p50.
        """
        n = len(self.timed)
        pct = max(50, math.floor(100.0 * (1.0 - 10.0 / n)))
        return _quantile(sorted(self.timed), pct / 100.0), pct

    def per_s(self) -> float:
        """Completed calls per second spent in calls."""
        return len(self.done) / sum(self.every)


def _quantile(ordered: list[float], q: float) -> float:
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


class Tally:
    """Wall and calibrated call times and the failures of one timed loop."""

    def __init__(self):
        self.wall = Series()
        self.cal = Series()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.sup_err = 0.0
        self.failures: dict[str, str] = {}

    def run(self, cycle, seconds: float, warmup: bool = True) -> "Tally":
        if warmup:  # one unmeasured cycle: first calls in a process run slow
            for call in cycle:
                invoke(call.argv)
        start = time.perf_counter()
        before = probe()
        cycles = 0
        while cycles < 1 or time.perf_counter() - start < seconds:
            for call in cycle:
                res = invoke(call.argv)
                after = probe()
                calibrated = res.seconds * 2.0 * PROBE_REF_S / (before + after)
                before = after
                verdict = call.check(res)
                self.attempted += 1
                self.wall.add(res.seconds, not verdict.failed)
                self.cal.add(calibrated, not verdict.failed)
                if verdict.sup_err is not None:
                    self.sup_err = max(self.sup_err, verdict.sup_err)
                if verdict.failed:
                    self.failed += 1
                    self.wrong += verdict.wrong
                    self.failures.setdefault(call.label, verdict.detail)
            cycles += 1
        return self


def untraced(workload, seconds: float) -> dict:
    tally = Tally().run(workload.cycle, seconds)
    tail, pct = tally.wall.tail()
    cal_tail, _ = tally.cal.tail()
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong + (not tally.wall.done),
        "failures": tally.failures,
        "metrics": {
            "cal_calls_per_s": tally.cal.per_s(),
            "cal_call_s_p50": tally.cal.p50(),
            "cal_call_s_tail": cal_tail,
            "calls_per_s": tally.wall.per_s(),
            "call_s_p50": tally.wall.p50(),
            "call_s_tail": tail,
            "failed_frac": tally.failed / tally.attempted,
            "sup_err": tally.sup_err,
        },
        "tail_pct": pct,
        "samples": len(tally.wall.done),
    }


def _layer_metrics(tracer, calls: int) -> dict[str, float]:
    """Per-layer figures per workload call from a tracer's totals."""
    out = {}
    for module, names in REPORTED.items():
        for name in names:
            key = f"{module}.{name}"
            n, s, self_s = tracer.stats.get(key, (0, 0.0, 0.0))
            if key not in NO_CALLS:
                out[f"{key}.calls"] = n / calls
            out[f"{key}.s"] = s / calls
            out[f"{key}.self_s"] = self_s / calls
    for module, self_s in tracer.module_self().items():
        out[f"{module}.self_s"] = self_s / calls
    counters = tracer.counters
    out["quadrature.bytes_in"] = counters.get("quadrature.bytes_in", 0.0) / calls
    out["problem_io.bytes_written"] = counters.get("problem_io.bytes_written", 0.0) / calls
    sweeps = counters.get("solvers.sweeps", 0.0)
    out["solvers.sweeps"] = sweeps / calls
    solve_s = sum(tracer.stats.get(f"solvers.{n}", (0, 0.0))[1]
                  for n in ("picard_solve", "segment_solve"))
    out["solvers.sweep_s"] = solve_s / sweeps if sweeps else 0.0
    out["series.sweeps"] = counters.get("series.sweeps", 0.0) / calls
    for term, s in tracer.terms.items():
        out[f"operator.term.{term}.s"] = s / calls
    return out


def isolate_terms(problem_path: Path, repeats: int = 3) -> dict[str, float]:
    """One apply_operator per term on the converged triple, best of ``repeats``.

    Each term's problem keeps only that kernel and x0.
    """
    from hybrid_volterra.operator import HybridProblem, apply_operator
    from hybrid_volterra.problem_io import load_problem_file
    from hybrid_volterra.solvers import picard_solve

    loaded = load_problem_file(problem_path)
    problem = loaded.problem
    triple, _ = picard_solve(problem, tol=loaded.settings.tol, kmax=loaded.settings.kmax)
    out = {}
    for term in tracing.TERMS:
        kernels = {"x0": problem.x0}
        if term != "x0":
            kernels[term] = getattr(problem, term)
        single = HybridProblem.build(schedule=problem.schedule,
                                     panels=problem.grid.panels, **kernels)
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            apply_operator(single, triple)
            best = min(best, time.perf_counter() - start)
        out[f"operator.term.{term}.isolated_s"] = best
    return out


def _grid_size(argv: list[str]) -> int:
    from hybrid_volterra.problem_io import load_problem_file

    return load_problem_file(argv[1]).problem.grid.size


def traced(workload, seconds: float) -> dict:
    base = Tally().run(workload.cycle, seconds / 3)
    isolated = isolate_terms(workload.isolation)

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        loop = Tally().run(workload.cycle, seconds / 2, warmup=False)
        metrics = _layer_metrics(tracer, loop.attempted)
        accounted = sum(tracer.module_self().values()) / sum(loop.wall.every)

        scaled = []
        for argv in workload.scaling:
            tracer.reset()
            n = 0
            start = time.perf_counter()
            while n < 1 or time.perf_counter() - start < 1.0:
                invoke(argv)
                n += 1
            scaled.append(_layer_metrics(tracer, n))
    finally:
        uninstall()
    grid = [_grid_size(argv) for argv in workload.scaling]
    ratio = math.log(grid[0] / grid[1])
    for name in _scaled_metrics():
        full, half = scaled[0][name], scaled[1][name]
        metrics[f"{name}.n_exp"] = (
            math.log(full / half) / ratio if full > 0 and half > 0 else 0.0
        )
    metrics.update(isolated)
    metrics["trace.call_s_p50"] = loop.wall.p50()
    metrics["trace.overhead"] = loop.cal.p50() / base.cal.p50()
    metrics["trace.accounted"] = accounted
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "wrong": loop.wrong + (not loop.wall.done),
        "failures": loop.failures,
        "metrics": metrics,
        "grid": grid,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    import hybrid_volterra.cli  # noqa: F401  (the import a user of hv pays)

    workload = workloads.build(args.workload, args.seed, args.workdir)
    if args.setup_only:
        from hybrid_volterra.problem_io import load_problem_file

        for gen in workload.inputs:
            load_problem_file(args.workdir / f"{gen.name}.yaml")
        return 0
    run = traced if args.trace else untraced
    result = run(workload, args.seconds)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
