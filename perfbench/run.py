"""Benchmark of the ``hv`` command: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Workloads are described in ``workloads.py`` and inputs in ``inputs.py``.

With ``--trace 0`` a child process runs the workload's calls for
``--seconds`` and the run reports the end-to-end metrics: calls_per_s,
call_s_p50 and call_s_tail (in wall and in calibrated time, see
``worker.probe``), setup_s, peak_rss_mb, failed_frac and sup_err.
With ``--trace 1`` it reports the per-layer metrics instead (``tracing.py``).
A table goes to standard output first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
CHILD_TIMEOUT = 160.0
# metrics of the JSON line, as listed in BENCHMARK.json; the wall-time
# forms of the first three and failed_frac are printed in the table only
END_TO_END = (
    ("cal_calls_per_s", "1/s"),
    ("cal_call_s_p50", "s"),
    ("cal_call_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sup_err", "1"),
)
TABLE_ONLY = (
    ("calls_per_s", "1/s"),
    ("call_s_p50", "s"),
    ("call_s_tail", "s"),
    ("failed_frac", "1"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(args: list[str], timeout: float) -> tuple[int, float, float]:
    """Run ``worker.py`` to the end; (exit code, wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            env=child_env(), stdout=subprocess.DEVNULL)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - start > timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"worker exceeded {timeout:.0f} s")
        time.sleep(0.01)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_runs(base: list[str], work: Path, first: int, count: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and write and
    load the workload's inputs."""
    times = []
    for i in range(first, first + count):
        directory = work / f"setup{i}"
        directory.mkdir()
        code, wall, _ = run_child([*base, "--setup-only", "--workdir", str(directory)], 60)
        if code != 0:
            raise RuntimeError(f"setup run exited with {code}")
        times.append(wall)
    return times


def table(rows: list[tuple[str, float, str]]) -> str:
    width = max(len(name) for name, _, _ in rows)
    return "\n".join(f"  {name:<{width}}  {value:>14.6g}  {unit}" for name, value, unit in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hybrid_volterra" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src'} lacks hybrid_volterra",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        base = ["--workload", args.workload, "--seed", str(args.seed)]
        # Set-up runs go before and after the measured child, so that they
        # sample the machine over the whole run; the first is not counted.
        setup = [] if args.trace else setup_runs(base, work, 0, 1 + SETUP_RUNS // 2)[1:]
        result_path = work / "result.json"
        run_dir = work / "run"
        run_dir.mkdir()
        code, _, rss = run_child(
            [*base, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(run_dir), "--result", str(result_path)],
            CHILD_TIMEOUT,
        )
        if code != 0:
            print(f"error: worker exited with {code}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
        if not args.trace:
            setup += setup_runs(base, work, len(setup) + 1, SETUP_RUNS - len(setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = result["metrics"]
    if args.trace:
        units = dict(worker.per_layer_names())
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}
        print(f"per-layer metrics per call of {args.workload} (seed {args.seed}, "
              f"N = {result['grid'][0]} and {result['grid'][1]} for the exponents)")
    else:
        measured = dict(measured, setup_s=statistics.median(setup), peak_rss_mb=rss)
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END}
        print(f"workload {args.workload}, seed {args.seed}: {result['samples']} calls "
              f"timed; tail is p{result['tail_pct']}; BLAS threads {os.cpu_count()}; "
              f"numpy {np.__version__}")
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if not args.trace:
        rows += [(name, measured[name], unit) for name, unit in TABLE_ONLY]
    print(table(rows))
    for label, detail in result["failures"].items():
        print(f"  failed: {label}: {detail}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
