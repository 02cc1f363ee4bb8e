"""Write a manifest of what ``hv`` prints and writes, to diff two checkouts.

For one checkout's code, run every subcommand on the inputs: each
``problems/*.yaml`` file and each problem file that ``tests/test_cli.py``
and ``tests/conftest.py`` define (their module-level ``*_FILE`` strings).
On every input, ``hv solve`` (picard and segment, with a CSV and a report)
and ``hv convergence-report`` (picard and segment, with a report); on
every hybrid input, ``hv analyze`` with and without ``--estimate`` and
``hv roots``; on every series input, ``hv series-solve`` (with a CSV and a
report); ``hv check-matrix`` on one fixed matrix, on one with a ``nan``
entry, on one with a negative entry and on one whose closed-form roots
overflow while its invariants do not; and ``hv solve --mu 1e-3`` (with
a CSV and a report) and ``hv analyze --mu 1e-3`` (with a report) on
``tests/test_cli.py``'s ``BOUND_OVERFLOW_TEXT``, whose bound matrix at
that weight overflows.  The manifest holds, per run, the exit code and
the sha256 of stdout, stderr, the CSV and the report (null when the run
wrote none), as sorted JSON with one entry per line; a run that ends in
an uncaught exception has the exception's type name as its exit code::

    python tests/output_manifest.py --code PARENT -o parent.json
    python tests/output_manifest.py -o change.json
    diff parent.json change.json

``--code`` is the checkout whose ``src/`` runs (default: this one); the
inputs always come from this checkout, so both manifests cover the same
runs.  Each run goes in process through ``hybrid_volterra.cli.main``, in a
fresh working directory, with relative paths, so paths in the outputs do
not depend on where either checkout lies, and with ``HV_SEED`` unset, so
``analyze --estimate`` samples with its default seed.  ``--keep DIR`` keeps the
outputs there, for a comparison of values where bytes differ.  Not a test
module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METHODS = ("picard", "segment")
MATRICES = {
    "fixed": ["0.2", "0.1", "0", "0.05", "0.3", "0.1", "0", "0.2", "0.4"],
    "nan": ["nan", "0", "0", "0", "0.5", "0", "0", "0", "0.5"],
    "negative": ["-0.5", "0", "0", "0", "0.5", "0", "0", "0", "0.5"],
    "trace-cube-overflow": ["1e200", "0", "0", "0", "0", "0", "0", "0", "0"],
}


def _inputs() -> dict[str, str]:
    """Name -> problem file text, for every input of this checkout."""
    inputs = {path.stem: path.read_text() for path in sorted((ROOT / "problems").glob("*.yaml"))}
    import conftest
    import test_cli

    for module in (conftest, test_cli):
        for name, value in sorted(vars(module).items()):
            if name.endswith("_FILE") and isinstance(value, str):
                inputs[f"{module.__name__}.{name}"] = value
    return inputs


def _kind(text: str) -> str | None:
    """The ``kind`` a problem file declares, ``hybrid`` by default; None for
    text that is not a YAML mapping, such as a template of test_cli.py."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError:
        return None
    return data.get("kind", "hybrid") if isinstance(data, dict) else None


def _digest(path: str | None) -> str | None:
    if path is None or not Path(path).exists():
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run(main, argv: list[str], csv: str | None = None, report: str | None = None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # noqa: BLE001 - a traceback is an outcome too
            code = type(exc).__name__
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "csv": _digest(csv),
        "report": _digest(report),
    }


def manifest(code: Path, work: Path) -> dict:
    """Every run's entry, keyed by input, command and method, with the
    package of ``code`` and the working directory ``work``."""
    sys.path[:0] = [str(code / "src"), str(HERE)]
    from hybrid_volterra.cli import main

    inputs = _inputs()
    os.environ.pop("HV_SEED", None)  # analyze --estimate samples with seed 0
    os.chdir(work)
    Path("inputs").mkdir()
    Path("out").mkdir()
    runs = {}
    for name, text in inputs.items():
        problem = f"inputs/{name}.yaml"
        Path(problem).write_text(text)
        for method in METHODS:
            stem = f"out/{name}.solve.{method}"
            runs[f"{name} solve {method}"] = _run(
                main, ["solve", problem, "--method", method, "--out", f"{stem}.csv",
                       "--report", f"{stem}.yaml"], f"{stem}.csv", f"{stem}.yaml")
            stem = f"out/{name}.convergence-report.{method}"
            runs[f"{name} convergence-report {method}"] = _run(
                main, ["convergence-report", problem, "--method", method,
                       "--report", f"{stem}.yaml"], None, f"{stem}.yaml")
        kind = _kind(text)
        if kind == "series":
            stem = f"out/{name}.series-solve"
            runs[f"{name} series-solve"] = _run(
                main, ["series-solve", problem, "--out", f"{stem}.csv",
                       "--report", f"{stem}.yaml"], f"{stem}.csv", f"{stem}.yaml")
        elif kind == "hybrid":
            runs[f"{name} analyze"] = _run(main, ["analyze", problem])
            runs[f"{name} analyze --estimate"] = _run(main, ["analyze", problem, "--estimate"])
            runs[f"{name} roots"] = _run(main, ["roots", problem])
    for label, entries in MATRICES.items():
        runs[f"check-matrix {label}"] = _run(main, ["check-matrix", *entries])
    import test_cli

    problem, stem = "inputs/bound_overflow.yaml", "out/bound_overflow"
    Path(problem).write_text(test_cli.BOUND_OVERFLOW_TEXT)
    runs["bound_overflow solve --mu 1e-3"] = _run(
        main, ["solve", problem, "--mu", "1e-3", "--out", f"{stem}.solve.csv",
               "--report", f"{stem}.solve.yaml"], f"{stem}.solve.csv", f"{stem}.solve.yaml")
    runs["bound_overflow analyze --mu 1e-3"] = _run(
        main, ["analyze", problem, "--mu", "1e-3", "--report", f"{stem}.analyze.yaml"],
        None, f"{stem}.analyze.yaml")
    return runs


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--code", type=Path, default=ROOT,
                        help="checkout whose src/ runs (default: this one)")
    parser.add_argument("-o", "--out", type=Path, required=True, help="manifest JSON path")
    parser.add_argument("--keep", type=Path, default=None,
                        help="keep the outputs in this new directory")
    args = parser.parse_args(argv)
    out, code, here = args.out.resolve(), args.code.resolve(), os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch) if args.keep is None else args.keep.resolve()
        work.mkdir(parents=True, exist_ok=True)
        try:
            runs = manifest(code, work)
        finally:
            os.chdir(here)
    out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"{len(runs)} runs -> {out}")


if __name__ == "__main__":
    main()
