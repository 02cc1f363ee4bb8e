"""The four workloads: which ``hv`` calls they make and how each output is checked.

mixed-picard   ``hv solve --method picard`` on the mixed problem at 256 panels
               per segment (N=1028): bulk O(N^2) quadrature and f2/g terms.
mixed-segment  the same input with ``--method segment``: many small
               evaluation batches against full-length integrands.
tdep           ``hv solve`` on a problem whose f1 and f2 reference t (N=130):
               the operator's O(N^3) per-row branches.
catalog        the small sample problems through all six subcommands: load,
               report and start-up costs dominate.

A call fails on a nonzero exit, an uncaught exception, ``converged: false``
or an output check that fails; only the last makes the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import inputs

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs" / "mixed.json"

NAMES = ("mixed-picard", "mixed-segment", "tdep", "catalog")

# An error above this is a wrong answer, not a less accurate one; the
# sup_err metric tracks smaller changes.
ERR_LIMIT = 1e-4


@dataclass
class Outcome:
    """What one call did: its time, exit code or exception, and output."""

    seconds: float
    code: int | str | None
    exc: Exception | None
    out: str
    err: str


@dataclass
class Verdict:
    failed: bool
    wrong: bool = False
    sup_err: float | None = None
    detail: str = ""


Check = Callable[[Outcome], Verdict]


@dataclass
class Call:
    label: str
    argv: list[str]
    check: Check


@dataclass
class Workload:
    name: str
    cycle: list[Call]
    inputs: list[inputs.Generated]
    # problem for the per-term isolation, and the call run at full and half
    # resolution for the exponents in N: (argv full, argv half)
    isolation: Path
    scaling: tuple[list[str], list[str]]


def _status(res: Outcome) -> Verdict | None:
    if res.exc is not None:
        return Verdict(True, detail=f"raised {type(res.exc).__name__}: {res.exc}")
    if res.code not in (0, None):
        return Verdict(True, detail=f"exit {res.code}: {res.err.strip()[-200:]}")
    return None


def _wrong(detail: str) -> Verdict:
    return Verdict(True, wrong=True, detail=detail)


def read_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "x_left", "x_right"]:
        raise ValueError(f"bad header {rows[0]}")
    return np.array(rows[1:], dtype=float)


def solve_check(csv_path: Path, reference: Callable[[np.ndarray], float]) -> Check:
    """Converged, and the CSV solution within ERR_LIMIT of the reference."""

    def check(res: Outcome) -> Verdict:
        bad = _status(res)
        if bad:
            return bad
        if "converged: true" not in res.out:
            return Verdict(True, detail="converged: false")
        try:
            rows = read_csv(csv_path)
        except (OSError, ValueError, IndexError) as exc:
            return _wrong(f"unreadable solution: {exc}")
        err = reference(rows)
        if not err <= ERR_LIMIT:
            return Verdict(True, wrong=True, sup_err=err,
                           detail=f"sup error {err:.3e} > {ERR_LIMIT:g}")
        return Verdict(False, sup_err=err)

    return check


def exact_error(gen: inputs.Generated) -> Callable[[np.ndarray], float]:
    def error(rows: np.ndarray) -> float:
        t = rows[:, 0]
        return float(max(np.max(np.abs(rows[:, 1] - gen.exact(t, False))),
                         np.max(np.abs(rows[:, 2] - gen.exact(t, True)))))
    return error


def stored_error(gen: inputs.Generated, variant: int) -> Callable[[np.ndarray], float]:
    """Error against the stored reference of this variant of the mixed problem."""
    refs = json.loads(REFS.read_text())
    ref = refs["variants"][str(variant)]
    if ref["sha256"] != hashlib.sha256(gen.text.encode()).hexdigest():
        raise RuntimeError(f"{REFS.name}: reference of variant {variant} is for another input")
    stride = refs["stride"]
    t = np.array(ref["t"])
    left = np.array(ref["left"])
    right = np.array(ref["right"])

    def error(rows: np.ndarray) -> float:
        sub = rows[::stride]
        if sub.shape[0] != t.size or not np.allclose(sub[:, 0], t, rtol=0, atol=1e-12):
            return math.inf
        return float(max(np.max(np.abs(sub[:, 1] - left)),
                         np.max(np.abs(sub[:, 2] - right))))

    return error


def _report(res: Outcome) -> dict | None:
    try:
        doc = yaml.load(res.out, Loader=yaml.CSafeLoader)
    except yaml.YAMLError:
        return None
    return doc if isinstance(doc, dict) else None


def _close(a, b, tol=1e-9) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def analyze_check(gen: inputs.Generated, estimate: dict[str, float] | None) -> Check:
    """Breakpoints as generated, verdicts that agree, and for ``--estimate``
    sampled constants between the true slope bound and 1.1 times it."""
    roots = [gen.params["root"]] if "root" in gen.params else []
    breakpoints = sorted(gen.params.get("tau", []) + roots)

    def check(res: Outcome) -> Verdict:
        bad = _status(res)
        if bad:
            return bad
        doc = _report(res)
        if doc is None:
            return _wrong("report is not a YAML mapping")
        if not _close(doc.get("breakpoints", []), breakpoints):
            return _wrong(f"breakpoints {doc.get('breakpoints')} != {breakpoints}")
        block = doc.get("contraction")
        if block and "matrix" in block:
            if block["contractive_criterion"] != block["contractive_eigen"]:
                return _wrong("criterion and eigen verdicts disagree")
            rho = max(abs(np.linalg.eigvals(np.array(block["matrix"]))))
            if abs(rho - block["spectral_radius"]) > 1e-9:
                return _wrong("spectral radius does not match the matrix")
        if estimate is not None:
            if not block or not str(doc.get("lipschitz_source", "")).startswith("estimated"):
                return _wrong("no estimated constants")
            for name, slope in estimate.items():
                got = block["constants"][name]
                if not slope * (1 - 1e-6) <= got <= 1.1 * slope * (1 + 1e-6):
                    return _wrong(f"{name} = {got} outside [{slope}, 1.1*{slope}]")
        return Verdict(False)

    return check


_ROOTS = re.compile(r"sigma\[(\d+)\] = .*: roots \[(.*)\]")


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def roots_check(gen: inputs.Generated) -> Check:
    roots = [gen.params["root"]] if "root" in gen.params else []
    breakpoints = sorted(gen.params.get("tau", []) + roots)

    def check(res: Outcome) -> Verdict:
        bad = _status(res)
        if bad:
            return bad
        found = [_floats(m.group(2)) for m in _ROOTS.finditer(res.out)]
        if roots and found != [] and not _close(found[0], roots, 1e-10):
            return _wrong(f"roots {found} != {roots}")
        if roots and not found:
            return _wrong("no roots printed")
        if not roots and "no moving impulses" not in res.out:
            return _wrong("moving impulses reported for a problem without any")
        line = res.out.strip().splitlines()[-1]
        if not line.startswith("breakpoints: ["):
            return _wrong("no breakpoints line")
        if not _close(_floats(line[len("breakpoints: ["):-1]), breakpoints):
            return _wrong(f"{line} != {breakpoints}")
        return Verdict(False)

    return check


def convergence_check(second_order: bool) -> Check:
    """Errors fall by about 4 per doubling, or stay at rounding level when
    the trapezoid rule is exact for the problem."""

    def check(res: Outcome) -> Verdict:
        bad = _status(res)
        if bad:
            return bad
        rows = [line.split() for line in res.out.strip().splitlines()[1:]]
        if len(rows) != 4:
            return _wrong(f"expected 4 rows, got {len(rows)}")
        errors = [float(r[1]) for r in rows]
        if second_order:
            ratios = [float(r[2]) for r in rows[1:]]
            if not all(3.5 <= q <= 4.5 for q in ratios):
                return _wrong(f"ratios {ratios} are not near 4")
        elif max(errors) > 1e-12:
            return _wrong(f"errors {errors} on a problem integrated exactly")
        return Verdict(False)

    return check


def check_matrix_check(entries: list[float]) -> Check:
    m = np.array(entries).reshape(3, 3)
    rho = float(max(abs(np.linalg.eigvals(m))))

    def check(res: Outcome) -> Verdict:
        bad = _status(res)
        if bad:
            return bad
        fields = dict(line.split(": ", 1) for line in res.out.strip().splitlines())
        if abs(float(fields["spectral radius"]) - rho) > 1e-9:
            return _wrong(f"spectral radius {fields['spectral radius']} != {rho}")
        verdict = str(rho < 1).lower()
        if (fields["contractive by criterion"], fields["contractive by eigenvalues"]) != (
            verdict, verdict
        ):
            return _wrong("verdicts disagree with the eigenvalues")
        return Verdict(False)

    return check


def _solve_calls(gen, path, directory, error, methods=("picard",)) -> list[Call]:
    out = directory / f"{gen.name}.csv"
    report = directory / f"{gen.name}.report.yaml"
    calls = []
    for method in methods:
        argv = ["solve", str(path), "--method", method, "--out", str(out),
                "--report", str(report)]
        calls.append(Call(f"solve {gen.name} {method}", argv, solve_check(out, error)))
    return calls


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    directory = Path(directory)
    v = inputs.variant_of(seed)
    if name in ("mixed-picard", "mixed-segment"):
        gen = inputs.mixed_impulses(v, inputs.MIXED_PANELS)
        half = inputs.mixed_impulses(v, inputs.MIXED_PANELS // 2)
        path, half_path = gen.write(directory), half.write(directory)
        method = name.split("-")[1]
        cycle = _solve_calls(gen, path, directory, stored_error(gen, v), (method,))
        scaling = (cycle[0].argv[:4], ["solve", str(half_path), "--method", method])
        return Workload(name, cycle, [gen, half], path, scaling)
    if name == "tdep":
        gen, half = inputs.tdep(v), inputs.tdep(v, 32)
        path, half_path = gen.write(directory), half.write(directory)
        cycle = _solve_calls(gen, path, directory, exact_error(gen))
        return Workload(name, cycle, [gen, half], path,
                        (cycle[0].argv[:4], ["solve", str(half_path)]))
    if name == "catalog":
        return _catalog(v, directory)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _catalog(v: int, directory: Path) -> Workload:
    gens = {g.name: g for g in inputs.shipped(v)}
    paths = {n: g.write(directory) for n, g in gens.items()}
    half = inputs.double_memory(v, 128)
    half.name = "double_memory_128"
    half_path = half.write(directory)
    cycle: list[Call] = []
    for name in ("exponential", "double_memory", "fixed_impulses"):
        gen, path = gens[name], paths[name]
        cycle += _solve_calls(gen, path, directory, exact_error(gen),
                              ("picard", "segment"))
        cycle.append(Call(f"analyze {name}", ["analyze", str(path)],
                          analyze_check(gen, None)))
        # fixed_impulses --estimate raises IndexError today: G1 is the
        # constant 0.2, which evaluates to a float.  It stays in the cycle
        # and counts as a failed call.
        cycle.append(Call(f"analyze --estimate {name}",
                          ["analyze", str(path), "--estimate"],
                          analyze_check(gen, gen.params["slopes"])))
        cycle.append(Call(f"roots {name}", ["roots", str(path)], roots_check(gen)))
        cycle.append(Call(f"convergence-report {name}",
                          ["convergence-report", str(path)],
                          convergence_check(name != "fixed_impulses")))
    series = gens["series_quadratic"]
    out = directory / "series_quadratic.csv"
    cycle.append(Call(
        "series-solve series_quadratic",
        ["series-solve", str(paths["series_quadratic"]), "--out", str(out),
         "--report", str(directory / "series_quadratic.report.yaml")],
        solve_check(out, exact_error(series)),
    ))
    entries = inputs.check_matrix_entries(v)
    cycle.append(Call("check-matrix", ["check-matrix", *map(repr, entries)],
                      check_matrix_check(entries)))
    mixed = gens["mixed_impulses"]
    cycle.append(Call("analyze mixed_impulses", ["analyze", str(paths["mixed_impulses"])],
                      analyze_check(mixed, None)))
    cycle.append(Call("analyze --estimate mixed_impulses",
                      ["analyze", str(paths["mixed_impulses"]), "--estimate"],
                      analyze_check(mixed, mixed.params["slopes"])))
    cycle.append(Call("roots mixed_impulses", ["roots", str(paths["mixed_impulses"])],
                      roots_check(mixed)))
    return Workload("catalog", cycle, list(gens.values()) + [half],
                    paths["mixed_impulses"],
                    (["solve", str(paths["double_memory"])], ["solve", str(half_path)]))
