"""Solutions must not drift: re-solve and compare with stored reference values.

``tests/data/parity.json`` holds, at every 4th grid node, the ``xi``/``eta``/
``beta`` of :func:`picard_solve` and :func:`segment_solve` on each
``problems/*.yaml`` (at the resolution the file declares), the same for one
small problem whose ``f1``, ``f2`` and ``g`` reference ``t`` and one with
two moving and three fixed impulses, and the :func:`series_solve`
solutions of ``problems/series_quadratic.yaml`` and of one small series
problem whose order-2 kernel references ``t``.  A refactor that keeps the
same discrete fixed point reproduces them to rounding.  Regenerate (only
when the discretisation is meant to change) with

    PYTHONPATH=src python3 tests/test_parity.py

or add or renew the entries of one case, leaving every other entry as
stored, with ``--only NAME`` (for example ``--only multi_impulse``).
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hybrid_volterra.operator import HybridProblem
from hybrid_volterra.problem_io import load_problem_file
from hybrid_volterra.schedule import ImpulseSchedule
from hybrid_volterra.series import SeriesProblem, series_solve
from hybrid_volterra.solvers import picard_solve, segment_solve

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "data" / "parity.json"
STRIDE = 4
TOL = 1e-12
STORED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def tdep_problem() -> HybridProblem:
    """Every memory kernel references t, so each takes its per-row path."""
    schedule = ImpulseSchedule.build(1.0, tau=(0.4,), sigma=("0.3 + 0.5*t",), h=0.1)
    return HybridProblem.build(
        schedule=schedule,
        panels=16,
        x0="1 + 0.1*t",
        f1="0.3*t*x",
        f2="0.2*t*x*x1",
        G1="0.1*eta + 0.05",
        G3="0.05*beta + 0.02*t",
        g="0.1*t*x + 0.05*beta*eta",
    )


def tdep_series_problem() -> SeriesProblem:
    """An order-2 series kernel that references t."""
    return SeriesProblem.build(
        horizon=0.5, y0="1", kernels=("x1", "t*x1*x2"), panels=32
    )


def multi_impulse_problem() -> HybridProblem:
    """Two moving and three fixed impulses: a g that splits with a time
    factor and a G1 that references t, with the mixed problem's other
    kernels."""
    schedule = ImpulseSchedule.build(
        2.0, tau=(0.3, 0.9, 1.6), sigma=("0.5 + 0.55*t", "0.2 + 0.6*t"), h=0.1
    )
    return HybridProblem.build(
        schedule=schedule,
        panels=16,
        x0="0.2 + 0.1*t",
        f1="0.2*sin(x) + 0.05*s",
        f2="0.05*x*x1/(1 + s1^2)",
        G1="0.1*eta*exp(-t) + 0.02",
        G2="0.03*etai*etaj",
        G3="0.04*beta + 0.01*eta",
        g="0.05*t*x + 0.02*beta*eta",
    )


def _cases():
    """(name, kind, problem, tol, kmax) for every reference solve."""
    for path in sorted((ROOT / "problems").glob("*.yaml")):
        loaded = load_problem_file(path)
        s = loaded.settings
        yield path.stem, loaded.kind, loaded.problem, s.tol, s.kmax
    yield "tdep", "hybrid", tdep_problem(), 1e-12, 200
    yield "tdep", "series", tdep_series_problem(), 1e-12, 200
    yield "multi_impulse", "hybrid", multi_impulse_problem(), 1e-12, 200


def _thin(values) -> list[float]:
    return [float(v) for v in np.asarray(values)[::STRIDE]]


def solve_all(only: str | None = None) -> dict:
    """Every reference solve, or those of the case named ``only``."""
    out = {}
    for name, kind, problem, tol, kmax in _cases():
        if only is not None and name != only:
            continue
        if kind == "series":
            y, _ = series_solve(problem, tol=tol, kmax=kmax)
            out[f"{name}/series"] = {"xi": _thin(y.values)}
            continue
        for method, solve in (("picard", picard_solve), ("segment", segment_solve)):
            triple, _ = solve(problem, tol=tol, kmax=kmax)
            out[f"{name}/{method}"] = {
                "xi": _thin(triple.xi.values),
                "eta": [float(v) for v in triple.eta],
                "beta": [_thin(b.values) for b in triple.beta],
            }
    return out


@pytest.fixture(scope="module")
def solved():
    return solve_all()


def test_fixture_covers_every_case(solved):
    assert sorted(STORED) == sorted(solved)


@pytest.mark.parametrize("key", sorted(STORED))
def test_solution_matches_reference(solved, key):
    got = solved[key]
    assert sorted(got) == sorted(STORED[key])
    for field, ref in STORED[key].items():
        a = np.asarray(got[field], dtype=float)
        b = np.asarray(ref, dtype=float)
        assert a.shape == b.shape, field
        if a.size:
            diff = float(np.max(np.abs(a - b)))
            assert math.isfinite(diff) and diff <= TOL, f"{field}: sup diff {diff:.3e}"


def regenerate(fixture: Path, stored: dict, compute, argv=None) -> None:
    """Write ``compute(only)`` to ``fixture``; with ``--only NAME`` keep every
    stored entry of another case as it is (entries are keyed ``NAME`` or
    ``NAME/...``)."""
    parser = argparse.ArgumentParser(description=f"regenerate {fixture.name}")
    parser.add_argument("--only", metavar="NAME",
                        help="write just the entries of the case NAME")
    only = parser.parse_args(argv).only
    entries = {}
    if only is not None:
        entries = {k: v for k, v in stored.items() if k.split("/")[0] != only}
    fresh = compute(only)
    if not fresh:
        parser.error(f"no case is named {only!r}")
    entries.update(fresh)
    fixture.parent.mkdir(exist_ok=True)
    fixture.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {fixture}" + ("" if only is None else f" ({', '.join(sorted(fresh))})"))


if __name__ == "__main__":
    regenerate(FIXTURE, STORED, solve_all)
