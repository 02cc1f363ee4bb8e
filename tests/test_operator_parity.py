"""One operator application must not drift: compare with stored images.

``tests/data/operator_parity.json`` holds, for each hybrid ``problems/*.yaml``
(at the resolution the file declares) and for the t-dependent and the
multi-impulse problems of ``test_parity.py``, the image of one :func:`apply_operator` on
:func:`default_init` (``xi`` at every 4th node, all of ``eta`` and ``beta`` at
every 4th node) and :func:`jump_at` on the same triple at every breakpoint.
For the series file it holds one :func:`apply_series_operator` on the
forcing term.  Unlike the solver parity, this pins each quadrature path
directly, without an iteration that could damp a difference.  Regenerate
(only when the discretisation is meant to change) with

    PYTHONPATH=src python3 tests/test_operator_parity.py

or add or renew one case's entry, leaving every other entry as stored, with
``--only NAME``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hybrid_volterra.operator import apply_operator, default_init, jump_at
from hybrid_volterra.piecewise import PiecewiseFn
from hybrid_volterra.problem_io import load_problem_file
from hybrid_volterra.series import apply_series_operator
from test_parity import multi_impulse_problem, regenerate, tdep_problem

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "data" / "operator_parity.json"
STRIDE = 4
TOL = 1e-12
STORED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def _cases():
    """(name, kind, problem) for every stored image."""
    for path in sorted((ROOT / "problems").glob("*.yaml")):
        loaded = load_problem_file(path)
        yield path.stem, loaded.kind, loaded.problem
    yield "tdep", "hybrid", tdep_problem()
    yield "multi_impulse", "hybrid", multi_impulse_problem()


def _thin(values) -> list[float]:
    return [float(v) for v in np.asarray(values)[::STRIDE]]


def image(kind, problem) -> dict:
    if kind == "series":
        y0 = PiecewiseFn.from_expression(problem.grid, problem.y0)
        return {"xi": _thin(apply_series_operator(problem, y0).values)}
    triple = default_init(problem)
    new = apply_operator(problem, triple)
    return {
        "xi": _thin(new.xi.values),
        "eta": [float(v) for v in new.eta],
        "beta": [_thin(b.values) for b in new.beta],
        "jumps": [
            jump_at(problem, triple, float(a))
            for a in np.atleast_1d(problem.schedule.breakpoints)
        ],
    }


def image_all(only: str | None = None) -> dict:
    """Every stored image, or the one of the case named ``only``."""
    return {
        name: image(kind, problem)
        for name, kind, problem in _cases()
        if only is None or name == only
    }


@pytest.fixture(scope="module")
def images():
    return image_all()


def test_fixture_covers_every_case(images):
    assert sorted(STORED) == sorted(images)


@pytest.mark.parametrize("key", sorted(STORED))
def test_image_matches_reference(images, key):
    got = images[key]
    assert sorted(got) == sorted(STORED[key])
    for field, ref in STORED[key].items():
        a = np.asarray(got[field], dtype=float)
        b = np.asarray(ref, dtype=float)
        assert a.shape == b.shape, field
        if a.size:
            diff = float(np.max(np.abs(a - b)))
            assert math.isfinite(diff) and diff <= TOL, f"{field}: sup diff {diff:.3e}"


if __name__ == "__main__":
    regenerate(FIXTURE, STORED, image_all)
