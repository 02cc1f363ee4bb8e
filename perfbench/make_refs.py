"""Regenerate ``refs/mixed.json``, the stored reference solutions of the mixed problem.

For every variant the mixed problem is solved by Picard iteration at 256
and at 512 panels per segment; the reference is the Richardson extrapolant
(4 x_512 - x_256) / 3 on the 256-panel nodes, kept on every fourth row of
the solution table (left and right limits).  The SHA-256 of the 256-panel
problem text is stored with it, so the benchmark refuses a reference that
does not belong to its input.

    PYTHONPATH=src python3 perfbench/make_refs.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from hybrid_volterra.problem_io import load_problem_file, solution_rows  # noqa: E402
from hybrid_volterra.solvers import picard_solve  # noqa: E402

STRIDE = 4
REFS = HERE / "refs" / "mixed.json"


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _solve(gen: inputs.Generated, directory: str) -> np.ndarray:
    loaded = load_problem_file(gen.write(directory))
    triple, rep = picard_solve(
        loaded.problem, tol=loaded.settings.tol, kmax=loaded.settings.kmax
    )
    if not rep.converged:
        raise RuntimeError(f"{gen.name}: no convergence")
    return np.array(solution_rows(triple.xi))


def reference(variant: int) -> dict:
    coarse = inputs.mixed_impulses(variant, inputs.MIXED_PANELS)
    fine = inputs.mixed_impulses(variant, 2 * inputs.MIXED_PANELS)
    with tempfile.TemporaryDirectory() as tmp:
        x1 = _solve(coarse, tmp)
        x2 = _solve(fine, tmp)[::2]
    if not np.allclose(x1[:, 0], x2[:, 0], rtol=0, atol=1e-12):
        raise RuntimeError("fine grid does not contain the coarse nodes")
    ref = (4.0 * x2 - x1) / 3.0
    keep = ref[::STRIDE]
    return {
        "sha256": text_digest(coarse.text),
        "t": [float(v) for v in x1[::STRIDE, 0]],
        "left": [float(f"{v:.15g}") for v in keep[:, 1]],
        "right": [float(f"{v:.15g}") for v in keep[:, 2]],
        "richardson_gap": float(np.max(np.abs(x1[:, 1:] - x2[:, 1:]))),
    }


def main() -> None:
    out = {"panels": inputs.MIXED_PANELS, "stride": STRIDE, "variants": {}}
    for v in range(inputs.VARIANTS):
        out["variants"][str(v)] = reference(v)
        print(f"variant {v}: gap {out['variants'][str(v)]['richardson_gap']:.3e}",
              flush=True)
    REFS.parent.mkdir(exist_ok=True)
    REFS.write_text(json.dumps(out, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
