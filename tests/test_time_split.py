"""Memory kernels split into time factors: c_r(t) times node rows.

f1, f2 and g are split when the problem is built; a kernel that splits
costs O(1) per evaluation time after an O(N) row per continuous part, one
that references t and does not split keeps its rows per evaluation time.
These tests hold the split path to the per-time path and guard the cost
class of one operator application.
"""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import make_problem, on_kernel_calls, random_triple
from test_parity import multi_impulse_problem, tdep_problem
from hybrid_volterra import cli, operator, quadrature
from hybrid_volterra.operator import ARITIES, apply_operator, jump_at
from hybrid_volterra.problem_io import LoadedProblem, SolverSettings, load_problem_file
from hybrid_volterra.quadrature import weight_rows
from hybrid_volterra.solvers import picard_solve, segment_solve

ROOT = Path(__file__).resolve().parent.parent
HYBRID_FILES = sorted(
    p for p in (ROOT / "problems").glob("*.yaml")
    if load_problem_file(p).kind == "hybrid"
)
TERMS = ("f1_terms", "f2_terms", "g_terms")


def per_time(problem):
    """The same problem with every t-referencing memory kernel left unsplit.

    The path of each term is read from the splits on first use
    (``HybridProblem.batch_terms``), so overwriting them on a fresh copy
    forces the per-time paths."""
    forced = dataclasses.replace(problem)
    for name in TERMS:
        if getattr(problem, name[:-6]).references("t"):
            object.__setattr__(forced, name, None)
    return forced


class TestSplit:
    def test_tdep_terms(self):
        p = tdep_problem()
        assert [(c.source, a.source) for c, a in p.f1_terms] == [("0.3 * t", "x")]
        assert [(c.source, a.source, b.source) for c, a, b in p.f2_terms] == [
            ("0.2 * t", "x", "x1")
        ]
        assert [(c.source, a.source) for c, a in p.g_terms] == [
            ("0.1 * t", "x"), ("1", "0.05 * beta * eta")
        ]

    def test_t_free_kernels_keep_their_rows(self):
        # a bare constant stays in the node row, with no time factor
        p = make_problem(1.0, panels=8, x0="1", f1="0.5 + x", f2="2*x*x1")
        assert [(c, a.source) for c, a in p.f1_terms] == [(None, "0.5 + x")]
        assert [(c, a.source, b.source) for c, a, b in p.f2_terms] == [
            (None, "2 * x", "x1")
        ]
        assert p.g_terms == []


class TestAgainstPerTime:
    """The split path and the per-time rows: the same fixed point."""

    @pytest.mark.parametrize("solve", [picard_solve, segment_solve])
    def test_solutions_agree(self, solve):
        problem = tdep_problem()
        forced = per_time(problem)
        assert all(getattr(forced, name) is None for name in TERMS)
        a, rep_a = solve(problem, tol=1e-12, kmax=200)
        b, rep_b = solve(forced, tol=1e-12, kmax=200)
        assert rep_a.converged and rep_b.converged
        assert rep_a.iterations == rep_b.iterations
        assert np.max(np.abs(a.xi.values - b.xi.values)) <= 1e-12
        assert np.max(np.abs(a.eta - b.eta)) <= 1e-12
        assert np.max(np.abs(a.beta_rows() - b.beta_rows())) <= 1e-12

    def test_one_application_and_jumps_agree(self):
        problem = tdep_problem()
        forced = per_time(problem)
        triple = random_triple(problem, np.random.default_rng(3))
        a, b = apply_operator(problem, triple), apply_operator(forced, triple)
        assert np.max(np.abs(a.xi.values - b.xi.values)) <= 1e-12
        assert np.max(np.abs(a.eta - b.eta)) <= 1e-12
        assert np.max(np.abs(a.beta_rows() - b.beta_rows())) <= 1e-12
        bps = problem.schedule.breakpoints
        jumps = jump_at(problem, triple, bps) - jump_at(forced, triple, bps)
        assert np.max(np.abs(jumps)) <= 1e-12

    def test_forced_problem_takes_the_per_time_paths(self, monkeypatch):
        # the evaluators are chosen before evaluate is wrapped, and still
        # call it: each memory kernel is evaluated with a row per time
        forced = per_time(tdep_problem())
        assert [t.__name__ for t in forced.batch_terms] == [
            "_f1_per_time", "_f2_per_time", "_g_per_batch", "_G3"]
        assert forced.g_row_impulses.size == 0
        triple = random_triple(forced, np.random.default_rng(3))
        shapes, rows = _record_costs(monkeypatch)
        apply_operator(forced, triple)
        per_row = {a for a, s in shapes if a in MEMORY_ARITIES and len(s) == 2 and s[0] > 1}
        assert per_row == MEMORY_ARITIES
        assert rows


def _solve_cli(monkeypatch, tmp_path, problem, method):
    loaded = LoadedProblem("hybrid", problem, SolverSettings(tol=1e-12, kmax=200))
    monkeypatch.setattr(cli, "_load", lambda path, want: loaded)
    report_path = tmp_path / f"{method}.yaml"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "problem.yaml", "--method", method,
                      "--report", str(report_path), "--out", str(tmp_path / "x.csv")])
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return excinfo.value.code, yaml.safe_load(report_path.read_text()), runtime


class TestFailures:
    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_domain_error_same_note_on_both_paths(self, monkeypatch, tmp_path, method):
        # 1/t splits off as the time factor and fails at t = 0
        problem = make_problem(1.0, panels=16, x0="1", f1="x/t")
        assert problem.f1_terms is not None
        notes = []
        for p in (problem, per_time(problem)):
            code, report, _ = _solve_cli(monkeypatch, tmp_path, p, method)
            assert code == 4 and report["iterations"] == 0
            notes.append(report["notes"])
        assert notes[0] == notes[1] == ["kernel error in sweep 1: division by zero"]

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_blow_up_diverges_without_warnings(self, monkeypatch, tmp_path, method):
        problem = make_problem(3.0, panels=64, x0="1", f1="exp(t)*exp(x)")
        assert [(c.source, a.source) for c, a in problem.f1_terms] == [("exp(t)", "exp(x)")]
        code, report, runtime = _solve_cli(monkeypatch, tmp_path, problem, method)
        assert code == 4 and report["converged"] is False
        assert report["notes"][-1].startswith("diverged:")
        assert runtime == []


def _record_costs(monkeypatch):
    """Shapes of every kernel evaluation and sizes of every weight-row build."""
    shapes, rows = [], []

    def counting(kernel, bindings, out):
        shapes.append((kernel.arity, np.shape(out)))

    def counting_rows(grid, upper):
        rows.append(np.size(upper))
        return weight_rows(grid, upper)

    on_kernel_calls(monkeypatch, counting)
    monkeypatch.setattr(quadrature, "weight_rows", counting_rows)
    monkeypatch.setattr(operator, "weight_rows", counting_rows)
    return shapes, rows


MEMORY_ARITIES = {ARITIES[name] for name in ("f1", "f2", "g")}


@pytest.mark.parametrize(
    "build",
    [lambda p=p: load_problem_file(p).problem for p in HYBRID_FILES]
    + [tdep_problem],
    ids=[p.stem for p in HYBRID_FILES] + ["tdep"],
)
def test_cost_class_of_one_application(monkeypatch, build):
    """One sweep makes no N x N kernel evaluation and, for kernels that
    split, no evaluation with a row per evaluation time and no weight rows:
    it is O(N)."""
    problem = build()
    assert all(getattr(problem, name) is not None for name in TERMS)
    assert problem.sigma_nondecreasing.all()
    n = problem.grid.size
    triple = random_triple(problem, np.random.default_rng(1), scale=0.5)
    shapes, rows = _record_costs(monkeypatch)
    apply_operator(problem, triple)
    assert shapes, "no kernel was evaluated"
    assert [s for _, s in shapes if s == (n, n)] == []
    rows_per_time = [(a, s) for a, s in shapes
                     if a in MEMORY_ARITIES and len(s) == 2 and s[0] > 1]
    assert rows_per_time == []
    assert rows == []


# the evaluators of the terms that each problem's memory table leaves out
BATCH_TERMS = {
    "double_memory": [],
    "exponential": [],
    "fixed_impulses": [],
    "mixed_impulses": ["_G3"],
    "tdep": ["_G3"],
    "multi_impulse": ["_G1_per_time", "_G3"],
}


@pytest.mark.parametrize(
    "name, build",
    [(p.stem, lambda p=p: load_problem_file(p).problem) for p in HYBRID_FILES]
    + [("tdep", tdep_problem), ("multi_impulse", multi_impulse_problem)],
    ids=[p.stem for p in HYBRID_FILES] + ["tdep", "multi_impulse"],
)
def test_batch_terms_of_each_problem(name, build):
    """The cost class of each problem: which terms are evaluated per batch
    beyond the one read of its memory table."""
    assert [t.__name__ for t in build().batch_terms] == BATCH_TERMS[name]
