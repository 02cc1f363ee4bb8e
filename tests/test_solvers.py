"""Solvers: global iteration, segment marching, and the resolution study."""

import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import (
    TDEP_FILE,
    cosh_problem,
    exp_problem,
    g2_problem,
    make_problem,
    march_segment,
    mixed_problem,
    moving_problem,
    on_kernel_calls,
    random_triple,
    step_problem,
)
from test_parity import multi_impulse_problem, tdep_problem
import oracles
from oracles import residual
from hybrid_volterra import cli, operator, quadrature, solvers
from hybrid_volterra.contraction import contraction_bounds, find_mu, spectral_radius
from hybrid_volterra.expressions import EvaluationError, KernelExpr
from hybrid_volterra.operator import (
    SolutionTriple,
    apply_operator,
    default_init,
    jump_at,
)
from hybrid_volterra.piecewise import NonFiniteValues, PiecewiseFn
from hybrid_volterra.problem_io import LoadedProblem, SolverSettings, load_problem_file
from hybrid_volterra.quadrature import weight_rows
from hybrid_volterra.solvers import (
    ConvergenceReport,
    SolveReport,
    at_resolution,
    convergence_table,
    picard_solve,
    segment_solve,
)


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# sweeps to converge on each hybrid problems/*.yaml file at the tol it declares
SWEEPS = {
    "double_memory": {"picard": 7, "segment": 7},
    "exponential": {"picard": 14, "segment": 14},
    "fixed_impulses": {"picard": 4, "segment": 4},
    "mixed_impulses": {"picard": 10, "segment": 12},
}


class TestSweepCounts:
    """A change to a solver's update order or stop rule shows first in its
    sweep count on the shipped problems."""

    def test_every_hybrid_problem_is_counted(self):
        hybrid = {path.stem for path in PROBLEMS.glob("*.yaml")
                  if load_problem_file(path).kind == "hybrid"}
        assert hybrid == set(SWEEPS)

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_sweeps_at_the_declared_tol(self, name, method):
        loaded = load_problem_file(PROBLEMS / f"{name}.yaml")
        solve = picard_solve if method == "picard" else segment_solve
        _, rep = solve(loaded.problem, tol=loaded.settings.tol, kmax=loaded.settings.kmax)
        assert rep.converged and rep.iterations == SWEEPS[name][method]


class TestPicard:
    def test_exponential_problem(self):
        triple, report = picard_solve(exp_problem())
        assert report.converged
        assert triple.xi.eval(1.0) == pytest.approx(math.e, abs=1e-4)

    def test_cosh_problem(self):
        triple, report = picard_solve(cosh_problem())
        assert report.converged
        assert triple.xi.eval(1.0) == pytest.approx(math.cosh(1.0), abs=1e-4)

    def test_step_problem_exact_in_two_sweeps(self):
        triple, report = picard_solve(step_problem())
        assert report.converged
        assert report.iterations == 2
        assert triple.xi.eval(0.5) == 1.0
        assert triple.xi.eval(1.0) == 1.0
        assert triple.xi.eval_right(1.0) == 2.0
        assert triple.xi.eval(1.7) == 2.0

    def test_mu_from_declared_constants(self):
        _, report = picard_solve(exp_problem())
        assert report.mu == pytest.approx(0.01)
        assert any("declared constants" in n for n in report.notes)

    def test_mu_fallback_without_constants(self):
        p = make_problem(2.0, tau=(1.0,), h=0.5, x0="1", G1="1")
        _, report = picard_solve(p)
        assert report.mu == 1.0
        assert report.notes == ()

    def test_explicit_mu_respected(self):
        _, report = picard_solve(exp_problem(), mu=5.0)
        assert report.mu == 5.0

    def test_kmax_flagged(self):
        triple, report = picard_solve(exp_problem(), kmax=1)
        assert not report.converged
        assert report.iterations == 1
        assert math.isfinite(report.final_residual)

    def test_deltas_recorded(self):
        _, report = picard_solve(exp_problem())
        assert len(report.deltas) == report.iterations
        assert all(len(d) == 3 for d in report.deltas)
        assert report.max_deltas[-1] <= 1e-10

    def test_final_residual_small(self):
        _, report = picard_solve(exp_problem())
        assert report.final_residual <= 5e-5

    def test_uniqueness_from_random_inits(self):
        p = exp_problem()
        rng = np.random.default_rng(11)
        a, ra = picard_solve(p, init=random_triple(p, rng), tol=1e-10)
        b, rb = picard_solve(p, init=random_triple(p, rng), tol=1e-10)
        assert ra.converged and rb.converged
        assert np.max(np.abs(a.xi.values - b.xi.values)) <= 1e-9

    def test_geometric_decay_against_bound_radius(self):
        p = exp_problem()
        s = p.schedule
        mu = find_mu(p.lipschitz, s.horizon, s.h, s.n_tau, s.n_sigma)
        rho = spectral_radius(
            contraction_bounds(p.lipschitz, mu, s.horizon, s.h, s.n_tau, s.n_sigma)
        )
        _, report = picard_solve(p, mu=mu)
        m = report.max_deltas
        for k in range(2, len(m) - 1):
            if m[k] < 1e-11 or m[k + 1] < 1e-11:
                break
            assert m[k + 1] <= (rho + 0.1) * m[k]


class TestSegment:
    def test_matches_picard_without_impulses(self):
        p = exp_problem()
        a, _ = picard_solve(p)
        b, rep = segment_solve(p)
        assert rep.converged and rep.method == "segment"
        assert np.max(np.abs(a.xi.values - b.xi.values)) < 1e-9

    def test_unit_jump_from_fixed_impulse(self):
        triple, report = segment_solve(step_problem())
        assert report.converged
        assert triple.xi.eval_right(1.0) - triple.xi.eval(1.0) == 1.0

    def test_matches_picard_with_moving_impulse(self):
        p = moving_problem()
        a, _ = picard_solve(p)
        b, rep = segment_solve(p)
        assert rep.converged
        assert np.max(np.abs(a.xi.values - b.xi.values)) < 1e-6
        assert np.max(np.abs(a.beta[0].values - b.beta[0].values)) < 1e-6

    def test_matches_picard_on_pairwise_problem(self):
        p = g2_problem()
        a, _ = picard_solve(p)
        b, rep = segment_solve(p)
        assert rep.converged
        assert np.max(np.abs(a.xi.values - b.xi.values)) < 1e-6
        assert np.max(np.abs(a.eta - b.eta)) < 1e-6

    def test_jump_consistency(self):
        p = g2_problem()
        triple, report = segment_solve(p)
        assert report.converged
        for alpha in p.schedule.breakpoints:
            a = float(alpha)
            realized = triple.xi.eval_right(a) - triple.xi.eval(a)
            assert realized == pytest.approx(jump_at(p, triple, a), abs=1e-8)


class TestJumpConsistencyMixed:
    def test_every_breakpoint(self, mixed_solved):
        problem, triple, _ = mixed_solved
        for alpha in problem.schedule.breakpoints:
            a = float(alpha)
            realized = triple.xi.eval_right(a) - triple.xi.eval(a)
            assert realized == pytest.approx(jump_at(problem, triple, a), abs=1e-8)


class TestConvergenceTable:
    def test_second_order_ratios(self):
        table = convergence_table(exp_problem(), (16, 32, 64, 128))
        assert table.resolutions == (16, 32, 64, 128)
        assert all(3.5 <= r <= 4.5 for r in table.ratios)
        assert all(a > b for a, b in zip(table.errors, table.errors[1:]))

    def test_segment_method(self):
        table = convergence_table(step_problem(), (16, 32, 64), method="segment")
        # the step solution is piecewise constant: represented exactly at
        # every resolution, so all errors collapse to rounding level
        assert all(e <= 1e-12 for e in table.errors)

    def test_rows_layout(self):
        table = convergence_table(exp_problem(), (16, 32))
        rows = table.rows()
        assert rows[0]["panels"] == 16 and "ratio" not in rows[0]
        assert rows[1]["panels"] == 32 and "ratio" in rows[1]

    def test_two_resolutions_degenerate_ratio(self):
        table = convergence_table(exp_problem(), (32, 64))
        assert table.ratios[0] == pytest.approx(4.0, abs=1e-9)

    def test_single_resolution_rejected(self):
        with pytest.raises(ValueError):
            convergence_table(exp_problem(), (64,))

    def test_non_doubling_rejected(self):
        with pytest.raises(ValueError):
            convergence_table(exp_problem(), (16, 48))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            convergence_table(exp_problem(), (16, 32), method="euler")

    def test_non_convergence_raises(self):
        with pytest.raises(RuntimeError):
            convergence_table(exp_problem(), (16, 32), kmax=1)

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_matches_the_study_of_full_solves(self, name, method):
        """The same errors and ratios, bit for bit, as a study whose levels
        are each a full public solve (``oracles.convergence_table``)."""
        problem = load_problem_file(PROBLEMS / f"{name}.yaml").problem
        table = convergence_table(problem, (8, 16, 32), method=method)
        errors, ratios = oracles.convergence_table(problem, (8, 16, 32), method=method)
        assert [e.hex() for e in table.errors] == [e.hex() for e in errors]
        assert [r.hex() for r in table.ratios] == [r.hex() for r in ratios]

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_one_evaluation_per_sweep(self, monkeypatch, method):
        """A level takes no image of its iterate: the study evaluates the
        operator once for each sweep its levels count, and no more."""
        problem, res = mixed_problem(), (8, 16, 32)
        solve = picard_solve if method == "picard" else segment_solve
        sweeps = sum(solve(at_resolution(problem, r), tol=1e-12)[1].iterations for r in res)
        calls = {"picard": 0, "segment": 0}
        sweep = solvers._sweep

        def counted(problem, batch, window, deltas, *args, **kwargs):
            # a march sweep takes its segment's plain sups, a picard sweep
            # weighted deltas
            calls["picard" if march_segment(problem, deltas) is None else "segment"] += 1
            return sweep(problem, batch, window, deltas, *args, **kwargs)

        monkeypatch.setattr(solvers, "_sweep", counted)
        convergence_table(problem, res, method=method)
        by_picard = method == "picard"
        assert calls == {"picard": sweeps if by_picard else 0,
                         "segment": 0 if by_picard else sweeps}

    @pytest.mark.parametrize("method, searches", [("picard", 1), ("segment", 0)])
    def test_one_weight_per_study(self, monkeypatch, method, searches):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return find_mu(*args, **kwargs)

        monkeypatch.setattr(solvers, "find_mu", counted)
        convergence_table(mixed_problem(), (8, 16, 32), method=method)
        assert len(calls) == searches

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_unconverged_level_keeps_no_image(self, method):
        with pytest.raises(solvers.UnconvergedRun) as excinfo:
            convergence_table(exp_problem(), (16, 32), method=method, kmax=1)
        rep = excinfo.value.report
        assert excinfo.value.panels == 16 and rep.iterations == 1 and not rep.failed
        assert rep.image is None and math.isnan(rep.final_residual)

    def test_at_resolution_preserves_problem(self):
        p = mixed_problem(panels=64)
        q = at_resolution(p, 128)
        assert q.grid.panels == 128
        assert q.x0 is p.x0
        assert np.array_equal(q.schedule.partition, p.schedule.partition)


class TestForcingFailure:
    @pytest.mark.parametrize("solve", [picard_solve, segment_solve])
    def test_no_iterate_and_a_note(self, solve):
        p = make_problem(1.0, x0="1/t", f1="x")
        triple, rep = solve(p)
        assert triple is None
        assert rep.failed and not rep.converged and rep.iterations == 0
        assert rep.notes[-1] == "kernel error in the forcing term x0: division by zero"


class TestSolveReport:
    def test_max_deltas(self):
        rep = SolveReport("picard", 2, 1.0, True,
                          deltas=[(3.0, 1.0, 2.0), (0.5, 0.2, 0.1)])
        assert rep.max_deltas == [3.0, 0.5]

    def test_convergence_report_rows_are_dicts(self):
        rep = ConvergenceReport((16, 32), (1e-2, 2.5e-3), (4.0,))
        assert rep.rows()[1]["ratio"] == 4.0


def _image_cases():
    """(name, problem, tol, kmax) for every hybrid problems/*.yaml file and
    the multi-impulse parity problem."""
    for name in sorted(SWEEPS):
        loaded = load_problem_file(PROBLEMS / f"{name}.yaml")
        yield name, loaded.problem, loaded.settings.tol, loaded.settings.kmax
    yield "multi_impulse", multi_impulse_problem(), 1e-12, 300


IMAGE_CASES = {name: case for name, *case in _image_cases()}


def _solve(problem, method, tol, kmax):
    if method == "picard":
        return picard_solve(problem, tol=tol, kmax=kmax)
    return segment_solve(problem, tol=tol, kmax=kmax)


class TestImageOfTheIterate:
    """Each solver keeps the image of the iterate it returns, from one
    ``apply_operator``; the final residual and the jump rows of ``hv solve``
    are read from it, with what ``residual`` and ``jump_at`` give."""

    @pytest.mark.parametrize("method", ["picard", "segment"])
    @pytest.mark.parametrize("name", sorted(IMAGE_CASES))
    def test_image_and_residual(self, name, method):
        problem, tol, kmax = IMAGE_CASES[name]
        triple, rep = _solve(problem, method, tol, kmax)
        assert rep.converged and not rep.failed
        image = apply_operator(problem, triple)
        assert np.array_equal(rep.image.xi.values, image.xi.values)
        assert np.array_equal(rep.image.eta, image.eta)
        assert np.array_equal(rep.image.beta_rows(), image.beta_rows())
        assert rep.final_residual == residual(problem, triple)

    @pytest.mark.parametrize("method", ["picard", "segment"])
    @pytest.mark.parametrize("name", sorted(IMAGE_CASES))
    def test_jump_rows_match_jump_at(self, name, method):
        problem, tol, kmax = IMAGE_CASES[name]
        triple, rep = _solve(problem, method, tol, kmax)
        rows = cli._jump_rows(problem, triple, rep.image)
        bps = np.atleast_1d(problem.schedule.breakpoints)
        alphas = bps[(bps > 0) & (bps < problem.grid.horizon)]
        assert [row["t"] for row in rows] == alphas.tolist()
        if not rows:
            return
        column = {key: np.array([row[key] for row in rows]) for key in rows[0]}
        exact = dict(rtol=0, atol=1e-12)
        np.testing.assert_allclose(column["predicted_jump"],
                                   jump_at(problem, triple, alphas), **exact)
        np.testing.assert_allclose(column["left"], triple.xi.eval(alphas), **exact)
        np.testing.assert_allclose(column["right"], triple.xi.eval_right(alphas), **exact)
        np.testing.assert_array_equal(column["realized_jump"],
                                      column["right"] - column["left"])

    def test_breakpoint_within_merge_tol_of_the_horizon_gets_no_row(self):
        # sigma meets the diagonal 3e-11 before the horizon: a breakpoint,
        # but no partition point, so the solution has no jump there
        problem = make_problem(1.7, tau=(0.9,), sigma=("t + sin(3*(t - 1.7 + 3e-11))/50",),
                               h=0.1, panels=16, x0="1", f1="0.2*x", G1="0.1", G3="0.3")
        bps = problem.schedule.breakpoints
        assert bps.size == 3 and 0 < 1.7 - bps[-1] < 1e-10
        triple, rep = picard_solve(problem, tol=1e-12)
        assert rep.converged
        rows = cli._jump_rows(problem, triple, rep.image)
        assert [row["t"] for row in rows] == bps[:2].tolist()
        # no node pair holds the formula's jump there, so jump_at refuses it
        with pytest.raises(ValueError, match="not a breakpoint"):
            jump_at(problem, triple, bps[-1])

    def test_picard_evaluates_x0_once(self, monkeypatch):
        problem = mixed_problem(panels=32)
        calls = []
        evaluate = KernelExpr.evaluate

        def counting(self, bindings):
            if self is problem.x0:
                calls.append(np.shape(bindings["t"]))
            return evaluate(self, bindings)

        monkeypatch.setattr(KernelExpr, "evaluate", counting)
        _, rep = picard_solve(problem, tol=1e-12)
        assert rep.converged and rep.iterations > 1
        # the forcing term of the first iterate, at every time of a sweep
        assert calls == [problem.sweep.te.shape]

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_hv_solve_builds_one_table_per_sweep_and_one_more(
        self, monkeypatch, tmp_path, method
    ):
        problem = mixed_problem(panels=32)
        tables = []
        memory = operator._memory

        def counting(*args, **kwargs):
            tables.append(1)
            return memory(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("hv solve evaluates the iterate a second time")

        for module in (operator, solvers):
            monkeypatch.setattr(module, "_memory", counting)
        for module in (operator, solvers, cli):
            for name in ("jump_at", "residual"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        loaded = LoadedProblem("hybrid", problem, SolverSettings(tol=1e-12, kmax=300))
        monkeypatch.setattr(cli, "_load", lambda path, want: loaded)
        report_path = tmp_path / "report.yaml"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "mixed.yaml", "--method", method,
                      "--report", str(report_path)])
        assert excinfo.value.code == 0
        report = yaml.safe_load(report_path.read_text())
        assert len(report["jumps"]) == 3
        assert len(tables) == report["iterations"] + 1


def _arrays(triple):
    """Every array a triple exposes."""
    return [triple.xi.values, triple.eta, triple.beta_rows(), *(b.values for b in triple.beta)]


class TestOneIterateArray:
    """Both solvers iterate one array laid out as the times of a sweep and
    build a :class:`SolutionTriple` only for the iterate they return and
    for its image."""

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_no_triple_built_per_sweep(self, monkeypatch, method):
        built = {"triples": 0, "functions": 0}
        post_init, init = SolutionTriple.__post_init__, PiecewiseFn.__init__

        def counting_triple(self):
            built["triples"] += 1
            post_init(self)

        def counting_function(self, *args, **kwargs):
            built["functions"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(SolutionTriple, "__post_init__", counting_triple)
        monkeypatch.setattr(PiecewiseFn, "__init__", counting_function)
        counts = []
        for tol in (1e-6, 1e-12):
            problem = mixed_problem(panels=32)
            built.update(triples=0, functions=0)
            _, rep = _solve(problem, method, tol, 300)
            assert rep.converged
            counts.append((dict(built), rep.iterations))
        assert counts[0][1] < counts[1][1]
        # the returned iterate and its image: xi and one trace each
        assert counts[0][0] == counts[1][0] == {"triples": 2, "functions": 4}

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_results_share_no_memory(self, monkeypatch, method):
        """The returned triple and the image share no memory with each
        other, with any memory table a sweep rewrites, or with what a later
        solve of the same problem returns, and that solve leaves them as
        they were."""
        tables = []
        memory = operator._memory

        def recording(*args, **kwargs):
            table = memory(*args, **kwargs)
            tables.extend(a for a in (table.rows, table.prefix, table.cumulative,
                                      table.impulses) if a is not None)
            return table

        for module in (operator, solvers):
            monkeypatch.setattr(module, "_memory", recording)
        problem = mixed_problem(panels=32)
        solve = picard_solve if method == "picard" else segment_solve
        triple, rep = solve(problem, tol=1e-12, kmax=300)
        assert rep.converged
        first = _arrays(triple) + _arrays(rep.image)
        kept = [a.copy() for a in first]
        again, rep2 = solve(problem, init=triple, tol=1e-12, kmax=300)
        assert rep2.converged
        later = _arrays(again) + _arrays(rep2.image)
        for a in _arrays(triple):
            for b in _arrays(rep.image) + tables + later:
                assert not np.shares_memory(a, b)
        for a in _arrays(rep.image):
            for b in tables + later:
                assert not np.shares_memory(a, b)
        for a, b in zip(first, kept):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_blow_up_returns_the_last_counted_iterate(self, method):
        """A non-finite update stops the solve; the iterate it returns is,
        bit for bit, the one a solve stopped after as many sweeps returns."""
        problem = make_problem(3.0, panels=64, x0="1", f1="exp(t)*exp(x)")
        solve = picard_solve if method == "picard" else segment_solve
        triple, rep = solve(problem, tol=1e-12)
        assert rep.failed and rep.notes[-1].startswith("diverged:")
        assert rep.iterations > 0 and rep.image is None
        cut_short, rep2 = solve(problem, tol=1e-12, kmax=rep.iterations)
        assert rep2.iterations == rep.iterations and rep2.deltas == rep.deltas
        for a, b in zip(_arrays(triple), _arrays(cut_short)):
            assert a.tobytes() == b.tobytes()


class TestPicardTable:
    """Picard keeps one memory table of the whole grid: every sweep and the
    image fill the same arrays.  Its deltas are those that
    ``component_deltas`` gives for the two iterates of each sweep."""

    def test_one_table_for_every_sweep_and_the_image(self, monkeypatch):
        problem = load_problem_file(PROBLEMS / "mixed_impulses.yaml").problem
        tables = []
        memory = operator._memory

        def recording(*args, **kwargs):
            tables.append(memory(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(solvers, "_memory", recording)
        _, rep = picard_solve(problem, tol=1e-11, kmax=300)
        assert rep.converged and rep.image is not None
        assert len(tables) == rep.iterations + 1
        first = tables[0]
        assert first.window == problem.whole_grid and first.cumulative is not None
        for table in tables:
            assert table.rows is first.rows and table.prefix is first.prefix
            assert table.cumulative is first.cumulative

    @pytest.mark.parametrize("name", ["mixed_impulses", "multi-impulse"])
    def test_deltas_are_component_deltas(self, monkeypatch, name):
        if name == "multi-impulse":
            problem = multi_impulse_problem()
        else:
            problem = load_problem_file(PROBLEMS / f"{name}.yaml").problem
        pairs = []
        sweep = solvers._sweep

        def recording(problem, batch, window, deltas, state):
            (new, table), got = sweep(problem, batch, window, deltas, state)
            if deltas is not solvers._distance:  # not the image
                pairs.append((state[0].copy(), new.copy()))
            return (new, table), got

        monkeypatch.setattr(solvers, "_sweep", recording)
        _, rep = picard_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged and rep.image is not None
        assert len(pairs) == rep.iterations == len(rep.deltas)
        for deltas, (old, new) in zip(rep.deltas, pairs):
            want = operator.component_deltas(operator._triple(problem, new),
                                              operator._triple(problem, old), problem, rep.mu)
            assert [d.hex() for d in deltas] == [d.hex() for d in want]


class TestReaders:
    """A batch builds one reader per table layout (``_Batch.reader``).  A
    picard solve builds one, for every sweep and its image, which share
    the batch ``problem.sweep`` and the table, and so does the march that
    carries the remainder.  The march of the segments alone builds one per
    segment, whose batch and table are its own, and one for the image,
    which evaluates ``problem.sweep``."""

    @pytest.mark.parametrize("method", ["picard", "segment", "segment-alone"])
    def test_readers_per_solve(self, monkeypatch, method):
        loaded = load_problem_file(PROBLEMS / "mixed_impulses.yaml")
        problem, tol, kmax = loaded.problem, loaded.settings.tol, loaded.settings.kmax
        built = []
        reader = operator._Reader

        def counting(*args):
            built.append(reader(*args))
            return built[-1]

        monkeypatch.setattr(operator, "_Reader", counting)
        if method == "segment-alone":
            monkeypatch.setattr(solvers, "_AHEAD_TIMES", 0)
        solve = picard_solve if method == "picard" else segment_solve
        _, rep = solve(problem, tol=tol, kmax=kmax)
        assert rep.converged and rep.image is not None and rep.iterations > 1
        segments = problem.grid.num_segments
        assert segments == 4
        assert len(built) == (segments + 1 if method == "segment-alone" else 1)


class TestImpulsePrefix:
    """The prefix of the t-free G1 and G2 terms over the fixed impulses is
    built once per problem when neither kernel reads eta, and once per
    memory table when one does."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        prefix = operator._impulse_prefix

        def counting(problem, eta):
            calls.append(eta is None)
            return prefix(problem, eta)

        monkeypatch.setattr(operator, "_impulse_prefix", counting)
        return calls

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_eta_free_prefix_is_built_once(self, tmp_path, monkeypatch, method):
        path = tmp_path / "tdep.yaml"
        path.write_text(TDEP_FILE)
        problem = load_problem_file(path).problem
        calls = self._counting(monkeypatch)
        g1_calls = []

        def counting_evaluations(kernel, bindings, out):
            if kernel is problem.G1:
                g1_calls.append(bindings)

        on_kernel_calls(monkeypatch, counting_evaluations)
        _, rep = _solve(problem, method, 1e-12, 300)
        assert rep.converged and rep.iterations > 2
        assert calls == [True] and len(g1_calls) == 1

    def test_prefix_that_reads_eta_is_built_per_sweep(self, monkeypatch):
        problem = mixed_problem(panels=32)
        calls = self._counting(monkeypatch)
        _, rep = picard_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged
        assert problem.impulse_prefix is None
        # each sweep and the image of the returned iterate
        assert calls == [False] * (rep.iterations + 1)

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_prefix_is_read_only_and_shared_by_no_result(self, monkeypatch, method):
        problem = make_problem(2.0, tau=(0.4, 1.5), sigma=("0.5 + 0.5*t",), h=0.1,
                               panels=32, x0="1", f1="0.2*x", G1="0.1*tau + 0.2",
                               G2="0.05*taui*tauj", G3="0.1*beta")
        tables = []
        memory = operator._memory

        def recording(*args, **kwargs):
            table = memory(*args, **kwargs)
            tables.append(table.impulses)
            return table

        for module in (operator, solvers):
            monkeypatch.setattr(module, "_memory", recording)
        triple, rep = _solve(problem, method, 1e-12, 300)
        assert rep.converged
        jump_at(problem, triple, problem.schedule.breakpoints)
        prefix = problem.impulse_prefix
        assert not prefix.flags.writeable
        assert len(tables) > 2 and all(table is prefix for table in tables)
        for a in _arrays(triple) + _arrays(rep.image):
            assert not np.shares_memory(a, prefix)
        g1 = [0.1 * 0.4 + 0.2, 0.1 * 1.5 + 0.2]
        assert prefix == pytest.approx([0.0, g1[0], g1[0] + g1[1] + 0.05 * 1.5 * 0.4])

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_kernel_error_surfaces_in_the_first_sweep(self, method):
        problem = make_problem(1.0, tau=(0.3,), h=0.2, panels=16, x0="1", f1="x",
                               G1="log(tau - 0.5)")
        for _ in range(2):  # a failed build is not kept
            _, rep = _solve(problem, method, 1e-12, 300)
            assert rep.failed and rep.iterations == 0
            assert rep.notes[-1] == "kernel error in sweep 1: log of a non-positive value"


# f2 of the mixed problem with a memory that does not split into products
# of a function of (s, x) and one of (s1, x1)
NON_SEPARABLE_F2 = "0.05*x*x1/(1 + (s - s1)^2)"


class TestSharedF2Triangle:
    """A t-independent, non-separable f2 triangle is built once per operator
    application.

    Counted by watching every kernel evaluation (``on_kernel_calls``) and
    keeping the f2 calls whose bindings broadcast over the N x N node grid.
    """

    @staticmethod
    def _count_f2_passes(monkeypatch, problem):
        n = problem.grid.size
        passes = []

        def counting(kernel, bindings, out):
            shape = np.broadcast(*(np.asarray(v) for v in bindings.values())).shape
            if kernel is problem.f2 and shape == (n, n):
                passes.append(shape)

        on_kernel_calls(monkeypatch, counting)
        return passes

    def test_picard_one_pass_per_apply_operator(self, monkeypatch):
        problem = mixed_problem(panels=32, f2=NON_SEPARABLE_F2)
        passes = self._count_f2_passes(monkeypatch, problem)
        _, rep = picard_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged
        # one per sweep plus one for the final residual
        assert len(passes) == rep.iterations + 1

    def test_segment_one_pass_per_sweep(self, monkeypatch):
        problem = mixed_problem(panels=32, f2=NON_SEPARABLE_F2)
        passes = self._count_f2_passes(monkeypatch, problem)
        _, rep = segment_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged
        # one per sweep, for the table of its starting iterate, whose one
        # evaluation updates the nodes and the trace entries together; then
        # the residual
        assert len(passes) == rep.iterations + 1

    def test_segment_without_moving_impulses(self, monkeypatch):
        # no trace entries: the same one table per sweep
        problem = make_problem(2.0, tau=(1.0,), h=0.5, panels=32,
                               x0="1", f2="0.5*x1/(1 + (s - s1)^2)", G1="1")
        assert problem.n_sigma == 0 and problem.grid.num_segments == 2
        passes = self._count_f2_passes(monkeypatch, problem)
        _, rep = segment_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged
        # one per sweep plus one for the residual
        assert len(passes) == rep.iterations + 1

    def test_jump_at_one_pass(self, monkeypatch):
        problem = mixed_problem(panels=32, f2=NON_SEPARABLE_F2)
        passes = self._count_f2_passes(monkeypatch, problem)
        triple = default_init(problem)
        jump_at(problem, triple, float(problem.schedule.breakpoints[0]))
        assert len(passes) == 1

    def test_jump_at_one_pass_for_all_breakpoints(self, monkeypatch):
        problem = mixed_problem(panels=32, f2=NON_SEPARABLE_F2)
        passes = self._count_f2_passes(monkeypatch, problem)
        jump_at(problem, default_init(problem), problem.schedule.breakpoints)
        assert len(passes) == 1

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_hv_solve_passes(self, monkeypatch, tmp_path, method):
        """A full ``hv solve``: the solver's passes and no more, because the
        jump rows read the image that the solver kept."""
        problem = mixed_problem(panels=32, f2=NON_SEPARABLE_F2)
        passes = self._count_f2_passes(monkeypatch, problem)
        loaded = LoadedProblem("hybrid", problem, SolverSettings(tol=1e-12, kmax=300))
        monkeypatch.setattr(cli, "_load", lambda path, want: loaded)
        report_path = tmp_path / "report.yaml"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "mixed.yaml", "--method", method,
                      "--report", str(report_path)])
        assert excinfo.value.code == 0
        report = yaml.safe_load(report_path.read_text())
        assert len(report["jumps"]) >= 2
        # each solver: one per sweep, and the image of the returned iterate
        solver_passes = report["iterations"] + 1
        assert len(passes) == solver_passes


class TestSeparableF2:
    """A t-free f2 that splits into products takes O(N) inner rows, and
    t-free kernels take prefix sums: no N x N array is built."""

    @staticmethod
    def _count_square_evaluations(monkeypatch, problem):
        n = problem.grid.size
        squares = []

        def counting(kernel, bindings, out):
            if np.shape(out) == (n, n):
                squares.append(kernel.source)

        on_kernel_calls(monkeypatch, counting)
        return squares

    @staticmethod
    def _count_weight_rows(monkeypatch):
        calls = []

        def counting(grid, upper):
            calls.append(np.size(upper))
            return weight_rows(grid, upper)

        monkeypatch.setattr(quadrature, "weight_rows", counting)
        monkeypatch.setattr(operator, "weight_rows", counting)
        return calls

    def test_mixed_problem_f2_is_factored(self):
        problem = mixed_problem(panels=32)
        # t-free: no time factor
        assert [(c, a.source, b.source) for c, a, b in problem.f2_terms] == [
            (None, "0.05 * x", "x1 / (1 + s1^2)")
        ]
        assert mixed_problem(panels=32, f2=NON_SEPARABLE_F2).f2_terms is None

    @pytest.mark.parametrize("solve", [picard_solve, segment_solve])
    def test_no_square_kernel_pass(self, monkeypatch, solve):
        problem = mixed_problem(panels=32)
        squares = self._count_square_evaluations(monkeypatch, problem)
        _, rep = solve(problem, tol=1e-12, kmax=300)
        assert rep.converged and rep.iterations > 0
        jump_at(problem, default_init(problem), problem.schedule.breakpoints)
        assert squares == []

    def test_picard_builds_no_weight_rows(self, monkeypatch):
        problem = mixed_problem(panels=64)
        calls = self._count_weight_rows(monkeypatch)
        _, rep = picard_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged
        assert calls == []

    def test_t_dependent_kernels_still_build_weight_rows(self, monkeypatch):
        # t enters through exp(-t*s): no split into time factors
        problem = make_problem(1.0, tau=(0.5,), h=0.4, panels=16, x0="1",
                               f1="0.4*x*exp(-t*s)", f2="0.3*x1*exp(-t*s1)", G1="0.3")
        assert problem.f1_terms is None and problem.f2_terms is None
        calls = self._count_weight_rows(monkeypatch)
        _, rep = picard_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged
        # per operator application (each sweep and the final residual), one
        # batch of the nodes and the fixed-impulse time: its f1 rows, its f2
        # outer rows and the f2 inner rows at the nodes
        n = problem.grid.size
        assert calls == [n + 1, n + 1, n] * (rep.iterations + 1)


def nonmonotone_sigma_problem():
    """A moving time that rises and falls: sigma(s) < m is no node prefix."""
    return make_problem(2.0, tau=(0.3,), sigma=("0.9 + 0.3*sin(4*t)",), h=0.05,
                        panels=64, x0="1", f1="0.1*x",
                        g="0.02*x + 0.01*beta*eta", G3="0.01*beta")


class TestNonMonotoneSigma:
    """The g term keeps its dense mask where sigma is not monotone.

    The references are this problem's solutions under the dense mask that
    every g term took before the prefix form, at tol 1e-10: (sweeps, xi at
    NODES, eta, beta at NODES).
    """

    NODES = [0, 32, 64, 96, 128, 160, 194]
    REFERENCE = {
        "picard": (8, (1.0, 1.0151130648945281, 1.0304545345195624, 1.0576449868970341,
                       1.0864653228940218, 1.2068859712914917, 1.3082615760132157),
                   1.0304545345195624,
                   (1.1089270301356993, 1.1432227787715472, 1.1692650797905955,
                    1.1576085826360223, 1.0997942160309992, 1.0719542360426995,
                    1.1756812681548012)),
        "segment": (9, (1.0, 1.0151130648945281, 1.0304545345195582, 1.0576449868970341,
                         1.0864653228940138, 1.2068859712917381, 1.3082615760206155),
                    1.0304545345195582,
                    (1.1089270301357015, 1.1432227787715628, 1.1692650797906445,
                     1.157608582636053, 1.0997942160310001, 1.0719542360426997,
                     1.1756812681548623)),
    }

    def test_sigma_is_flagged_non_monotone(self):
        problem = nonmonotone_sigma_problem()
        assert problem.grid.size == 195
        assert problem.sigma_nondecreasing.tolist() == [False]
        assert mixed_problem(panels=32).sigma_nondecreasing.tolist() == [True]

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_solution_matches_dense_mask_reference(self, method):
        problem = nonmonotone_sigma_problem()
        solve = picard_solve if method == "picard" else segment_solve
        triple, rep = solve(problem, tol=1e-10)
        sweeps, xi, eta, beta = self.REFERENCE[method]
        assert rep.converged and rep.iterations == sweeps
        assert np.max(np.abs(triple.xi.values[self.NODES] - xi)) <= 1e-12
        assert abs(triple.eta[0] - eta) <= 1e-12
        assert np.max(np.abs(triple.beta[0].values[self.NODES] - beta)) <= 1e-12


def _consumed_by_segment(problem):
    """Per segment, the (p, k) trace entries whose sigma_p(t_k) lies in it:
    in (end_{l-1}, end_l], closed below for the first segment."""
    sigma = problem.sigma_grid
    ends = problem.grid.partition[1:] + operator.EPS
    below = np.concatenate([[-np.inf], ends[:-1]])
    return [set(zip(*np.nonzero((sigma > lo) & (sigma <= hi)))) for lo, hi in zip(below, ends)]


def _owned_by_segment(problem):
    """Per segment, the fixed impulses whose values it computes: those with
    tau_j in (end_{l-1}, end_l], closed below for the first segment."""
    ends = problem.grid.partition[1:] + operator.EPS
    below = np.concatenate([[-np.inf], ends[:-1]])
    tau = problem.tau
    return [np.flatnonzero((tau > lo) & (tau <= hi)) for lo, hi in zip(below, ends)]


def _reader_parts(reader) -> list:
    """The arrays of a batch's reader of a table that depend on its times:
    the cut of every row and the rows' weights, where it has them."""
    return [*(reader.keep or ()), *(() if reader.weight is None else (reader.weight,))]


class TestMarchWork:
    """In the march of the segments alone (``_AHEAD_TIMES`` 0), each
    segment keeps one table, over its window of columns: the segment's
    first sweep builds it from its starting iterate, and every later sweep
    rewrites it from the window's first changeable column.  Each sweep
    makes one evaluation: the segment's nodes, then the fixed-impulse
    times it owns, then the trace entries it consumes first.

    Recorded per sweep: its segment, read from its deltas, the row
    prefixes it takes (with their first column and width), and each
    evaluation it makes, with its arguments and result; work outside
    every march sweep (the image, an evaluation of ``problem.sweep``) is
    recorded apart.
    """

    @staticmethod
    def _record(monkeypatch):
        monkeypatch.setattr(solvers, "_AHEAD_TIMES", 0)
        outside = {"segment": None, "tables": [], "evals": []}
        log = {"sweeps": [], "outside": outside}
        current = [outside]
        sweep, sc_eval = solvers._sweep, solvers._sc_eval
        row_prefix = operator._row_prefix

        def recording_sweep(problem, batch, window, deltas, *args, **kwargs):
            segment = march_segment(problem, deltas)
            if segment is None:  # the image
                return sweep(problem, batch, window, deltas, *args, **kwargs)
            current[0] = {"segment": segment, "window": window, "tables": [], "evals": []}
            log["sweeps"].append(current[0])
            try:
                return sweep(problem, batch, window, deltas, *args, **kwargs)
            finally:
                current[0] = outside

        def counting_prefix(grid, rows, first=0, start=0.0, out=None):
            current[0]["tables"].append((first, rows.shape[-1]))
            return row_prefix(grid, rows, first, start, out)

        def recording_eval(*args):
            out = sc_eval(*args)
            current[0]["evals"].append((args, out))
            return out

        monkeypatch.setattr(solvers, "_sweep", recording_sweep)
        monkeypatch.setattr(solvers, "_sc_eval", recording_eval)
        monkeypatch.setattr(operator, "_sc_eval", recording_eval)
        monkeypatch.setattr(operator, "_row_prefix", counting_prefix)
        return log

    def _check_batches(self, problem, log):
        """Every sweep of segment l makes one evaluation: the segment's
        nodes, with their sweep memberships, which are the batch's nodes;
        then the fixed-impulse times l owns, one tick left; then the
        entries l consumes first, each once, by moving impulse and node,
        one tick left of their moving times.  The segments share no entry
        and cover every one."""
        grid = problem.grid
        node_m = problem.sweep.m[:grid.size]
        consumed = _consumed_by_segment(problem)
        owned = _owned_by_segment(problem)

        def moving(entries):
            index = tuple(np.array(sorted(entries), dtype=int).T)
            return (problem.sigma_grid[index] if index else np.zeros(0)).tolist()

        for rec in log["sweeps"]:
            assert len(rec["evals"]) == 1
            (_, _, batch, _), _ = rec["evals"][0]
            te, m = batch.te.tolist(), batch.m.tolist()
            l = rec["segment"]
            nodes = grid.segment_slice(l)
            assert batch.nodes == nodes
            u, tau = moving(consumed[l]), problem.tau[owned[l]].tolist()
            assert te == grid.times[nodes].tolist() + tau + u
            assert m == node_m[nodes].tolist() + [x - operator.EPS for x in tau + u]
        assert sum(len(s) for s in consumed) == problem.sigma_grid.size
        assert set().union(*consumed) == set(np.ndindex(problem.sigma_grid.shape))

    def _check_tables(self, problem, log):
        """Every segment keeps one table, over the columns 0 to ``hi`` of
        its window, a segment boundary at or after the segment's end.  Its
        first sweep takes one row prefix over the columns 0 to ``hi``,
        every later sweep one from ``live`` to ``hi``, and every sweep of
        it reads the same rows."""
        grid = problem.grid
        rows_of = {}
        for rec in log["sweeps"]:
            (_, _, _, memory), _ = rec["evals"][0]
            first = rec["segment"] not in rows_of
            rows = rows_of.setdefault(rec["segment"], memory.rows)
            live, hi = rec["window"].live, rec["window"].hi
            assert grid.segment_slice(rec["segment"]).stop <= hi <= grid.size
            assert hi % (grid.panels + 1) == 0 and memory.rows.shape[1] == hi
            assert rec["tables"] == [(0, hi) if first else (live, hi - live)]
            assert memory.rows is rows
        assert sorted(rows_of) == list(range(grid.num_segments))

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_mixed_problem(self, monkeypatch, tol):
        problem = mixed_problem(panels=32)
        log = self._record(monkeypatch)
        _, rep = segment_solve(problem, tol=tol, kmax=300)
        assert rep.converged and len(log["sweeps"]) == rep.iterations
        consumed = _consumed_by_segment(problem)
        # sigma = 0.5 + 0.55 t runs from 0.5 to 1.6: segments 1 and 2 consume
        # every entry, segments 0 and 3 none
        assert [len(c) > 0 for c in consumed] == [False, True, True, False]
        self._check_batches(problem, log)
        self._check_tables(problem, log)
        # 33 nodes per segment.  Segment 1 rewrites its g rows from column 0,
        # whose trace entry it consumes.  Segment 1 consumes the entries of
        # every node up to its end, so segment 2 rewrites from its first
        # node, and so does segment 3.  Each table ends at its segment's end
        assert problem.grid.size == 132
        windows = {rec["segment"]: tuple(rec["window"][:2]) for rec in log["sweeps"]}
        assert windows == {0: (0, 33), 1: (0, 66), 2: (66, 99), 3: (99, 132)}
        # each table admits the fixed impulses tau = 0.4 and 1.75 at or
        # before its segment's first node, whose eta no sweep of it changes
        admitted = {rec["segment"]: rec["window"].admitted for rec in log["sweeps"]}
        assert admitted == {0: 0, 1: 1, 2: 1, 3: 2}
        starts = problem.grid.partition[:-1] + operator.EPS
        assert list(admitted.values()) == np.searchsorted(problem.tau, starts, "right").tolist()
        # the image rewrites the last segment's table from column 99 and
        # evaluates the times of a picard sweep
        outside = log["outside"]
        assert outside["tables"] == [(99, 33)]
        assert [args[2] for args, _ in outside["evals"]] == [problem.sweep]

    @pytest.mark.parametrize("name", sorted(IMAGE_CASES))
    def test_image_rewrites_the_last_table(self, monkeypatch, name):
        """The image of the returned iterate is the last segment's table,
        whose window spans the grid and admits every fixed impulse,
        rewritten from its live column: one row prefix over the columns
        ``live`` to N, none from column 0, and the bits of
        ``apply_operator`` and ``residual`` on the returned triple."""
        problem, tol, kmax = IMAGE_CASES[name]
        log = self._record(monkeypatch)
        triple, rep = segment_solve(problem, tol=tol, kmax=kmax)
        assert rep.converged
        last = log["sweeps"][-1]["window"]
        N = problem.grid.size
        assert (last.hi, last.admitted) == (N, problem.n_tau)
        assert log["outside"]["tables"] == [(last.live, N - last.live)]
        image = apply_operator(problem, triple)
        for a, b in zip(_arrays(rep.image), _arrays(image)):
            assert a.tobytes() == b.tobytes()
        assert rep.final_residual == residual(problem, triple)

    def test_image_of_an_impulse_at_the_horizon(self, monkeypatch):
        """A fixed impulse 5e-11 before the horizon merges into it: no
        membership of the last segment admits it, so its table holds no g
        row of it.  No membership of a sweep admits it either, so the image
        rewrites that table as it does any other, with the same bits."""
        problem = make_problem(2.0, tau=(0.5, 2.0 - 5e-11), sigma=("0.3 + 0.5*t",), panels=8,
                               x0="1", f1="0.3*x", G1="0.4*eta", g="0.1*x*eta",
                               G3="0.2*beta*eta")
        assert problem.grid.partition[-1] == 2.0 and problem.grid.partition[-2] < 2.0 - 1e-3
        log = self._record(monkeypatch)
        triple, rep = segment_solve(problem, tol=1e-12)
        assert rep.converged
        last = log["sweeps"][-1]["window"]
        assert (last.hi, last.admitted) == (problem.grid.size, 1)
        assert log["outside"]["tables"] == [(last.live, problem.grid.size - last.live)]
        image = apply_operator(problem, triple)
        for a, b in zip(_arrays(rep.image), _arrays(image)):
            assert a.tobytes() == b.tobytes()
        assert rep.final_residual == residual(problem, triple)

    def test_an_impulse_at_the_horizon_admitted_by_a_trace_entry(self, monkeypatch):
        """A trace entry up to the merge tolerance past the horizon admits a
        fixed impulse that merges into the horizon, whose eta the last
        segment owns and changes: so that segment's table, whose g rows
        and impulse prefix read eta, is rewritten from column 0 in every
        sweep, and the march agrees with picard.  Kept from its first
        sweep, the table gave an answer 2.6 away from picard's."""
        problem = make_problem(2.0, tau=(1.0, 2.0 - 5e-11), sigma=("t + 8e-11",), h=0.2,
                               panels=8, x0="1", f1="0.3*x", G1="0.4*eta",
                               G2="0.1*etai*etaj", G3="0.5*beta*eta",
                               g="0.2*beta*eta + 0.1*x")
        assert problem.grid.partition.tolist() == [0.0, 1.0, 2.0]
        assert problem.sigma_grid.max() > problem.tau[-1] + operator.EPS
        log = self._record(monkeypatch)
        seg, rep_s = segment_solve(problem, tol=1e-12, kmax=300)
        assert rep_s.converged
        last = {rec["segment"]: rec["window"] for rec in log["sweeps"]}[1]
        assert (last.live, last.admitted) == (0, 2)
        assert {rec["tables"][0][0] for rec in log["sweeps"]} == {0}
        pic, rep_p = picard_solve(problem, tol=1e-12, kmax=300)
        assert rep_p.converged
        assert np.max(np.abs(operator._values(seg) - operator._values(pic))) <= 1e-9

    CASES = pytest.mark.parametrize(
        "case", ["mixed", "impulse-after-root", "trace-past-a-breakpoint", "multi-impulse"])

    @staticmethod
    def _case(case):
        """In the second case the root t = 1 of sigma merges into the fixed
        impulse at 1 + 5e-11, which stays a breakpoint.  In the third, sigma
        lies 5e-11 above the breakpoint 0.5 at the node t = 1: segment 1
        consumes that entry, whose time falls in segment 2, so its window
        reaches into segment 2.  The fourth has two moving and three fixed
        impulses."""
        if case == "mixed":
            problem = mixed_problem(panels=32)
        elif case == "impulse-after-root":
            problem = make_problem(2.0, tau=(1.0 + 5e-11,), sigma=("0.5 + 0.5*t",), h=0.2,
                                   panels=16, x0="1", f1="0.3*x", G1="0.4*eta + 0.1",
                                   G3="0.5*beta", g="0.2*beta*eta + 0.1*x")
            assert problem.grid.partition.tolist() == [0.0, 1.0 + 5e-11, 2.0]
        elif case == "trace-past-a-breakpoint":
            problem = make_problem(2.0, tau=(0.5,), sigma=("0.25 + 0.25*t + 5e-11",), h=0.2,
                                   panels=12, x0="1", f1="0.3*x", f2="0.1*x*x1",
                                   G1="0.4*eta", G3="0.5*beta", g="0.2*beta*eta + 0.1*x")
            k = 2 * (problem.grid.panels + 1) + 4  # the node t = 1
            assert problem.grid.partition[2] == 0.5 and problem.grid.times[k] == 1.0
            assert 0.5 < problem.sigma_grid[0, k] <= 0.5 + operator.EPS
        else:
            problem = multi_impulse_problem()
            assert problem.n_sigma == 2 and problem.n_tau == 3
        return problem

    @CASES
    def test_window_reads_match_whole_grid(self, monkeypatch, case):
        """The one evaluation of each sweep, through its segment's table,
        gives the bits that an evaluation against a table of the whole grid
        gives for the same triple, and a picard sweep (:meth:`_case`).  In
        the fourth case each sweep still builds one table and makes one
        evaluation.  In the third, a window reaches past its segment's end.
        """
        problem = self._case(case)
        sc_eval, memory = operator._sc_eval, operator._memory
        log = self._record(monkeypatch)
        _, rep = segment_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged and len(log["sweeps"]) == rep.iterations
        self._check_batches(problem, log)
        self._check_tables(problem, log)
        for rec in log["sweeps"]:
            (_, triple, batch, _), got = rec["evals"][0]
            whole = sc_eval(problem, triple, batch, memory(problem, triple))
            assert got.tobytes() == whole.tobytes()
            # and those of a picard sweep of the same iterate at those times,
            # beta read at its stored values at every node
            values = np.concatenate([triple.xi, triple.eta, triple.beta.reshape(-1)])
            (swept, _), _ = solvers._sweep(problem, problem.sweep, None,
                                           partial(operator._deltas, problem, problem.decay(1.0)),
                                           (values, None))
            assert got.tobytes() == swept[batch.index].tobytes()
        if case == "mixed":
            # some rewrite their table from a later column
            assert max(rec["window"].live for rec in log["sweeps"]) > 0
        if case == "trace-past-a-breakpoint":
            ends = {rec["segment"]: (rec["window"].hi, problem.grid.segment_slice(rec["segment"]))
                    for rec in log["sweeps"]}
            assert any(hi > nodes.stop for hi, nodes in ends.values())

    @CASES
    def test_batches_are_index_views_of_the_sweep(self, monkeypatch, case):
        """Each segment's batch is ``problem.sweep`` at the indices of its
        nodes, then of the fixed-impulse times it owns, then of its fresh
        entries: every part an evaluation reads, its reader of the
        segment's table included, has the bits of a batch built afresh at
        those times (:meth:`_case`), and each part, its reader of a table
        of the whole grid with the same rows included, has the bits of the
        sweep's part there."""
        problem = self._case(case)
        log = self._record(monkeypatch)
        _, rep = segment_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged
        sweep = problem.sweep
        factors = [term[0] for terms in (problem.f1_terms, problem.f2_terms, problem.g_terms)
                   for term in terms or () if term[0] is not None]
        batches = {id(args[2]): args[2] for rec in log["sweeps"]
                   for args, _ in rec["evals"]}.values()
        evals = {id(args[2]): args for rec in log["sweeps"] for args, _ in rec["evals"]}
        assert len(batches) == problem.grid.num_segments
        consumed = _consumed_by_segment(problem)
        owned = _owned_by_segment(problem)
        N, n_tau = problem.grid.size, problem.n_tau
        covered, read = [], 0
        for l, batch in enumerate(batches):
            assert isinstance(batch, operator._Subset) and batch.parent is sweep
            index = batch.index
            # the segment's nodes lead, then the fixed impulses it owns, then
            # the entries it consumes first
            nodes = problem.grid.segment_slice(l)
            assert index.tolist() == list(range(nodes.start, nodes.stop)) + [
                N + j for j in owned[l]] + sorted(N + n_tau + p * N + k for p, k in consumed[l])
            covered += index.tolist()
            fresh = operator._Batch(problem, batch.te, batch.m)
            for name, take in [("te", lambda a: a[index]), ("m", lambda a: a[index]),
                               ("x0", lambda a: a[index]), ("sigma", lambda a: a[:, index]),
                               ("tau_below", lambda a: a[index]),
                               ("impulse_count", lambda a: a[index]),
                               ("g3_gate", lambda a: a[..., index])]:
                got = getattr(batch, name)
                assert got.tobytes() == take(getattr(sweep, name)).tobytes(), name
                assert got.tobytes() == getattr(fresh, name).tobytes(), name
            for got, whole, built in zip(batch.limits, sweep.limits, fresh.limits):
                assert got.tobytes() == whole[index].tobytes() == built.tobytes()
            # the segment's table, read by the batch and by one built afresh
            _, view, _, memory = evals[id(batch)]
            parts = [_reader_parts(b.reader(memory)) for b in (batch, fresh)]
            assert len(parts[0]) == len(parts[1])
            read += len(parts[0])
            for got, built in zip(*parts):
                assert got.tobytes() == built.tobytes()
            # a table of the whole grid with the same rows, read by the
            # batch and by the sweep at the batch's indices
            whole_grid = operator._memory(
                problem, view, None, operator._Window(0, N, memory.window.admitted))
            parts = [_reader_parts(b.reader(whole_grid)) for b in (batch, sweep)]
            assert len(parts[0]) == len(parts[1])
            for got, whole in zip(*parts):
                assert got.tobytes() == whole[:, index].tobytes()
            for c in factors:
                whole = sweep.factor(c)
                want = whole if whole.ndim == 0 else whole[index]
                assert batch.factor(c).tobytes() == want.tobytes()
                assert batch.factor(c).tobytes() == fresh.factor(c).tobytes()
        # the segments' times share no time and cover every time of a sweep,
        # and some segment's reader has parts that depend on its times
        assert sorted(covered) == list(range(sweep.te.size)) and read > 0

    @pytest.mark.parametrize(
        "sigma, horizon, panels, first",
        [("0.5*t", 1.0, 16, 0), ("0.25 + 0.25*t", 2.0, 12, 1)],
        ids=["sigma-from-zero", "sigma-on-tau-at-a-node"],
    )
    def test_refresh_edges(self, monkeypatch, sigma, horizon, panels, first):
        problem = make_problem(horizon, tau=(0.5,), sigma=(sigma,), h=0.2, panels=panels,
                               x0="1", f1="0.3*x", G1="0.4*eta", G3="0.5*beta",
                               g="0.2*beta*eta")
        consumed = _consumed_by_segment(problem)
        if first == 0:
            # sigma(0) = 0: the first segment takes it, closed below
            assert problem.sigma_grid[0, 0] == 0.0 and (0, 0) in consumed[0]
        else:
            # sigma = tau = 0.5, the end of segment 1, at the node t = 1
            k = int(np.argmin(np.abs(problem.grid.times - 1.0)))
            assert abs(problem.grid.times[k] - 1.0) < 1e-12
            assert problem.grid.partition[2] == 0.5
            assert abs(problem.sigma_grid[0, k] - 0.5) < 1e-12 and (0, k) in consumed[1]
        log = self._record(monkeypatch)
        seg, rep_s = segment_solve(problem, tol=1e-12, kmax=300)
        self._check_batches(problem, log)
        self._check_tables(problem, log)
        pic, rep_p = picard_solve(problem, tol=1e-12, kmax=300)
        assert rep_s.converged and rep_p.converged
        for a, b in [(pic.xi.values, seg.xi.values), (pic.eta, seg.eta),
                     (pic.beta_rows(), seg.beta_rows())]:
            assert np.max(np.abs(a - b)) <= 1e-6

    @pytest.mark.parametrize(
        "f2, windows",
        [("0.1*x*x1*exp(-t*s1)", [(0, 34), (0, 34)]),
         ("0.1*x*x1/(1 + (s - s1)^2)", [(0, 17), (17, 34)])],
        ids=["per-time", "t-free"],
    )
    def test_window_of_an_unsplit_f2(self, monkeypatch, f2, windows):
        """An f2 that references t and does not split is evaluated per
        batch: its table has no rows, so each segment takes the whole grid.
        A t-free one is a row of the table, which each segment rewrites
        from its first node to its end."""
        problem = make_problem(2.0, tau=(1.0,), h=0.5, panels=16, x0="1", f2=f2,
                               G1="0.2*eta")
        assert problem.f2_terms is None and problem.grid.size == 34
        log = self._record(monkeypatch)
        _, rep = segment_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged
        self._check_tables(problem, log)
        got = {rec["segment"]: tuple(rec["window"][:2]) for rec in log["sweeps"]}
        assert [got[0], got[1]] == windows

    def test_impulse_just_after_a_root_agrees_with_picard(self):
        """A fixed impulse within the merge tolerance after a root of sigma
        is the breakpoint, so the segment after it never admits an impulse
        whose value it is still computing."""
        problem = make_problem(2.0, tau=(1.0 + 5e-11,), sigma=("0.5 + 0.5*t",), h=0.2,
                               panels=16, x0="1", f1="0.3*x", G1="0.4*eta + 0.1",
                               G3="0.5*beta", g="0.2*beta*eta + 0.1*x")
        assert problem.grid.partition.tolist() == [0.0, 1.0 + 5e-11, 2.0]
        seg, rep_s = segment_solve(problem, tol=1e-12, kmax=300)
        pic, rep_p = picard_solve(problem, tol=1e-12, kmax=300)
        assert rep_s.converged and rep_p.converged
        for a, b in [(pic.xi.values, seg.xi.values), (pic.eta, seg.eta),
                     (pic.beta_rows(), seg.beta_rows())]:
            assert np.max(np.abs(a - b)) <= 1e-9


# x = 1 + int_0^t x^2 ds, plus 0.1 after tau = 0.5, blows up after t = 1:
# the remainder of segment 0 fails before segment 0 converges
BLOW_UP_AFTER_SEGMENT_0 = dict(tau=(0.5,), panels=16, x0="1", f1="x*x", G1="0.1")


def _remainder_case(name):
    """(problem, tol, kmax) of the march's remainder checks."""
    if name == "mixed_impulses":
        loaded = load_problem_file(PROBLEMS / "mixed_impulses.yaml")
        return loaded.problem, loaded.settings.tol, loaded.settings.kmax
    if name == "multi_impulse":
        return multi_impulse_problem(), 1e-12, 200
    if name == "tdep":
        return tdep_problem(), 1e-12, 200
    return nonmonotone_sigma_problem(), 1e-10, 200


def _segment_plans(problem):
    """Per segment, as the march builds them: the segment's nodes, owned
    fixed impulses and fresh entries, whose plain sups are its deltas
    (``solvers._sups``), the indices of the segment's own times (its
    nodes, fixed-impulse times and fresh entries), the sorted indices of
    the values that earlier segments solved (their nodes, the fixed
    impulses they own and the entries they consumed), which a carrying
    sweep keeps, and the entries that earlier segments consumed."""
    grid = problem.grid
    N, traces = grid.size, grid.size + problem.n_tau
    consumed = _consumed_by_segment(problem)
    owned = _owned_by_segment(problem)

    def entries(pairs):
        return traces + np.array(sorted(p * N + k for p, k in pairs), dtype=int)

    for l in range(grid.num_segments):
        nodes = grid.segment_slice(l)
        eta = N + owned[l]
        fresh = entries(consumed[l])
        own = np.concatenate([np.arange(nodes.start, nodes.stop), eta, fresh])
        kept = np.concatenate([np.arange(nodes.start), N + np.concatenate(owned[:l] or [[]]),
                               entries(set().union(*consumed[:l]))]).astype(int)
        solved = np.zeros(problem.sigma_grid.shape, dtype=bool)
        for p, k in set().union(*consumed[:l]):
            solved[p, k] = True
        yield (nodes, eta, fresh), own, kept, solved


def _segments_swept(monkeypatch) -> list:
    """The segment of every march sweep from now on, in order, read from
    the deltas each one takes."""
    segments = []
    sweep = solvers._sweep

    def counted(problem, batch, window, deltas, *args, **kwargs):
        segment = march_segment(problem, deltas)
        if segment is not None:  # not the image
            segments.append(segment)
        return sweep(problem, batch, window, deltas, *args, **kwargs)

    monkeypatch.setattr(solvers, "_sweep", counted)
    return segments


class TestRemainder:
    """Each sweep of a march segment also evaluates every unsolved time
    after the segment, so a later segment starts from values that earlier
    sweeps iterated: it is a picard sweep that keeps what earlier segments
    solved.  The segment's own values keep the bits of an evaluation of the
    segment alone, and a failed remainder falls back to the segments
    alone."""

    SPLITS = {"mixed_impulses": [7, 2, 2, 1], "multi_impulse": [7, 1, 3, 1, 3, 1]}

    @pytest.mark.parametrize("name", sorted(SPLITS))
    def test_sweeps_per_segment(self, monkeypatch, name):
        """A later segment that starts from values iterated against a stale
        table shows here first, by segment."""
        problem, tol, kmax = _remainder_case(name)
        segments = _segments_swept(monkeypatch)
        _, rep = segment_solve(problem, tol=tol, kmax=kmax)
        assert rep.converged and len(segments) == rep.iterations
        assert [segments.count(l) for l in range(problem.grid.num_segments)] == self.SPLITS[name]

    @pytest.mark.parametrize("name", ["mixed_impulses", "multi_impulse", "tdep", "non_monotone"])
    def test_own_values_match_the_segment_alone(self, name):
        """Two sweeps of every segment from a random iterate, one carrying
        the remainder (``problem.sweep``, keeping what earlier segments
        solved) and one alone (the segment's ``_Subset``), each with its
        own table (built, then rewritten): the segment's nodes, fixed
        impulses and fresh entries, and the deltas, have the same bits, and
        the carrying sweep keeps the solved values' bits."""
        problem, _, _ = _remainder_case(name)
        start = operator._values(random_triple(problem, np.random.default_rng(5)))
        for owned, own, kept, solved in _segment_plans(problem):
            nodes = owned[0]
            sups = partial(solvers._sups, owned)
            batch = operator._Subset(problem.sweep, own, nodes)
            sweeps = {
                "remainder": partial(solvers._sweep, problem, problem.sweep, None, sups,
                                     solved=kept),
                "alone": partial(solvers._sweep, problem, batch,
                                 operator._window(problem, nodes, batch, solved), sups),
            }
            # each builds its table from the random iterate, then rewrites it
            # from the remainder's next iterate
            (with_r, table_r), deltas_r = sweeps["remainder"]((start, None))
            (alone, table_a), deltas_a = sweeps["alone"]((start, None))
            assert table_r.window == problem.whole_grid
            (with_r2, _), deltas_r2 = sweeps["remainder"]((with_r, table_r))
            (alone2, _), deltas_a2 = sweeps["alone"]((with_r, table_a))
            for x, y in [(with_r, alone), (with_r2, alone2)]:
                assert [v.hex() for v in x[own]] == [v.hex() for v in y[own]]
            assert ([v.hex() for v in deltas_r + deltas_r2]
                    == [v.hex() for v in deltas_a + deltas_a2])
            assert with_r[kept].tobytes() == start[kept].tobytes()
            assert with_r2[kept].tobytes() == start[kept].tobytes()

    def test_a_failed_remainder_restarts_the_march_alone(self, monkeypatch):
        """The remainder blows up while segment 0 iterates.  The march
        starts again from x0, with a new table, and takes every segment
        alone: it stops where a march of the segments alone stops."""
        problem = make_problem(2.0, **BLOW_UP_AFTER_SEGMENT_0)
        calls = []
        sweep = solvers._sweep

        def recorded(problem, batch, window, deltas, state, solved=None):
            # a carrying sweep keeps what earlier segments solved
            calls.append((solved is not None, state[0].copy(), state[1]))
            return sweep(problem, batch, window, deltas, state, solved=solved)

        monkeypatch.setattr(solvers, "_sweep", recorded)
        _, rep = segment_solve(problem, tol=1e-10, kmax=200)
        assert rep.failed and rep.iterations == 27
        assert rep.notes == ("diverged: non-finite update in sweep 28",)
        ahead = [carried for carried, _, _ in calls]
        restart = ahead.index(False)
        assert 0 < restart and not any(ahead[restart:])
        _, first, table = calls[restart]
        assert table is None and np.all(first == 1.0)  # x0 at every time
        assert len(calls) - restart == rep.iterations + 1

    def test_a_non_finite_delta_restarts_the_march_alone(self, monkeypatch):
        """A carrying sweep whose values are finite but whose delta is not,
        as two finite iterates near -1e308 and 1e308 give, fails as a sweep
        with a kernel error does: the march starts again from x0 and takes
        every segment alone, and ends as that march does, here converged."""
        problem = make_problem(2.0, tau=(0.5,), panels=16, x0="1", f1="-x", G1="0.1")
        sweep = solvers._sweep
        calls = []

        def overflowing(problem, batch, window, deltas, state, solved=None):
            if deltas is solvers._distance:  # the image
                return sweep(problem, batch, window, deltas, state)
            calls.append((solved is not None, state))
            new, got = sweep(problem, batch, window, deltas, state, solved=solved)
            return new, (math.inf, *got[1:]) if len(calls) == 2 else got

        monkeypatch.setattr(solvers, "_sweep", overflowing)
        got, rep = segment_solve(problem, tol=1e-10, kmax=200)
        assert not rep.failed and rep.converged
        (carried, _), (restart, (first, table)) = calls[0], calls[2]
        assert carried and not restart and table is None and np.all(first == 1.0)
        assert not any(ahead for ahead, _ in calls[2:])
        monkeypatch.setattr(solvers, "_sweep", sweep)
        monkeypatch.setattr(solvers, "_AHEAD_TIMES", 0)
        alone, rep_alone = segment_solve(problem, tol=1e-10, kmax=200)
        assert (rep.iterations, rep.notes) == (rep_alone.iterations, rep_alone.notes)
        assert ([d.hex() for d in np.ravel(rep.deltas)]
                == [d.hex() for d in np.ravel(rep_alone.deltas)])
        assert operator._values(got).tobytes() == operator._values(alone).tobytes()

    # (f1, tau, the segment whose sweep first fails while the remainder is
    # carried; the last segment carries none)
    FAILURES = [
        ("x*x", (0.5,), 0), ("x*x", (0.2,), 1), ("x*x", (0.25, 0.5, 0.75), 1),
        ("x*x", (0.1, 0.2, 0.3, 0.4, 0.6, 0.8), 2), ("0.5*x*x", (0.25, 0.5, 0.75), 3),
        ("0.5*x*x", (0.1, 0.2, 0.3, 0.4, 0.6, 0.8), 5),
    ]

    @pytest.mark.parametrize("f1, tau, first", FAILURES)
    def test_a_failed_march_is_the_march_of_the_segments_alone(self, monkeypatch, f1, tau,
                                                                first):
        """Wherever the march that carries the remainder first fails, the
        solve ends as a march that never carries it: same sweep count,
        notes, deltas and last iterate, bit for bit."""
        problem = make_problem(2.0, tau=tau, panels=16, x0="1", f1=f1, G1="0.1")
        failed = []
        sweep = solvers._sweep

        def recorded(problem, batch, window, deltas, *args, **kwargs):
            try:
                return sweep(problem, batch, window, deltas, *args, **kwargs)
            except NonFiniteValues:
                failed.append(march_segment(problem, deltas))
                raise

        monkeypatch.setattr(solvers, "_sweep", recorded)
        carried, rep = segment_solve(problem, tol=1e-10, kmax=200)
        assert failed[0] == first and rep.failed
        monkeypatch.setattr(solvers, "_AHEAD_TIMES", 0)
        alone, rep_alone = segment_solve(problem, tol=1e-10, kmax=200)
        assert (rep.iterations, rep.notes) == (rep_alone.iterations, rep_alone.notes)
        assert ([d.hex() for d in np.ravel(rep.deltas)]
                == [d.hex() for d in np.ravel(rep_alone.deltas)])
        assert operator._values(carried).tobytes() == operator._values(alone).tobytes()

    def test_the_remainder_is_carried_up_to_a_number_of_times(self, monkeypatch):
        """A march over more times than ``_AHEAD_TIMES`` takes each segment
        alone, as the march did before it carried the remainder."""
        problem, tol, kmax = _remainder_case("mixed_impulses")
        size = problem.sweep.te.size
        assert size <= solvers._AHEAD_TIMES
        segments = _segments_swept(monkeypatch)
        for limit, split in [(size, [7, 2, 2, 1]), (size - 1, [7, 9, 10, 7])]:
            monkeypatch.setattr(solvers, "_AHEAD_TIMES", limit)
            segments.clear()
            _, rep = segment_solve(problem, tol=tol, kmax=kmax)
            assert rep.converged
            assert [segments.count(l) for l in range(problem.grid.num_segments)] == split


class TestCarryingMarch:
    """The march that carries the remainder sweeps as picard does: every
    sweep of segment l evaluates ``problem.sweep`` against one table of the
    whole grid, which the march keeps across its segments and fills from
    column 0 in every sweep, and keeps the values that earlier segments
    solved (their nodes, the fixed impulses they own and the entries they
    consumed) at the bits of the sweep's starting iterate.  The image
    reads the same table.

    Recorded per carrying sweep: its segment and owned indices, read from
    its deltas, the indices it keeps, its two iterates, its table and its
    deltas; and the state of the image.
    """

    @staticmethod
    def _record(monkeypatch):
        log = {"sweeps": [], "images": []}
        sweep = solvers._sweep

        def recording(problem, batch, window, deltas, state, solved=None):
            (new, table), got = sweep(problem, batch, window, deltas, state, solved=solved)
            segment = march_segment(problem, deltas)
            if segment is None:
                log["images"].append((batch, state))
            else:
                assert batch is problem.sweep and window is None and solved is not None
                log["sweeps"].append({"segment": segment, "owned": deltas.args[0],
                                      "solved": solved, "old": state[0], "new": new,
                                      "tables": (state[1], table), "deltas": got})
            return (new, table), got

        monkeypatch.setattr(solvers, "_sweep", recording)
        return log

    @TestMarchWork.CASES
    def test_owned_values_match_the_segment_alone(self, monkeypatch, case):
        """In every carrying sweep, each value the segment owns (its nodes,
        fixed impulses and fresh entries) has the bits of the same sweep of
        the segment's index view of ``problem.sweep`` (``_Subset``), with
        its own table, from the same iterate, and so have its deltas; every
        value that earlier segments solved keeps the previous iterate's
        bits; and every other value has the bits of a picard sweep of that
        iterate."""
        problem = TestMarchWork._case(case)
        log = self._record(monkeypatch)
        _, rep = segment_solve(problem, tol=1e-12, kmax=300)
        assert rep.converged and len(log["sweeps"]) == rep.iterations
        monkeypatch.undo()
        plans = list(_segment_plans(problem))
        weights = partial(operator._deltas, problem, problem.decay(1.0))
        for rec in log["sweeps"]:
            owned, own, kept, solved = plans[rec["segment"]]
            got, old, new = rec["owned"], rec["old"], rec["new"]
            assert got[0] == owned[0] and got[2].tolist() == owned[2].tolist()
            assert list(range(got[1].start, got[1].stop)) == owned[1].tolist()
            assert sorted(rec["solved"].tolist()) == kept.tolist()
            assert new[kept].tobytes() == old[kept].tobytes()
            nodes = owned[0]
            batch = operator._Subset(problem.sweep, own, nodes)
            (alone, _), deltas = solvers._sweep(
                problem, batch, operator._window(problem, nodes, batch, solved),
                partial(solvers._sups, got), (old, None))
            assert new[own].tobytes() == alone[own].tobytes()
            assert [d.hex() for d in rec["deltas"]] == [d.hex() for d in deltas]
            (swept, _), _ = solvers._sweep(problem, problem.sweep, None, weights, (old, None))
            rest = np.setdiff1d(np.arange(old.size), kept)
            assert new[rest].tobytes() == swept[rest].tobytes()

    @pytest.mark.parametrize("name", sorted(
        name for name, (problem, _, _) in IMAGE_CASES.items() if problem.grid.num_segments > 1))
    def test_one_table_for_every_sweep_and_the_image(self, monkeypatch, name):
        """Every carrying sweep, and the image, fill one table of the whole
        grid from column 0, as picard's do: one row prefix over the whole
        grid each.  The image has the bits of ``apply_operator`` and
        ``residual`` on the returned triple."""
        problem, tol, kmax = IMAGE_CASES[name]
        log = self._record(monkeypatch)
        prefixes = []
        row_prefix = operator._row_prefix

        def counting_prefix(grid, rows, first=0, start=0.0, out=None):
            prefixes.append((first, rows.shape[-1]))
            return row_prefix(grid, rows, first, start, out)

        monkeypatch.setattr(operator, "_row_prefix", counting_prefix)
        triple, rep = segment_solve(problem, tol=tol, kmax=kmax)
        assert rep.converged and len(log["sweeps"]) == rep.iterations
        N = problem.grid.size
        first = log["sweeps"][0]["tables"][1]
        assert log["sweeps"][0]["tables"][0] is None and first.window == problem.whole_grid
        for rec in log["sweeps"]:
            assert rec["tables"][1].rows is first.rows
            assert rec["tables"][1].prefix is first.prefix
        ((batch, (_, table)),) = log["images"]
        assert batch is problem.sweep and table.rows is first.rows
        assert prefixes == [(0, N)] * (rep.iterations + 1)
        image = apply_operator(problem, triple)
        for a, b in zip(_arrays(rep.image), _arrays(image)):
            assert a.tobytes() == b.tobytes()
        assert rep.final_residual == residual(problem, triple)

    def test_a_value_not_finite_at_a_solved_time_does_not_fail_a_sweep(self, monkeypatch):
        """A carrying sweep keeps what earlier segments solved before it
        checks its values: an evaluation that is inf or nan there, and
        finite everywhere else, ends in the bits of a march whose
        evaluations are finite."""
        problem, tol, kmax = _remainder_case("mixed_impulses")
        want, rep_want = segment_solve(problem, tol=tol, kmax=kmax)
        sweep, sc_eval = solvers._sweep, solvers._sc_eval
        current, spoiled = [None], []

        def keeping(problem, batch, window, deltas, state, solved=None):
            current[0] = solved
            return sweep(problem, batch, window, deltas, state, solved=solved)

        def spoiling(problem, view, batch, memory):
            out = sc_eval(problem, view, batch, memory)
            solved = current[0]
            if solved is not None and solved.size:
                out[solved[::2]], out[solved[1::2]] = math.inf, math.nan
                spoiled.append(solved.size)
            return out

        monkeypatch.setattr(solvers, "_sweep", keeping)
        monkeypatch.setattr(solvers, "_sc_eval", spoiling)
        got, rep = segment_solve(problem, tol=tol, kmax=kmax)
        assert rep.converged and not rep.failed and len(spoiled) > 1
        assert (rep.iterations, rep.notes) == (rep_want.iterations, rep_want.notes)
        assert ([d.hex() for d in np.ravel(rep.deltas)]
                == [d.hex() for d in np.ravel(rep_want.deltas)])
        assert operator._values(got).tobytes() == operator._values(want).tobytes()

    def test_a_kernel_error_at_a_solved_time_restarts_the_march_alone(self, monkeypatch):
        """A carrying sweep walks its kernels at solved times too: a kernel
        error there, here in the first sweep of segment 1, ends the
        carrying march, and the march starts again and takes the segments
        alone, with their bits."""
        problem, tol, kmax = _remainder_case("mixed_impulses")
        sweep, sc_eval = solvers._sweep, solvers._sc_eval
        current, raised = [None], []

        def keeping(problem, batch, window, deltas, state, solved=None):
            current[0] = solved
            return sweep(problem, batch, window, deltas, state, solved=solved)

        def failing(problem, view, batch, memory):
            solved = current[0]
            if solved is not None and solved.size and not raised:
                raised.append(solved.size)
                raise EvaluationError("log of a non-positive value")
            return sc_eval(problem, view, batch, memory)

        monkeypatch.setattr(solvers, "_sweep", keeping)
        monkeypatch.setattr(solvers, "_sc_eval", failing)
        got, rep = segment_solve(problem, tol=tol, kmax=kmax)
        assert raised and rep.converged and not rep.failed
        monkeypatch.undo()
        monkeypatch.setattr(solvers, "_AHEAD_TIMES", 0)
        alone, rep_alone = segment_solve(problem, tol=tol, kmax=kmax)
        assert (rep.iterations, rep.notes) == (rep_alone.iterations, rep_alone.notes)
        assert ([d.hex() for d in np.ravel(rep.deltas)]
                == [d.hex() for d in np.ravel(rep_alone.deltas)])
        assert operator._values(got).tobytes() == operator._values(alone).tobytes()


class TestBatchNodes:
    """A batch knows which of its times are grid nodes (``batch.nodes``):
    its first times are exactly ``grid.times[batch.nodes]``, with the
    memberships those nodes have in a sweep, and beta is read there at its
    stored values.  The march orders a segment's batch so that its nodes
    are one slice of the grid."""

    NAMES = pytest.mark.parametrize("name", ["mixed_impulses", "multi_impulse"])

    @staticmethod
    def _check(problem, batch):
        grid = problem.grid
        node_m = grid.times - operator.EPS
        first = np.arange(grid.num_segments) * (grid.panels + 1)
        node_m[first] = grid.times[first] + operator.EPS
        n = batch.nodes.stop - batch.nodes.start
        assert batch.te[:n].tobytes() == grid.times[batch.nodes].tobytes()
        assert batch.m[:n].tobytes() == node_m[batch.nodes].tobytes()
        view = operator._View.of(problem, operator._values(
            random_triple(problem, np.random.default_rng(3))))
        beta = operator._beta_at(view, batch)
        assert beta[:, :n].tobytes() == view.beta[:, batch.nodes].tobytes()
        return n

    @NAMES
    def test_the_sweep(self, name):
        problem, _, _ = _remainder_case(name)
        assert problem.sweep.nodes == slice(0, problem.grid.size)
        assert self._check(problem, problem.sweep) == problem.grid.size

    @NAMES
    @pytest.mark.parametrize("ahead", [True, False], ids=["remainder", "alone"])
    def test_march_segments(self, monkeypatch, name, ahead):
        """A segment that carries the remainder evaluates the sweep batch,
        every node; a segment marched alone, its own nodes.  Each owns the
        fixed-impulse times at or before its end, after the last segment's,
        and its batch holds them after its nodes."""
        problem, tol, kmax = _remainder_case(name)
        grid = problem.grid
        batches = {}
        sweep = solvers._sweep

        def recorded(problem, batch, window, deltas, state, **kwargs):
            segment = march_segment(problem, deltas)
            if segment is not None:  # not the image
                batches[segment] = (batch, deltas.args[0])
            return sweep(problem, batch, window, deltas, state, **kwargs)

        monkeypatch.setattr(solvers, "_sweep", recorded)
        if not ahead:
            monkeypatch.setattr(solvers, "_AHEAD_TIMES", 0)
        _, rep = segment_solve(problem, tol=tol, kmax=kmax)
        assert rep.converged and sorted(batches) == list(range(grid.num_segments))
        owned = _owned_by_segment(problem)
        assert sorted(np.concatenate(owned).tolist()) == list(range(problem.n_tau))
        for l, (batch, (nodes, eta, _)) in batches.items():
            assert nodes == grid.segment_slice(l)
            assert (batch is problem.sweep) == ahead
            assert batch.nodes == (slice(0, grid.size) if ahead else nodes)
            n = self._check(problem, batch)
            assert n > 0
            # the fixed-impulse times the segment owns, whose deltas it takes
            taus = owned[l]
            assert list(range(eta.start, eta.stop)) == (grid.size + taus).tolist()
            # in the batch right after its nodes: the sweep holds every one
            k = grid.size + problem.n_tau
            index = np.arange(batch.te.size) if ahead else batch.index
            at = (index[n:][index[n:] < k] - grid.size).tolist()
            assert at == (list(range(problem.n_tau)) if ahead else taus.tolist())
            first = n + (taus[0] if ahead and taus.size else 0)
            assert batch.te[first:first + taus.size].tobytes() == problem.tau[taus].tobytes()

    @NAMES
    def test_jump_at(self, monkeypatch, name):
        """Both sides of a breakpoint are off the grid's stored values."""
        problem, _, _ = _remainder_case(name)
        batches = []
        sc_eval = operator._sc_eval

        def recorded(problem, view, batch, memory):
            batches.append(batch)
            return sc_eval(problem, view, batch, memory)

        monkeypatch.setattr(operator, "_sc_eval", recorded)
        bps = problem.grid.partition[1:-1]
        jump_at(problem, random_triple(problem, np.random.default_rng(4)), bps)
        (batch,) = batches
        assert batch.te.size == 2 * bps.size
        assert self._check(problem, batch) == 0
