"""Operator evaluation: the three components, jumps, and the residual."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import norm_discrete, norm_mixed, residual
from conftest import (exp_problem, make_problem, mixed_problem, on_kernel_calls,
                      random_triple, view_of)
from test_parity import multi_impulse_problem
from hybrid_volterra import operator, quadrature, solvers
from hybrid_volterra.contraction import contraction_bounds, find_mu
from hybrid_volterra.expressions import parse_kernel, quiet
from hybrid_volterra.operator import (
    EPS,
    HybridProblem,
    SolutionTriple,
    _Batch,
    _memory,
    _sc_eval,
    apply_operator,
    component_deltas,
    default_init,
    jump_at,
)
from hybrid_volterra.piecewise import PiecewiseFn, norm_continuous
from hybrid_volterra.quadrature import apply_weights, weight_rows
from hybrid_volterra.schedule import ImpulseSchedule
from hybrid_volterra.solvers import picard_solve


class TestDefaultInit:
    def test_constant_forcing(self):
        p = make_problem(1.0, tau=(0.5,), sigma=("0.5*t",), h=0.2, x0="1")
        v = default_init(p)
        assert np.all(v.xi.values == 1.0)
        assert v.eta.tolist() == [1.0]
        assert np.all(v.beta[0].values == 1.0)

    def test_eta_from_forcing_at_tau(self):
        p = make_problem(1.0, tau=(0.5,), x0="t")
        assert default_init(p).eta.tolist() == [0.5]

    def test_beta_from_forcing_at_sigma(self):
        p = make_problem(1.0, sigma=("0.5*t",), h=0.1, x0="t")
        v = default_init(p)
        assert np.allclose(v.beta[0].values, 0.5 * p.grid.times)

    def test_x0_at_the_sweep_times(self):
        """Every component is x0 at its own times of one sweep, with the bits
        of evaluating x0 there apart, and the sweep's batch keeps them."""
        p = multi_impulse_problem()
        v = default_init(p)
        x0 = p.x0.evaluate
        assert np.array_equal(v.xi.values, x0({"t": p.grid.times}))
        assert np.array_equal(v.eta, x0({"t": p.tau}))
        assert np.array_equal(v.beta_rows(), x0({"t": p.sigma_grid}))
        batch = p.sweep
        assert "x0" in vars(batch)
        # the iterate owns its values: writing them leaves the batch as it was
        v.xi.values[0] = 99.0
        assert batch.x0[0] == x0({"t": p.grid.times})[0]


class TestApplyContinuous:
    def test_zero_kernels_reproduce_forcing(self):
        p = make_problem(1.0, x0="sin(t)")
        out = apply_operator(p, default_init(p)).xi
        assert np.allclose(out.values, np.sin(p.grid.times), atol=1e-15)

    def test_single_integral_of_constant_state(self):
        p = make_problem(1.0, x0="1", f1="x")
        out = apply_operator(p, default_init(p)).xi
        assert np.allclose(out.values, 1.0 + p.grid.times, atol=1e-14)

    def test_fixed_impulse_step(self):
        p = make_problem(2.0, tau=(1.0,), h=0.5, x0="0", G1="1")
        out = apply_operator(p, default_init(p)).xi
        assert out.eval(0.5) == 0.0
        assert out.eval(1.0) == 0.0  # value at the impulse = left limit
        assert out.eval_right(1.0) == 1.0
        assert out.eval(1.5) == 1.0

    def test_double_integral_term(self):
        # f2 = 1 over the triangle gives t^2/2
        p = make_problem(1.0, x0="0", f2="1")
        out = apply_operator(p, default_init(p)).xi
        assert np.allclose(out.values, p.grid.times**2 / 2.0, atol=1e-12)

    def test_pairwise_impulse_sum_counts_strict_pairs(self):
        # G2 = 1: term at t counts pairs j < i among tau_i < t
        p = make_problem(2.0, tau=(0.5, 1.0, 1.5), h=0.4, x0="0", G2="1")
        out = apply_operator(p, default_init(p)).xi
        assert out.eval(0.75) == 0.0  # one impulse, no pair
        assert out.eval(1.25) == 1.0  # two impulses, one pair
        assert out.eval(1.9) == 3.0  # three impulses, three pairs


class TestApplyDiscrete:
    def test_zero_kernels(self):
        p = make_problem(1.0, tau=(0.25, 0.75), h=0.2, x0="t")
        eta = apply_operator(p, default_init(p)).eta
        assert np.allclose(eta, [0.25, 0.75])

    def test_integral_up_to_tau(self):
        p = make_problem(2.0, tau=(1.0,), h=0.5, x0="1", f1="x")
        eta = apply_operator(p, default_init(p)).eta
        assert eta[0] == pytest.approx(2.0, abs=1e-12)

    def test_strict_index_sum(self):
        p = make_problem(2.0, tau=(0.5, 1.0), h=0.4, x0="0", G1="1")
        eta = apply_operator(p, default_init(p)).eta
        assert eta.tolist() == [0.0, 1.0]


class TestApplyMixed:
    def test_zero_kernels_compose_forcing(self):
        p = make_problem(1.0, sigma=("0.5*t",), h=0.1, x0="t")
        beta = apply_operator(p, default_init(p)).beta
        assert np.allclose(beta[0].values, 0.5 * p.grid.times, atol=1e-15)

    def test_integral_term_at_moving_time(self):
        p = make_problem(1.0, sigma=("0.5*t",), h=0.1, x0="1", f1="x")
        beta = apply_operator(p, default_init(p)).beta
        assert np.allclose(beta[0].values, 1.0 + 0.5 * p.grid.times, atol=1e-13)

    def test_no_moving_impulses_empty(self):
        p = make_problem(1.0, x0="1")
        assert apply_operator(p, default_init(p)).beta == ()


class TestJumpAt:
    def test_fixed_impulse_jump(self):
        p = make_problem(2.0, tau=(1.0,), h=0.5, x0="0", G1="1")
        assert jump_at(p, default_init(p), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_impulse_kernels_no_jump(self):
        p = make_problem(2.0, tau=(0.5,), h=0.2, x0="1", f1="x")
        assert jump_at(p, default_init(p), 0.5) == 0.0

    def test_third_kind_jump_through_tau_membership(self):
        # G3 = 1 and sigma(t) = t/2 < t for t > 0; at t = 0.5 the inner
        # membership tau_j < t switches on, creating a unit jump
        p = make_problem(1.0, tau=(0.5,), sigma=("0.5*t",), h=0.2, x0="0", G3="1")
        assert jump_at(p, default_init(p), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_non_breakpoint_rejected(self):
        p = make_problem(2.0, tau=(1.0,), h=0.5, x0="0", G1="1")
        with pytest.raises(ValueError):
            jump_at(p, default_init(p), 0.7)

    def test_array_matches_scalar_calls(self):
        p = mixed_problem(panels=32)
        triple = random_triple(p, np.random.default_rng(3))
        bps = np.asarray(p.schedule.breakpoints, dtype=float)
        jumps = jump_at(p, triple, bps)
        assert isinstance(jumps, np.ndarray) and jumps.shape == bps.shape
        scalar = [jump_at(p, triple, float(a)) for a in bps]
        assert all(isinstance(j, float) for j in scalar)
        assert np.max(np.abs(jumps - scalar)) <= 1e-15
        assert np.any(jumps != 0.0)

    def test_array_with_a_non_breakpoint_rejected(self):
        p = mixed_problem(panels=32)
        bps = np.asarray(p.schedule.breakpoints, dtype=float)
        with pytest.raises(ValueError, match="not a breakpoint"):
            jump_at(p, default_init(p), np.append(bps, 0.7))


class TestResidual:
    def test_zero_kernel_fixed_point(self):
        p = make_problem(1.0, tau=(0.5,), h=0.2, x0="sin(t)")
        assert residual(p, default_init(p)) == 0.0

    def test_perturbation_shows_up(self):
        p = make_problem(1.0, tau=(0.5,), h=0.2, x0="sin(t)")
        v = default_init(p)
        bumped = SolutionTriple(
            PiecewiseFn(p.grid, v.xi.values + 1.0), v.eta, v.beta
        )
        assert residual(p, bumped) == pytest.approx(1.0, abs=1e-12)

    def test_converged_iteration_has_small_residual(self):
        p = exp_problem()
        v = default_init(p)
        for _ in range(40):
            v = apply_operator(p, v)
        assert residual(p, v) <= 5e-5


class TestValidation:
    def test_kernel_arity_enforced(self):
        sched = ImpulseSchedule.build(1.0)
        with pytest.raises(ValueError):
            HybridProblem.build(schedule=sched, x0=parse_kernel("s", ("s",)))

    def test_grid_partition_must_match_schedule(self):
        from hybrid_volterra.piecewise import Grid

        sched = ImpulseSchedule.build(1.0, tau=(0.5,))
        grid = Grid(np.array([0.0, 1.0]), panels=8)
        with pytest.raises(ValueError):
            HybridProblem(
                x0=parse_kernel("0", ("t",)),
                f1=parse_kernel("0", ("t", "s", "x")),
                f2=parse_kernel("0", ("t", "s", "s1", "x", "x1")),
                G1=parse_kernel("0", ("t", "tau", "eta")),
                G2=parse_kernel("0", ("t", "taui", "tauj", "etai", "etaj")),
                G3=parse_kernel("0", ("t", "sig", "tau", "beta", "eta")),
                g=parse_kernel("0", ("t", "s", "sig", "tau", "x", "beta", "eta")),
                schedule=sched,
                grid=grid,
            )

    @pytest.mark.parametrize("panels, ok", [(3, False), (4, True)])
    def test_sigma_checked_at_every_node(self, panels, ok):
        # sigma peaks at 1.1 only within about 3e-5 of t = 1/3, between the
        # schedule's sample points; it is a grid node with three panels
        # per segment of [0, 0.5] and not with four
        sched = ImpulseSchedule.build(
            1.0, tau=(0.75,), sigma=("0.5 + 0.6*exp(-((t - 1/3)*100000)^2)",), h=0.1
        )
        assert sched.partition.tolist() == [0.0, 0.5, 0.75, 1.0]
        if ok:
            p = HybridProblem.build(schedule=sched, panels=panels, x0="1")
            assert p.sigma_grid.max() <= 1.0
        else:
            with pytest.raises(ValueError, match=r"sigma values must stay within \[0, horizon\]"):
                HybridProblem.build(schedule=sched, panels=panels, x0="1")

    def test_beta_grid_must_match(self):
        p = make_problem(1.0, sigma=("0.5*t",), h=0.1, x0="0")
        other = make_problem(2.0, x0="0")
        with pytest.raises(ValueError):
            SolutionTriple(
                default_init(p).xi, np.zeros(0), (default_init(other).xi,)
            )


class TestFixedPointConsistency:
    def test_eta_equals_left_limits(self, mixed_solved):
        problem, triple, _ = mixed_solved
        for k, tau in enumerate(problem.tau):
            assert triple.eta[k] == pytest.approx(
                triple.xi.eval_left(tau), abs=1e-8
            )

    def test_beta_equals_xi_at_moving_times(self, mixed_solved):
        problem, triple, _ = mixed_solved
        sig = problem.sigma_grid[0]
        composed = triple.xi.eval(sig)
        assert np.max(np.abs(triple.beta[0].values - composed)) < 1e-4


class TestComponentDeltas:
    def test_zero_for_identical(self):
        p = mixed_problem()
        v = default_init(p)
        assert component_deltas(v, v, p, 1.0) == (0.0, 0.0, 0.0)

    def test_bounded_by_contraction_matrix(self):
        """Light version of the soundness property (full sweep in acceptance)."""
        p = mixed_problem()
        mu = find_mu(MIXED := p.lipschitz, p.schedule.horizon, p.schedule.h,
                     p.n_tau, p.n_sigma)
        A = contraction_bounds(MIXED, mu, p.schedule.horizon, p.schedule.h,
                               p.n_tau, p.n_sigma).entries
        rng = np.random.default_rng(7)
        for _ in range(5):
            v1 = random_triple(p, rng)
            v2 = random_triple(p, rng)
            din = np.array(component_deltas(v1, v2, p, mu))
            dout = np.array(
                component_deltas(apply_operator(p, v1), apply_operator(p, v2), p, mu)
            )
            assert np.all(dout <= A @ din + 1e-3)


class TestComponentDeltasBits:
    """``component_deltas`` reads weights built once per problem and mu, and
    gives the bits of the three norms of :mod:`~.piecewise`."""

    @staticmethod
    def _by_norms(new, old, p, mu):
        diffs = [PiecewiseFn(p.grid, nb.values - ob.values)
                 for nb, ob in zip(new.beta, old.beta)]
        return (
            norm_continuous(new.xi - old.xi, mu),
            norm_discrete(new.eta - old.eta, p.tau, mu),
            norm_mixed(diffs, p.sigma_grid, mu) if diffs else 0.0,
        )

    @pytest.mark.parametrize("mu", [0.0, 0.7, 3.0, 40.0])
    @pytest.mark.parametrize("build", [
        mixed_problem, multi_impulse_problem, exp_problem,
        lambda: make_problem(2.0, tau=(0.5, 1.5), h=0.4, panels=32, x0="t", G1="1"),
        lambda: make_problem(1.0, sigma=("0.5*t",), h=0.1, panels=32, x0="t"),
    ], ids=["mixed", "multi-impulse", "no-impulses", "fixed-only", "moving-only"])
    def test_equals_the_norms(self, build, mu):
        p = build()
        rng = np.random.default_rng(11)
        for scale in (1.0, 1e-3, 1e6):
            new, old = random_triple(p, rng, scale), random_triple(p, rng, scale)
            got = component_deltas(new, old, p, mu)
            assert all(type(d) is float for d in got)
            assert got == self._by_norms(new, old, p, mu)

    def test_weights_once_per_mu(self, monkeypatch):
        """A picard solve builds the weights of its mu once, read-only."""
        p = mixed_problem()
        built = []
        decay = HybridProblem.decay

        def counting(problem, mu):
            built.append(decay(problem, mu))
            return built[-1]

        monkeypatch.setattr(HybridProblem, "decay", counting)
        _, rep = picard_solve(p, mu=0.5, tol=1e-12)
        assert rep.converged and rep.iterations > 1 and len(built) == 1
        first = built[0]
        assert all(not w.flags.writeable for w in first)
        assert np.array_equal(first[2], np.exp(-0.5 * p.sigma_grid))

    @pytest.mark.parametrize("mu", [-1.0, float("nan"), float("inf")])
    def test_bad_mu_raises(self, mu):
        p = mixed_problem(panels=16)
        v = default_init(p)
        with pytest.raises(ValueError, match="weight mu"):
            component_deltas(v, v, p, mu)


class TestOneEvaluationPerSweep:
    """apply_operator evaluates every component in one batch, and jump_at
    both sides of every breakpoint in one; the g rows of a triple are
    built once, by its memory table."""

    @staticmethod
    def _count(monkeypatch, problem):
        calls = {"sc_eval": 0, "g_rows": 0}
        sc_eval = operator._sc_eval
        g_factors = {id(a) for _, a in problem.g_terms}

        def counting_sc_eval(*args, **kwargs):
            calls["sc_eval"] += 1
            return sc_eval(*args, **kwargs)

        monkeypatch.setattr(solvers, "_sc_eval", counting_sc_eval)

        def counting_evaluations(kernel, bindings, out):
            calls["g_rows"] += id(kernel) in g_factors

        monkeypatch.setattr(operator, "_sc_eval", counting_sc_eval)
        on_kernel_calls(monkeypatch, counting_evaluations)
        return calls

    @pytest.mark.parametrize("build", [mixed_problem, multi_impulse_problem],
                             ids=["mixed", "multi-impulse"])
    def test_one_evaluation_per_application(self, monkeypatch, build):
        problem = build()
        assert problem.sigma_nondecreasing.all()
        triple = random_triple(problem, np.random.default_rng(5))
        calls = self._count(monkeypatch, problem)
        apply_operator(problem, triple)
        per_iterate = problem.n_sigma * problem.n_tau * len(problem.g_terms)
        assert calls == {"sc_eval": 1, "g_rows": per_iterate}
        calls.update(sc_eval=0, g_rows=0)
        jump_at(problem, triple, problem.schedule.breakpoints)
        assert calls == {"sc_eval": 1, "g_rows": per_iterate}

    def test_g_rows_once_per_iterate_in_picard(self, monkeypatch):
        problem = multi_impulse_problem()
        calls = self._count(monkeypatch, problem)
        _, rep = picard_solve(problem, tol=1e-12)
        assert rep.converged
        # each sweep and the final residual
        applications = rep.iterations + 1
        per_iterate = problem.n_sigma * problem.n_tau * len(problem.g_terms)
        assert per_iterate == 2 * 3 * 2
        assert calls == {"sc_eval": applications, "g_rows": applications * per_iterate}


class TestOneCumulativePerTable:
    """The inner integrals of every split f2 term take one cumulative pass."""

    @pytest.mark.parametrize("f2", ["0.05*x*x1 + 0.02*s*x1^2",
                                    "0.05*exp(-t)*x*x1 + 0.02*t*s*x1^2"],
                             ids=["t-free", "t-factored"])
    def test_one_call_per_memory_table(self, monkeypatch, f2):
        problem = mixed_problem(panels=16, f2=f2)
        assert len(problem.f2_terms) == 2
        triple = random_triple(problem, np.random.default_rng(7))
        calls = []
        cumulative = operator._node_cumulative

        def counting(*args, **kwargs):
            calls.append(1)
            return cumulative(*args, **kwargs)

        monkeypatch.setattr(operator, "_node_cumulative", counting)
        _memory(problem, view_of(problem, triple))
        assert len(calls) == 1


class TestOneTimeFreeRow:
    """A memory table holds the t-free terms of f1 and f2 in one row, the
    f1 row plus the row of f2's inner integrals, when f1 is t-free
    (``HybridProblem.f1_free``, decided when the problem is built).  An f1
    that references t keeps its own rows, and a t-free f2 its row after
    them; the g rows follow."""

    KW = dict(tau=(0.5,), sigma=("0.3 + 0.5*t",), panels=8, x0="1", G1="0.4*eta",
              g="0.1*x*eta")

    @pytest.mark.parametrize("f1, f2, free, n_xi", [
        ("0.2*sin(x) + 0.05*s", "0.05*x*x1/(1 + s1^2)", True, 1),
        ("0.2*sin(x) + 0.05*s", "0.05*sin(x*x1)", True, 1),
        ("0.2*t*x", "0.05*x*x1/(1 + s1^2)", False, 2),
        ("0.2*sin(x)", "0.05*t*x*x1", True, 2),
    ], ids=["split-f2", "f2-square", "f1-references-t", "f2-references-t"])
    def test_rows(self, f1, f2, free, n_xi):
        problem = make_problem(2.0, f1=f1, f2=f2, **self.KW)
        assert problem.f1_free is free
        view = view_of(problem, random_triple(problem, np.random.default_rng(3)))
        table = _memory(problem, view)
        assert table.n_xi == n_xi
        f1_only, f2_only = (_memory(make_problem(2.0, **kernel, **self.KW), view)
                            for kernel in ({"f1": f1}, {"f2": f2}))
        if free and n_xi == 1:
            want = f1_only.rows[0] + f2_only.rows[0]
        else:
            want = np.vstack([f1_only.rows[:f1_only.n_xi], f2_only.rows[:f2_only.n_xi]])
        assert _hex(table.rows[:n_xi]) == _hex(want)
        assert _hex(table.rows[n_xi:]) == _hex(f1_only.rows[f1_only.n_xi:])

    def test_the_mixed_problem_reads_three_rows(self):
        problem = mixed_problem()
        assert problem.f1_free and problem.g_row_impulses.size == 1 and problem.n_tau == 2
        table = _memory(problem, view_of(problem, random_triple(problem, np.random.default_rng(4))))
        assert (table.n_xi, table.rows.shape[0], table.prefix.shape[0]) == (1, 3, 3)


def _hex(a):
    return None if a is None else [float(v).hex() for v in np.ravel(a)]


class TestOneFillRoutine:
    """``_memory`` fills every table, new or kept, from its ``live``
    column on; a table of the whole grid is filled from column 0, where
    every running sum begins at 0.0, whatever its arrays held before."""

    @pytest.mark.parametrize("build", [
        mixed_problem, multi_impulse_problem,
        lambda: mixed_problem(panels=16, f2="0.05*sin(x*x1)"),
        lambda: mixed_problem(panels=16, f2="0.05*exp(-t)*x*x1 + 0.02*t*s*x1^2"),
    ], ids=["mixed", "multi-impulse", "f2-square", "f2-t-factored"])
    def test_a_used_table_fills_as_a_new_one(self, build):
        problem = build()
        rng = np.random.default_rng(5)
        first, second = (view_of(problem, random_triple(problem, rng)) for _ in range(2))
        table = _memory(problem, first)
        kept = [a for a in (table.rows, table.prefix, table.cumulative) if a is not None]
        for a in kept:
            a[...] = np.nan
            a[..., ::3] = np.inf
            a[..., 1::3] = -np.inf
        filled = _memory(problem, second, table)
        new = _memory(problem, second)
        assert all(a is b for a, b in zip(kept, (filled.rows, filled.prefix, filled.cumulative)))
        assert (filled.prefix[:, 0] == 0.0).all()
        for a, b in [(filled.rows, new.rows), (filled.prefix, new.prefix),
                     (filled.cumulative, new.cumulative), (filled.impulses, new.impulses)]:
            assert _hex(a) == _hex(b)
        read = quiet(operator._read_rows)
        assert _hex(read(filled, problem.sweep)) == _hex(read(new, problem.sweep))
        sweep = quiet(_sc_eval)
        assert _hex(sweep(problem, second, problem.sweep, filled)) == _hex(
            sweep(problem, second, problem.sweep, new))


class TestReuse:
    """A triple stacks its traces once, and a batch keeps the iterate-free
    part of its evaluation."""

    def test_beta_rows_built_once_and_read_only(self):
        triple = random_triple(mixed_problem(panels=16), np.random.default_rng(1))
        rows = triple.beta_rows()
        assert triple.beta_rows() is rows
        assert np.array_equal(rows[0], triple.beta[0].values)
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0

    def test_batch_kept_per_values_and_read_only(self):
        p = mixed_problem(panels=16)
        te = np.array([0.1, 0.7, 1.3])
        m = te - EPS
        batch = _Batch(p, te, m)
        te[0] = 0.2  # the caller's array changes; the batch keeps its copy
        assert batch.te[0] == 0.1
        assert batch.limits.base.tolist() == p.grid.nodes([0.1, 0.7, 1.3])[0].tolist()
        sweep = p.sweep
        assert p.sweep is sweep
        assert np.array_equal(sweep.sigma[:, :p.grid.size], p.sigma_grid)
        for b in (batch, sweep):
            for a in (b.te, b.m, b.x0, b.sigma, b.tau_below, b.impulse_count,
                      b.g3_gate, *b.limits):
                assert not a.flags.writeable

    def test_one_reader_per_table_layout(self):
        """A batch keeps one reader per table layout, the number of fixed
        impulses whose g rows a table holds and its width: a later table of
        the same layout reuses it.  Its cut and weights are read-only; its
        work arrays are the read's output, and are written."""
        p = _read_problem(2, 3, True, True)
        rng = np.random.default_rng(2)
        batch = _Batch(p, np.array([0.1, 0.7, 1.3]), np.array([0.1, 0.7, 1.3]) - EPS)
        tables = [_memory(p, view_of(p, random_triple(p, rng))) for _ in range(2)]
        reader = batch.reader(tables[0])
        assert batch.reader(tables[1]) is reader
        for a in (*reader.keep, reader.weight):
            assert not a.flags.writeable
        R, E = tables[0].rows.shape[0], batch.te.size
        assert reader.weight.shape == reader.keep.index.shape == (R, E)
        assert all(a.shape == (R, E) and a.flags.writeable for a in reader.work)
        window = operator._Window(0, p.grid.size, 1)
        fewer = batch.reader(_memory(p, view_of(p, random_triple(p, rng)), window=window))
        assert fewer is not reader and fewer.weight.shape[0] < R

    def test_problems_sharing_a_grid_keep_their_own_batches(self):
        p = mixed_problem(panels=16)
        q = dataclasses.replace(p, x0=parse_kernel("1", ("t",)))
        assert q.grid is p.grid
        assert np.all(q.sweep.x0 == 1.0)
        assert not np.all(p.sweep.x0 == 1.0)


# the moving times and g kernels of TestGTermMask, each with whether sigma
# is nondecreasing and the number of terms g splits into
G_MASK_SIGMAS = pytest.mark.parametrize(
    "sigma, monotone",
    [("0.5 + 0.55*t", True), ("0.9 + 0.3*sin(4*t)", False)],
    ids=["nondecreasing", "non-monotone"],
)
G_MASK_KERNELS = pytest.mark.parametrize(
    "g, n_terms",
    [("0.02*x + 0.01*beta*eta + 0.1*s", 1),
     ("0.02*x*t + 0.01*beta*eta", 2),
     ("0.02*x*exp(-t*s) + 0.01*beta*eta", None)],
    ids=["shared", "factored", "per-time"],
)


class TestGTermMask:
    """The g term against its dense form: the weights of the nodes s with
    sigma_i(s) below the membership time, zeroed elsewhere."""

    @staticmethod
    def _problem(sigma, g):
        return make_problem(2.0, tau=(0.3, 1.1), sigma=(sigma,), h=0.05,
                            panels=16, x0="0", g=g)

    @staticmethod
    def _dense_g(p, triple, te, m):
        times = p.grid.times
        ref = np.zeros(te.size)
        for i, sig in enumerate(p.sigma_grid):
            masked = np.where(sig[None, :] < m[:, None], weight_rows(p.grid, te), 0.0)
            for tau_j, eta_j in zip(p.tau, triple.eta):
                row = p.g.evaluate({"t": te[:, None], "s": times, "sig": sig, "tau": tau_j,
                                    "x": triple.xi.values, "beta": triple.beta[i].values,
                                    "eta": eta_j})
                ref += apply_weights(masked, np.broadcast_to(row, masked.shape)) * (tau_j < m)
        return ref

    def _check(self, p, seed=7):
        rng = np.random.default_rng(seed)
        triple = random_triple(p, rng)
        view = view_of(p, triple)
        te = np.concatenate([p.grid.times, rng.uniform(0.0, p.schedule.horizon, 20)])
        for m in (te - EPS, te + EPS):
            got = _sc_eval(p, view, _Batch(p, te, m), _memory(p, view))
            ref = self._dense_g(p, triple, te, m)
            assert np.max(np.abs(got - ref)) <= 1e-14

    @G_MASK_SIGMAS
    @G_MASK_KERNELS
    def test_matches_dense_mask(self, sigma, monotone, g, n_terms):
        p = self._problem(sigma, g)
        assert p.sigma_nondecreasing.tolist() == [monotone]
        # one t-free row, two time factors, or rows per evaluation time
        assert (None if p.g_terms is None else len(p.g_terms)) == n_terms
        self._check(p)

    @G_MASK_SIGMAS
    @G_MASK_KERNELS
    def test_one_set_of_weight_rows_per_evaluation(self, monkeypatch, sigma, monotone, g,
                                                   n_terms):
        """The g terms the table does not hold share one set of weight rows
        per evaluation, whatever the number of fixed impulses and terms;
        the g rows of a table need none."""
        p = self._problem(sigma, g)
        held = monotone and n_terms is not None
        assert (operator._g_per_batch in p.batch_terms) == (not held)
        view = view_of(p, random_triple(p, np.random.default_rng(7)))
        table = _memory(p, view)
        sizes = []

        def counting(grid, upper):
            sizes.append(np.size(upper))
            return weight_rows(grid, upper)

        monkeypatch.setattr(quadrature, "weight_rows", counting)
        monkeypatch.setattr(operator, "weight_rows", counting)
        _sc_eval(p, view, p.sweep, table)
        assert sizes == ([] if held else [p.sweep.te.size])

    @pytest.mark.parametrize(
        "sigma",
        [("0.5 + 0.55*t", "0.2 + 0.6*t"), ("0.5 + 0.55*t", "0.9 + 0.3*sin(4*t)")],
        ids=["both-nondecreasing", "one-non-monotone"],
    )
    def test_two_moving_three_fixed_impulses(self, sigma):
        # table rows are indexed by moving impulse, fixed impulse and term
        p = make_problem(2.0, tau=(0.3, 0.9, 1.6), sigma=sigma, h=0.05,
                         panels=16, x0="0", g="0.05*t*x + 0.02*beta*eta + 0.1*s*tau")
        assert len(p.g_terms) == 3 and p.n_sigma == 2 and p.n_tau == 3
        self._check(p, seed=11)


# ---------------------------------------------------------------------------
# One read per memory table


@functools.lru_cache(maxsize=None)
def _read_problem(n_sigma, n_tau, factored, xi_rows):
    """A problem whose tables hold g rows of ``n_sigma`` moving and
    ``n_tau`` fixed impulses, split into time factors or not, with or
    without f1 and f2 rows.  sigma(0) > 0 and sigma(2) < 2: a membership
    time near 0 cuts every g row to nothing, one near 2 keeps it whole."""
    kernels = {"g": "exp(-t)*x*beta + 0.1*eta" if factored else "0.02*x + 0.01*beta*eta"}
    if xi_rows:
        kernels.update(f1="exp(-t)*x + 0.3*x" if factored else "0.3*x", f2="0.1*x*x1")
    return make_problem(2.0, tau=(0.5, 1.0, 1.5)[:n_tau],
                        sigma=("0.3 + 0.5*t", "0.2 + 0.7*t")[:n_sigma], h=0.05,
                        panels=8, x0="1", **kernels)


def _same_read(got, want):
    """The same sums, bit for bit, except that an exact zero may differ in
    sign: a g row whose fixed impulse is not admitted now enters as +0,
    where it entered as its value times 0."""
    assert np.array_equal(got, want), (got, want)
    nonzero = want != 0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()


class TestOneReadPerTable:
    """Every row of a memory table is read at a batch's times by one cut of
    the table's prefix, held by the batch's reader of the table
    (``_Batch.reader``), against the read in two passes with a weight that
    gates each g row (``oracles.read_rows``)."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n_sigma=st.integers(1, 2), n_tau=st.integers(1, 3), factored=st.booleans(),
           xi_rows=st.booleans(), admitted=st.integers(1, 3), E=st.integers(1, 6),
           scale=st.sampled_from([1e-3, 1.0, 1e150]), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_read_in_two_passes(self, n_sigma, n_tau, factored, xi_rows,
                                            admitted, E, scale, seed):
        problem = _read_problem(n_sigma, n_tau, factored, xi_rows)
        assert problem.g_row_impulses.size == n_sigma
        rng = np.random.default_rng(seed)
        window = operator._Window(0, problem.grid.size, min(admitted, n_tau))
        memory = _memory(problem, view_of(problem, random_triple(problem, rng)), window=window)
        rows = rng.uniform(-scale, scale, memory.rows.shape)
        memory = memory._replace(rows=rows, prefix=quadrature.row_prefix(problem.grid, rows))
        # the ends of the horizon as evaluation and membership times: every
        # g row cut to nothing, and every g row whole with every impulse admitted
        te = np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, E)])
        m = np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, E)])
        batch = _Batch(problem, te, m)
        got = quiet(operator._read_rows)(memory, batch)
        _same_read(got, oracles.read_rows(memory, batch))
        # the reader's cut of each g row is the oracle's sigma cut where its
        # fixed impulse is below m, and empty elsewhere
        keep, weight, _ = batch.reader(memory)
        n_xi, width = memory.n_xi, memory.prefix.shape[1]
        g_rows = slice(n_xi, None)
        want = oracles.g_reads(batch, window.admitted, memory.prefix[g_rows].shape)
        gate = oracles.g_gate(batch, window.admitted)
        start = np.arange(gate.shape[0])[:, None] * width
        assert np.array_equal(keep.index[g_rows] - n_xi * width,
                              np.where(gate, want.index, start))
        assert np.array_equal(keep.at_base[g_rows], gate & want.at_base)
        assert np.array_equal(keep.after[g_rows], gate & want.after)
        assert keep.after[g_rows, 1].all()
        assert (weight is None) == (not factored)

    def test_an_inf_outside_its_gate_stays_out(self):
        """A g row that holds inf, read at times before its fixed impulse
        is admitted, adds 0: the sum is the read of the other rows, where
        the read in two passes gave inf times 0, nan."""
        problem = _read_problem(1, 1, False, True)
        triple = random_triple(problem, np.random.default_rng(3))
        memory = _memory(problem, view_of(problem, triple))
        n_xi = memory.n_xi
        rows = memory.rows.copy()
        rows[n_xi:] = np.inf
        inf_table = memory._replace(rows=rows, prefix=quadrature.row_prefix(problem.grid, rows))
        te = np.array([0.35, 0.4, 0.45, 0.5])
        batch = _Batch(problem, te, te - EPS)  # tau = 0.5 is below none of them
        # sigma = 0.3 + 0.5 s keeps some nodes of the row
        assert np.searchsorted(problem.sigma_grid[0], batch.m).min() > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = quiet(operator._read_rows)(inf_table, batch)
        assert np.isfinite(got).all()
        rows[n_xi:] = 0.0
        zero_table = memory._replace(rows=rows, prefix=quadrature.row_prefix(problem.grid, rows))
        assert got.tobytes() == oracles.read_rows(zero_table, batch).tobytes()
        assert np.isnan(oracles.read_rows(inf_table, batch)).all()

    def test_a_table_narrower_than_its_reads_raises(self):
        """A read into a batch's kept arrays clips its indices, so a batch
        whose times reach past a table's columns raises when it first
        reads that table, instead of reading the last column again."""
        problem = _read_problem(1, 1, False, True)
        triple = random_triple(problem, np.random.default_rng(3))
        memory = _memory(problem, view_of(problem, triple))
        w = problem.grid.panels + 1  # the first segment's columns
        narrow = memory._replace(rows=memory.rows[:, :w], prefix=memory.prefix[:, :w + 1])
        te = np.array([0.1, 1.9])
        batch = _Batch(problem, te, te)
        with pytest.raises(IndexError, match="past the 9 columns"):
            quiet(operator._read_rows)(narrow, batch)
        assert np.isfinite(quiet(operator._read_rows)(memory, batch)).all()
