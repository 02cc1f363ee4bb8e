"""Floating-point guards: same verdicts as the plain checks, no warning
escapes a public function, no ``np.errstate`` block on a solve, and one
guard per sweep."""

import collections
import sys
from functools import partial
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import TDEP_FILE, make_problem, view_of
from hybrid_volterra import operator, solvers
from hybrid_volterra.expressions import (
    EvaluationError,
    KernelExpr,
    _BinOp,
    _Call,
    _Neg,
    _Num,
    _print_node,
    _Var,
    parse_kernel,
    quiet,
)
from hybrid_volterra.operator import _memory, _read_rows, _values, apply_operator, default_init, jump_at
from hybrid_volterra.piecewise import uniform_grid
from hybrid_volterra.problem_io import load_problem_file
from hybrid_volterra.quadrature import (
    cut,
    integrate_to,
    limits_of,
    node_cumulative,
    read_prefix,
    row_prefix,
)
from hybrid_volterra.solvers import picard_solve, segment_solve

ROOT = Path(__file__).resolve().parent.parent
MIXED = ROOT / "problems" / "mixed_impulses.yaml"

# ---------------------------------------------------------------------------
# KernelExpr.evaluate against the plain walk of tests/oracles.py

_NAMES = ("x", "y", "z")
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e200, -1e200, 1e308, -1e308,
            np.inf, -np.inf, np.nan]

# the language writes no inf or nan
_numbers = st.one_of(
    st.sampled_from([v for v in _SPECIAL if np.isfinite(v)]),
    st.floats(min_value=-5, max_value=5, allow_nan=False).map(lambda v: round(v, 3)),
)
_leaves = st.one_of(st.sampled_from(_NAMES).map(_Var), _numbers.map(_Num))
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        inner.map(_Neg),
        st.builds(_BinOp, st.sampled_from("+-*/^"), inner, inner),
        st.builds(_Call, st.sampled_from(["exp", "log", "sin", "cos", "abs"]),
                  st.tuples(inner)),
        st.builds(_Call, st.sampled_from(["min", "max"]),
                  st.lists(inner, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=10,
)


def _binding(kind, values):
    """One variable's binding: a Python number, a numpy scalar or an array."""
    if kind == "float":
        return float(values[0])
    if kind == "int":
        return int(np.clip(np.nan_to_num(values[0]), -3, 3))
    if kind == "float64":
        return np.float64(values[0])
    if kind == "0-d":
        return np.array(values[0])
    if kind == "row":
        return np.array(values[:4])
    return np.array(values[:3]).reshape(3, 1)


_bindings = st.fixed_dictionaries({
    name: st.builds(
        _binding,
        st.sampled_from(["float", "int", "float64", "0-d", "row", "column"]),
        st.lists(st.sampled_from(_SPECIAL), min_size=4, max_size=4),
    )
    for name in _NAMES
})


def _outcome(evaluate, root, bindings):
    try:
        return "value", evaluate(root, bindings)
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return "raised", (type(exc), str(exc))


def _same_bits(a, b) -> bool:
    if type(a) is not type(b) or np.shape(a) != np.shape(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype:
        return False
    if a.dtype.kind != "f":
        return bool(np.array_equal(a, b))
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and a[~nan].tobytes() == b[~nan].tobytes())


class TestEvaluateMatchesThePlainWalk:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_trees, _bindings)
    def test_same_value_or_same_error(self, root, bindings):
        kernel = KernelExpr(_print_node(root), _NAMES, root)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _outcome(lambda r, b: kernel.evaluate(b), root, bindings)
            want = _outcome(oracles.evaluate, root, bindings)
        assert got[0] == want[0], (got, want)
        if got[0] == "raised":
            assert got[1] == want[1]
        else:
            assert _same_bits(got[1], want[1]), (got[1], want[1])

    @pytest.mark.parametrize("source, bindings, message", [
        ("1 / x", {"x": np.array([1.0, 0.0])}, "division by zero"),
        ("1 / x", {"x": -0.0}, "division by zero"),
        ("1 / x", {"x": np.float64(0.0)}, "division by zero"),
        ("log(x)", {"x": np.array([[2.0], [-1.0]])}, "log of a non-positive value"),
        ("log(x)", {"x": np.array([1.0, 0.0])}, "log of a non-positive value"),
        ("log(x)", {"x": np.array(-0.0)}, "log of a non-positive value"),
        ("log(x)", {"x": 0}, "log of a non-positive value"),
        ("x ^ y", {"x": np.array([0.0, 2.0]), "y": -1.0}, "power produced a non-finite value"),
        ("x ^ y", {"x": -8.0, "y": 1.0 / 3.0}, "power produced a non-finite value"),
        ("x ^ y", {"x": 10.0, "y": np.array([1.0, 400.0])}, "power produced a non-finite value"),
    ])
    def test_domain_errors(self, source, bindings, message):
        kernel = parse_kernel(source, _NAMES)
        with pytest.raises(EvaluationError, match=message):
            kernel.evaluate(bindings)
        with pytest.raises(EvaluationError, match=message):
            oracles.evaluate(kernel.root, bindings)

    @pytest.mark.parametrize("bindings", [
        {"x": np.array([np.inf, 2.0]), "y": 2.0},
        {"x": 2.0, "y": np.array([np.nan, 1.0])},
        {"x": np.inf, "y": 2.0},
    ])
    def test_non_finite_operands_pass_the_power(self, bindings):
        kernel = parse_kernel("x ^ y", _NAMES)
        got = kernel.evaluate(bindings)
        assert _same_bits(got, oracles.evaluate(kernel.root, bindings))
        assert not np.isfinite(got).all()


# ---------------------------------------------------------------------------
# No warning escapes a guarded public function

# weights of 12.5 and 25: 1e308 overflows as it is weighted, inf - inf is nan
GRID = uniform_grid(100.0, panels=4)
HUGE = np.array([1e308, np.inf, -np.inf, np.nan, 1e308])
TABLE = np.stack([HUGE, HUGE[::-1], np.full(5, 1e308)])
UPPER = np.array([10.0, 50.0, 99.0])


@pytest.fixture
def strict():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.mark.usefixtures("strict")
class TestNoWarningEscapes:
    @pytest.mark.parametrize("rows", [HUGE, TABLE], ids=["row", "table"])
    def test_row_prefix(self, rows):
        assert not np.isfinite(row_prefix(GRID, rows)).all()

    @pytest.mark.parametrize("rows", [HUGE, TABLE], ids=["row", "table"])
    def test_read_prefix(self, rows):
        prefix = np.full(rows.shape[:-1] + (6,), 1e308)
        assert not np.isfinite(read_prefix(prefix, rows, limits_of(GRID, UPPER))).all()

    def test_read_prefix_with_a_cut(self):
        limits = limits_of(GRID, UPPER)
        prefix = np.full((3, 6), -1e308)
        keep = cut(limits, np.array([[5, 5, 5], [2, 3, 4], [0, 1, 5]]), prefix.shape)
        assert not np.isfinite(read_prefix(prefix, TABLE, limits, keep)).all()

    @pytest.mark.parametrize("w", [HUGE, TABLE], ids=["row", "table"])
    def test_node_cumulative(self, w):
        assert not np.isfinite(node_cumulative(GRID, w)).all()

    @pytest.mark.parametrize("w", [HUGE, TABLE], ids=["shared row", "rows per limit"])
    def test_integrate_to(self, w):
        assert not np.isfinite(integrate_to(GRID, w, UPPER)).all()

    @pytest.mark.parametrize("source", [
        "exp(x)", "x * y", "x - y", "y ^ 2 - y", "sin(x) + cos(y)", "x * 1e308 + y",
    ])
    @pytest.mark.parametrize("kind", [np.float64, np.array], ids=["scalar", "array"])
    def test_evaluate(self, source, kind):
        bindings = {"x": kind(1e308), "y": kind(np.inf), "z": kind(np.nan)}
        out = parse_kernel(source, _NAMES).evaluate(bindings)
        assert not np.isfinite(out).all()


@pytest.mark.usefixtures("strict")
class TestDeltasThatOverflow:
    """Two iterates at +1e308 and -1e308: every difference overflows, and
    every distance is inf, with no warning."""

    def test_component_deltas(self):
        problem = load_problem_file(MIXED).problem
        size = problem.sweep.te.size
        new, old = (operator._triple(problem, np.full(size, v)) for v in (1e308, -1e308))
        assert operator.component_deltas(new, old, problem, 0.5) == (np.inf,) * 3

    def test_picard_deltas(self):
        """The image of any iterate is x0 = -1e308: the first sweep from
        +1e308 has infinite deltas, and picard stops on them."""
        problem = make_problem(2.0, tau=(0.5,), sigma=("0.5*t",), h=0.1, panels=8,
                               x0="-1e308")
        start = np.full(problem.sweep.te.size, 1e308)
        (new, _), deltas = _picard_sweep(problem, problem.decay(1.0), (start, None))
        assert (new == -1e308).all() and deltas == (np.inf,) * 3
        _, rep = picard_solve(problem, init=operator._triple(problem, start))
        assert rep.failed and rep.iterations == 0
        assert rep.notes == ("diverged: non-finite update in sweep 1",)


@pytest.mark.usefixtures("strict")
def test_a_value_outside_its_gate_stays_out():
    """G3 overflows at every time before its fixed impulse, where no
    membership admits it: a gate selects the value, so the inf never meets
    the 0 of a closed gate and gives no nan."""
    problem = make_problem(2.0, tau=(1.5,), sigma=("0.5*t",), h=0.1, panels=16,
                           x0="1", f1="0.1*x", G3="exp(500*(tau - t))*beta")
    picard, rep_p = picard_solve(problem, tol=1e-12)
    march, rep_s = segment_solve(problem, tol=1e-12)
    assert rep_p.converged and rep_s.converged
    for a, b in [(picard.xi.values, march.xi.values), (picard.eta, march.eta),
                 (picard.beta_rows(), march.beta_rows())]:
        assert np.max(np.abs(a - b)) <= 1e-9


# ---------------------------------------------------------------------------
# The guards leave the error state as they found it


def _mixed():
    problem = load_problem_file(MIXED).problem
    return problem, default_init(problem)


class TestErrorStateRestored:
    def test_nested_guarded_call(self):
        # the table read runs unguarded; the kernel's evaluate holds a guard,
        # and each power in it a guard of its own nested in that one
        problem, triple = _mixed()
        before = np.geterr()
        _read_rows(_memory(problem, view_of(problem, triple)), problem.sweep)
        assert np.geterr() == before
        parse_kernel("exp(x) ^ 2 + x ^ y", _NAMES).evaluate(
            {"x": np.array([1.0, 2.0]), "y": np.array([0.5, 3.0])})
        assert np.geterr() == before

    @pytest.mark.parametrize("source", ["1 / x", "log(x)", "exp(x) ^ -1"])
    def test_guarded_call_that_raises(self, source):
        before = np.geterr()
        with pytest.raises(EvaluationError):
            parse_kernel(source, _NAMES).evaluate({"x": np.array([0.0, -1e6])})
        assert np.geterr() == before

    @pytest.mark.parametrize("solve", [picard_solve, segment_solve])
    def test_full_solve(self, solve):
        problem, _ = _mixed()
        before = np.geterr()
        _, report = solve(problem)
        assert report.converged
        assert np.geterr() == before


def test_solves_enter_no_errstate_block(monkeypatch):
    # every guard a solve passes is a decorated function: a ``with
    # np.errstate`` block on the sweep path costs twice as much, and shows here
    entered = []
    enter = np.errstate.__enter__

    def counting(self):
        entered.append(self)
        return enter(self)

    problem = load_problem_file(MIXED).problem
    monkeypatch.setattr(np.errstate, "__enter__", counting)
    _, picard = picard_solve(problem)
    _, segment = segment_solve(problem)
    assert picard.converged and segment.converged
    assert entered == []
    with np.errstate(over="ignore"):
        pass
    assert len(entered) == 1  # the count sees a block


# ---------------------------------------------------------------------------
# One guard per sweep

# the code of numpy's errstate decorator wrapper, ``inner``: every guarded
# call runs it once
_GUARD = quiet(lambda: None).__code__


def _guards(call, *args):
    """The guards entered during ``call(*args)``: per guard, the name of
    the function it guards, counted."""
    entered = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is _GUARD:
            entered[frame.f_locals["func"].__name__] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(previous)
    return entered


def _picard_sweep(problem, weights, state):
    """One picard sweep of ``state`` with its deltas at ``weights``."""
    deltas = partial(operator._deltas, problem, weights)
    return solvers._sweep(problem, problem.sweep, None, deltas, state)


def _march_guards(monkeypatch, problem):
    """The guards of every sweep of a march, one counter per sweep."""
    sweeps = []
    sweep = solvers._sweep

    def counted(problem, batch, window, deltas, *args, **kwargs):
        call = partial(sweep, problem, batch, window, deltas, *args, **kwargs)
        if deltas is solvers._distance:  # the image
            return call()
        out = []
        sweeps.append(_guards(lambda: out.append(call())))
        return out[0]

    monkeypatch.setattr(solvers, "_sweep", counted)
    _, report = segment_solve(problem)
    assert report.converged and len(sweeps) == report.iterations
    return sweeps


@pytest.fixture(params=["mixed", "tdep"])
def solved(request, tmp_path):
    """A problem, solved once so that its sweep batch holds every part
    that no iterate changes, with its solution; and the guards that each
    power node of its kernels enters per sweep.  The mixed problem's only
    power node is in the inner factor of f2, x1/(1 + s1^2); tdep's
    kernels of a sweep hold none."""
    if request.param == "mixed":
        problem, powers = load_problem_file(MIXED).problem, 1
    else:
        path = tmp_path / "tdep.yaml"
        path.write_text(TDEP_FILE)
        problem, powers = load_problem_file(path).problem, 0
    triple, report = picard_solve(problem)
    assert report.converged
    return problem, triple, powers


class TestOneGuardPerSweep:
    """A sweep enters one floating-point guard, its own, plus one per power
    node it evaluates (a power keeps its ``all="ignore"`` guard).  Before
    the guard moved to the sweep, a later sweep of the mixed problem
    entered 18 (picard) and 14.3 on average (march), and one of tdep 7."""

    def test_picard_sweep(self, solved):
        """The sweep that makes picard's table, and one that fills it again."""
        problem, triple, powers = solved
        weights = problem.decay(1.0)
        state = (_values(triple), None)
        for _ in range(2):
            out = []
            entered = _guards(lambda: out.append(_picard_sweep(problem, weights, state)))
            assert entered == collections.Counter(_sweep=1, _power=powers)
            state = out[0][0]

    def test_image(self, solved):
        problem, triple, powers = solved
        entered = _guards(solvers._image, problem, _values(triple))
        assert entered == collections.Counter(_sweep=1, _power=powers)

    def test_apply_operator(self, solved):
        problem, triple, powers = solved
        entered = _guards(apply_operator, problem, triple)
        assert entered == collections.Counter(apply_operator=1, _power=powers)

    def test_march_sweep(self, monkeypatch, solved):
        """Every sweep of the march that carries the remainder."""
        problem, _, powers = solved
        for entered in _march_guards(monkeypatch, problem):
            assert entered == collections.Counter(_sweep=1, _power=powers)

    def test_march_sweep_alone(self, monkeypatch, solved):
        """Every sweep of the march of the segments alone."""
        problem, _, powers = solved
        monkeypatch.setattr(solvers, "_AHEAD_TIMES", 0)
        for entered in _march_guards(monkeypatch, problem):
            assert entered == collections.Counter(_sweep=1, _power=powers)

    def test_jump_at(self, solved):
        """``jump_at`` builds a batch of its own: x0 and each time factor
        and moving time at its times, once, by the public
        ``KernelExpr.evaluate``, whose guard wraps the walk ``_eval_node``;
        the rest is one guard and the power nodes of its evaluation."""
        problem, triple, powers = solved
        bps = problem.schedule.breakpoints
        bps = bps[(bps > 0) & (bps < problem.grid.horizon)]
        entered = _guards(jump_at, problem, triple, bps)
        batch = operator._Batch(problem, np.concatenate([bps, bps]), np.concatenate([bps, bps]))
        factors = [term[0] for terms in (problem.f1_terms, problem.f2_terms, problem.g_terms)
                   for term in terms or () if term[0] is not None]
        built = _guards(lambda: (batch.x0, batch.sigma, [batch.factor(c) for c in factors]))
        assert built["_eval_node"] == 1 + problem.n_sigma + len({id(c) for c in factors})
        assert entered == collections.Counter(jump_at=1, _power=powers) + built
