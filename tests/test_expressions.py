"""Kernel language: parsing, printing, evaluation, slope estimation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybrid_volterra.expressions import (
    EvaluationError,
    ExpressionError,
    KernelExpr,
    estimate_lipschitz,
    factor,
    parse_kernel,
    symmetrize_second_order,
    zero_kernel,
)
from hybrid_volterra.operator import ARITIES
from hybrid_volterra.piecewise import uniform_grid
from hybrid_volterra.quadrature import node_cumulative


class TestParseAndEval:
    def test_two_variable_sum(self):
        k = parse_kernel("t + 2*s", ("t", "s"))
        assert k(t=1.0, s=2.0) == 5.0

    def test_function_call(self):
        k = parse_kernel("exp(0)*x", ("x",))
        assert k(x=3.0) == 3.0

    @pytest.mark.parametrize("source", ["t*t - t*t", "exp(t)*exp(t) - exp(t)*exp(t)"])
    @pytest.mark.parametrize("t", [1e308, np.float64(1e308), np.array([1.0, 1e308])],
                             ids=["float", "numpy-scalar", "array"])
    def test_overflow_gives_nan_without_warning(self, source, t):
        # the suite turns a RuntimeWarning into an error
        out = parse_kernel(source, ("t",)).evaluate({"t": t})
        assert np.isnan(np.ravel(out)[-1])

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_kernel("t + * s", ("t", "s"))
        assert err.value.position == 4
        assert "position 4" in str(err.value)

    def test_unknown_variable(self):
        with pytest.raises(ExpressionError):
            parse_kernel("t + q", ("t", "s"))

    def test_empty_source(self):
        with pytest.raises(ExpressionError):
            parse_kernel("   ", ("t",))

    def test_eval_kernel_square(self):
        k = parse_kernel("x*x", ("x",))
        assert k.evaluate({"x": -2.0}) == 4.0

    def test_eval_kernel_sin(self):
        assert parse_kernel("sin(t)", ("t",)).evaluate({"t": 0.0}) == 0.0

    def test_division_by_zero_is_domain_error(self):
        k = parse_kernel("1/x", ("x",))
        with pytest.raises(EvaluationError):
            k.evaluate({"x": 0.0})

    def test_log_of_nonpositive_is_domain_error(self):
        with pytest.raises(EvaluationError):
            parse_kernel("log(x)", ("x",)).evaluate({"x": -1.0})

    def test_precedence(self):
        assert parse_kernel("1 + 2*3^2", ())() == 19.0
        # power binds tighter than unary minus
        assert parse_kernel("-2^2", ())() == -4.0
        assert parse_kernel("2^-2", ())() == 0.25

    def test_whitespace_insensitive(self):
        a = parse_kernel("t+2 *s", ("t", "s"))
        b = parse_kernel(" t + 2*s ", ("t", "s"))
        assert a(t=0.3, s=1.7) == b(t=0.3, s=1.7)

    def test_vectorized_evaluation(self):
        k = parse_kernel("t^2 + s", ("t", "s"))
        t = np.linspace(0, 1, 7)
        out = k.evaluate({"t": t, "s": 2.0})
        assert np.allclose(out, t**2 + 2.0)

    def test_scientific_notation(self):
        assert parse_kernel("2.5e2 + 1E-2", ())() == 250.01

    def test_zero_kernel(self):
        z = zero_kernel(("t", "s"))
        assert z.is_zero
        assert z(t=3.0, s=4.0) == 0.0
        assert not parse_kernel("0 + t", ("t",)).is_zero

    def test_zero_kernel_is_the_parsed_zero(self):
        assert zero_kernel(("t", "s")) == parse_kernel("0", ("t", "s"))
        assert zero_kernel(("t", "s")).to_source() == "0"
        with pytest.raises(ValueError, match="duplicate variable names"):
            zero_kernel(("t", "t"))

    @pytest.mark.parametrize("source, text, position", [
        ("2²", "2²", 0), ("x + 1e²", "1e²", 4), ("①", "①", 0), ("3.5³*x", "3.5³", 0),
        ("x*1e999", "1e999", 2),
    ])
    def test_number_float_cannot_read(self, source, text, position):
        # str.isdigit accepts superscripts and circled digits, float does
        # not; 1e999 reads as infinity, which no canonical source prints
        with pytest.raises(ExpressionError) as info:
            parse_kernel(source, ("x",))
        assert str(info.value) == f"invalid number {text!r} (position {position})"
        assert info.value.position == position

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert parse_kernel("٣ + x", ("x",)).to_source() == "3 + x"

    def test_free_variables_and_references(self):
        k = parse_kernel("t + sin(s)", ("t", "s", "x"))
        assert k.free == frozenset({"t", "s"})
        assert k.references("t") and not k.references("x")


_NAMES = ("t", "s", "x")


def _leaf():
    consts = st.floats(
        min_value=-4, max_value=4, allow_nan=False, allow_infinity=False
    ).map(lambda v: repr(round(v, 4)))
    return st.one_of(st.sampled_from(_NAMES), consts)


_SOURCES = st.recursive(
    _leaf(),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"
        ),
        inner.map(lambda e: f"-({e})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), inner).map(
            lambda p: f"{p[0]}({p[1]})"
        ),
        st.tuples(inner, inner).map(lambda p: f"min({p[0]}, {p[1]})"),
    ),
    max_leaves=12,
)


class TestPrinterRoundTrip:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_SOURCES)
    def test_round_trip_evaluates_identically(self, source):
        first = parse_kernel(source, _NAMES)
        reparsed = parse_kernel(first.to_source(), _NAMES)
        rng = np.random.default_rng(0)
        binds = {name: rng.uniform(-3, 3, 100) for name in _NAMES}
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.asarray(first.evaluate(binds), dtype=float)
            b = np.asarray(reparsed.evaluate(binds), dtype=float)
        assert np.array_equal(a, b, equal_nan=True)

    def test_printer_is_stable(self):
        k = parse_kernel("-(t + 2) * sin(s)^2", ("t", "s"))
        printed = k.to_source()
        assert parse_kernel(printed, ("t", "s")).to_source() == printed


def _parsed(parse, source, arity):
    """What ``parse`` makes of ``source``: the tree, or the error's type,
    text and position."""
    try:
        return ("tree", parse(source, arity))
    except ValueError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "position", None))


class _FirstParser(oracles.Parser):
    """The first parser with the one change made since: a number that
    ``float`` cannot read, or reads as infinity, is an
    :class:`ExpressionError` at its token, where the first parser let a
    bare ``ValueError`` escape or printed nothing (``OverflowError``)."""

    def primary(self):
        tok = self.peek()
        if tok.kind == "num":
            try:
                finite = float(tok.text) != math.inf
            except ValueError:
                finite = False
            if not finite:
                raise ExpressionError(f"invalid number {tok.text!r}", tok.pos)
        return super().primary()


_ARITY = ("t", "s", "x", "x1", "eta", "_e")

# well-formed sources with every operator, spaced or not, each operation in
# parentheses or not: the precedence and associativity of the grammar
_EXPRESSIONS = st.recursive(
    _leaf(),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^", "**"]), inner,
                  st.sampled_from(["", " "]), st.booleans()).map(
            lambda p: ("({})" if p[4] else "{}").format(p[3].join(p[:3]))
        ),
        st.tuples(st.sampled_from(["-", "+", "- -"]), inner).map("".join),
        st.tuples(st.sampled_from(["sin", "exp", "abs"]), inner).map(
            lambda p: f"{p[0]}({p[1]})"
        ),
        st.lists(inner, min_size=2, max_size=3).map(lambda a: f"max({', '.join(a)})"),
    ),
    max_leaves=12,
)

# single characters of every class the tokenizer tells apart, "**", and
# whole names, so that calls and variables come up as often as typos
_PIECES = st.sampled_from(
    list("0123456789") + list("tsxaqe_E") + list(".eE+-*/^(),") + [" ", "  ", "\t"]
    + ["**", "²", "٣", "é", "①"]
    + ["x1", "eta", "exp", "log", "min", "max", "sin", "abs", "1.5", "2e-3", "1e400"]
)


class TestParserMatchesTheFirstParser:
    """The one-pass tokenizer and precedence-climbing parser against the
    first front end (``oracles.Parser``): the same tree, or the same error
    type, message and position."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_PIECES, max_size=24).map("".join))
    def test_random_strings(self, source):
        new = _parsed(parse_kernel, source, _ARITY)
        old = _parsed(lambda s, a: _FirstParser(s, a).parse(), source, _ARITY)
        if old[0] == "tree":
            assert new == ("tree", KernelExpr(oracles.print_node(old[1]), _ARITY, old[1]))
        else:
            assert new == old

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_EXPRESSIONS)
    def test_well_formed_sources(self, source):
        new = parse_kernel(source, _NAMES)
        old = oracles.Parser(source, _NAMES).parse()
        assert new.root == old
        assert new.source == oracles.print_node(old)


_S2_ARITY = ("t", "s1", "s2", "x1", "x2")


class TestSymmetrize:
    def test_two_term_average(self):
        sym = symmetrize_second_order(parse_kernel("s1*x2", _S2_ARITY))
        want = parse_kernel("(s1*x2 + s2*x1)/2", _S2_ARITY)
        rng = np.random.default_rng(1)
        binds = {n: rng.uniform(-2, 2, 50) for n in _S2_ARITY}
        assert np.allclose(sym.evaluate(binds), want.evaluate(binds))

    def test_symmetric_input_unchanged_pointwise(self):
        k = parse_kernel("x1*x2", _S2_ARITY)
        sym = symmetrize_second_order(k)
        rng = np.random.default_rng(2)
        binds = {n: rng.uniform(-2, 2, 50) for n in _S2_ARITY}
        assert np.allclose(sym.evaluate(binds), k.evaluate(binds))

    def test_idempotent(self):
        k = parse_kernel("s1^2 * x2 + cos(s2)", _S2_ARITY)
        once = symmetrize_second_order(k)
        twice = symmetrize_second_order(once)
        rng = np.random.default_rng(3)
        binds = {n: rng.uniform(-2, 2, 64) for n in _S2_ARITY}
        assert np.max(np.abs(once.evaluate(binds) - twice.evaluate(binds))) < 1e-12

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            symmetrize_second_order(parse_kernel("s1", ("s1", "s2")))

    def test_result_invariant_under_pair_swap(self):
        sym = symmetrize_second_order(parse_kernel("s1*x1 + exp(x2)", _S2_ARITY))
        rng = np.random.default_rng(4)
        b = {n: rng.uniform(-1, 1, 40) for n in _S2_ARITY}
        swapped = {"t": b["t"], "s1": b["s2"], "s2": b["s1"],
                   "x1": b["x2"], "x2": b["x1"]}
        assert np.allclose(sym.evaluate(b), sym.evaluate(swapped))

    @pytest.mark.parametrize("seed", range(5))
    def test_cube_integral_preserved(self, seed):
        """The square-domain double integral is blind to symmetrization."""
        rng = np.random.default_rng(seed)
        c = [float(v) for v in rng.uniform(-1, 1, 6)]
        src = (f"{c[0]!r} + {c[1]!r}*s1 + {c[2]!r}*s2 + {c[3]!r}*x1*s2"
               f" + {c[4]!r}*x2 + {c[5]!r}*s1*s2")
        k = parse_kernel(src, _S2_ARITY)
        sym = symmetrize_second_order(k)
        grid = uniform_grid(1.0, 256)
        tt = grid.times
        xv = 0.3 + 0.5 * tt - 0.2 * tt**2  # a smooth state sample
        binds = {"t": 1.0, "s1": tt[:, None], "s2": tt[None, :],
                 "x1": xv[:, None], "x2": xv[None, :]}
        shape = (tt.size, tt.size)

        def square_integral(expr):
            F = np.broadcast_to(np.asarray(expr.evaluate(binds), float), shape)
            return node_cumulative(grid, node_cumulative(grid, F).T)[-1, -1]

        assert abs(square_integral(k) - square_integral(sym)) < 1e-10


class TestEstimateLipschitz:
    def test_constant_slope(self):
        k = parse_kernel("2*x", ("x",))
        v = estimate_lipschitz(k, "x", {"x": (0.0, 1.0)})
        assert abs(v - 2.0) < 1e-9

    def test_sine_attains_one(self):
        k = parse_kernel("sin(x)", ("x",))
        v = estimate_lipschitz(k, "x", {"x": (0.0, math.pi)}, samples=2048)
        assert 0.999 <= v <= 1.0 + 1e-9

    def test_square_on_box(self):
        k = parse_kernel("x*x", ("x",))
        v = estimate_lipschitz(k, "x", {"x": (0.0, 2.0)}, samples=2048)
        assert 3.99 <= v <= 4.0 + 1e-9

    def test_constant_kernel_has_zero_slope(self):
        # a constant evaluates to a 0-d array, not one value per sample
        k = parse_kernel("0.2", ARITIES["G1"])
        box = {"t": (0.0, 2.0), "tau": (0.0, 2.0), "eta": (-2.0, 2.0)}
        assert estimate_lipschitz(k, "eta", box) == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_affine_recovers_slope(self, a, b):
        k = parse_kernel(f"{a!r}*x + {b!r}", ("x",))
        v = estimate_lipschitz(k, "x", {"x": (0.0, 1.0)})
        # central differences over a ~2e-6 gap leave a few e-9 of rounding
        assert abs(v - abs(a)) < 5e-8

    def test_other_variables_held_fixed(self):
        k = parse_kernel("t*x", ("t", "x"))
        v = estimate_lipschitz(k, "x", {"t": (0.0, 3.0), "x": (-1.0, 1.0)})
        assert 2.9 <= v <= 3.0 + 1e-9

    def test_safety_factor(self):
        k = parse_kernel("x", ("x",))
        v = estimate_lipschitz(k, "x", {"x": (0.0, 1.0)}, safety=1.1)
        assert abs(v - 1.1) < 1e-9

    def test_seed_determinism(self):
        # max slope sits at x = 0, interior, so it is only ever sampled
        # approximately and the estimate depends on the draw
        k = parse_kernel("sin(3*x)", ("x",))
        box = {"x": (-2.0, 2.0)}
        a = estimate_lipschitz(k, "x", box, seed=5)
        b = estimate_lipschitz(k, "x", box, seed=5)
        c = estimate_lipschitz(k, "x", box, seed=6)
        assert a == b
        assert a != c  # different draws, generically different sample max

    def test_degenerate_box_rejected(self):
        k = parse_kernel("x", ("x",))
        with pytest.raises(ValueError):
            estimate_lipschitz(k, "x", {"x": (1.0, 1.0)})

    @pytest.mark.parametrize(
        "box",
        [
            {"x": (-1e308, 1e308), "x1": (0.0, 1.0)},  # width overflows
            {"x": (0.0, 1.0), "x1": (-1e308, 1e308)},  # also off the wrt axis
            {"x": (0.0, math.inf), "x1": (0.0, 1.0)},
            {"x": (0.0, 1.0), "x1": (math.nan, 1.0)},
        ],
    )
    def test_box_without_finite_width_rejected(self, box):
        k = parse_kernel("x*x1", ("x", "x1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite width"):
                estimate_lipschitz(k, "x", box)

    def test_too_few_samples_rejected(self):
        k = parse_kernel("x", ("x",))
        with pytest.raises(ValueError):
            estimate_lipschitz(k, "x", {"x": (0.0, 1.0)}, samples=1)


class TestFactor:
    """Sums of products of one factor per variable group, split from the AST."""

    ARITY = ("t", "s", "s1", "x", "x1")
    GROUPS = (("s", "x"), ("s1", "x1"))

    def _split(self, source):
        return factor(parse_kernel(source, self.ARITY), self.GROUPS)

    @pytest.mark.parametrize(
        "source, n_terms",
        [
            ("0.05*x*x1/(1 + s1^2)", 1),
            ("x1", 1),
            ("x - x1", 2),
            ("x*x1 + sin(s)*exp(x1)", 2),
            ("-(x + 2)*(s1 - x1)/(1 + s^2) + 3", 2),
            ("-(x + x1)*(s1 - 2*s)", 4),
            ("(x + x1)*(s + s1)*(x - x1)", 8),
        ],
    )
    def test_splits_and_evaluates_alike(self, source, n_terms):
        terms = self._split(source)
        assert terms is not None and len(terms) == n_terms
        for a, b in terms:
            assert a.free <= {"s", "x"} and b.free <= {"s1", "x1"}
        rng = np.random.default_rng(0)
        nodes = {v: rng.uniform(-1.0, 1.0, size=(7, 1)) for v in ("s", "x")}
        nodes.update({v: rng.uniform(-1.0, 1.0, size=(1, 5)) for v in ("s1", "x1")})
        whole = parse_kernel(source, self.ARITY).evaluate(nodes)
        parts = sum(a.evaluate(nodes) * b.evaluate(nodes) for a, b in terms)
        np.testing.assert_allclose(parts, whole, rtol=1e-14, atol=1e-14)

    def test_mixed_memory_kernel_split(self):
        [(a, b)] = self._split("0.05*x*x1/(1 + s1^2)")
        assert (a.to_source(), b.to_source()) == ("0.05 * x", "x1 / (1 + s1^2)")
        assert a.arity == b.arity == self.ARITY

    @pytest.mark.parametrize(
        "source",
        [
            "exp(x*x1)",
            "1/(1 + (s - s1)^2)",
            "x/(x + x1)",
            "t*x1",
            # 16 terms, past the bound
            "(x + x1)*(x + x1)*(x + x1)*(x + x1)",
        ],
    )
    def test_not_separable(self, source):
        assert self._split(source) is None

    def test_factor_fails_where_the_kernel_fails(self):
        [(a, b)] = self._split("x/x1")
        nodes = {"s": 0.0, "s1": 0.0, "x": np.array([1.0, 2.0]), "x1": np.array([0.0, 1.0])}
        with pytest.raises(EvaluationError, match="division by zero"):
            parse_kernel("x/x1", self.ARITY).evaluate(nodes)
        with pytest.raises(EvaluationError, match="division by zero"):
            b.evaluate(nodes)

    def test_free_variables_collected_once(self):
        k = parse_kernel("x*sin(t)", ("t", "s", "x"))
        assert k.free == frozenset({"t", "x"})
        assert vars(k)["free"] is k.free  # a field, not a walk per read
