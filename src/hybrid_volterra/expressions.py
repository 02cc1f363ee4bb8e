"""Kernel expression language: parsing, evaluation, printing, slope estimation.

Kernels are given as infix expression strings over a declared tuple of
variable names (the arity), e.g. ``"0.3 * x + sin(t - s)"`` with arity
``("t", "s", "x")``.  Supported syntax:

* numbers (integer, decimal, scientific notation)
* the declared variables
* binary ``+  -  *  /  ^`` (``**`` is accepted as a synonym for ``^``)
* unary minus
* functions ``exp, log, sin, cos, abs`` (one argument) and ``min, max``
  (two or more arguments)
* parentheses; whitespace is insignificant

Precedence, tightest first: power, unary minus, ``* /``, ``+ -``.  Power is
right-associative and its exponent may carry a unary minus (``x^-2``).

A source is read in one pass.  The tokenizer emits plain ``(kind, text,
pos)`` tuples, and the parser reads that list by index, with one loop that
climbs the binary precedences.  A number that ``float`` cannot read (a
digit such as ``²``, which ``str.isdigit`` accepts) or reads as infinity is
an :class:`ExpressionError` at its position.  The canonical source of a
kernel is printed in one visit per node.  An absent kernel is
:func:`zero_kernel`, built without a parse.

Evaluation is numpy-vectorised: bindings may mix scalars and broadcastable
arrays.  Division by zero and ``log`` of a non-positive value raise
:class:`EvaluationError`, as does a power whose result is non-finite for
finite operands.  Each domain check is one call on the operand: an array's
``.any()`` or ``.all()``, a scalar's comparison.

Overflow and invalid operations give inf and nan without a floating-point
warning.  The guards that say so are functions decorated with one shared
``np.errstate`` (:data:`quiet`, and ``all="ignore"`` for the power), not
``with`` blocks: on numpy 2 the decorator sets and resets the error state
per call without building an object, at about half the cost of entering a
block, and it keeps no state on the shared instance, so a decorated
function may call another.  :meth:`KernelExpr.evaluate` enters one per
call; a sweep of the solvers enters one for the whole sweep and walks its
kernels with ``_eval_node`` under it, so only a power enters another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as _cartesian
from typing import Mapping, Sequence, Union

import numpy as np

Number = Union[float, np.ndarray]

# the guard of every array operation whose inf or nan the caller reports:
# decorate a function with it, never enter it as a ``with`` block
quiet = np.errstate(over="ignore", invalid="ignore")
_quiet_power = np.errstate(all="ignore")

_FUNCTIONS = {"exp": 1, "log": 1, "sin": 1, "cos": 1, "abs": 1, "min": -2, "max": -2}
# -2 means "two or more arguments"


class ExpressionError(ValueError):
    """Syntax or validation error in a kernel expression.

    ``position`` is the 0-based offset into the source string where the
    problem was detected.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EvaluationError(ValueError):
    """Domain error while evaluating a kernel expression."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Neg:
    child: object


@dataclass(frozen=True)
class _BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class _Call:
    func: str
    args: tuple


# ---------------------------------------------------------------------------
# Tokenizer


# the one-character tokens, with their kinds
_PUNCTUATION = {
    "+": "op", "-": "op", "*": "op", "/": "op", "^": "op",
    "(": "lparen", ")": "rparen", ",": "comma",
}


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """The tokens of ``source``, each ``(kind, text, pos)``: kind one of
    "num", "name", "op", "lparen", "rparen", "comma" and a last "end".

    ``**`` is the op ``^``.  A number is a run of digits (``str.isdigit``)
    with at most one dot, then an exponent if digits follow the ``e``; it
    may begin with a dot before a digit.  A name is a letter or ``_``, then
    letters, digits and ``_`` (``str.isalnum``).
    """
    tokens = []
    append = tokens.append
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        kind = _PUNCTUATION.get(c)
        if kind is not None:
            if c == "*" and source[i + 1:i + 2] == "*":
                append(("op", "^", i))
                i += 2
            else:
                append((kind, c, i))
                i += 1
        elif c.isspace():
            i += 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            append(("name", source[i:j], i))
            i = j
        elif c.isdigit() or (c == "." and source[i + 1:i + 2].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            append(("num", source[i:j], i))
            i = j
        else:
            raise ExpressionError(f"unexpected character {c!r}", i)
    append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (precedence climbing)

# the left-associative binary operators, by how tightly they bind
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Parser:
    """One pass over the token list, read by index.

    The grammar, loosest first: sums, products (left-associative, one loop
    climbing the precedences of :data:`_BINARY`, as in Pratt's top-down
    operator precedence), unary minus and plus, power, and an atom.
    Power right-associates and its exponent is a unary operand (``x^-2``).
    """

    def __init__(self, source: str, arity: Sequence[str]):
        self.arity = tuple(arity)
        self.tokens = _tokenize(source)
        self.index = 0

    def parse(self):
        node = self.binary(1)
        kind, text, pos = self.tokens[self.index]
        if kind != "end":
            raise ExpressionError(f"unexpected {text!r}", pos)
        return node

    def binary(self, floor: int):
        """Operands joined by binary operators that bind at least ``floor``."""
        node = self.unary()
        tokens = self.tokens
        while True:
            op = tokens[self.index][1]
            prec = _BINARY.get(op)
            if prec is None or prec < floor:
                return node
            self.index += 1
            node = _BinOp(op, node, self.binary(prec + 1))

    def unary(self):
        text = self.tokens[self.index][1]
        if text == "-":
            self.index += 1
            return _Neg(self.unary())
        if text == "+":
            self.index += 1
            return self.unary()
        node = self.atom()
        if self.tokens[self.index][1] == "^":
            self.index += 1
            node = _BinOp("^", node, self.unary())
        return node

    def atom(self):
        kind, text, pos = self.tokens[self.index]
        self.index += 1
        if kind == "num":
            try:
                value = float(text)
            except ValueError:  # a digit of str.isdigit that float rejects: '²'
                value = math.inf
            if value == math.inf:  # or too large to print back: '1e999'
                raise ExpressionError(f"invalid number {text!r}", pos)
            return _Num(value)
        if kind == "name":
            if self.tokens[self.index][0] == "lparen":
                return self.call(text, pos)
            if text in _FUNCTIONS:
                raise ExpressionError(f"function {text!r} requires arguments", pos)
            if text not in self.arity:
                raise ExpressionError(f"unknown variable {text!r}", pos)
            return _Var(text)
        if kind == "lparen":
            node = self.binary(1)
            self.close()
            return node
        raise ExpressionError(f"expected a value, found {text or 'end of input'!r}", pos)

    def call(self, func: str, pos: int):
        """The arguments of ``func``, from its '('."""
        if func not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {func!r}", pos)
        self.index += 1
        args = [self.binary(1)]
        while self.tokens[self.index][0] == "comma":
            self.index += 1
            args.append(self.binary(1))
        self.close()
        want = _FUNCTIONS[func]
        if want >= 0 and len(args) != want:
            raise ExpressionError(f"{func} takes {want} argument(s), got {len(args)}", pos)
        if want == -2 and len(args) < 2:
            raise ExpressionError(f"{func} takes at least 2 arguments", pos)
        return _Call(func, tuple(args))

    def close(self):
        kind, text, pos = self.tokens[self.index]
        if kind != "rparen":
            raise ExpressionError(f"expected ')', found {text or 'end of input'!r}", pos)
        self.index += 1


# ---------------------------------------------------------------------------
# Evaluation and printing


def _eval_node(node, bindings: Mapping[str, Number]):
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        try:
            return bindings[node.name]
        except KeyError:
            raise EvaluationError(f"no binding for variable {node.name!r}") from None
    if isinstance(node, _Neg):
        return -_eval_node(node.child, bindings)
    if isinstance(node, _BinOp):
        a = _eval_node(node.left, bindings)
        b = _eval_node(node.right, bindings)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if (b == 0).any() if isinstance(b, np.ndarray) else b == 0:
                raise EvaluationError("division by zero")
            return a / b
        return _power(a, b)
    if isinstance(node, _Call):
        args = [_eval_node(a, bindings) for a in node.args]
        f = node.func
        if f == "exp":
            return np.exp(args[0])
        if f == "log":
            x = args[0]
            if (x <= 0).any() if isinstance(x, np.ndarray) else x <= 0:
                raise EvaluationError("log of a non-positive value")
            return np.log(args[0])
        if f == "sin":
            return np.sin(args[0])
        if f == "cos":
            return np.cos(args[0])
        if f == "abs":
            return np.abs(args[0])
        if f == "min":
            out = args[0]
            for a in args[1:]:
                out = np.minimum(out, a)
            return out
        if f == "max":
            out = args[0]
            for a in args[1:]:
                out = np.maximum(out, a)
            return out
    raise TypeError(f"unknown node {node!r}")


# the walk under the shared guard, one object made at import
_quiet_eval = quiet(_eval_node)


@_quiet_power
def _power(a, b):
    """``a ** b``, raising where the result leaves the reals: a value that
    is not finite for finite operands.  The mask is built only when some
    value is not finite."""
    out = np.power(a, b)
    if not np.isfinite(out).all() and (
        ~np.isfinite(out) & np.isfinite(a) & np.isfinite(b)
    ).any():
        raise EvaluationError("power produced a non-finite value")
    return out


_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

# per binary operator: its precedence and the least precedence its left and
# right operands print without parentheses.  Right operands always require
# strictly tighter precedence, even for + and *: floating-point addition is
# not associative, so dropping the parentheses in ``a + (b + c)`` would
# change evaluation in the last bit.  Power right-associates, and its left
# operand must bind tighter than power.
_LAYOUT = {
    "+": (_PREC_ADD, _PREC_ADD, _PREC_ADD + 1),
    "-": (_PREC_ADD, _PREC_ADD, _PREC_ADD + 1),
    "*": (_PREC_MUL, _PREC_MUL, _PREC_MUL + 1),
    "/": (_PREC_MUL, _PREC_MUL, _PREC_MUL + 1),
    "^": (_PREC_POW, _PREC_ATOM, _PREC_UNARY),
}


def _print_node(node) -> str:
    """The canonical source of ``node``."""
    return _printed(node)[0]


def _printed(node) -> tuple[str, int]:
    """The canonical source of ``node`` and the precedence of its top
    operator, one visit per node."""
    kind = type(node)
    if kind is _BinOp:
        op = node.op
        prec, need_left, need_right = _LAYOUT[op]
        left, p = _printed(node.left)
        if p < need_left:
            left = f"({left})"
        right, p = _printed(node.right)
        if p < need_right:
            right = f"({right})"
        return (f"{left}^{right}" if op == "^" else f"{left} {op} {right}"), prec
    if kind is _Num:
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v)), _PREC_ATOM
        return repr(v), _PREC_ATOM
    if kind is _Var:
        return node.name, _PREC_ATOM
    if kind is _Neg:
        child, p = _printed(node.child)
        return ("-(" + child + ")" if p < _PREC_UNARY else "-" + child), _PREC_UNARY
    return f"{node.func}({', '.join(_print_node(a) for a in node.args)})", _PREC_ATOM


def _free_vars(node) -> frozenset:
    names = set()
    _collect_names(node, names)
    return frozenset(names)


def _collect_names(node, names: set) -> None:
    kind = type(node)
    if kind is _BinOp:
        _collect_names(node.left, names)
        _collect_names(node.right, names)
    elif kind is _Var:
        names.add(node.name)
    elif kind is _Neg:
        _collect_names(node.child, names)
    elif kind is _Call:
        for arg in node.args:
            _collect_names(arg, names)


def _rename(node, mapping: Mapping[str, str]):
    if isinstance(node, _Num):
        return node
    if isinstance(node, _Var):
        return _Var(mapping.get(node.name, node.name))
    if isinstance(node, _Neg):
        return _Neg(_rename(node.child, mapping))
    if isinstance(node, _BinOp):
        return _BinOp(node.op, _rename(node.left, mapping), _rename(node.right, mapping))
    return _Call(node.func, tuple(_rename(a, mapping) for a in node.args))


# an expansion past this many terms is left unfactored
_MAX_TERMS = 8


def _times(a, b):
    """Product of two factors of one group; None stands for 1."""
    if a is None:
        return b
    return a if b is None else _BinOp("*", a, b)


def _negated(term: list) -> list:
    i = next(k for k, f in enumerate(term) if f is not None)
    return term[:i] + [_Neg(term[i])] + term[i + 1:]


def _divided(term: list, g: int, divisor) -> list:
    factor_g = _Num(1.0) if term[g] is None else term[g]
    return term[:g] + [_BinOp("/", factor_g, divisor)] + term[g + 1:]


def _group_of(node, groups: tuple[frozenset, ...]) -> int | None:
    """The first group holding every free variable of ``node``, if any."""
    free = _free_vars(node)
    return next((g for g, names in enumerate(groups) if free <= names), None)


def _separate(node, groups: tuple[frozenset, ...]) -> list[list] | None:
    """``node`` as a sum of terms, each a list of one factor per group.

    A factor of None is 1; a subtree whose free variables lie in one group
    (the first, for a constant) is a single factor.  None when ``node`` is
    not such a sum or it would exceed ``_MAX_TERMS`` terms.
    """
    home = _group_of(node, groups)
    if home is not None:
        term = [None] * len(groups)
        term[home] = node
        return [term]
    if isinstance(node, _Neg):
        terms = _separate(node.child, groups)
        return None if terms is None else [_negated(t) for t in terms]
    if not isinstance(node, _BinOp) or node.op == "^":
        return None
    if node.op == "/":
        # divide each term's factor in the divisor's group
        g = _group_of(node.right, groups)
        left = None if g is None else _separate(node.left, groups)
        if left is None:
            return None
        return [_divided(t, g, node.right) for t in left]
    left = _separate(node.left, groups)
    right = None if left is None else _separate(node.right, groups)
    if right is None:
        return None
    if node.op == "+":
        terms = left + right
    elif node.op == "-":
        terms = left + [_negated(t) for t in right]
    else:
        terms = [[_times(a, b) for a, b in zip(p, q)] for p in left for q in right]
    return terms if len(terms) <= _MAX_TERMS else None


# ---------------------------------------------------------------------------
# Public surface


@dataclass(frozen=True)
class KernelExpr:
    """A parsed kernel: canonical source, declared arity, and its AST.

    The free variables are collected once, when the kernel is built.
    """

    source: str
    arity: tuple[str, ...]
    root: object
    free: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "free", _free_vars(self.root))

    def evaluate(self, bindings: Mapping[str, Number]) -> Number:
        """Evaluate with scalar or broadcastable array bindings.

        Overflow and invalid operations give inf and nan without a
        floating-point warning: a non-finite value is the caller's to
        report (a solver stops with ``diverged``).  Domain errors raise
        :class:`EvaluationError`.
        """
        if isinstance(self.root, (_Num, _Var)):
            return _eval_node(self.root, bindings)  # no arithmetic to warn
        return _quiet_eval(self.root, bindings)

    def __call__(self, **bindings: Number) -> Number:
        return self.evaluate(bindings)

    def references(self, name: str) -> bool:
        return name in self.free

    def to_source(self) -> str:
        return _print_node(self.root)

    @property
    def is_zero(self) -> bool:
        return isinstance(self.root, _Num) and self.root.value == 0.0


def parse_kernel(source: str, arity: Sequence[str]) -> KernelExpr:
    """Parse ``source`` over the variables in ``arity``.

    Raises :class:`ExpressionError` (with a position) on syntax errors, on
    names outside the declared arity and on numbers ``float`` cannot read
    or reads as infinity.
    """
    names = _names(arity)
    root = _Parser(source, names).parse()
    return KernelExpr(_print_node(root), names, root)


def zero_kernel(arity: Sequence[str]) -> KernelExpr:
    """The kernel ``0`` over ``arity``, built without a parse."""
    return KernelExpr("0", _names(arity), _Num(0.0))


def _names(arity: Sequence[str]) -> tuple[str, ...]:
    names = tuple(arity)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in arity {names}")
    return names


def factor(expr: KernelExpr, groups) -> list[tuple[KernelExpr, ...]] | None:
    """Split ``expr`` into a sum of products of one factor per variable group.

    ``groups`` is a sequence of disjoint name collections.  Returns one
    tuple per term, its k-th entry a kernel (over ``expr.arity``) whose free
    variables lie in ``groups[k]``, so that ``expr`` is the sum over terms
    of the product of their entries; a constant rides in the first entry.
    The split distributes ``*`` over ``+`` and ``-``, passes unary minus
    and keeps division by an expression of one group; every subtree of one
    group is a single factor.  None when ``expr`` is not such a sum (a
    variable outside every group, a power or a function of several groups,
    a divisor of several groups) or the expansion passes a fixed number of
    terms.  Every factor is a subtree of ``expr``, evaluated over the same
    values, so a factored kernel raises :class:`EvaluationError` where
    ``expr`` does.
    """
    terms = _separate(expr.root, tuple(frozenset(g) for g in groups))
    if terms is None:
        return None
    one = _Num(1.0)
    return [
        tuple(KernelExpr(_print_node(f or one), expr.arity, f or one) for f in term)
        for term in terms
    ]


def time_split(kernel: KernelExpr, groups) -> list[tuple] | None:
    """``kernel`` as terms ``(c, a_1, ...)`` with sum of c(t) * a_1 * ... equal to it.

    A kernel that references t is factored over ``("t",)`` and ``groups``
    (:func:`factor`); c may then be the constant 1.  A t-free kernel has c
    None and is factored over ``groups`` alone, a single group keeping it
    whole, so a bare constant stays in its factor.  [] for the zero
    kernel, None when the kernel does not split.
    """
    if kernel.is_zero:
        return []
    if kernel.references("t"):
        return factor(kernel, (("t",),) + tuple(groups))
    if len(groups) == 1:
        return [(None, kernel)]
    terms = factor(kernel, groups)
    return None if terms is None else [(None,) + term for term in terms]


def symmetrize_second_order(expr: KernelExpr) -> KernelExpr:
    """Average a second-order kernel with its argument-swapped mirror.

    Expects a five-variable arity ``(t, s1, s2, x1, x2)``; returns
    ``(f(t,s1,s2,x1,x2) + f(t,s2,s1,x2,x1)) / 2`` as a new kernel with the
    same arity.  Applying it twice is pointwise idempotent.
    """
    if len(expr.arity) != 5:
        raise ValueError(
            f"second-order kernel must have 5 variables (t, s1, s2, x1, x2), got {expr.arity}"
        )
    t, s1, s2, x1, x2 = expr.arity
    swapped = _rename(expr.root, {s1: s2, s2: s1, x1: x2, x2: x1})
    root = _BinOp("*", _Num(0.5), _BinOp("+", expr.root, swapped))
    return KernelExpr(_print_node(root), expr.arity, root)


@quiet
def _slopes(fp: np.ndarray, fm: np.ndarray, gap: np.ndarray) -> np.ndarray:
    return np.abs(fp - fm) / gap


def estimate_lipschitz(
    expr: KernelExpr,
    wrt: str,
    box: Mapping[str, tuple[float, float]],
    samples: int = 256,
    seed: int = 0,
    safety: float = 1.0,
) -> float:
    """Sampled bound on ``sup |d expr / d wrt|`` over a box.

    Central differences are taken at stratified random points plus every
    corner of the box.  The returned value is the sample maximum (an
    under-estimate by construction) times ``safety``.
    """
    if wrt not in expr.arity:
        raise ValueError(f"{wrt!r} is not a variable of this kernel {expr.arity}")
    missing = [v for v in expr.arity if v not in box]
    if missing:
        raise ValueError(f"box does not cover variables {missing}")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    lo, hi = box[wrt]
    width = hi - lo
    if not (width > 0):
        raise ValueError(f"degenerate box for {wrt!r}: [{lo}, {hi}]")
    for v in expr.arity:
        a, b = box[v]
        if b < a:
            raise ValueError(f"empty box for {v!r}: [{a}, {b}]")
        if not math.isfinite(b - a):
            raise ValueError(f"box for {v!r} has no finite width: [{a}, {b}]")

    rng = np.random.default_rng(seed)
    others = [v for v in expr.arity if v != wrt]

    # stratified interior points in the wrt direction
    strata = (np.arange(samples) + rng.uniform(size=samples)) / samples
    pts = {wrt: lo + strata * width}
    for v in others:
        a, b = box[v]
        pts[v] = rng.uniform(a, b, size=samples) if b > a else np.full(samples, a)

    # all box corners
    corner_axes = [(box[v][0], box[v][1]) if box[v][1] > box[v][0] else (box[v][0],)
                   for v in expr.arity]
    corners = list(_cartesian(*corner_axes))
    if corners:
        corner_arr = np.array(corners, dtype=float)
        for k, v in enumerate(expr.arity):
            pts[v] = np.concatenate([pts[v], corner_arr[:, k]])

    delta = max(1e-9, 1e-6 * width)
    x = pts[wrt]
    xm = np.clip(x - delta, lo, hi)
    xp = np.clip(x + delta, lo, hi)
    gap = xp - xm
    keep = gap > 0
    lo_b = dict(pts)
    hi_b = dict(pts)
    lo_b[wrt] = xm
    hi_b[wrt] = xp
    # a kernel free of some variables evaluates to a smaller (or 0-d) array
    fm = np.broadcast_to(np.asarray(expr.evaluate(lo_b), dtype=float), x.shape)
    fp = np.broadcast_to(np.asarray(expr.evaluate(hi_b), dtype=float), x.shape)
    slopes = _slopes(fp[keep], fm[keep], gap[keep])  # non-finite: raised below
    if slopes.size == 0:
        raise ValueError("no usable sample pairs inside the box")
    best = float(np.max(slopes))
    if not math.isfinite(best):
        raise EvaluationError("non-finite difference quotient encountered")
    return best * safety
