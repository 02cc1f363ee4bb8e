"""Reference implementations the tests check the program against.

None of these is on a solver path: each reads back or re-derives what the
program writes, with the standard library or PyYAML doing the work, or
computes what it computes in the plainest way.
"""

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import yaml

from hybrid_volterra.contraction import cubic_roots
from hybrid_volterra.expressions import (
    _FUNCTIONS,
    EvaluationError,
    ExpressionError,
    Number,
    _BinOp,
    _Call,
    _Neg,
    _Num,
    _Var,
)
from hybrid_volterra.operator import apply_operator, component_deltas
from hybrid_volterra.piecewise import _check_mu
from hybrid_volterra.problem_io import ProblemFileError
from hybrid_volterra.quadrature import cut, read_prefix
from hybrid_volterra.solvers import UnconvergedRun, at_resolution, picard_solve, segment_solve


def read_solution_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of ``problem_io.write_solution_csv``; returns (t, left, right)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "x_left", "x_right"]:
            raise ProblemFileError(f"{path}: expected header t,x_left,x_right")
        cols = ([], [], [])
        for row in reader:
            if len(row) != 3:
                raise ProblemFileError(f"{path}: malformed row {row!r}")
            for c, item in zip(cols, row):
                c.append(float(item))
    return tuple(np.asarray(c) for c in cols)


def to_builtin(obj):
    """Recursively convert numpy scalars/arrays so PyYAML can dump them."""
    if isinstance(obj, dict):
        return {k: to_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_builtin(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def pyyaml_dump(data, dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper)) -> str:
    """The report text PyYAML writes: the layout ``problem_io.dump_report``
    reproduces.  ``dumper`` defaults to libyaml's, the emitter it follows."""
    return yaml.dump(to_builtin(data), Dumper=dumper, sort_keys=False,
                     default_flow_style=False)


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
            if np.any(b == 0):
                raise EvaluationError("division by zero")
            return a / b
        # power: guard results that leave the reals
        with np.errstate(all="ignore"):
            out = np.power(a, b)
        bad = ~np.isfinite(out) & np.isfinite(a) & np.isfinite(b)
        if np.any(bad):
            raise EvaluationError("power produced a non-finite value")
        return out
    if isinstance(node, _Call):
        args = [_eval_node(a, bindings) for a in node.args]
        f = node.func
        if f == "exp":
            return np.exp(args[0])
        if f == "log":
            if np.any(np.asarray(args[0]) <= 0):
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


def evaluate(root, bindings: Mapping[str, Number]):
    """A kernel's value as ``KernelExpr.evaluate`` gives it: the plain walk
    of its AST ``root`` with every numpy check written out, under one
    ``np.errstate`` block."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _eval_node(root, bindings)


# ---------------------------------------------------------------------------
# The kernel front end as first written: one frozen token object per token,
# a recursive descent with one method per precedence level, and a printer
# that visits each node twice.  The parser and printer of ``expressions``
# must give the same trees, canonical sources and errors, except that a
# number ``float`` cannot read, or reads as infinity, which this parser
# lets escape as a bare ``ValueError`` and this printer as an
# ``OverflowError``.


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "name", "op", "lparen", "rparen", "comma", "end"
    text: str
    pos: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
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
            tokens.append(Token("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("name", source[i:j], i))
            i = j
            continue
        if c == "*" and i + 1 < n and source[i + 1] == "*":
            tokens.append(Token("op", "^", i))
            i += 2
            continue
        if c in "+-*/^":
            tokens.append(Token("op", c, i))
            i += 1
            continue
        if c == "(":
            tokens.append(Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(Token("rparen", c, i))
            i += 1
            continue
        if c == ",":
            tokens.append(Token("comma", c, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


class Parser:
    def __init__(self, source: str, arity: Sequence[str]):
        self.source = source
        self.arity = tuple(arity)
        self.tokens = tokenize(source)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self):
        node = self.additive()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def additive(self):
        node = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = _BinOp(op, node, self.multiplicative())
        return node

    def multiplicative(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = _BinOp(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return _Neg(self.unary())
        if tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        node = self.primary()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # exponent at unary level: x^-2 parses, power right-associates
            node = _BinOp("^", node, self.unary())
        return node

    def primary(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return _Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "lparen":
                if tok.text not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                args = [self.additive()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.additive())
                self.expect("rparen", "')'")
                want = _FUNCTIONS[tok.text]
                if want >= 0 and len(args) != want:
                    raise ExpressionError(
                        f"{tok.text} takes {want} argument(s), got {len(args)}", tok.pos
                    )
                if want == -2 and len(args) < 2:
                    raise ExpressionError(f"{tok.text} takes at least 2 arguments", tok.pos)
                return _Call(tok.text, tuple(args))
            if tok.text in _FUNCTIONS:
                raise ExpressionError(f"function {tok.text!r} requires arguments", tok.pos)
            if tok.text not in self.arity:
                raise ExpressionError(f"unknown variable {tok.text!r}", tok.pos)
            return _Var(tok.text)
        if tok.kind == "lparen":
            self.advance()
            node = self.additive()
            self.expect("rparen", "')'")
            return node
        raise ExpressionError(f"expected a value, found {tok.text or 'end of input'!r}", tok.pos)


_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node) -> int:
    if isinstance(node, (_Num, _Var, _Call)):
        return _PREC_ATOM
    if isinstance(node, _Neg):
        return _PREC_UNARY
    if node.op in "+-":
        return _PREC_ADD
    if node.op in "*/":
        return _PREC_MUL
    return _PREC_POW


def _wrap(node, minimum: int) -> str:
    s = print_node(node)
    return f"({s})" if _prec(node) < minimum else s


def print_node(node) -> str:
    if isinstance(node, _Num):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(node, _Var):
        return node.name
    if isinstance(node, _Neg):
        return "-" + _wrap(node.child, _PREC_UNARY)
    if isinstance(node, _Call):
        return f"{node.func}({', '.join(print_node(a) for a in node.args)})"
    op = node.op
    # Right operands always require strictly tighter precedence, even for
    # + and *: floating-point addition is not associative, so dropping the
    # parentheses in ``a + (b + c)`` would change evaluation in the last bit.
    if op in "+-":
        left = _wrap(node.left, _PREC_ADD)
        right = _wrap(node.right, _PREC_ADD + 1)
        return f"{left} {op} {right}"
    if op in "*/":
        left = _wrap(node.left, _PREC_MUL)
        right = _wrap(node.right, _PREC_MUL + 1)
        return f"{left} {op} {right}"
    # power: right-associative, left operand must bind tighter than power
    left = _wrap(node.left, _PREC_ATOM)
    right = _wrap(node.right, _PREC_UNARY)
    return f"{left}^{right}"


# ---------------------------------------------------------------------------
# The contraction analysis as written with one numpy bound matrix per weight:
# what ``find_mu`` and the contraction block of ``hv analyze`` must still give


def bounds_matrix(lip, mu, horizon, h, n_tau, n_sigma) -> np.ndarray:
    """The entries of ``contraction.contraction_bounds``, as a numpy matrix."""
    T = float(horizon)
    k = -math.expm1(-mu * T) / mu
    q = math.exp(-mu * h)
    r = 1.0 / -math.expm1(-mu * h)
    c1 = lip.L1 + 2.0 * lip.l2 * T + lip.lg * n_sigma * n_tau
    c2 = lip.LG1 + 2.0 * n_tau * lip.lg2 + lip.lg * n_sigma * T + lip.lg3 * n_sigma
    b = (lip.lg * n_sigma * T + lip.lg3 * n_sigma) * n_tau
    return np.array(
        [
            [c1 * k, c2 * r, b],
            [c1 * k, c2 * q * r, b * q],
            [c1 * k, c2 * r, lip.lg * n_sigma * n_tau * T * k + lip.lg3 * n_sigma * n_tau * q * r],
        ]
    )


def char_invariants(a: np.ndarray) -> tuple[float, float, float]:
    """Trace, second invariant and determinant, read entry by entry."""
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    s2 = (
        a[0, 0] * a[1, 1] + a[1, 1] * a[2, 2] + a[2, 2] * a[0, 0]
        - a[0, 2] * a[2, 0] - a[1, 2] * a[2, 1] - a[0, 1] * a[1, 0]
    )
    d = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    return float(tr), float(s2), float(d)


def criterion_quantities(a: np.ndarray) -> tuple[float, float, float, float]:
    tr, s2, d = char_invariants(a)
    p0 = 1.0 - tr + s2 - d
    p1 = 3.0 - tr - s2 + 3.0 * d
    p3 = 1.0 + tr + s2 + d
    q4 = 8.0 - 8.0 * s2 + 8.0 * d * tr - 8.0 * d * d
    return p0, p1, p3, q4


def find_mu(lip, horizon, h, n_tau, n_sigma, mu_min=0.01, mu_max=1e6, rel_width=0.01):
    """The smallest contractive weight by doubling and bisection, or None."""

    def ok(mu):
        return all(q > 0.0 for q in criterion_quantities(
            bounds_matrix(lip, mu, horizon, h, n_tau, n_sigma)))

    if ok(mu_min):
        return mu_min
    lo = mu = mu_min
    hi = None
    while mu < mu_max:
        mu = min(mu * 2.0, mu_max)
        if ok(mu):
            hi = mu
            break
        lo = mu
    if hi is None:
        return None
    while (hi - lo) / hi > rel_width:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def contraction_numbers(lip, horizon, h, n_tau, n_sigma, mu=None) -> dict:
    """Every number of the contraction block of ``hv analyze``: the weight
    (``find_mu``'s unless given), the bound matrix, its invariants, the
    criterion quantities and the spectral radius; only the weight, None,
    when no weight is contractive."""
    if mu is None:
        mu = find_mu(lip, horizon, h, n_tau, n_sigma)
        if mu is None:
            return {"mu": None}
    a = bounds_matrix(lip, mu, horizon, h, n_tau, n_sigma)
    invariants = char_invariants(a)
    roots = cubic_roots(*invariants)
    return {
        "mu": float(mu),
        "matrix": a.tolist(),
        "invariants": list(invariants),
        "criterion_quantities": list(criterion_quantities(a)),
        "spectral_radius": max(abs(r) for r in roots),
    }


# ---------------------------------------------------------------------------
# The read of a memory table in two passes, as the operator first made it:
# the f1 and f2 rows whole, then the g rows each cut where its sigma_i
# reaches m, and then every row times a weight that holds its time factor
# and, for a g row, whether its fixed impulse lies below m.  A g row whose
# impulse is not admitted enters as its value times 0, so an inf there
# gives nan.


def g_reads(batch, admitted: int, shape: tuple):
    """The cut of the g rows of a table that holds the g rows of the first
    ``admitted`` fixed impulses, whose prefix has ``shape``: each keeps the
    nodes before the first with sigma_i(s) >= m."""
    problem = batch.problem
    counts = np.array([np.searchsorted(problem.sigma_grid[i], batch.m)
                       for i in problem.g_row_impulses])
    keep = np.repeat(counts, admitted * len(problem.g_terms), axis=0)
    return cut(batch.limits, keep, shape)


def row_weight(batch, memory):
    """What each row of ``memory`` is multiplied by at the batch's times,
    (R, E): its time factor or 1, and 0 for a g row whose fixed impulse is
    not below m.  None when every row is summed as it is."""
    admitted = memory.window.admitted
    R, n_xi = memory.rows.shape[0], memory.n_xi
    weight = None
    if memory.factors or R > n_xi:
        weight = np.ones((R, batch.te.size))
        for c, rows in memory.factors:
            weight[rows] = batch.factor(c)
    if R > n_xi:
        weight[n_xi:] = np.where(g_gate(batch, admitted), weight[n_xi:], 0.0)
    return weight


def g_gate(batch, admitted: int) -> np.ndarray:
    """(g rows, E): whether each g row of a table that holds the g rows of
    the first ``admitted`` fixed impulses has its fixed impulse below m."""
    problem = batch.problem
    tau = np.repeat(problem.tau[:admitted], len(problem.g_terms))
    return np.tile(tau[:, None] < batch.m, (problem.g_row_impulses.size, 1))


def read_rows(memory, batch) -> np.ndarray:
    """Every row of the table ``memory`` at the times of ``batch``, summed."""
    limits = batch.limits
    R, n_xi = memory.rows.shape[0], memory.n_xi
    if R == n_xi == 1 and not memory.factors:
        return read_prefix(memory.prefix[0], memory.rows[0], limits)
    parts = read_prefix(memory.prefix[:n_xi], memory.rows[:n_xi], limits)
    if R > n_xi:
        g_prefix = memory.prefix[n_xi:]
        reads = g_reads(batch, memory.window.admitted, g_prefix.shape)
        g_parts = read_prefix(g_prefix, memory.rows[n_xi:], limits, reads)
        parts = np.concatenate([parts, g_parts])
    weight = row_weight(batch, memory)
    if weight is not None:
        with np.errstate(invalid="ignore"):
            parts *= weight
    return np.add.reduce(parts, axis=0)


# ---------------------------------------------------------------------------
# The resolution study as first written: each level a full public solve,
# with its weight found again and its image taken.  ``convergence_table``
# must give the same errors and ratios, bit for bit.


def convergence_table(problem, resolutions, method="picard", tol=1e-12, kmax=200):
    """(errors, ratios) against the Richardson reference of the two finest runs."""
    res = tuple(int(r) for r in resolutions)

    def solve(panels: int) -> np.ndarray:
        p = at_resolution(problem, panels)
        if method == "picard":
            triple, rep = picard_solve(p, tol=tol, kmax=kmax)
        elif method == "segment":
            triple, rep = segment_solve(p, tol=tol, kmax=kmax)
        else:
            raise ValueError(f"unknown method {method!r}")
        if not rep.converged:
            raise UnconvergedRun(panels, rep)
        return triple.xi.values

    base = res[0]
    nseg = problem.grid.num_segments
    sols = []
    for r in res:
        v = solve(r)
        stride = r // base
        w = r + 1
        keep = np.concatenate(
            [l * w + stride * np.arange(base + 1) for l in range(nseg)]
        )
        sols.append(v[keep])
    ref = (4.0 * sols[-1] - sols[-2]) / 3.0
    errors = tuple(float(np.max(np.abs(s - ref))) for s in sols)
    ratios = tuple(
        errors[i] / errors[i + 1] if errors[i + 1] > 0 else math.inf
        for i in range(len(errors) - 1)
    )
    return errors, ratios


# ---------------------------------------------------------------------------
# The residual and the weighted norms of the fixed-impulse values and the
# moving traces, as the package first defined them: ``component_deltas``
# and the image a solver keeps give the same numbers.


def residual(problem, triple) -> float:
    """Unweighted sup distance between the triple and its image."""
    image = apply_operator(problem, triple)
    return max(component_deltas(image, triple, problem, mu=0.0))


def norm_discrete(eta: np.ndarray, tau: np.ndarray, mu: float) -> float:
    """max over fixed impulse times of e^{-mu tau_i} |eta_i| (0 if empty)."""
    _check_mu(mu)
    eta = np.asarray(eta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if eta.shape != tau.shape:
        raise ValueError(f"eta has shape {eta.shape} but tau has shape {tau.shape}")
    if eta.size == 0:
        return 0.0
    return float(np.max(np.exp(-mu * tau) * np.abs(eta)))


def norm_mixed(betas, sigma_values: np.ndarray, mu: float) -> float:
    """max over i and nodes of e^{-mu sigma_i(t)} |beta_i(t)| (0 if empty).

    ``sigma_values`` holds sigma_i evaluated on the grid nodes, one row per
    moving impulse; the weight uses the *moving* time, not the node time.
    """
    _check_mu(mu)
    betas = list(betas)
    if not betas:
        return 0.0
    sigma_values = np.asarray(sigma_values, dtype=float)
    if sigma_values.shape != (len(betas), betas[0].grid.size):
        raise ValueError("sigma_values must be one row of node values per beta")
    best = 0.0
    for i, b in enumerate(betas):
        best = max(best, float(np.max(np.exp(-mu * sigma_values[i]) * np.abs(b.values))))
    return best
