"""Problem files, solution tables, and report serialization.

A problem file is a small YAML mapping.  For the integral equation with
impulses the keys are::

    horizon: 1.0                # required, T > 0
    x0: "exp(t)"                # kernels; omitted keys mean zero
    f1: "x * s"                 # arguments: f1(t, s, x)
    f2: "x * x1"                # f2(t, s, s1, x, x1)
    G1: "0.1 * eta"             # G1(t, tau, eta)
    G2: "..."                   # G2(t, taui, tauj, etai, etaj)
    G3: "..."                   # G3(t, sig, tau, beta, eta)
    g:  "..."                   # g(t, s, sig, tau, x, beta, eta)
    tau: [0.4, 1.75]            # fixed impulse times
    sigma: ["0.5 + 0.55*t"]     # moving impulse times, expressions in t
    h: 0.1                      # separation scale, defaults to horizon
    lipschitz: {L1: 1.0, ...}   # any of the eleven constants, rest zero
    quadrature: {nodes_per_segment: 256}
    solver: {mu: 2.0, tol: 1.0e-10, kmax: 200}

A series problem sets ``kind: series`` and replaces the kernel keys with
``y0`` and ``kernels`` (one expression per order, order n in arguments
``t, s1..sn, x1..xn``); ``lipschitz`` becomes a list with one constant per
order, and ``allow_high_order: true`` lifts the order cap: an order above
three whose kernel does not split into one factor per ``(s_i, x_i)`` slot
integrates over a size-nodes^n array, and is refused without it.

Solutions are written as CSV with header ``t,x_left,x_right``, one row per
distinct grid time; away from breakpoints the two value columns coincide.
Reports are YAML mappings in insertion order, written by a small block
emitter (:func:`dump_report`) byte for byte as PyYAML's block dump writes
them; PyYAML only parses, when a problem file is loaded.  Both outputs
rewrite an existing file in place (:func:`_rewrite`).
"""

from __future__ import annotations

import locale
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .contraction import LipschitzSet
from .expressions import ExpressionError, KernelExpr, parse_kernel, zero_kernel
from .operator import ARITIES, HybridProblem
from .piecewise import PiecewiseFn
from .schedule import ImpulseSchedule
from .series import SeriesProblem, series_arity


# libyaml's C loader when PyYAML was built with it: the same documents
# as the pure-Python class, several times faster
_Loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class ProblemFileError(ValueError):
    """A problem file that cannot be parsed or fails validation."""


_KERNEL_KEYS = ("x0", "f1", "f2", "G1", "G2", "G3", "g")
_LIPSCHITZ_KEYS = (
    "L1", "L21", "L22", "LG1", "LG21", "LG22",
    "LG31", "LG32", "Lg1", "Lg2", "Lg3",
)
_HYBRID_KEYS = frozenset(
    _KERNEL_KEYS + ("kind", "horizon", "tau", "sigma", "h",
                    "lipschitz", "quadrature", "solver")
)
_SERIES_KEYS = frozenset(
    ("kind", "horizon", "y0", "kernels", "lipschitz",
     "quadrature", "solver", "allow_high_order")
)


@dataclass(frozen=True)
class SolverSettings:
    """Iteration controls; file values are defaults the CLI may override."""

    mu: float | None = None
    tol: float = 1e-10
    kmax: int = 200


@dataclass(frozen=True)
class LoadedProblem:
    kind: str  # "hybrid" or "series"
    problem: HybridProblem | SeriesProblem
    settings: SolverSettings


def _as_real(doc: dict, key: str, default=None, positive=False):
    if key not in doc or doc[key] is None:
        return default
    return _real(key, doc[key], positive)


def _real(key: str, v, positive=False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ProblemFileError(f"{key}: expected a number, got {v!r}")
    v = float(v)
    if not np.isfinite(v):
        raise ProblemFileError(f"{key}: must be finite")
    if positive and v <= 0:
        raise ProblemFileError(f"{key}: must be positive, got {v}")
    return v


def _as_source(doc: dict, key: str):
    if key not in doc or doc[key] is None:
        return None
    v = doc[key]
    if isinstance(v, bool) or isinstance(v, (int, float)):
        return repr(float(v))  # bare numbers read as constant kernels
    if not isinstance(v, str):
        raise ProblemFileError(f"{key}: expected an expression string, got {v!r}")
    return v


def _kernel(key: str, source: str | None, arity) -> KernelExpr | None:
    """``source`` parsed over ``arity``, None for None; a syntax error is
    named by its ``key`` in the file."""
    if source is None:
        return None
    try:
        return parse_kernel(source, arity)
    except ExpressionError as exc:
        raise ProblemFileError(f"{key}: {exc}") from None


def _check_keys(doc: dict, allowed: frozenset, what: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ProblemFileError(f"unknown {what} key(s): {', '.join(unknown)}")


def _solver_settings(doc: dict) -> SolverSettings:
    block = doc.get("solver") or {}
    if not isinstance(block, dict):
        raise ProblemFileError("solver: expected a mapping")
    _check_keys(block, frozenset(("mu", "tol", "kmax")), "solver")
    mu = _as_real(block, "mu", None, positive=True)
    tol = _as_real(block, "tol", 1e-10, positive=True)
    kmax = block.get("kmax", 200)
    if isinstance(kmax, bool) or not isinstance(kmax, int) or kmax < 1:
        raise ProblemFileError(f"solver.kmax: expected a positive integer, got {kmax!r}")
    return SolverSettings(mu=mu, tol=tol, kmax=kmax)


def _panels(doc: dict) -> int:
    block = doc.get("quadrature") or {}
    if not isinstance(block, dict):
        raise ProblemFileError("quadrature: expected a mapping")
    _check_keys(block, frozenset(("nodes_per_segment",)), "quadrature")
    n = block.get("nodes_per_segment", 256)
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ProblemFileError(
            f"quadrature.nodes_per_segment: expected an integer >= 2, got {n!r}"
        )
    return n


def _lipschitz_map(doc: dict) -> LipschitzSet | None:
    block = doc.get("lipschitz")
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ProblemFileError("lipschitz: expected a mapping of constants")
    _check_keys(block, frozenset(_LIPSCHITZ_KEYS), "lipschitz")
    vals = {}
    for key in _LIPSCHITZ_KEYS:
        v = _as_real(block, key, 0.0)
        if v < 0:
            raise ProblemFileError(f"lipschitz.{key}: must be nonnegative")
        vals[key] = v
    return LipschitzSet(**vals)


def _load_hybrid(doc: dict) -> LoadedProblem:
    _check_keys(doc, _HYBRID_KEYS, "problem")
    horizon = _as_real(doc, "horizon", positive=True)
    if horizon is None:
        raise ProblemFileError("horizon: required")
    tau = doc.get("tau") or []
    if not isinstance(tau, (list, tuple)):
        raise ProblemFileError("tau: expected a list of times")
    tau = [_real(f"tau[{k}]", t) for k, t in enumerate(tau)]
    sigma = doc.get("sigma") or []
    if not isinstance(sigma, (list, tuple)) or not all(
        isinstance(s, str) for s in sigma
    ):
        raise ProblemFileError("sigma: expected a list of expression strings")
    h = _as_real(doc, "h", None, positive=True)
    try:
        sigma = [_kernel(f"sigma[{k}]", s, ("t",)) for k, s in enumerate(sigma)]
        schedule = ImpulseSchedule.build(horizon, tau=tau, sigma=sigma, h=h)
        panels, lipschitz = _panels(doc), _lipschitz_map(doc)
        sources = {key: _as_source(doc, key) for key in _KERNEL_KEYS if key != "x0"}
        sources["x0"] = _as_source(doc, "x0") or None  # absent or empty: zero
        problem = HybridProblem.build(
            schedule=schedule,
            panels=panels,
            lipschitz=lipschitz,
            **{key: _kernel(key, sources[key], ARITIES[key]) for key in _KERNEL_KEYS},
        )
    except (ExpressionError, ValueError) as exc:
        raise ProblemFileError(str(exc)) from None
    return LoadedProblem("hybrid", problem, _solver_settings(doc))


def _load_series(doc: dict) -> LoadedProblem:
    _check_keys(doc, _SERIES_KEYS, "series problem")
    horizon = _as_real(doc, "horizon", positive=True)
    if horizon is None:
        raise ProblemFileError("horizon: required")
    kernels = doc.get("kernels") or []
    if not isinstance(kernels, (list, tuple)) or not all(
        k is None or isinstance(k, str) for k in kernels
    ):
        raise ProblemFileError("kernels: expected a list of expression strings")
    lipschitz = doc.get("lipschitz")
    if lipschitz is not None:
        if not isinstance(lipschitz, (list, tuple)):
            raise ProblemFileError("lipschitz: expected a list, one value per order")
        lipschitz = [
            _as_real({"lipschitz": v}, "lipschitz") for v in lipschitz
        ]
    allow = doc.get("allow_high_order", False)
    if not isinstance(allow, bool):
        raise ProblemFileError("allow_high_order: expected true or false")
    try:
        y0, panels = _as_source(doc, "y0"), _panels(doc)
        kernels = [_kernel(f"kernels[{k}]", src, series_arity(k + 1))
                   for k, src in enumerate(kernels)]
        problem = SeriesProblem.build(
            horizon=horizon,
            y0=_kernel("y0", y0, ("t",)) if y0 else zero_kernel(("t",)),
            kernels=kernels,
            panels=panels,
            lipschitz=lipschitz,
            allow_high_order=allow,
        )
    except (ExpressionError, ValueError) as exc:
        raise ProblemFileError(str(exc)) from None
    return LoadedProblem("series", problem, _solver_settings(doc))


def load_problem_file(path) -> LoadedProblem:
    """Read and validate a problem file; raises ProblemFileError on bad input."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc.strerror or exc}") from None
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ProblemFileError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: expected a mapping at top level")
    kind = doc.get("kind", "hybrid")
    if kind == "hybrid":
        return _load_hybrid(doc)
    if kind == "series":
        return _load_series(doc)
    raise ProblemFileError(f"kind: expected 'hybrid' or 'series', got {kind!r}")


def _row_nodes(xi: PiecewiseFn) -> tuple[np.ndarray, np.ndarray]:
    """The left node of each row of :func:`solution_rows`, and whether the
    row pairs it with the next node (a breakpoint) for its right value."""
    times = xi.grid.times
    close = np.diff(times) <= 1e-12 * np.maximum(1.0, np.abs(times[:-1]))
    # a pair starts at an odd offset into a run of close neighbours
    idx = np.arange(close.size)
    last_apart = np.maximum.accumulate(np.where(close, -1, idx))
    starts = np.append(close & ((idx - last_apart) % 2 == 1), False)
    rows = np.flatnonzero(~np.insert(starts[:-1], 0, False))
    return rows, starts[rows]


def solution_rows(xi: PiecewiseFn) -> list[tuple[float, float, float]]:
    """(t, left value, right value) per distinct grid time, in order.

    Interior breakpoints occupy two consecutive grid nodes carrying the
    one-sided values; they collapse to a single row here.  Two consecutive
    nodes whose times agree to 1e-12 (relative beyond 1) are one row, taken
    greedily from the left: of three such nodes the first two pair and the
    third stands alone.
    """
    rows, paired = _row_nodes(xi)
    values = xi.values
    columns = (xi.grid.times[rows], values[rows], values[rows + paired])
    return list(zip(*(c.tolist() for c in columns)))


def write_solution_csv(path, xi: PiecewiseFn) -> None:
    """:func:`solution_rows` under the header ``t,x_left,x_right``.

    Each value is written as its ``repr``, rows end in CRLF: the bytes of
    the standard library's ``csv.writer``, which ``csv.reader`` and
    ``float`` read back exactly.  A row that is not a breakpoint writes its one
    value's text twice, so each value is formatted once.
    """
    rows, paired = _row_nodes(xi)
    values = xi.values
    t = map(repr, xi.grid.times[rows].tolist())
    left = [repr(v) for v in values[rows].tolist()]
    right = left.copy()
    for k in np.flatnonzero(paired).tolist():
        right[k] = repr(float(values[rows[k] + 1]))
    lines = [f"{a},{b},{c}\r\n" for a, b, c in zip(t, left, right)]
    _rewrite(path, "".join(["t,x_left,x_right\r\n", *lines]))


# Reports are written by the block emitter below, which reproduces what
# ``yaml.dump(report, Dumper=yaml.CSafeDumper, sort_keys=False,
# default_flow_style=False)`` writes byte for byte: libyaml's block layout,
# its choice among plain, single- and double-quoted strings, and its
# folding of long scalars at width 80.  Names in comments are libyaml's.

_WIDTH = 80  # best_width: a scalar folds at a space past this column
_PLAIN, _SINGLE, _DOUBLE = 0, 1, 2
_INF = float("inf")

# a character other than a printable ASCII one or a line feed: libyaml
# writes such a string double-quoted, with escapes (it is not in unicode mode)
_SPECIAL = re.compile(r"[^\n -~]")
# a leading indicator, or one that ends a plain scalar's first token
_LEADING_INDICATOR = re.compile(r"""[ #,\[\]{}&*!|>'"%@`]|[-?:](?: |\Z)|---|\.\.\.""")
_LINE_BREAKS = frozenset("\n\r\x85\u2028\u2029")
# the plain scalars the loader would not read back as strings ("yes",
# "null", "1.5", "2001-01-01", ...), by first character
_IMPLICIT = yaml.resolver.Resolver.yaml_implicit_resolvers
_ESCAPES = {
    "\0": "0", "\a": "a", "\b": "b", "\t": "t", "\n": "n", "\v": "v",
    "\f": "f", "\r": "r", "\x1b": "e", '"': '"', "\\": "\\", "\x85": "N",
    "\xa0": "_", "\u2028": "L", "\u2029": "P",
}


def _string_style(s: str) -> int:
    """The style libyaml's ``yaml_emitter_select_scalar_style`` gives ``s``
    in block context, outside a simple key."""
    if s.isidentifier() and s.isascii():
        # letters, digits and underscores: no indicator, no space
        return _SINGLE if _typed(s) else _PLAIN
    if not s:
        return _SINGLE  # a plain empty scalar reads back as null
    if _SPECIAL.search(s):
        return _DOUBLE
    if "\n" in s:
        # a space next to a line break would not survive single quotes
        return _DOUBLE if " \n" in s or "\n " in s else _SINGLE
    if (
        s[-1] in " :"
        or ": " in s
        or " #" in s
        or _LEADING_INDICATOR.match(s)
        or _typed(s)
    ):
        return _SINGLE
    return _PLAIN


def _typed(s: str) -> bool:
    """Whether the loader reads the plain scalar ``s`` as other than a string."""
    for _, regexp in _IMPLICIT.get(s[0], ()):
        if regexp.match(s):
            return True
    return False


def _float_text(v: float) -> str:
    """``SafeRepresenter.represent_float``: ``repr``, and a fraction before
    an exponent so that the text reads back as a float."""
    if v != v:
        return ".nan"
    if v == _INF:
        return ".inf"
    if v == -_INF:
        return "-.inf"
    text = float.__repr__(v)
    if "." not in text and "e" in text:
        text = text.replace("e", ".0e", 1)
    return text


def _scalar(v) -> tuple[str, int]:
    """The text and style of a scalar as the safe representer gives them."""
    kind = type(v)
    if kind is str:
        return v, _string_style(v)
    if kind is float:
        return _float_text(v), _PLAIN
    if kind is bool:
        return ("true" if v else "false"), _PLAIN
    if kind is int:
        return int.__repr__(v), _PLAIN
    if v is None:
        return "null", _PLAIN
    if isinstance(v, np.generic):
        # numpy 2 spells repr(np.float64(2.0)) "np.float64(2.0)"
        return _scalar(v.item())
    raise TypeError(f"cannot write a {kind.__name__} into a report")


class _BlockEmitter:
    """libyaml's emitter state over one report: the text so far, the
    column, and whether the last thing written was whitespace
    (``whitespace``) and the line so far only indentation (``indention``).

    A container's ``indent`` is the column of its keys or dashes; the
    scalars inside it fold to that column plus two.
    """

    __slots__ = ("parts", "column", "whitespace", "indention")

    def __init__(self):
        self.parts = []
        self.column = 0
        self.whitespace = True
        self.indention = True

    def node(self, v, indent: int, in_mapping: bool) -> None:
        """``v`` as a mapping value (``in_mapping``) or a sequence item of
        the container at ``indent``, -1 for the document root."""
        if type(v) is float:
            text, style = _float_text(v), _PLAIN
        elif isinstance(v, dict):
            self.mapping(v, indent)
            return
        elif isinstance(v, (list, tuple, np.ndarray)):
            self.sequence(v.tolist() if isinstance(v, np.ndarray) else v, indent, in_mapping)
            return
        else:
            text, style = _scalar(v)
        if style == _PLAIN and self.column + len(text) < _WIDTH:
            # too short to fold: the common case of write_plain_scalar
            if not self.whitespace:
                text = " " + text
            self.parts.append(text)
            self.column += len(text)
            self.whitespace = self.indention = False
        else:
            self.scalar(text, style, indent + 2, True)

    def mapping(self, data: dict, indent: int) -> None:
        if not data:
            self.indicator("{", True, True, False)
            self.indicator("}", False, False, False)
            return
        indent = indent + 2 if indent >= 0 else 0
        for key, value in data.items():
            self.write_indent(indent)
            text, style = _scalar(key)
            # a simple key (at most 128 bytes, one line) shares the line of
            # its value and is never folded
            if style == _PLAIN and len(text) <= 128:
                # the common case: plain text is ASCII without line breaks
                self.parts.append(text + ":")
                self.column += len(text) + 1
                self.whitespace = self.indention = False
            elif len(text.encode()) <= 128 and _LINE_BREAKS.isdisjoint(text):
                self.scalar(text, style, indent + 2, False)
                self.indicator(":", False, False, False)
            else:
                self.indicator("?", True, False, True)
                self.scalar(text, style, indent + 2, True)
                self.write_indent(indent)
                self.indicator(":", True, False, True)
            self.node(value, indent, True)

    def sequence(self, items, indent: int, in_mapping: bool) -> None:
        if not items:
            self.indicator("[", True, True, False)
            self.indicator("]", False, False, False)
            return
        # the sequence value of a simple key has its dashes at the key's column
        if not in_mapping or self.indention:
            indent += 2
        for item in items:
            self.write_indent(indent)
            self.indicator("-", True, False, True)
            self.node(item, indent, False)

    def write_indent(self, indent: int) -> None:
        if (not self.indention or self.column > indent
                or (self.column == indent and not self.whitespace)):
            self.parts.append("\n")
            self.column = 0
        if self.column < indent:
            self.parts.append(" " * (indent - self.column))
            self.column = indent
        self.whitespace = True
        self.indention = True

    def indicator(self, text: str, need_space: bool, is_whitespace: bool,
                  is_indention: bool) -> None:
        if need_space and not self.whitespace:
            text = " " + text
        self.parts.append(text)
        self.column += len(text)
        self.whitespace = is_whitespace
        self.indention = self.indention and is_indention

    def scalar(self, text: str, style: int, indent: int, allow_breaks: bool) -> None:
        if style == _PLAIN:
            self.plain(text, indent, allow_breaks)
        elif style == _SINGLE:
            self.single_quoted(text, indent, allow_breaks)
        else:
            self.double_quoted(text, indent, allow_breaks)
        self.whitespace = False
        self.indention = False

    def plain(self, s: str, indent: int, allow_breaks: bool) -> None:
        """``yaml_emitter_write_plain_scalar``, for a scalar with no line break."""
        if not self.whitespace:
            self.parts.append(" ")
            self.column += 1
        self.line(s, indent, allow_breaks, False)

    def single_quoted(self, s: str, indent: int, allow_breaks: bool) -> None:
        """``yaml_emitter_write_single_quoted_scalar``."""
        self.indicator("'", True, False, False)
        if "\n" not in s:
            self.line(s, indent, allow_breaks, True)
        else:
            spaces = breaks = False
            last = len(s) - 1
            for i, ch in enumerate(s):
                if ch == " ":
                    if (allow_breaks and not spaces and self.column > _WIDTH
                            and 0 < i < last and s[i + 1] != " "):
                        self.write_indent(indent)
                    else:
                        self.put(ch)
                    spaces = True
                elif ch == "\n":
                    # one line break reads back as a space: write two
                    if not breaks:
                        self.parts.append("\n")
                    self.parts.append("\n")
                    self.column = 0
                    self.indention = breaks = True
                else:
                    if breaks:
                        self.write_indent(indent)
                    self.put("''" if ch == "'" else ch)
                    self.indention = spaces = breaks = False
            if breaks:
                self.write_indent(indent)
        self.indicator("'", False, False, False)

    def line(self, s: str, indent: int, allow_breaks: bool, quoted: bool) -> None:
        """Write ``s``, which holds no line break, as the plain writer
        (``quoted`` false) or the single-quoted one does: a space past the
        width that is neither first nor last and has no space on either
        side becomes a line break and the indent."""
        start, column = 0, self.column
        if allow_breaks and column + len(s) + (s.count("'") if quoted else 0) > _WIDTH + 1:
            last = len(s) - 1
            i = s.find(" ", 1)
            while 0 < i < last:
                width = i - start + (s.count("'", start, i) if quoted else 0)
                if column + width > _WIDTH and s[i - 1] != " " and s[i + 1] != " ":
                    piece = s[start:i]
                    self.parts.append(piece.replace("'", "''") if quoted else piece)
                    self.column = column + width
                    self.indention = False
                    self.write_indent(indent)
                    start, column = i + 1, self.column
                i = s.find(" ", i + 1)
        piece = s[start:] if start else s
        if quoted:
            piece = piece.replace("'", "''")
        self.parts.append(piece)
        self.column = column + len(piece)

    def double_quoted(self, s: str, indent: int, allow_breaks: bool) -> None:
        """``yaml_emitter_write_double_quoted_scalar`` with every character
        outside printable ASCII escaped."""
        self.indicator('"', True, False, False)
        spaces = False
        last = len(s) - 1
        for i, ch in enumerate(s):
            if ch == " ":
                if allow_breaks and not spaces and self.column > _WIDTH and 0 < i < last:
                    self.write_indent(indent)
                    if s[i + 1] == " ":
                        self.put("\\")
                else:
                    self.put(ch)
                spaces = True
            else:
                if not " " < ch < "\x7f" or ch == '"' or ch == "\\":
                    ch = "\\" + _escape(ch)
                self.put(ch)
                spaces = False
        self.indicator('"', False, False, False)

    def put(self, text: str) -> None:
        self.parts.append(text)
        self.column += len(text)


def _escape(ch: str) -> str:
    """The escape of ``ch`` in a double-quoted scalar, after its backslash."""
    if ch in _ESCAPES:
        return _ESCAPES[ch]
    code = ord(ch)
    if code <= 0xFF:
        return f"x{code:02X}"
    if code <= 0xFFFF:
        return f"u{code:04X}"
    return f"U{code:08X}"


def dump_report(data: dict) -> str:
    """The YAML text of the report mapping ``data``, in insertion order.

    Values are dicts, lists and tuples of str, int, float, bool, None,
    numpy scalars and numpy arrays.  The text is what ``yaml.dump(data,
    Dumper=yaml.CSafeDumper, sort_keys=False, default_flow_style=False)``
    writes, except for a string holding a lone surrogate, which PyYAML
    cannot encode and which is written double-quoted with a ``\\uXXXX``
    escape.
    """
    if not isinstance(data, dict):
        raise TypeError(f"a report is a mapping, not a {type(data).__name__}")
    emitter = _BlockEmitter()
    emitter.node(data, -1, False)
    emitter.write_indent(0)  # the document's final line break
    return "".join(emitter.parts)


# no O_TRUNC (see _rewrite); O_BINARY, where it exists, stops the
# descriptor translating newlines
_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_report(path, data: dict | str) -> None:
    """Write the report ``data``, or the text :func:`dump_report` made of one."""
    text = data if isinstance(data, str) else dump_report(data)
    # text mode wrote each newline as the platform's line separator
    _rewrite(path, text if os.linesep == "\n" else text.replace("\n", os.linesep))


def _rewrite(path, text: str) -> None:
    """Write ``text`` to ``path`` over its old bytes, then cut the file there.

    The bytes, the mode of a new file and the errors are those of
    ``open(path, "w", newline="")``: the locale's preferred encoding, mode
    0o666 less the umask.  Opening an existing file with ``O_TRUNC``
    frees its blocks first, which on some file systems costs far more
    than writing a few kilobytes, so the file is opened without it and
    cut to the new length only when it was longer.  A file that is not
    regular (``/dev/null``, a FIFO, a terminal) is never cut.

    Like ``open(path, "w")`` this is not atomic and does not sync.  A
    write stopped part way leaves the new text's first bytes followed by
    whatever the old file held past them, its old tail included when it
    was longer, where ``open(path, "w")`` would have left the same first
    bytes and nothing after them.
    """
    data = memoryview(text.encode(locale.getpreferredencoding(False)))
    fd = os.open(path, _REWRITE_FLAGS, 0o666)
    try:
        old = os.fstat(fd)
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        if stat.S_ISREG(old.st_mode) and old.st_size > done:
            os.ftruncate(fd, done)
    finally:
        os.close(fd)
