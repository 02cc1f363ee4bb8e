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
Reports are YAML mappings dumped in insertion order.  Both outputs rewrite
an existing file in place (:func:`_rewrite`).
"""

from __future__ import annotations

import csv
import locale
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .contraction import LipschitzSet
from .expressions import ExpressionError
from .operator import HybridProblem
from .piecewise import PiecewiseFn
from .schedule import ImpulseSchedule
from .series import SeriesProblem


# libyaml's C loader and dumper when PyYAML was built with it: the same
# documents and bytes as the pure-Python classes, several times faster
if yaml.__with_libyaml__:
    _Loader, _Dumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _Loader, _Dumper = yaml.SafeLoader, yaml.SafeDumper


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
        schedule = ImpulseSchedule.build(horizon, tau=tau, sigma=sigma, h=h)
        problem = HybridProblem.build(
            schedule=schedule,
            panels=_panels(doc),
            lipschitz=_lipschitz_map(doc),
            **{key: _as_source(doc, key) for key in _KERNEL_KEYS if key != "x0"},
            x0=_as_source(doc, "x0") or "0",
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
        problem = SeriesProblem.build(
            horizon=horizon,
            y0=_as_source(doc, "y0") or "0",
            kernels=kernels,
            panels=_panels(doc),
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
    the standard library's ``csv.writer``, which :func:`read_solution_csv`
    reads back exactly.  A row that is not a breakpoint writes its one
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


def read_solution_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`write_solution_csv`; returns (t, left, right)."""
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
    """Recursively convert numpy scalars/arrays so YAML can dump them."""
    if isinstance(obj, dict):
        return {k: to_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_builtin(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def dump_report(data: dict) -> str:
    return yaml.dump(
        to_builtin(data), Dumper=_Dumper, sort_keys=False, default_flow_style=False
    )


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
