"""Spans around the public entry points of each ``hybrid_volterra`` module.

:func:`install` replaces each entry point with a wrapper that opens a span,
on its own module and wherever another module imported it by name, so that
calls between modules are seen too.  The program's source is not changed.
A :class:`Tracer` keeps per-name totals in memory: calls, inclusive
seconds, and self seconds (a span's duration minus the time its child spans
cover).  Every span nests inside the root span ``cli.main``, so the module
self times of one workload add up to its traced call time.

Operator term times come from the kernel evaluations themselves: inside an
operator span, the term whose kernel was evaluated last owns the time until
the next term's kernel is evaluated or the span ends.  Time before the
first kernel evaluation (forcing, sigma and beta at the evaluation times)
is charged to the first term, x0.
"""

from __future__ import annotations

import importlib
import os
import time

import numpy as np

PACKAGE = "hybrid_volterra"

# module -> entry points that get a span; "Class.method" wraps a method.
ENTRY_POINTS = {
    "quadrature": ("node_cumulative", "integrate_to", "row_integrate_to",
                   "triangle_inner_nodes", "cube_diagonal"),
    "operator": ("apply_operator", "apply_continuous", "apply_discrete",
                 "apply_mixed", "jump_at", "residual", "default_init",
                 "component_deltas", "_sc_eval"),
    "solvers": ("picard_solve", "segment_solve", "convergence_table"),
    "expressions": ("KernelExpr.evaluate", "parse_kernel", "estimate_lipschitz"),
    "schedule": ("solve_sigma_roots", "check_separation"),
    "contraction": ("find_mu", "contraction_bounds"),
    "problem_io": ("load_problem_file", "write_report", "write_solution_csv",
                   "dump_report"),
    "piecewise": ("PiecewiseFn.eval", "norm_continuous", "norm_discrete",
                  "norm_mixed"),
    "series": ("series_solve", "apply_series_operator"),
    "cli": ("main",),
}

MODULES = tuple(ENTRY_POINTS)

# Kernel arities name the operator terms; sigma shares x0's arity, and its
# evaluation happens before x0's, in the part already charged to x0.
TERM_ARITIES = {
    ("t",): "x0",
    ("t", "s", "x"): "f1",
    ("t", "s", "s1", "x", "x1"): "f2",
    ("t", "tau", "eta"): "G1",
    ("t", "taui", "tauj", "etai", "etaj"): "G2",
    ("t", "sig", "tau", "beta", "eta"): "G3",
    ("t", "s", "sig", "tau", "x", "beta", "eta"): "g",
}
TERMS = ("x0", "f1", "f2", "G1", "G2", "G3", "g")
# operator spans that evaluate kernels outside the operator formula
NOT_TERMS = frozenset(("operator.default_init",))


class _Frame:
    __slots__ = ("name", "module", "start", "child", "term", "term_start")

    def __init__(self, name: str, module: str, start: float):
        self.name = name
        self.module = module
        self.start = start
        self.child = 0.0
        self.term = None
        self.term_start = start


class Tracer:
    """Span totals kept in memory: ``stats[name] = [calls, seconds, self seconds]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        """Forget all totals; only call between spans."""
        self.stats: dict[str, list] = {}
        self.terms = dict.fromkeys(TERMS, 0.0)
        self.counters: dict[str, float] = {}
        self._stack: list[_Frame] = []

    def enter(self, name: str) -> None:
        self._stack.append(_Frame(name, name.split(".", 1)[0], self.clock()))

    def exit(self) -> float:
        frame = self._stack.pop()
        now = self.clock()
        if frame.term is not None:
            self.terms[frame.term] += now - frame.term_start
        duration = now - frame.start
        st = self.stats.setdefault(frame.name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        return duration

    def mark_term(self, term: str) -> None:
        """A kernel of ``term`` is about to be evaluated."""
        if not self._stack:
            return
        frame = self._stack[-1]
        if frame.module != "operator" or frame.name in NOT_TERMS or frame.term == term:
            return
        now = self.clock()
        if frame.term is not None:
            self.terms[frame.term] += now - frame.term_start
            frame.term_start = now
        frame.term = term

    def in_module(self, module: str) -> bool:
        return any(f.module == module for f in self._stack)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def module_self(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_s
        return out


def _nbytes(value) -> int:
    return int(value.nbytes) if isinstance(value, np.ndarray) else 0


def _wrap(tracer: Tracer, module: str, name: str, fn):
    span = f"{module}.{name.rsplit('.', 1)[-1]}"
    if module == "quadrature":
        def quadrature_span(*args, **kwargs):
            if not tracer.in_module("quadrature") and len(args) > 1:
                tracer.count("quadrature.bytes_in", _nbytes(args[1]))
            tracer.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        return quadrature_span
    if name == "KernelExpr.evaluate":
        def evaluate_span(self, bindings):
            term = TERM_ARITIES.get(getattr(self, "arity", None))
            if term is not None:
                tracer.mark_term(term)
            tracer.enter(span)
            try:
                return fn(self, bindings)
            finally:
                tracer.exit()
        return evaluate_span
    if module == "problem_io" and name.startswith("write_"):
        def write_span(path, *args, **kwargs):
            tracer.enter(span)
            try:
                return fn(path, *args, **kwargs)
            finally:
                tracer.exit()
                if os.path.exists(path):
                    tracer.count("problem_io.bytes_written", os.path.getsize(path))
        return write_span
    if module in ("solvers", "series") and name.endswith("_solve"):
        def solve_span(*args, **kwargs):
            tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer.count(f"{module}.sweeps", result[1].iterations)
            return result
        return solve_span

    def plain_span(*args, **kwargs):
        tracer.enter(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return plain_span


def install(tracer: Tracer):
    """Wrap every entry point that exists; return a function that undoes it."""
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    everything = list(modules.values()) + [importlib.import_module(PACKAGE)]
    undo = []
    for module, names in ENTRY_POINTS.items():
        mod = modules[module]
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(mod, cls_name, None)
                fn = getattr(cls, attr, None) if cls is not None else None
                if fn is None:
                    continue
                setattr(cls, attr, _wrap(tracer, module, name, fn))
                undo.append((cls, attr, fn))
                continue
            fn = getattr(mod, name, None)
            if fn is None:
                continue
            wrapper = _wrap(tracer, module, name, fn)
            for other in everything:
                if getattr(other, name, None) is fn:
                    setattr(other, name, wrapper)
                    undo.append((other, name, fn))

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall
