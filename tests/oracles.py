"""Reference implementations the tests check the program against.

None of these is on a solver path: each reads back or re-derives what the
program writes, with the standard library or PyYAML doing the work, or
computes what it computes in the plainest way.
"""

import csv
from typing import Mapping

import numpy as np
import yaml

from hybrid_volterra.expressions import (
    EvaluationError,
    Number,
    _BinOp,
    _Call,
    _Neg,
    _Num,
    _Var,
)
from hybrid_volterra.problem_io import ProblemFileError


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
