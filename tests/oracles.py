"""Reference implementations the tests check the program against.

None of these is on a solver path: each reads back or re-derives what the
program writes, with the standard library or PyYAML doing the work.
"""

import csv

import numpy as np
import yaml

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
