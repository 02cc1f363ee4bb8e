"""The package's public surface: every exported name exists, once."""

import importlib

import hypothesis

import hybrid_volterra
from hybrid_volterra import operator, quadrature


def test_all_names_resolve_once():
    names = hybrid_volterra.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [n for n in names if not hasattr(hybrid_volterra, n)]
    assert not missing, f"exported but undefined: {missing}"


# the names that perfbench/tracing.py wraps and that exist; it skips a
# missing name without a word, so a rename would leave its rows at zero
TRACED = {
    "operator": ("_sc_eval", "apply_operator", "jump_at", "component_deltas",
                 "default_init"),
    "quadrature": ("node_cumulative", "integrate_to", "cube_diagonal"),
    "solvers": ("picard_solve", "segment_solve", "convergence_table"),
    "expressions": ("KernelExpr.evaluate", "parse_kernel", "estimate_lipschitz"),
    "schedule": ("solve_sigma_roots", "check_separation"),
    "contraction": ("find_mu", "contraction_bounds"),
    "problem_io": ("load_problem_file", "write_report", "write_solution_csv",
                   "dump_report"),
    "piecewise": ("PiecewiseFn.eval", "norm_continuous"),
    "series": ("series_solve", "apply_series_operator"),
    "cli": ("main",),
}


def test_traced_names_exist():
    for module, names in TRACED.items():
        mod = importlib.import_module(f"hybrid_volterra.{module}")
        missing = []
        for name in names:
            owner = mod
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(name)
        assert not missing, f"{module} lacks {missing}"


def test_operator_calls_quadrature_through_its_globals():
    # a wrapper or a test's patch on these globals of operator reaches
    # every call that the operator makes: the unguarded cores, under the
    # guard its sweep holds
    for name in ("weight_rows", "_integrate_to", "_node_cumulative", "_row_prefix",
                 "_read_prefix"):
        assert getattr(operator, name) is getattr(quadrature, name)


def test_hypothesis_is_derandomized():
    # tests/conftest.py loads a derandomized profile, so a @given test with
    # no @settings of its own draws the same examples on every run
    assert hypothesis.settings().derandomize
