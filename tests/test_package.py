"""The package's public surface: every exported name exists, once."""

import hybrid_volterra
from hybrid_volterra import operator, quadrature
from hybrid_volterra.expressions import KernelExpr


def test_all_names_resolve_once():
    names = hybrid_volterra.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [n for n in names if not hasattr(hybrid_volterra, n)]
    assert not missing, f"exported but undefined: {missing}"


# the names that perfbench/tracing.py wraps; it skips a missing name without
# a word, so a rename would leave its rows at zero
TRACED = {
    "operator": ("_sc_eval", "apply_operator", "jump_at", "residual",
                 "component_deltas", "default_init"),
    "quadrature": ("node_cumulative", "integrate_to", "cube_diagonal"),
    "problem_io": ("load_problem_file", "write_report", "write_solution_csv",
                   "dump_report"),
}


def test_traced_names_exist():
    for module, names in TRACED.items():
        mod = getattr(hybrid_volterra, module)
        missing = [n for n in names if not callable(getattr(mod, n, None))]
        assert not missing, f"{module} lacks {missing}"
    assert callable(KernelExpr.evaluate)


def test_operator_calls_quadrature_through_its_globals():
    # a wrapper or a test's patch on these globals of operator reaches
    # every call that the operator makes
    for name in ("weight_rows", "integrate_to", "node_cumulative"):
        assert getattr(operator, name) is getattr(quadrature, name)
