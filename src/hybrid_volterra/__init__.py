"""Solvers for hybrid Volterra integral equations with impulses.

The equation couples a continuous unknown with jumps at fixed times and at
state-independent moving times, through single and double integral memory
and impulse sums.  The pieces:

- :mod:`.expressions` -- a small kernel language with sampling-based
  Lipschitz estimation, and the split of a kernel into a sum of products
  of factors in disjoint variable groups;
- :mod:`.schedule` -- impulse times, crossing roots, and separation checks;
- :mod:`.piecewise` -- grids with two-sided breakpoint nodes, piecewise
  functions, and the weighted norm of the continuous part;
- :mod:`.quadrature` -- trapezoid rules on those grids by one running
  sum, the prefix of a row or table of rows: read at E upper limits in
  O(N + E), at every node for cumulative integrals, and nested for cube
  integrals; weight rows, O(E N), only for one row per limit;
- :mod:`.operator` -- the fixed-point operator and its three components;
  each memory kernel is split into time factors times node rows, so a
  sweep costs O(N) for every kernel that splits, O(N^2) for a t-free f2
  that does not, O(E N) for an f1 or g that references t and does not,
  and O(N^3) only for such an f2;
- :mod:`.solvers` -- global and segment-marching iteration, plus
  resolution studies;
- :mod:`.contraction` -- bound matrices, the cubic-root criterion, and
  weight search;
- :mod:`.series` -- the symmetric-kernel series form over the cube; a
  kernel that splits into one factor per state slot costs O(n N) per
  sweep at order n, one that does not a size-N^n array;
- :mod:`.problem_io` / :mod:`.cli` -- problem files, CSV output, reports,
  and the ``hv`` command.
"""

from .contraction import (
    ContractionMatrix,
    LipschitzSet,
    NoContractiveWeight,
    bounds_limits,
    char_invariants,
    contraction_bounds,
    criterion_quantities,
    cubic_roots,
    find_mu,
    find_mu_vanishing,
    is_contractive_criterion,
    is_contractive_eigen,
    spectral_radius,
)
from .expressions import (
    EvaluationError,
    ExpressionError,
    KernelExpr,
    estimate_lipschitz,
    parse_kernel,
    symmetrize_second_order,
    zero_kernel,
)
from .operator import (
    HybridProblem,
    SolutionTriple,
    apply_operator,
    component_deltas,
    default_init,
    jump_at,
)
from .piecewise import (
    Grid,
    PiecewiseFn,
    norm_continuous,
    uniform_grid,
)
from .problem_io import (
    LoadedProblem,
    ProblemFileError,
    SolverSettings,
    load_problem_file,
    write_report,
    write_solution_csv,
)
from .schedule import (
    ImpulseSchedule,
    SeparationReport,
    build_breakpoints,
    check_separation,
    solve_sigma_roots,
)
from .series import (
    SeriesProblem,
    nested_equals_cube,
    series_contraction_coefficient,
    series_solve,
)
from .solvers import (
    ConvergenceReport,
    SolveReport,
    convergence_table,
    picard_solve,
    segment_solve,
)

__version__ = "0.1.0"

__all__ = [
    "ContractionMatrix",
    "ConvergenceReport",
    "EvaluationError",
    "ExpressionError",
    "Grid",
    "HybridProblem",
    "ImpulseSchedule",
    "KernelExpr",
    "LipschitzSet",
    "LoadedProblem",
    "NoContractiveWeight",
    "PiecewiseFn",
    "ProblemFileError",
    "SeparationReport",
    "SeriesProblem",
    "SolutionTriple",
    "SolveReport",
    "SolverSettings",
    "apply_operator",
    "bounds_limits",
    "build_breakpoints",
    "char_invariants",
    "check_separation",
    "component_deltas",
    "contraction_bounds",
    "convergence_table",
    "criterion_quantities",
    "cubic_roots",
    "default_init",
    "estimate_lipschitz",
    "find_mu",
    "find_mu_vanishing",
    "is_contractive_criterion",
    "is_contractive_eigen",
    "jump_at",
    "load_problem_file",
    "nested_equals_cube",
    "norm_continuous",
    "parse_kernel",
    "picard_solve",
    "segment_solve",
    "series_contraction_coefficient",
    "series_solve",
    "solve_sigma_roots",
    "spectral_radius",
    "symmetrize_second_order",
    "uniform_grid",
    "write_report",
    "write_solution_csv",
    "zero_kernel",
]
