"""Shared problem catalogue for the test suite.

Each builder returns the smallest problem exercising one equation feature;
tests and the acceptance suite share them so cross-module oracles line up.
"""

import numpy as np
import pytest
from hypothesis import settings

from hybrid_volterra import operator, solvers
from hybrid_volterra.contraction import LipschitzSet
from hybrid_volterra.expressions import KernelExpr
from hybrid_volterra.operator import HybridProblem, SolutionTriple, default_init
from hybrid_volterra.piecewise import PiecewiseFn
from hybrid_volterra.schedule import ImpulseSchedule

# Every hypothesis test draws the same examples on every run, one without
# an @settings of its own too: a run of the suite can be repeated.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def make_problem(horizon, *, tau=(), sigma=(), h=None, panels=256,
                 lipschitz=None, **kernels):
    schedule = ImpulseSchedule.build(horizon, tau=tau, sigma=sigma, h=h)
    return HybridProblem.build(
        schedule=schedule, panels=panels, lipschitz=lipschitz, **kernels
    )


def exp_problem(panels=256):
    """x = 1 + int_0^t x ds on [0,1]; solution e^t."""
    return make_problem(1.0, panels=panels, x0="1", f1="x",
                        lipschitz=LipschitzSet(L1=1.0))


def cosh_problem(panels=256):
    """x = 1 + int_0^t int_0^s x(s1) ds1 ds on [0,1]; solution cosh t."""
    return make_problem(1.0, panels=panels, x0="1", f2="x1",
                        lipschitz=LipschitzSet(L22=1.0))


def step_problem(panels=256):
    """x = 1 + sum over tau_i < t of 1, tau = (1,), on [0,2].

    Solution is 1 before the impulse and 2 after; Picard lands on it exactly
    and the second sweep certifies convergence.
    """
    return make_problem(2.0, tau=(1.0,), h=0.5, panels=panels, x0="1", G1="1",
                        lipschitz=LipschitzSet())


def moving_problem(panels=256):
    """Single moving impulse sigma(t) = t/2 feeding a constant third-kind jump.

    tau = (0.5,) gates the inner membership, so the solution steps by one at
    t = 0.5.  No positive separation scale is compatible with sigma
    approaching tau here, which is fine: only the bound matrices need one.
    """
    return make_problem(1.0, tau=(0.5,), sigma=("0.5*t",), h=0.2,
                        panels=panels, x0="0", G3="1")


def g2_problem(panels=128):
    """Three fixed impulses with pairwise second-kind coupling on [0,2]."""
    return make_problem(
        2.0, tau=(0.5, 1.0, 1.5), h=0.4, panels=panels,
        x0="t", G1="0.2", G2="0.1*etai*etaj",
    )


MIXED_LIP = LipschitzSet(
    L1=0.2, L21=0.05, L22=0.05, LG1=0.1, LG21=0.03, LG22=0.03,
    LG31=0.04, LG32=0.01, Lg1=0.02, Lg2=0.01, Lg3=0.01,
)


def mixed_problem(panels=128, f2="0.05*x*x1/(1 + s1^2)"):
    """Every term active at once: fixed and moving impulses, double memory.

    The declared constants bound the kernel slopes on |state| <= 1, which
    covers both the converged solution and the random probes the contraction
    tests feed in, and any ``f2`` whose slopes in x and x1 stay below 0.05
    there.
    """
    return make_problem(
        2.0,
        tau=(0.4, 1.75),
        sigma=("0.5 + 0.55*t",),
        h=0.1,
        panels=panels,
        x0="0.2 + 0.1*t",
        f1="0.2*sin(x) + 0.05*s",
        f2=f2,
        G1="0.1*eta + 0.02",
        G2="0.03*etai*etaj",
        G3="0.04*beta + 0.01*eta",
        g="0.02*x + 0.01*beta*eta",
        lipschitz=MIXED_LIP,
    )


# The benchmark's time-dependent problem at its first variant: f1 and f2
# reference t, G1 is a constant over one fixed impulse, G2, G3 and g are
# absent.  x0 is manufactured so that the solution is exp(t) plus a jump of
# G1 at tau.
TDEP_X0 = (
    "exp(t) - 0.4*t*(exp(t) - 1 + 0.3*max(t - 0.5, 0))"
    " - 0.3*t*(exp(t) - 1 - t + 0.5*0.3*max(t - 0.5, 0)^2)"
)
TDEP_FILE = f"""\
horizon: 1.0
x0: "{TDEP_X0}"
f1: "0.4*t*x"
f2: "0.3*t*x1"
G1: "0.3"
tau: [0.5]
h: 0.4
lipschitz: {{L1: 0.4, L22: 0.3}}
quadrature: {{nodes_per_segment: 64}}
"""


def on_kernel_calls(monkeypatch, record):
    """Call ``record(kernel, bindings, out)`` after every kernel evaluation
    that returns: each public ``KernelExpr.evaluate`` and each walk that a
    sweep makes under its own guard (``operator._walk``)."""
    for owner, name in ((KernelExpr, "evaluate"), (operator, "_walk")):
        def watched(kernel, bindings, original=getattr(owner, name)):
            out = original(kernel, bindings)
            record(kernel, bindings, out)
            return out

        monkeypatch.setattr(owner, name, watched)


def march_segment(problem, deltas):
    """The segment of a march sweep, read from the deltas it takes: the
    plain sups over the segment's nodes, fixed impulses and fresh entries
    (``solvers._sups`` with those indices, nodes first).  None for a picard
    sweep or an image."""
    if getattr(deltas, "func", None) is not solvers._sups:
        return None
    return deltas.args[0][0].start // (problem.grid.panels + 1)


def random_triple(problem, rng, scale=1.0) -> SolutionTriple:
    """A conforming triple with node values uniform in [-scale, scale]."""
    grid = problem.grid
    xi = PiecewiseFn(grid, rng.uniform(-scale, scale, grid.size))
    eta = rng.uniform(-scale, scale, problem.n_tau)
    beta = tuple(
        PiecewiseFn(grid, rng.uniform(-scale, scale, grid.size))
        for _ in range(problem.n_sigma)
    )
    return SolutionTriple(xi, eta, beta)


def view_of(problem, triple):
    """``triple`` as the operator's private functions read it
    (``operator._View``): laid out as the times of one sweep, in a new
    array."""
    return operator._View.of(problem, operator._values(triple))


@pytest.fixture(scope="session")
def mixed_solved():
    """Converged Picard solution of the mixed problem, shared across tests."""
    from hybrid_volterra.solvers import picard_solve

    problem = mixed_problem()
    triple, report = picard_solve(problem, tol=1e-12, kmax=300)
    assert report.converged
    return problem, triple, report
