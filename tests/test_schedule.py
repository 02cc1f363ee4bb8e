"""Impulse schedules: root finding, breakpoint merging, separation checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_volterra.expressions import KernelExpr, parse_kernel
from hybrid_volterra.schedule import (
    ROOT_TOL,
    ImpulseSchedule,
    build_breakpoints,
    check_separation,
    solve_sigma_roots,
)


def _sigma(src):
    return parse_kernel(src, ("t",))


class TestSolveSigmaRoots:
    def test_half_t_has_only_origin(self):
        roots = solve_sigma_roots(_sigma("0.5*t"), 1.0)
        assert roots.tolist() == [0.0]

    def test_shifted_identity_has_no_roots(self):
        roots = solve_sigma_roots(_sigma("t - 0.3"), 1.0)
        assert roots.size == 0

    def test_square_has_zero_and_one(self):
        roots = solve_sigma_roots(_sigma("t^2"), 1.5)
        assert roots.size == 2
        assert roots[0] == 0.0
        assert abs(roots[1] - 1.0) < 1e-9

    def test_residual_bound_holds(self):
        sig = _sigma("0.3*cos(4*t) + 0.4")
        roots = solve_sigma_roots(sig, 2.0)
        assert roots.size >= 1
        for r in roots:
            assert abs(float(sig(t=r)) - r) <= ROOT_TOL

    def test_sorted_output(self):
        roots = solve_sigma_roots(_sigma("0.3*cos(4*t) + 0.4"), 2.0)
        assert np.all(np.diff(roots) > 0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            solve_sigma_roots(_sigma("t"), 0.0)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            solve_sigma_roots(_sigma("0.5*t"), 1.0, grid=1)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).filter(
            lambda a: abs(a - 1.0) >= 0.05
        ),
    )
    def test_affine_unique_root(self, r, a):
        # sigma(t) - t = (a - 1)(t - r): one interior crossing at r
        b = r * (1.0 - a)
        roots = solve_sigma_roots(_sigma(f"{a!r}*t + {b!r}"), 1.0)
        assert roots.size == 1
        assert abs(roots[0] - r) < 1e-9


def _scalar_bisection_roots(sigma, horizon, grid=4096, tol=ROOT_TOL):
    """The roots by scalar bisection, one evaluation per step: the
    reference the batched refinement must stay within 1e-15 of."""
    ts = np.linspace(0.0, horizon, grid + 1)
    d = np.asarray(sigma.evaluate({"t": ts}), dtype=float) - ts
    roots = [float(t) for t in ts[np.abs(d) <= tol]]
    sign = np.sign(d)
    for k in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        lo, hi, flo = float(ts[k]), float(ts[k + 1]), float(d[k])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = float(sigma.evaluate({"t": mid})) - mid
            if fmid == 0.0 or (hi - lo) < max(tol * 1e-3, 1e-15):
                break
            if (flo < 0) == (fmid < 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        r = 0.5 * (lo + hi)
        if abs(float(sigma.evaluate({"t": r})) - r) <= tol:
            roots.append(r)
    roots.sort()
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-10:
            merged.append(r)
    return np.asarray(merged)


# sigmas of this file and of problems/*.yaml, with a horizon each; then
# many roots, and a root at 9.2, where an ulp is wider than the final
# bracket, so scalar bisection runs all of its 200 steps
BATCHED_CASES = [
    ("0.5*t", 1.0), ("t^2", 1.5), ("0.3*cos(4*t) + 0.4", 2.0), ("0.5 + 0.55*t", 2.0),
    ("t - 0.3*sin(5*t)", 8.0), ("0.5*t + 0.25*sin(3*t)^2", 4.0), ("0.5*t + 4.6", 10.0),
]


class TestBatchedRefinement:
    @pytest.mark.parametrize("src, horizon", BATCHED_CASES)
    def test_matches_scalar_bisection(self, src, horizon):
        sig = _sigma(src)
        roots = solve_sigma_roots(sig, horizon)
        reference = _scalar_bisection_roots(sig, horizon)
        assert roots.shape == reference.shape
        assert np.max(np.abs(roots - reference), initial=0.0) <= 1e-15

    def test_ill_conditioned_crossing(self):
        # the slope of sigma(t) - t is -0.054, so its computed sign flips back
        # and forth over some 18 ulps around the root; any point there is a
        # root to rounding, and the two methods may settle on different ones
        sig = _sigma("0.9459132652394593*t + 0.044529021172731754")
        (root,) = solve_sigma_roots(sig, 1.0)
        (reference,) = _scalar_bisection_roots(sig, 1.0)
        assert abs(root - reference) <= 32 * np.spacing(reference)
        assert abs(float(sig(t=root)) - root) <= 4 * np.spacing(root)

    @pytest.mark.parametrize("src, horizon", BATCHED_CASES)
    def test_few_evaluations_after_the_scan(self, monkeypatch, src, horizon):
        sig = _sigma(src)
        calls = []
        evaluate = KernelExpr.evaluate

        def counting(self, bindings):
            calls.append(np.shape(bindings["t"]))
            return evaluate(self, bindings)

        monkeypatch.setattr(KernelExpr, "evaluate", counting)
        roots = solve_sigma_roots(sig, horizon)
        assert roots.size >= 1
        assert calls[0] == (4097,) and len(calls) - 1 <= 8


class TestBuildBreakpoints:
    def test_union_and_partition(self):
        bps, part = build_breakpoints([0.5, 1.0], [np.array([0.25])], 1.5)
        assert bps.tolist() == [0.25, 0.5, 1.0]
        assert part.tolist() == [0.0, 0.25, 0.5, 1.0, 1.5]

    def test_empty_inputs(self):
        bps, part = build_breakpoints([], [], 2.0)
        assert bps.size == 0
        assert part.tolist() == [0.0, 2.0]

    def test_coincident_points_merge(self):
        bps, _ = build_breakpoints([0.5], [np.array([0.5])], 1.0)
        assert bps.tolist() == [0.5]

    def test_nearly_coincident_points_merge(self):
        bps, _ = build_breakpoints([0.5], [np.array([0.5 + 5e-11])], 1.0)
        assert len(bps) == 1

    @pytest.mark.parametrize("tau, root", [(1.0 + 5e-11, 1.0), (1.0, 1.0 + 5e-11)],
                             ids=["tau-after-root", "tau-before-root"])
    def test_fixed_time_is_the_merged_breakpoint(self, tau, root):
        bps, part = build_breakpoints([tau], [np.array([root])], 2.0)
        assert bps.tolist() == [tau]
        assert part.tolist() == [0.0, tau, 2.0]

    def test_endpoint_values_kept_out_of_partition_interior(self):
        bps, part = build_breakpoints([], [np.array([0.0, 1.0])], 1.0)
        assert bps.tolist() == [0.0, 1.0]
        assert part.tolist() == [0.0, 1.0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1.99, allow_nan=False), max_size=6
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, points, rnd):
        shuffled = list(points)
        rnd.shuffle(shuffled)
        a, pa = build_breakpoints(points, [], 2.0)
        b, pb = build_breakpoints(shuffled, [], 2.0)
        assert a.tolist() == b.tolist()
        assert pa.tolist() == pb.tolist()


class TestImpulseSchedule:
    def test_build_merges_tau_and_roots(self):
        sched = ImpulseSchedule.build(2.0, tau=(1.0,), sigma=("0.5*t",), h=0.2)
        assert sched.n_tau == 1 and sched.n_sigma == 1
        assert sched.roots[0].tolist() == [0.0]
        assert sched.breakpoints.tolist() == [0.0, 1.0]
        assert sched.partition.tolist() == [0.0, 1.0, 2.0]

    def test_default_h_is_horizon(self):
        sched = ImpulseSchedule.build(3.0, tau=(1.0,))
        assert sched.h == 3.0

    def test_tau_must_be_interior(self):
        with pytest.raises(ValueError):
            ImpulseSchedule.build(1.0, tau=(0.0,))
        with pytest.raises(ValueError):
            ImpulseSchedule.build(1.0, tau=(1.0,))

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_tau_must_be_finite(self, tau):
        with pytest.raises(ValueError, match="fixed impulse times"):
            ImpulseSchedule.build(1.0, tau=(tau,), sigma=("t/2",))

    def test_tau_must_increase(self):
        with pytest.raises(ValueError):
            ImpulseSchedule.build(1.0, tau=(0.5, 0.5))

    @pytest.mark.parametrize("tau", [(0.7, 0.7 + 5e-11), (5e-11, 0.7)],
                             ids=["near-each-other", "near-zero"])
    def test_tau_within_merge_tolerance_rejected(self, tau):
        # such a time could not be a breakpoint of its own
        with pytest.raises(ValueError, match="fixed impulse times"):
            ImpulseSchedule.build(1.0, tau=tau, h=0.1)

    def test_sigma_range_checked(self):
        with pytest.raises(ValueError):
            ImpulseSchedule.build(1.0, sigma=("2*t",))

    def test_sigma_arity_checked(self):
        with pytest.raises(Exception):
            ImpulseSchedule.build(1.0, sigma=("s",))

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            ImpulseSchedule.build(1.0, tau=(0.5,), h=0.0)

    def test_sigma_values_shape(self):
        sched = ImpulseSchedule.build(1.0, sigma=("0.5*t", "0.5*t + 0.1"), h=0.05)
        vals = sched.sigma_values(np.linspace(0, 1, 5))
        assert vals.shape == (2, 5)
        assert np.allclose(vals[1] - vals[0], 0.1)


    def test_value_equality(self):
        def build(**kw):
            args = dict(tau=(1.0,), sigma=("0.5*t",), h=0.2) | kw
            return ImpulseSchedule.build(2.0, **args)

        a, b = build(), build()
        assert a == b and hash(a) == hash(b)
        assert a != build(tau=(1.5,))
        assert a != build(sigma=("0.4*t",))
        assert a != build(h=0.3)
        assert a != ImpulseSchedule.build(3.0, tau=(1.0,), sigma=("0.5*t",), h=0.2)


class TestCheckSeparation:
    def test_tau_gap_pass(self):
        sched = ImpulseSchedule.build(2.0, tau=(0.5, 1.0), h=0.4)
        rep = check_separation(sched)
        assert rep.ok and rep.clause is None

    def test_tau_gap_fail(self):
        sched = ImpulseSchedule.build(2.0, tau=(0.5, 1.0), h=0.6)
        rep = check_separation(sched)
        assert not rep.ok
        assert rep.clause == "tau-gap"
        assert rep.indices == (1, 2)
        assert rep.time == 1.0

    def test_sigma_gap_fail(self):
        sched = ImpulseSchedule.build(
            1.0, sigma=("0.1*t", "0.1*t + 0.05"), h=0.1
        )
        rep = check_separation(sched)
        assert not rep.ok
        assert rep.clause == "sigma-gap"
        assert rep.indices == (1, 2)

    def test_tau_sigma_gap_fail(self):
        sched = ImpulseSchedule.build(1.0, tau=(0.5,), sigma=("0.45",), h=0.1)
        rep = check_separation(sched)
        assert not rep.ok
        assert rep.clause == "tau-sigma-gap"
        assert rep.indices == (1, 1)

    def test_sigma_cross_gap_fail(self):
        # the pairwise gap sigma_2 - sigma_1 = 0.2 >= h everywhere, but for
        # s <= sigma_1(t) the cross difference sigma_2(t) - sigma_1(s)
        # shrinks below h because sigma_1 is decreasing
        sched = ImpulseSchedule.build(
            1.0, sigma=("0.4 - 0.3*t", "0.6 - 0.3*t"), h=0.15
        )
        rep = check_separation(sched)
        assert not rep.ok
        assert rep.clause == "sigma-cross-gap"
        assert rep.indices == (1, 2)

    def test_detail_mentions_violation(self):
        sched = ImpulseSchedule.build(2.0, tau=(0.5, 1.0), h=0.6)
        rep = check_separation(sched)
        assert "0.5" in rep.detail and "0.6" in rep.detail
