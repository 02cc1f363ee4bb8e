"""Contraction analysis: invariants, disk criterion, bound matrix, mu search."""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybrid_volterra import cli
from hybrid_volterra.contraction import (
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
from hybrid_volterra.problem_io import load_problem_file

HALF = np.diag([0.5, 0.5, 0.5])
COMPANION = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.9, 0.0, 0.0]])


class TestCharInvariants:
    def test_diagonal_half(self):
        assert char_invariants(HALF) == (1.5, 0.75, 0.125)

    def test_zero(self):
        assert char_invariants(np.zeros((3, 3))) == (0.0, 0.0, 0.0)

    def test_companion(self):
        assert char_invariants(COMPANION) == (0.0, 0.0, 0.9)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            char_invariants(np.ones((2, 2)))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_trace_and_det(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, (3, 3))
        tr, s2, d = char_invariants(a)
        assert tr == pytest.approx(np.trace(a), abs=1e-12)
        assert d == pytest.approx(np.linalg.det(a), abs=1e-10)
        # S2 = sum of principal 2x2 minors
        minors = sum(
            np.linalg.det(a[np.ix_([i, j], [i, j])])
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert s2 == pytest.approx(minors, abs=1e-10)


class TestCriterion:
    def test_zero_matrix(self):
        assert criterion_quantities(np.zeros((3, 3))) == (1.0, 3.0, 1.0, 8.0)
        assert is_contractive_criterion(np.zeros((3, 3)))

    def test_diagonal_half_quantities(self):
        assert criterion_quantities(HALF) == (0.125, 1.125, 3.375, 3.375)
        assert is_contractive_criterion(HALF)

    def test_eigenvalue_two_rejected(self):
        m = np.diag([2.0, 0.0, 0.0])
        q = criterion_quantities(m)
        assert q[0] == -1.0
        assert not is_contractive_criterion(m)

    def test_negative_eigenvalue_rejected_by_p3(self):
        assert not is_contractive_criterion(np.diag([-2.0, 0.0, 0.0]))

    def test_triple_negative_rejected_by_p1(self):
        m = np.diag([-2.0, -2.0, -2.0])
        assert criterion_quantities(m)[1] == -27.0
        assert not is_contractive_criterion(m)

    def test_complex_pair_outside_rejected_by_q4(self):
        m = np.diag([-1.5, -1.5, 0.0])
        assert criterion_quantities(m)[3] == -10.0
        assert not is_contractive_criterion(m)


def _radius_log2_bounds(m) -> tuple[float, float]:
    """log2 of Vieta's lower bound max(|Tr|/3, sqrt(|S2|/3), |D|^(1/3)) and
    of Fujiwara's upper bound 2 max(|Tr|, sqrt|S2|, |D/2|^(1/3)) on the
    spectral radius, from the invariants taken exactly in rationals."""
    (a, b, c), (d, e, f), (g, h, i) = [[Fraction(x) for x in row] for row in np.asarray(m)]
    tr = a + e + i
    s2 = a * e + e * i + i * a - c * g - f * h - b * d
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def log2(x):
        x = abs(x)
        return math.log2(x.numerator) - math.log2(x.denominator) if x else -math.inf

    low = max(log2(tr) - math.log2(3), (log2(s2) - math.log2(3)) / 2, log2(det) / 3)
    high = 1 + max(log2(tr), log2(s2) / 2, (log2(det) - 1) / 3)
    return low, high


class TestEigenOracle:
    def test_diagonal_half(self):
        assert spectral_radius(HALF) == pytest.approx(0.5, abs=1e-12)
        assert is_contractive_eigen(HALF)

    def test_companion_radius(self):
        assert spectral_radius(COMPANION) == pytest.approx(0.9 ** (1 / 3), abs=1e-12)
        assert is_contractive_eigen(COMPANION)

    def test_identity_is_boundary(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
        assert not is_contractive_eigen(np.eye(3))

    def test_distinct_real_roots(self):
        # (x-1)(x-2)(x-3): tr=6, s2=11, d=6
        roots = sorted(r.real for r in cubic_roots(6.0, 11.0, 6.0))
        assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-10)
        assert all(abs(r.imag) < 1e-12 for r in cubic_roots(6.0, 11.0, 6.0))

    def test_triple_root(self):
        roots = cubic_roots(3.0, 3.0, 1.0)
        assert all(abs(r - 1.0) < 1e-9 for r in roots)

    def test_double_root(self):
        # (x-1)^2 (x-2): tr=4, s2=5, d=2
        roots = sorted(r.real for r in cubic_roots(4.0, 5.0, 2.0))
        assert np.allclose(roots, [1.0, 1.0, 2.0], atol=1e-7)

    def test_complex_pair(self):
        # x(x^2+1): tr=0, s2=1, d=0 -> roots 0, +/- i
        roots = cubic_roots(0.0, 1.0, 0.0)
        mods = sorted(abs(r) for r in roots)
        assert np.allclose(mods, [0.0, 1.0, 1.0], atol=1e-12)

    def test_a_closed_form_that_overflows_gives_inf(self):
        """The trace 1e200 is finite, but its cube is not a float: the
        roots are inf, where cubing a Python float raised OverflowError.
        The radius of the matrix is found from the matrix scaled by a power
        of two."""
        assert cubic_roots(1e200, 0.0, 0.0) == (complex(math.inf, 0.0),) * 3
        m = np.diag([1e200, 0.0, 0.0])
        assert spectral_radius(m) == pytest.approx(1e200, rel=1e-15)
        assert not is_contractive_eigen(m)

    def test_a_nan_invariant_gives_nan(self):
        assert all(math.isnan(r.real) for r in cubic_roots(0.0, 1.0, math.nan))
        assert math.isnan(spectral_radius(np.diag([math.nan, 0.0, 0.0])))

    @pytest.mark.parametrize("m, radius", [
        (np.diag([1e200, 0.0, 0.0]), 1e200),
        (np.diag([-1e200, 0.0, 0.0]), 1e200),
        (np.diag([1e100] * 3), 1e100),
        (np.array([[0.0, 1e200, 0.0], [1e200, 0.0, 0.0], [0.0, 0.0, 0.5]]), 1e200),
        (np.array([[0.0, -1e200, 0.0], [1e200, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1e200),
        (np.diag([1.7e308, 0.0, 0.0]), 1.7e308),
        (np.full((3, 3), 1e308), math.inf),
        (np.array([[0.8e308, -1.7e308, 0.0], [1.7e308, 0.8e308, 0.0], [0.0, 0.0, 0.0]]),
         math.inf),
        (np.array([[0.0, 1e250, 0.0], [1e-146, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1e52),
        (np.array([[0.0, 1e250, 0.0], [1e-60, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1e95),
        (np.array([[0.0, 2.0 ** 1020, 0.0], [0.0, 0.0, 2.0 ** 330], [2.0 ** 330, 0.0, 0.0]]),
         2.0 ** 560),
        (np.array([[0.0, 2.0 ** 1000, 0.0], [2.0 ** 940, 0.0, 0.0], [0.0, 0.0, 0.0]]),
         2.0 ** 970),
    ], ids=["1e200", "-1e200", "1e100-identity", "swap", "rotation", "near-max",
            "3e308", "modulus-past-max", "entry-underflows", "entry-subnormal",
            "det-underflows", "small-next-to-max"])
    def test_a_finite_matrix_whose_closed_form_overflows_is_scaled(self, m, radius):
        """A matrix of finite entries whose closed form gives no finite root
        has the radius of the matrix scaled by a power of two, scaled back:
        inf only where the radius passes the largest float, and nothing
        raises, not even a complex root whose modulus is no float.  The
        last four lose a term when the matrix is scaled to entries of order
        1 (an entry or a product to underflow, or a radius far below the
        largest entry to the closed form's absolute tolerance), which gave
        the radius 0; the exact invariants keep it."""
        assert not all(math.isfinite(abs(r)) for r in cubic_roots(*char_invariants(m)))
        got = spectral_radius(m)
        assert got == radius if math.isinf(radius) else got == pytest.approx(radius, rel=1e-15)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1), st.integers(-300, 300))
    def test_every_finite_closed_form_keeps_its_radius(self, seed, exponent):
        """Where the closed form gives finite roots, the radius is the
        largest of their moduli, bit for bit; where it does not (from
        entries of about 1e52 on, whose p^3 overflows), it is the radius of
        the matrix at entries of order 1, scaled."""
        unit = np.random.default_rng(seed).uniform(-2, 2, (3, 3))
        a = unit * 10.0 ** exponent
        roots = cubic_roots(*char_invariants(a))
        moduli = [math.hypot(r.real, r.imag) for r in roots]
        if all(map(math.isfinite, moduli)):
            assert spectral_radius(a) == max(abs(r) for r in roots)
        else:
            want = spectral_radius(unit) * 10.0 ** exponent
            assert spectral_radius(a) == pytest.approx(want, rel=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_a_radius_past_the_closed_form_keeps_the_vieta_bounds(self, seed):
        """Entries spread over the whole float range, some zero: where the
        closed form overflows, the radius is inf or lies within the bounds
        that the exact invariants put on it, never a false small radius
        from terms lost to underflow."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, (3, 3)) * 10.0 ** rng.integers(-320, 308, (3, 3))
        a[rng.random((3, 3)) < 0.4] = 0.0
        roots = cubic_roots(*char_invariants(a))
        if all(math.isfinite(math.hypot(r.real, r.imag)) for r in roots):
            return
        low, high = _radius_log2_bounds(a)
        got = spectral_radius(a)
        if low > 1024.0:
            assert got == math.inf
        elif got != math.inf or high < 1023.99:
            assert 0.0 < got < math.inf
            assert low - 1e-9 <= math.log2(got) <= high + 1e-9

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_roots_against_numpy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, (3, 3))
        tr, s2, d = char_invariants(a)
        mine = sorted(cubic_roots(tr, s2, d), key=lambda z: (z.real, z.imag))
        ref = sorted(
            np.roots([1.0, -tr, s2, -d]), key=lambda z: (z.real, z.imag)
        )
        for u, v in zip(mine, ref):
            assert abs(u - complex(v)) < 1e-6

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_criterion_agrees_with_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, (3, 3))
        rho = spectral_radius(a)
        if abs(rho - 1.0) <= 1e-9:
            return  # boundary band excluded
        assert is_contractive_criterion(a) == (rho < 1.0)


ZERO = LipschitzSet()
GEOM = dict(horizon=1.0, h=0.1, n_tau=1, n_sigma=1)


def _bounds(lip, mu, **kw):
    geom = {**GEOM, **kw}
    return contraction_bounds(lip, mu, geom["horizon"], geom["h"],
                              geom["n_tau"], geom["n_sigma"])


class TestLipschitzSet:
    def test_defaults_zero(self):
        assert ZERO.L1 == 0.0 and ZERO.lg == 0.0

    def test_maxima(self):
        lip = LipschitzSet(L21=0.2, L22=0.3, LG31=0.5, LG32=0.1,
                           Lg1=0.1, Lg2=0.4, Lg3=0.2)
        assert lip.l2 == 0.3
        assert lip.lg3 == 0.5
        assert lip.lg == 0.4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LipschitzSet(L1=-0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LipschitzSet(LG1=math.inf)


class TestContractionBounds:
    def test_zero_constants_zero_matrix(self):
        for mu in (0.5, 1.0, 10.0):
            m = _bounds(ZERO, mu)
            assert np.all(m.entries == 0.0)

    def test_single_l1_fills_first_column(self):
        m = _bounds(LipschitzSet(L1=1.0), 1.0, n_tau=0, n_sigma=0)
        a11 = 1.0 - math.exp(-1.0)
        expect = np.zeros((3, 3))
        expect[:, 0] = a11
        assert np.allclose(m.entries, expect, atol=1e-15)

    def test_rows_share_continuous_bound(self):
        lip = LipschitzSet(L1=0.3, L21=0.1, LG1=0.2, Lg1=0.05)
        e = _bounds(lip, 2.0).entries
        assert e[0, 0] == e[1, 0] == e[2, 0]

    def test_large_mu_limits(self):
        lip = LipschitzSet(L1=0.5, L21=0.2, LG1=0.4, LG21=0.1,
                           LG31=0.3, Lg1=0.2)
        lims = bounds_limits(lip, **GEOM)
        e = _bounds(lip, 1e8).entries
        vanishing = [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2)]
        for i, j in vanishing:
            assert e[i, j] < 1e-7
        assert e[0, 1] == pytest.approx(lims["a12"], rel=1e-9)
        assert e[0, 2] == pytest.approx(lims["a13"], rel=1e-9)
        assert e[2, 1] == pytest.approx(lims["a32"], rel=1e-9)
        tr, s2, d = char_invariants(e)
        assert max(abs(tr), abs(s2), abs(d)) < 1e-6

    def test_bounds_limits_formula(self):
        lip = LipschitzSet(LG1=0.4, LG21=0.1, LG31=0.3, Lg1=0.2)
        lims = bounds_limits(lip, horizon=2.0, h=0.1, n_tau=3, n_sigma=2)
        c2 = 0.4 + 2 * 3 * 0.1 + 0.2 * 2 * 2.0 + 0.3 * 2
        assert lims["a12"] == pytest.approx(c2)
        assert lims["a32"] == pytest.approx(c2)
        assert lims["a13"] == pytest.approx((0.2 * 2 * 2.0 + 0.3 * 2) * 3)

    def test_bounds_limits_are_the_entries_factors(self):
        """Where e^{-mu h} underflows the bounded entries are their limits,
        bit for bit: both take c2 and b from one place."""
        lip = LipschitzSet(LG1=0.4, LG21=0.1, LG31=0.3, Lg1=0.2, L1=0.5)
        geom = dict(horizon=2.0, h=0.1, n_tau=3, n_sigma=2)
        lims = bounds_limits(lip, **geom)
        e = _bounds(lip, 1e5, **geom).entries
        assert (e[0, 1], e[0, 2], e[2, 1]) == (lims["a12"], lims["a13"], lims["a32"])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            _bounds(ZERO, 0.0)
        with pytest.raises(ValueError):
            contraction_bounds(ZERO, 1.0, -1.0, 0.1, 1, 1)
        with pytest.raises(ValueError):
            contraction_bounds(ZERO, 1.0, 1.0, 0.0, 1, 1)
        with pytest.raises(ValueError):
            contraction_bounds(ZERO, 1.0, 1.0, 0.1, -1, 1)

    def test_matrix_metadata(self):
        m = _bounds(LipschitzSet(L1=1.0), 2.5)
        assert m.mu == 2.5 and m.horizon == 1.0 and m.h == 0.1

    def test_entries_shape_validated(self):
        with pytest.raises(ValueError):
            ContractionMatrix(np.zeros((2, 3)), 1.0, 1.0, 0.1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0.1, 50.0, allow_nan=False),
        st.floats(0.01, 10.0, allow_nan=False),
    )
    def test_entries_nonincreasing_in_mu(self, seed, mu, extra):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0, 2, 11)
        lip = LipschitzSet(*vals)
        lo = _bounds(lip, mu).entries
        hi = _bounds(lip, mu + extra).entries
        assert np.all(hi <= lo + 1e-12)


class TestFindMu:
    def test_zero_constants_return_mu_min(self):
        assert find_mu(ZERO, **GEOM) == 0.01

    def test_pure_l1_accepts_mu_min(self):
        # (1 - e^{-mu}) / mu < 1 for every mu > 0
        assert find_mu(LipschitzSet(L1=1.0), 1.0, 0.1, 0, 0) == 0.01

    def test_transition_is_bracketed(self):
        lip = LipschitzSet(L1=1.2)
        mu = find_mu(lip, 1.0, 0.1, 0, 0)

        def ok(m):
            return is_contractive_criterion(contraction_bounds(lip, m, 1.0, 0.1, 0, 0))

        assert ok(mu)
        assert not ok(0.98 * mu)  # 1% window: just below must fail

    def test_huge_mixed_constant_needs_weight_beyond_default_cap(self):
        # Lg = 1e3 with one impulse of each kind: the determinant term
        # a13*a21*a32 ~ 1e9/mu persists past the default cap, so the search
        # fails there, while a much larger cap does reach a contractive
        # weight -- confirmed by both the criterion and the eigen oracle.
        lip = LipschitzSet(Lg1=1e3)
        with pytest.raises(NoContractiveWeight):
            find_mu(lip, 1.0, 0.1, 1, 1)
        mu = find_mu(lip, 1.0, 0.1, 1, 1, mu_max=1e11)
        m = contraction_bounds(lip, mu, 1.0, 0.1, 1, 1)
        assert is_contractive_criterion(m)
        assert is_contractive_eigen(m)

    def test_impossible_case_raises(self):
        # h so small that the geometric ladder stays huge for every mu
        # within the cap: a22 ~ 1/(mu h) >> 1 requires mu > 1e8
        lip = LipschitzSet(LG1=4.0)
        with pytest.raises(NoContractiveWeight):
            find_mu(lip, 1.0, 1e-8, 1, 0)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            find_mu(ZERO, 1.0, 0.1, 1, 1, mu_min=0.0)
        with pytest.raises(ValueError):
            find_mu(ZERO, 1.0, 0.1, 1, 1, mu_min=2.0, mu_max=1.0)

    def test_returned_weight_is_contractive(self):
        lip = LipschitzSet(L1=0.5, LG1=0.3, Lg1=0.1, LG31=0.2)
        mu = find_mu(lip, 2.0, 0.2, 2, 1)
        m = contraction_bounds(lip, mu, 2.0, 0.2, 2, 1)
        assert is_contractive_criterion(m)


class TestFindMuVanishing:
    def test_reaches_vanishing_regime(self):
        lip = LipschitzSet(L1=0.5, L21=0.2, LG1=0.4, LG21=0.1,
                           LG31=0.3, Lg1=0.2)
        mu = find_mu_vanishing(lip, **GEOM)
        m = contraction_bounds(lip, mu, **GEOM)
        tr, s2, d = char_invariants(m)
        assert max(abs(tr), abs(s2), abs(d)) < 1e-3
        for i, j in ((0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2)):
            assert m.entries[i][j] < 1e-3
        assert is_contractive_criterion(m)

    def test_first_doubling_weight(self):
        lip = LipschitzSet(L1=0.5, LG1=0.4)
        mu = find_mu_vanishing(lip, **GEOM)
        if mu > 1.0:
            prev = contraction_bounds(lip, mu / 2.0, **GEOM)
            tr, s2, d = char_invariants(prev)
            six_small = all(
                prev.entries[i][j] < 1e-3
                for i, j in ((0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2))
            )
            ok = (
                six_small
                and max(abs(tr), abs(s2), abs(d)) < 1e-3
                and is_contractive_criterion(prev)
            )
            assert not ok

    def test_unreachable_raises(self):
        lip = LipschitzSet(LG1=4.0)
        with pytest.raises(NoContractiveWeight):
            find_mu_vanishing(lip, 1.0, 1e-12, 1, 0, mu_max=1e6)


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _declared_constants():
    """(name, constants, horizon, h, n_tau, n_sigma) of every problems/*.yaml
    file that declares Lipschitz constants, as ``hv analyze`` reads them."""
    for path in sorted(PROBLEMS.glob("*.yaml")):
        loaded = load_problem_file(path)
        problem = loaded.problem
        if loaded.kind == "hybrid" and problem.lipschitz is not None:
            yield (path.stem, problem.lipschitz, problem.grid.horizon, problem.schedule.h,
                   problem.n_tau, problem.n_sigma)


def _random_constants(count=200, seed=0):
    rng = np.random.default_rng(seed)
    names = [f.name for f in dataclasses.fields(LipschitzSet)]
    for k in range(count):
        # log-uniform constants, about a third of them 0
        values = np.where(rng.random(len(names)) < 0.3, 0.0,
                          10.0 ** rng.uniform(-3, 1, len(names)))
        lip = LipschitzSet(**dict(zip(names, values.tolist())))
        yield (f"random-{k}", lip, float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.01, 1.0)),
               int(rng.integers(0, 5)), int(rng.integers(0, 4)))


class TestAgainstAMatrixPerWeight:
    """``find_mu`` and every number of the contraction block of ``hv
    analyze`` have the bits of the code that built a numpy bound matrix
    for each weight it tested (``tests/oracles.py``)."""

    @staticmethod
    def _block_numbers(lip, horizon, h, n_tau, n_sigma, mu=None):
        block, overflow = cli._contraction_block(lip, horizon, h, n_tau, n_sigma, mu)
        assert overflow is None
        mu = block["mu"] if mu is not None else block["mu_star"]
        if mu is None:
            return {"mu": None}
        invariants = block["invariants"]
        return {
            "mu": mu,
            "matrix": block["matrix"],
            "invariants": [invariants[k] for k in ("trace", "pair_sum", "det")],
            "criterion_quantities": block["criterion_quantities"],
            "spectral_radius": block["spectral_radius"],
        }

    def _check(self, cases):
        found = 0
        for name, lip, horizon, h, n_tau, n_sigma in cases:
            args = (lip, horizon, h, n_tau, n_sigma)
            want = oracles.find_mu(*args)
            try:
                got = find_mu(*args)
            except NoContractiveWeight:
                got = None
            assert repr(got) == repr(want), name
            found += want is not None
            for mu in (None, 2.5):
                assert repr(self._block_numbers(*args, mu)) == repr(
                    oracles.contraction_numbers(*args, mu)), (name, mu)
        return found

    def test_every_problem_file(self):
        cases = list(_declared_constants())
        assert len(cases) >= 3
        assert self._check(cases) == len(cases)

    def test_random_constants(self):
        found = self._check(_random_constants())
        # both outcomes of the search are covered
        assert 0 < found < 200
