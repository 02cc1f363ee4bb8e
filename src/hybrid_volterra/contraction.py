"""Contraction analysis for the three-component solution operator.

The iteration map acts on (continuous part, fixed-impulse values,
moving-impulse traces).  With exponentially weighted norms at weight mu,
its componentwise deltas are dominated by a nonnegative 3x3 matrix built
from Lipschitz constants of the kernels (:func:`contraction_bounds`).  The
iteration contracts when that matrix has spectral radius < 1.

Two independent routes decide the radius condition:

* :func:`is_contractive_criterion` - an algebraic test on the
  characteristic-polynomial invariants (Tr, S2, D).  Mapping the unit disk
  to the left half plane with lambda = (w+1)/(w-1) turns the cubic into
  p0 w^3 + p1 w^2 + p2 w + p3 with p0 = 1-Tr+S2-D, p1 = 3-Tr-S2+3D,
  p2 = 3+Tr-S2-3D, p3 = 1+Tr+S2+D, and Routh-Hurwitz gives radius < 1 iff
  p0, p1, p3 and p1*p2 - p0*p3 = 8 - 8*S2 + 8*D*Tr - 8*D^2 are all
  positive.
* :func:`is_contractive_eigen` - the spectral radius from the closed-form
  cubic roots (trigonometric/Cardano with a discriminant branch), of the
  matrix scaled by a power of two, with exact invariants, where that closed
  form overflows.

Both are strict: a radius of exactly 1 is not contractive.

The bound matrix follows conservative majorants: time-decay factors
(1-e^{-mu T})/mu on integral terms, geometric ladders 1/(1-e^{-mu h}) on
h-separated impulse sums, and an extra e^{-mu h} where memberships are
strictly below the evaluation time.  Per-time impulse counts are replaced
by the global counts n_tau, n_sigma.  The decay factors on the third row's
beta column additionally assume the separation rules checked by
``check_separation`` (including the cross clause) and moving-time functions
whose slope is not small compared to 1/T; outside that family the row-3
entries remain finite but may understate worst-case deltas near roots of
t = sigma(t).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

DISC_TOL = 1e-14
_VANISHING = ((0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2))  # entries that -> 0


class NoContractiveWeight(RuntimeError):
    """No weight below the cap makes the bound matrix contractive."""


@dataclass(frozen=True)
class LipschitzSet:
    """Kernel Lipschitz constants, one per kernel argument that varies.

    L1: f1 in x.  L21/L22: f2 in x and x1.  LG1: G1 in eta.
    LG21/LG22: G2 in eta_i and eta_j.  LG31/LG32: G3 in eta and beta.
    Lg1/Lg2/Lg3: g in x, beta and eta.
    """

    L1: float = 0.0
    L21: float = 0.0
    L22: float = 0.0
    LG1: float = 0.0
    LG21: float = 0.0
    LG22: float = 0.0
    LG31: float = 0.0
    LG32: float = 0.0
    Lg1: float = 0.0
    Lg2: float = 0.0
    Lg3: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{f.name} must be finite and >= 0, got {v}")

    @property
    def l2(self) -> float:
        return max(self.L21, self.L22)

    @property
    def lg2(self) -> float:
        return max(self.LG21, self.LG22)

    @property
    def lg3(self) -> float:
        return max(self.LG31, self.LG32)

    @property
    def lg(self) -> float:
        return max(self.Lg1, self.Lg2, self.Lg3)


@dataclass(frozen=True)
class ContractionMatrix:
    """A bound matrix with the weight and geometry it was computed for."""

    entries: np.ndarray
    mu: float
    horizon: float
    h: float

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (3, 3):
            raise ValueError(f"entries must be 3x3, got {e.shape}")
        object.__setattr__(self, "entries", e)


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, ContractionMatrix):
        return m.entries
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    return a


def char_invariants(m) -> tuple[float, float, float]:
    """(trace, second invariant, determinant) of a 3x3 matrix.

    The characteristic polynomial is lambda^3 - Tr lambda^2 + S2 lambda - D.
    """
    return _invariants(_as_matrix(m).tolist())


def _invariants(rows):
    """:func:`char_invariants` of a 3x3 matrix given as rows of floats, or
    of fractions for the invariants exactly."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    tr = a00 + a11 + a22
    s2 = (
        a00 * a11 + a11 * a22 + a22 * a00
        - a02 * a20 - a12 * a21 - a01 * a10
    )
    d = (
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )
    return tr, s2, d


def criterion_quantities(m) -> tuple[float, float, float, float]:
    """The four quantities whose joint positivity means radius < 1."""
    return _quantities(*char_invariants(m))


def _quantities(tr: float, s2: float, d: float) -> tuple[float, float, float, float]:
    """:func:`criterion_quantities` from the invariants Tr, S2 and D."""
    p0 = 1.0 - tr + s2 - d
    p1 = 3.0 - tr - s2 + 3.0 * d
    p3 = 1.0 + tr + s2 + d
    q4 = 8.0 - 8.0 * s2 + 8.0 * d * tr - 8.0 * d * d
    return p0, p1, p3, q4


def is_contractive_criterion(m) -> bool:
    """Algebraic verdict: all four criterion quantities strictly positive."""
    return all(q > 0.0 for q in criterion_quantities(m))


def cubic_roots(tr: float, s2: float, d: float) -> tuple[complex, complex, complex]:
    """Roots of lambda^3 - tr lambda^2 + s2 lambda - d, in closed form.

    Where the closed form overflows, no root is a finite float: each is
    inf, or nan when an invariant is nan.  Nothing raises.
    """
    a = float(tr)
    p = s2 - a * a / 3.0
    shift = a / 3.0
    try:
        q = -2.0 * a ** 3 / 27.0 + a * s2 / 3.0 - d
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    except OverflowError:  # a power of a finite float passes the largest one
        disc = math.inf
    if not math.isfinite(disc):
        root = complex(math.nan if math.isnan(a + s2 + d) else math.inf, 0.0)
        return (root, root, root)
    if abs(disc) < DISC_TOL:
        if abs(p) < DISC_TOL and abs(q) < DISC_TOL:
            y = (0.0, 0.0, 0.0)
        else:
            u = math.copysign(abs(q / 2.0) ** (1.0 / 3.0), -q / 2.0)
            y = (2.0 * u, -u, -u)
        return tuple(complex(v + shift, 0.0) for v in y)  # type: ignore[return-value]
    if disc > 0:
        root = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + root) ** (1.0 / 3.0), -q / 2.0 + root)
        v = math.copysign(abs(-q / 2.0 - root) ** (1.0 / 3.0), -q / 2.0 - root)
        y1 = u + v
        re = -y1 / 2.0
        im = (u - v) * math.sqrt(3.0) / 2.0
        return (
            complex(y1 + shift, 0.0),
            complex(re + shift, im),
            complex(re + shift, -im),
        )
    # three distinct real roots
    rho = 2.0 * math.sqrt(-p / 3.0)
    arg = max(-1.0, min(1.0, 3.0 * q / (p * rho)))
    theta = math.acos(arg)
    ys = [rho * math.cos((theta + 2.0 * math.pi * k) / 3.0) for k in range(3)]
    return tuple(complex(y + shift, 0.0) for y in ys)  # type: ignore[return-value]


def spectral_radius(m) -> float:
    """Spectral radius via the closed-form cubic.

    Where the closed form overflows for a matrix of finite entries, the
    radius is :func:`_scaled_radius`: inf only when the radius itself passes
    the largest float.
    """
    a = _as_matrix(m)
    radius = _radius(*char_invariants(a))
    if not math.isfinite(radius) and np.isfinite(a).all():
        radius = _scaled_radius(a)
    return radius


def _scaled_radius(a: np.ndarray) -> float:
    """The radius of the matrix ``a`` scaled by 2^-j, scaled back.

    The invariants are taken exactly in fractions and scaled by 2^-j,
    2^-2j and 2^-3j, with j the least integer for which 2^j passes |Tr|,
    |S2|^(1/2) and |D|^(1/3).  The scaled roots then have moduli between
    1/24 and 2, so no product underflows to lose a term, and the closed
    form's absolute tolerance is one relative to the radius.
    """
    exact = _invariants([[Fraction(x) for x in row] for row in a.tolist()])
    # 2^(e-1) <= |x| < 2^(e+1) for e the bit length of the numerator less that of the denominator
    j = max((-(-(x.numerator.bit_length() - x.denominator.bit_length() + 1) // p)
             for p, x in enumerate(exact, 1) if x), default=0)
    scale = Fraction(2) ** j
    radius = _radius(*(float(x / scale ** p) for p, x in enumerate(exact, 1)))
    # two factors: 2.0 ** j alone overflows at j = 1024
    return radius * 2.0 ** (j // 2) * 2.0 ** (j - j // 2)


def _radius(tr: float, s2: float, d: float) -> float:
    """The largest modulus of the closed-form roots of the invariants: inf
    for a root whose modulus passes the largest float, where ``abs`` of the
    complex root raises."""
    return max(math.hypot(r.real, r.imag) for r in cubic_roots(tr, s2, d))


def is_contractive_eigen(m) -> bool:
    """Oracle verdict: spectral radius strictly below 1."""
    return spectral_radius(m) < 1.0


# ---------------------------------------------------------------------------
# Bound matrix


def contraction_bounds(
    lip: LipschitzSet,
    mu: float,
    horizon: float,
    h: float,
    n_tau: int,
    n_sigma: int,
) -> ContractionMatrix:
    """Majorant matrix for componentwise iteration deltas at weight ``mu``.

    Rows: continuous part, fixed-impulse values, moving-impulse traces.
    Columns: deltas in the same order.  All entries are nonincreasing in mu;
    as mu -> infinity the six entries outside (1,2), (1,3), (3,2) vanish
    while those three stay bounded (a12, a32 -> C2 and a13 is constant).
    """
    entries = np.array(_entries(lip, mu, horizon, h, n_tau, n_sigma))
    return ContractionMatrix(entries, float(mu), float(horizon), float(h))


def _bounded(lip: LipschitzSet, T: float, n_tau: int, n_sigma: int) -> tuple[float, float]:
    """The factors c2 and b of the entries that stay bounded as mu grows
    (:func:`_entries`): a12 = c2 r, a32 = c2 r and a13 = b, with r -> 1."""
    c2 = lip.LG1 + 2.0 * n_tau * lip.lg2 + lip.lg * n_sigma * T + lip.lg3 * n_sigma
    b = (lip.lg * n_sigma * T + lip.lg3 * n_sigma) * n_tau
    return c2, b


def _entries(
    lip: LipschitzSet, mu: float, horizon: float, h: float, n_tau: int, n_sigma: int
) -> list[list[float]]:
    """The entries of :func:`contraction_bounds`, as rows of Python floats."""
    if not (mu > 0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if not (horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not (h > 0):
        raise ValueError(f"h must be positive, got {h}")
    if n_tau < 0 or n_sigma < 0:
        raise ValueError("impulse counts must be nonnegative")
    T = float(horizon)
    k = -math.expm1(-mu * T) / mu
    q = math.exp(-mu * h)
    r = 1.0 / -math.expm1(-mu * h)
    c1 = lip.L1 + 2.0 * lip.l2 * T + lip.lg * n_sigma * n_tau
    c2, b = _bounded(lip, T, n_tau, n_sigma)
    return [
        [c1 * k, c2 * r, b],
        [c1 * k, c2 * q * r, b * q],
        [c1 * k, c2 * r, lip.lg * n_sigma * n_tau * T * k + lip.lg3 * n_sigma * n_tau * q * r],
    ]


def bounds_limits(
    lip: LipschitzSet, horizon: float, h: float, n_tau: int, n_sigma: int
) -> dict[str, float]:
    """mu -> infinity limits of the three entries that stay bounded."""
    c2, b = _bounded(lip, float(horizon), n_tau, n_sigma)
    return {"a12": c2, "a13": b, "a32": c2}


def find_mu(
    lip: LipschitzSet,
    horizon: float,
    h: float,
    n_tau: int,
    n_sigma: int,
    mu_min: float = 0.01,
    mu_max: float = 1e6,
    rel_width: float = 0.01,
) -> float:
    """Smallest weight (to 1% relative width) making the bounds contractive.

    Doubling search from ``mu_min``; once a contractive weight is found the
    transition is bisected downward.  Raises :class:`NoContractiveWeight`
    if nothing at or below ``mu_max`` works.  Each weight is tested as
    :func:`is_contractive_criterion` tests :func:`contraction_bounds`, on
    Python floats, with no matrix built.
    """
    if not (0 < mu_min <= mu_max):
        raise ValueError(f"need 0 < mu_min <= mu_max, got [{mu_min}, {mu_max}]")

    def ok(mu: float) -> bool:
        rows = _entries(lip, mu, horizon, h, n_tau, n_sigma)
        return all(q > 0.0 for q in _quantities(*_invariants(rows)))

    if ok(mu_min):
        return mu_min
    lo = mu_min
    mu = mu_min
    hi = None
    while mu < mu_max:
        mu = min(mu * 2.0, mu_max)
        if ok(mu):
            hi = mu
            break
        lo = mu
    if hi is None:
        raise NoContractiveWeight(
            f"no contractive weight in [{mu_min}, {mu_max}] for these constants"
        )
    while (hi - lo) / hi > rel_width:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def find_mu_vanishing(
    lip: LipschitzSet,
    horizon: float,
    h: float,
    n_tau: int,
    n_sigma: int,
    tol: float = 1e-3,
    mu_min: float = 1.0,
    mu_max: float = 1e9,
) -> float:
    """First doubling weight in the vanishing regime.

    Requires the contraction criterion to hold, the six vanishing entries to
    sit below ``tol``, and |Tr|, |S2|, |D| below ``tol``.  This is the
    constructive form of the large-weight limit: such a weight always exists
    for finite constants, so failure below ``mu_max`` raises.
    """
    mu = mu_min
    while mu <= mu_max:
        m = contraction_bounds(lip, mu, horizon, h, n_tau, n_sigma)
        tr, s2, d = char_invariants(m)
        small = all(m.entries[i][j] < tol for i, j in _VANISHING)
        if (
            small
            and max(abs(tr), abs(s2), abs(d)) < tol
            and is_contractive_criterion(m)
        ):
            return mu
        mu *= 2.0
    raise NoContractiveWeight(
        f"no weight in [{mu_min}, {mu_max}] reaches the vanishing regime"
    )
