"""Seeded problem files for the benchmark, with their reference solutions.

Seed 0 writes the sample problems byte for byte as shipped in
``problems/`` plus the generated time-dependent problem ``tdep``.  Every
other seed scales each kernel coefficient by a factor drawn from
``1 +- AMPLITUDE`` and moves each fixed impulse time by up to h/4.  The
declared Lipschitz constants of a kernel are multiplied by the largest
factor drawn for that kernel (rounded up), so a constant that was valid on
|state| <= 1 stays valid.  Grid sizes, the moving times sigma and the
number of breakpoints never change, so N is the same for every seed.

Seeds are taken modulo ``VARIANTS``: the mixed problem has no closed form,
and its reference solution is stored per variant in ``refs/mixed.json``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

VARIANTS = 16
AMPLITUDE = 0.02


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _fmt(v: float) -> str:
    return repr(float(f"{v:.6g}"))


class Draw:
    """Coefficients, impulse times and Lipschitz constants for one seed.

    At variant 0 every value is its base value and renders as its base
    text, which reproduces the shipped files exactly.
    """

    def __init__(self, variant: int, salt: str):
        self.base = variant == 0
        self.rng = random.Random(f"{salt}:{variant}")
        self.factors: dict[str, list[float]] = {}

    def coef(self, base: float, group: str) -> float:
        if self.base:
            value = base
        else:
            value = float(_fmt(base * (1.0 + AMPLITUDE * self.rng.uniform(-1.0, 1.0))))
        self.factors.setdefault(group, []).append(value / base)
        return value

    def tau(self, base: float, h: float) -> float:
        if self.base:
            return base
        return float(_fmt(base + 0.25 * h * self.rng.uniform(-1.0, 1.0)))

    def lip(self, base: float, group: str) -> float:
        if self.base:
            return base
        scaled = base * max(self.factors[group])
        return math.ceil(scaled * 1e6) / 1e6

    def text(self, value: float, base_text: str) -> str:
        return base_text if self.base else _fmt(value)

    def term(self, value: float, expr: str, base_text: str) -> str:
        """``value*expr``, or ``base_text`` at variant 0."""
        return base_text if self.base else f"{_fmt(value)}*{expr}"


@dataclass
class Generated:
    """One problem file: its text and, where one exists, its exact solution."""

    name: str
    text: str
    exact: Callable[[np.ndarray, bool], np.ndarray] | None = None
    params: dict = field(default_factory=dict)

    def write(self, directory: Path) -> Path:
        path = Path(directory) / f"{self.name}.yaml"
        path.write_text(self.text)
        return path


def exponential(variant: int, panels: int | None = None) -> Generated:
    d = Draw(variant, "exponential")
    c0 = d.coef(1.0, "x0")
    k = d.coef(1.0, "f1")
    quad = "" if panels is None else f"quadrature: {{nodes_per_segment: {panels}}}\n"
    text = (
        "# x(t) = 1 + int_0^t x(s) ds, whose solution is e^t.\n"
        "horizon: 1.0\n"
        f'x0: "{d.text(c0, "1")}"\n'
        f'f1: "{d.term(k, "x", "x")}"\n'
        f"lipschitz: {{L1: {d.text(d.lip(1.0, 'f1'), '1.0')}}}\n" + quad
    )
    return Generated(
        "exponential", text, lambda t, right: c0 * np.exp(k * t), {"slopes": {"L1": k}}
    )


def double_memory(variant: int, panels: int | None = None) -> Generated:
    d = Draw(variant, "double_memory")
    c0 = d.coef(1.0, "x0")
    k = d.coef(1.0, "f2")
    quad = "" if panels is None else f"quadrature: {{nodes_per_segment: {panels}}}\n"
    text = (
        "# x(t) = 1 + int_0^t int_0^s x(s1) ds1 ds, i.e. x'' = x with x(0) = 1,\n"
        "# x'(0) = 0; the solution is cosh(t).\n"
        "horizon: 1.0\n"
        f'x0: "{d.text(c0, "1")}"\n'
        f'f2: "{d.term(k, "x1", "x1")}"\n'
        f"lipschitz: {{L22: {d.text(d.lip(1.0, 'f2'), '1.0')}}}\n" + quad
    )
    return Generated(
        "double_memory",
        text,
        lambda t, right: c0 * np.cosh(math.sqrt(k) * t),
        {"slopes": {"L22": k}},
    )


def fixed_impulses(variant: int) -> Generated:
    d = Draw(variant, "fixed_impulses")
    a = d.coef(0.2, "G1")
    b = d.coef(0.1, "G2")
    h = 0.4
    tau = [d.tau(base, h) for base in (0.5, 1.0, 1.5)]
    tau_text = ", ".join(d.text(t, base) for t, base in zip(tau, ("0.5", "1.0", "1.5")))
    text = (
        "# Fixed impulse times with both single-impulse jumps and pairwise terms.\n"
        "# Each impulse adds 0.2 plus 0.1 times the product of the pre-impulse\n"
        "# values at the current and each earlier impulse time.\n"
        "horizon: 2.0\n"
        'x0: "t"\n'
        f'G1: "{d.text(a, "0.2")}"\n'
        f'G2: "{d.term(b, "etai * etaj", "0.1 * etai * etaj")}"\n'
        f"tau: [{tau_text}]\n"
        "h: 0.4\n"
        "quadrature: {nodes_per_segment: 128}\n"
    )
    # x(t) = t + sum over tau_i < t of (a + b * sum_{j<i} eta_i eta_j), with
    # eta_i the left limit of x at tau_i; the jumps follow by recursion.
    jumps = []
    eta = []
    for i, ti in enumerate(tau):
        eta.append(ti + sum(jumps))
        jumps.append(a + b * sum(eta[i] * eta[j] for j in range(i)))

    def exact(t, right):
        t = np.asarray(t, dtype=float)
        out = t.copy()
        for ti, jump in zip(tau, jumps):
            past = (t > ti + 1e-12) | ((np.abs(t - ti) <= 1e-12) & right)
            out = out + jump * past
        return out

    return Generated("fixed_impulses", text, exact, {"tau": tau, "slopes": {}})


def series_quadratic(variant: int) -> Generated:
    d = Draw(variant, "series_quadratic")
    c1 = d.coef(1.0, "k1")
    c2 = d.coef(1.0, "k2")
    k1 = d.term(c1, "x1", "x1")
    k2 = d.term(c2, "x1*x2", "x1*x2")
    l1 = d.text(d.lip(1.0, "k1"), "1.0")
    l2 = d.text(d.lip(2.5, "k2"), "2.5")
    text = (
        "# Cube-form series problem of order 2:\n"
        "#   y(t) = 1 + int_0^t y(s) ds + (1/2!) int_0^t int_0^t y(s1) y(s2) ds1 ds2.\n"
        "# Both memory terms depend only on cumulative integrals of y, so the\n"
        "# equation collapses to the scalar ODE Y' = 1 + Y + Y^2/2 with Y(0) = 0\n"
        "# and y = Y', which has a closed-form tangent solution to compare against.\n"
        "kind: series\n"
        "horizon: 0.5\n"
        'y0: "1"\n'
        f'kernels: ["{k1}", "{k2}"]\n'
        f"lipschitz: [{l1}, {l2}]\n"
    )
    # Y' = 1 + c1 Y + (c2/2) Y^2, Y(0) = 0, solved by a shifted tangent.
    b, c = c1, 0.5 * c2
    w = math.sqrt(4.0 * c - b * b)
    phi = math.atan(b / w)

    def exact(t, right):
        return w * w / (4.0 * c) / np.cos(0.5 * w * np.asarray(t) + phi) ** 2

    return Generated("series_quadratic", text, exact)


MIXED_PANELS = 256


def mixed_impulses(variant: int, panels: int = 128) -> Generated:
    d = Draw(variant, "mixed_impulses")
    x0a, x0b = d.coef(0.2, "x0"), d.coef(0.1, "x0")
    f1a, f1b = d.coef(0.2, "f1"), d.coef(0.05, "f1")
    f2a = d.coef(0.05, "f2")
    g1a, g1b = d.coef(0.1, "G1"), d.coef(0.02, "G1")
    g2a = d.coef(0.03, "G2")
    g3a, g3b = d.coef(0.04, "G3"), d.coef(0.01, "G3")
    ga, gb = d.coef(0.02, "g"), d.coef(0.01, "g")
    h = 0.1
    tau = [d.tau(0.4, h), d.tau(1.75, h)]
    t = d.text
    lips = [
        ("L1", 0.2, "f1"), ("L21", 0.05, "f2"), ("L22", 0.05, "f2"),
        ("LG1", 0.1, "G1"), ("LG21", 0.03, "G2"), ("LG22", 0.03, "G2"),
        ("LG31", 0.04, "G3"), ("LG32", 0.01, "G3"),
        ("Lg1", 0.02, "g"), ("Lg2", 0.01, "g"), ("Lg3", 0.01, "g"),
    ]
    lip_text = "".join(
        f"  {name}: {t(d.lip(base, group), repr(base))}\n" for name, base, group in lips
    )
    text = (
        "# Every term active at once: single- and double-integral memory, fixed\n"
        "# impulses with pairwise interactions, one moving impulse, and the mixed\n"
        "# integral/sum coupling.  The moving time sigma(t) = 0.5 + 0.55 t crosses\n"
        "# the diagonal once inside the horizon, adding a breakpoint there.\n"
        "horizon: 2.0\n"
        f'x0: "{t(x0a, "0.2")} + {t(x0b, "0.1")}*t"\n'
        f'f1: "{t(f1a, "0.2")}*sin(x) + {t(f1b, "0.05")}*s"\n'
        f'f2: "{t(f2a, "0.05")}*x*x1/(1 + s1^2)"\n'
        f'G1: "{t(g1a, "0.1")}*eta + {t(g1b, "0.02")}"\n'
        f'G2: "{t(g2a, "0.03")}*etai*etaj"\n'
        f'G3: "{t(g3a, "0.04")}*beta + {t(g3b, "0.01")}*eta"\n'
        f'g: "{t(ga, "0.02")}*x + {t(gb, "0.01")}*beta*eta"\n'
        f"tau: [{t(tau[0], '0.4')}, {t(tau[1], '1.75')}]\n"
        'sigma: ["0.5 + 0.55*t"]\n'
        "h: 0.1\n"
        "# slope bounds valid on |state| <= 1, which contains the solution\n"
        "lipschitz:\n" + lip_text +
        f"quadrature: {{nodes_per_segment: {panels}}}\n"
        "solver: {tol: 1.0e-11, kmax: 300}\n"
    )
    name = "mixed_impulses" if panels == 128 else f"mixed_impulses_{panels}"
    # sup |d f1/dx| = f1a, at x = 0
    return Generated(name, text, None,
                     {"tau": tau, "root": 0.5 / 0.45, "slopes": {"L1": f1a}})


def tdep(variant: int, panels: int = 64) -> Generated:
    """f1 = a t x and f2 = b t x1 both reference t; one fixed impulse G1 = c.

    x0 is manufactured so that the solution is exp(t) plus a jump of c at
    tau:  x0(t) = e^t - a t (e^t - 1 + c (t-tau)+)
                      - b t (e^t - 1 - t + c (t-tau)+^2 / 2).
    """
    d = Draw(variant, "tdep")
    a = d.coef(0.4, "f1")
    b = d.coef(0.3, "f2")
    c = d.coef(0.3, "G1")
    h = 0.4
    tau = d.tau(0.5, h)
    A, B, C, T = _fmt(a), _fmt(b), _fmt(c), _fmt(tau)
    x0 = (
        f"exp(t) - {A}*t*(exp(t) - 1 + {C}*max(t - {T}, 0))"
        f" - {B}*t*(exp(t) - 1 - t + 0.5*{C}*max(t - {T}, 0)^2)"
    )
    text = (
        "# Time-dependent memory: f1 and f2 reference t, so every evaluation\n"
        "# time needs its own kernel rows.  x0 is manufactured so that the\n"
        "# solution is exp(t) plus a jump of G1 at tau.\n"
        "horizon: 1.0\n"
        f'x0: "{x0}"\n'
        f'f1: "{A}*t*x"\n'
        f'f2: "{B}*t*x1"\n'
        f'G1: "{C}"\n'
        f"tau: [{T}]\n"
        "h: 0.4\n"
        f"lipschitz: {{L1: {A}, L22: {B}}}\n"
        f"quadrature: {{nodes_per_segment: {panels}}}\n"
    )

    def exact(t, right):
        t = np.asarray(t, dtype=float)
        past = (t > tau + 1e-12) | ((np.abs(t - tau) <= 1e-12) & right)
        return np.exp(t) + c * past

    name = "tdep" if panels == 64 else f"tdep_{panels}"
    return Generated(name, text, exact, {"tau": [tau]})


def check_matrix_entries(variant: int) -> list[float]:
    """A nonnegative 3x3 matrix, row by row, for ``hv check-matrix``."""
    rng = random.Random(f"check_matrix:{variant}")
    return [float(_fmt(rng.uniform(0.0, 0.5))) for _ in range(9)]


SHIPPED = ("exponential", "double_memory", "fixed_impulses", "series_quadratic",
           "mixed_impulses")


def shipped(variant: int) -> list[Generated]:
    """The five sample problems as shipped in ``problems/`` (at variant 0)."""
    return [
        exponential(variant),
        double_memory(variant),
        fixed_impulses(variant),
        series_quadratic(variant),
        mixed_impulses(variant),
    ]
