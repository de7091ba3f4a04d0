"""Manufactured plate benchmarks on the unit square.

Three studies: a smooth sinusoidal solution on a simply supported plate, a
solution with reduced regularity along two edges (x^a y^a with a = 2.8),
and a central point load whose center deflection has a series reference
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import PlateProblem

__all__ = [
    "BenchmarkSpec",
    "benchmark_smooth",
    "benchmark_singular",
    "benchmark_point_load",
    "benchmark_spline_exact",
    "center_deflection_reference",
    "check_manufactured_load",
]

ALL_SIDES = ("left", "bottom", "right", "top")


@dataclass
class BenchmarkSpec:
    name: str
    problem: PlateProblem
    exact_value: object = None
    exact_hessian: object = None
    qoi_point: tuple = None
    reference_qoi: float = None


def _moment_from_hessian(hessian):
    """Side data for the normal bending moment n.H(u).n (nu = 0, D = 1).

    On the axis-aligned square the normal-normal second derivative is u_xx
    on the vertical sides and u_yy on the horizontal ones.
    """
    def vertical(x, y):
        return hessian(x, y)[0]

    def horizontal(x, y):
        return hessian(x, y)[2]

    return {"left": vertical, "right": vertical, "bottom": horizontal, "top": horizontal}


def benchmark_smooth():
    """Simply supported square with u = sin(2 pi x) sin(2 pi y)."""
    two_pi = 2.0 * np.pi

    def value(x, y):
        return np.sin(two_pi * x) * np.sin(two_pi * y)

    def hessian(x, y):
        s = np.sin(two_pi * x) * np.sin(two_pi * y)
        c = np.cos(two_pi * x) * np.cos(two_pi * y)
        return (-two_pi**2 * s, two_pi**2 * c, -two_pi**2 * s)

    def g(x, y):
        return 64.0 * np.pi**4 * np.sin(two_pi * x) * np.sin(two_pi * y)

    problem = PlateProblem(
        g=g,
        dirichlet_w={s: 0.0 for s in ALL_SIDES},
        neumann_M={s: 0.0 for s in ALL_SIDES},
    )
    return BenchmarkSpec("smooth", problem, value, exact_hessian=hessian)


def benchmark_singular(alpha=2.8, beta=2.8):
    """Square plate with u = x^a y^b; fourth derivatives blow up along the
    left and bottom edges, so uniform refinement loses the optimal rate.

    Isotropic adaptive refinement is limited too: covering an edge with
    square cells of size h costs ~1/h dofs and leaves an energy error
    ~h^(a-3/2) on them, so for a = b its error slope against sqrt(dofs)
    is at best -(2a - 3), below the smooth rate p - 1 when 2a - 3 < p - 1.
    """

    def value(x, y):
        return x**alpha * y**beta

    def hessian(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (alpha * (alpha - 1) * x**(alpha - 2) * y**beta,
                alpha * beta * x**(alpha - 1) * y**(beta - 1),
                beta * (beta - 1) * x**alpha * y**(beta - 2))

    def g(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (alpha * (alpha - 1) * (alpha - 2) * (alpha - 3) * x**(alpha - 4) * y**beta
                + beta * (beta - 1) * (beta - 2) * (beta - 3) * x**alpha * y**(beta - 4)
                + 2.0 * alpha * beta * (alpha - 1) * (beta - 1)
                * x**(alpha - 2) * y**(beta - 2))

    problem = PlateProblem(
        g=g,
        dirichlet_w={s: value for s in ALL_SIDES},
        neumann_M=_moment_from_hessian(hessian),
    )
    return BenchmarkSpec("singular", problem, value, exact_hessian=hessian)


_ZETA3 = 1.2020569031595942853997  # Apery's constant zeta(3)


def center_deflection_reference(load=-1.0, length=1.0, stiffness=1.0):
    """Center deflection of the simply supported square under a central
    point load, from Levy's single series.

    w = P L^2 / (2 pi^3 D) sum_{m odd} (tanh a_m - a_m sech^2 a_m) / m^3 with
    a_m = m pi / 2. The sum is 7 zeta(3) / 8 plus corrections
    (tanh a_m - a_m sech^2 a_m - 1) / m^3 that decay like exp(-m pi), so the
    terms up to m = 41 give it to double precision. It equals the double
    series 4 P L^2 / (pi^4 D) sum_{m, n odd} 1 / (m^2 + n^2)^2.
    """
    corrections = []
    for m in range(1, 42, 2):
        a = m * math.pi / 2.0
        corrections.append((math.tanh(a) - a / math.cosh(a) ** 2 - 1.0) / m**3)
    total = math.fsum([7.0 * _ZETA3 / 8.0] + corrections)
    return load * length**2 / (2.0 * math.pi**3 * stiffness) * total


def benchmark_point_load():
    """Simply supported square, single unit point load at the center."""
    problem = PlateProblem(
        g=None,
        dirichlet_w={s: 0.0 for s in ALL_SIDES},
        neumann_M={s: 0.0 for s in ALL_SIDES},
        point_loads=[((0.5, 0.5), -1.0)],
    )
    return BenchmarkSpec(
        "point_load", problem,
        qoi_point=(0.5, 0.5),
        reference_qoi=center_deflection_reference(),
    )


def benchmark_spline_exact():
    """u = x^2 y^2 lies in every plate space with p >= 3; g = 8 exactly.

    Drives the zero-estimator checks: the discrete solution reproduces the
    exact one, so residuals and indicators must vanish.
    """

    def value(x, y):
        return x**2 * y**2

    def hessian(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (2.0 * y**2, 4.0 * x * y, 2.0 * x**2)

    problem = PlateProblem(
        g=lambda x, y: np.full_like(np.asarray(x, dtype=float), 8.0),
        dirichlet_w={s: value for s in ALL_SIDES},
        neumann_M=_moment_from_hessian(hessian),
    )
    return BenchmarkSpec("spline_exact", problem, value, exact_hessian=hessian)


def check_manufactured_load(spec, n_points=10, step=2e-3, lo=0.4, hi=0.9, seed=20):
    """Spot check g against the biharmonic of the exact solution.

    Fourth-order derivatives are approximated by central differences at
    random interior points bounded away from any singular edges. Returns
    the largest relative deviation.
    """
    if spec.exact_value is None:
        raise ValueError("benchmark %r has no exact solution to check" % spec.name)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_points, 2))
    u = spec.exact_value
    g = spec.problem.g
    h = step
    worst = 0.0
    w4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    off = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    w2 = np.array([1.0, -2.0, 1.0])
    off2 = np.array([-1.0, 0.0, 1.0]) * h
    for x, y in pts:
        uxxxx = np.dot(w4, [u(x + d, y) for d in off]) / h**4
        uyyyy = np.dot(w4, [u(x, y + d) for d in off]) / h**4
        uxxyy = 0.0
        for wi, dx in zip(w2, off2):
            for wj, dy in zip(w2, off2):
                uxxyy += wi * wj * u(x + dx, y + dy)
        uxxyy /= h**4
        approx = uxxxx + 2.0 * uxxyy + uyyyy
        exact = float(np.asarray(g(np.array([x]), np.array([y])))[0])
        worst = max(worst, abs(approx - exact) / max(abs(exact), 1.0))
    return worst
