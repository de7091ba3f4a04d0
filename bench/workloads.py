"""The refinement studies the benchmark runs, and the checks on their results.

Every reference value here is computed in this file, apart from the
program: the Levy single series for the point load, closed-form H^2
seminorms and the exact solutions of the manufactured problems. A check
compares the program's output with such a value, or tests a property the
method must have; none compares with a stored copy of earlier output.

Nothing here imports hbplate, so that the set-up probe can time the import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

APERY = 1.2020569031595942853997  # zeta(3)
SINGULAR_EXPONENT = 2.8  # a in u = x^a y^a, as benchmark_singular() builds it


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str          # hbplate.benchmarks.benchmark_<benchmark>
    degree: int
    n0: int
    mode: str
    max_iterations: int
    max_dofs: int
    accuracy_target: float  # of the measure in accuracy(); reached before the last record
    load_grading: tuple = ()

    def make_spec(self, hb):
        """The hbplate benchmark spec, with this workload's load grading."""
        spec = getattr(hb.benchmarks, "benchmark_" + self.benchmark)()
        if self.load_grading:
            spec.problem = replace(spec.problem, load_grading=self.load_grading)
        return spec

    def make_space(self, hb):
        return hb.HierarchicalSpace.create(self.n0, self.degree)

    def make_config(self, hb):
        return hb.LoopConfig(max_iterations=self.max_iterations,
                             max_dofs=self.max_dofs, mode=self.mode)

    def accuracy(self, record):
        """Relative error of the record: of the centre deflection for the
        point load, of the H^2 seminorm otherwise."""
        if self.benchmark == "point_load":
            return abs(record.qoi / levy_centre_deflection() - 1.0)
        return record.error_h2 / h2_norm(self.benchmark)


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("point_load_p3_adaptive", "point_load", degree=3, n0=4,
                 mode="adaptive", max_iterations=40, max_dofs=1400,
                 accuracy_target=2e-5),
        Workload("smooth_p5_uniform", "smooth", degree=5, n0=2,
                 mode="uniform", max_iterations=5, max_dofs=20000,
                 accuracy_target=2e-5),
        Workload("singular_p4_graded", "singular", degree=4, n0=4,
                 mode="adaptive", max_iterations=30, max_dofs=1000,
                 accuracy_target=2e-4, load_grading=("left", "bottom")),
    )
}

# ---------------------------------------------------------------------------
# reference values, computed apart from the program


def levy_centre_deflection():
    """Centre deflection of the simply supported unit square under a unit
    downward point load (D = 1), from Levy's single series.

    w = -(7 zeta(3)/8 + sum_{m odd} (tanh a - a sech^2 a - 1)/m^3) / (2 pi^3)
    with a = m pi / 2; the terms decay like exp(-m pi), so m <= 41 is exact
    in double precision.
    """
    total = 0.0
    for m in range(41, 0, -2):
        a = m * math.pi / 2.0
        total += (math.tanh(a) - a / math.cosh(a) ** 2 - 1.0) / m**3
    return -(7.0 * APERY / 8.0 + total) / (2.0 * math.pi**3)


def h2_norm(benchmark):
    """|u|_H2 = sqrt(int u_xx^2 + 2 u_xy^2 + u_yy^2) on the unit square."""
    if benchmark == "smooth":  # sin(2 pi x) sin(2 pi y)
        return 4.0 * math.pi**2
    if benchmark == "singular":  # x^a y^a
        a = SINGULAR_EXPONENT
        return math.sqrt(2.0 * a**2 * (a - 1.0) ** 2 / ((2.0 * a - 3.0) * (2.0 * a + 1.0))
                         + 2.0 * a**4 / (2.0 * a - 1.0) ** 2)
    raise ValueError("no closed-form H2 norm for %r" % benchmark)


def exact_solution(benchmark, x, y):
    if benchmark == "smooth":
        return np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)
    if benchmark == "singular":
        return x**SINGULAR_EXPONENT * y**SINGULAR_EXPONENT
    raise ValueError("no exact solution for %r" % benchmark)


def check_points(seed):
    """16 interior points for the pointwise check; the seed's only use."""
    return np.random.default_rng(seed).uniform(0.05, 0.95, size=(16, 2))


# ---------------------------------------------------------------------------
# checks: each returns (name, passed, detail)

SLOPE_TOL = 0.15  # uniform h-slope against p - 1, between the last 2 levels
THETA_RANGE = (1.0, 10.0)


def check_centre_deflection(qoi, target):
    ref = levy_centre_deflection()
    rel = abs(qoi / ref - 1.0)
    return ("centre_deflection", rel <= target,
            "w_h=%.12g levy=%.12g rel=%.2e target=%.0e" % (qoi, ref, rel, target))


def check_dofs_per_level(dofs, n0, p, levels):
    want = [(n0 * 2**k + p) ** 2 for k in range(levels)]
    return ("dofs_per_level", list(dofs) == want, "dofs=%s want=%s" % (list(dofs), want))


def check_error_monotone(errors):
    ok = all(b <= a for a, b in zip(errors, errors[1:]))
    return ("error_nonincreasing", ok, "error_h2=%s" % ["%.3e" % e for e in errors])


def check_h_slope(h, errors, p):
    slope = float(np.diff(np.log(errors[-2:]))[0] / np.diff(np.log(h[-2:]))[0])
    return ("h_slope", abs(slope - (p - 1)) <= SLOPE_TOL,
            "slope=%.3f want %d+-%.2f between the last 2 levels" % (slope, p - 1, SLOPE_TOL))


def check_relative_h2(error, benchmark, target):
    rel = error / h2_norm(benchmark)
    return ("relative_h2", rel <= target,
            "error_h2/|u|_H2=%.3e target=%.0e" % (rel, target))


def check_pointwise(values, points, benchmark, target):
    """Largest error at the points, relative to the largest |u| there.

    On the unit square |v|_inf <= C |v|_H2 for v vanishing on the boundary,
    with C < 1, so a field within `target` in relative H^2 seminorm is
    within it pointwise too.
    """
    exact = exact_solution(benchmark, points[:, 0], points[:, 1])
    scale = max(float(np.max(np.abs(exact))), 1e-300)
    worst = float(np.max(np.abs(np.asarray(values) - exact))) / scale
    return ("pointwise", worst <= target,
            "max |u_h-u|/max|u|=%.2e over %d points target=%.0e" % (worst, len(points), target))


def check_theta(thetas):
    lo, hi = THETA_RANGE
    ok = all(lo <= t <= hi for t in thetas)
    return ("theta", ok, "theta in [%.3f, %.3f]" % (min(thetas), max(thetas)))


def check_records_identical(untraced, traced):
    return ("traced_records_identical", untraced == traced,
            "%d vs %d bytes" % (len(untraced), len(traced)))


def record_bytes(records):
    """Every field of every record, as float64 bytes."""
    fields = [(r.iteration, r.dofs, r.n_elements, r.h_max, r.error_h2,
               r.eta_total, r.theta, r.qoi) for r in records]
    return np.asarray(fields, dtype=np.float64).tobytes()


def study_checks(wl, records, point_values, points):
    """Checks on one finished study: its records and its final field
    evaluated at `points` (None for the point load)."""
    last = records[-1]
    if wl.benchmark == "point_load":
        return [check_centre_deflection(last.qoi, wl.accuracy_target)]
    out = []
    if wl.mode == "uniform":
        out += [check_dofs_per_level([r.dofs for r in records], wl.n0, wl.degree,
                                     wl.max_iterations),
                check_error_monotone([r.error_h2 for r in records]),
                check_h_slope([r.h_max for r in records], [r.error_h2 for r in records],
                              wl.degree)]
    out += [check_relative_h2(last.error_h2, wl.benchmark, wl.accuracy_target),
            check_pointwise(point_values, points, wl.benchmark, wl.accuracy_target),
            check_theta([r.theta for r in records])]
    return out
