import math
from functools import lru_cache

import numpy as np
import pytest

from hbplate.adaptivity import LoopConfig, run, slopes
from hbplate.benchmarks import (
    benchmark_point_load,
    benchmark_singular,
    benchmark_smooth,
    benchmark_spline_exact,
    center_deflection_reference,
    check_manufactured_load,
)
from hbplate.hierarchy import HierarchicalSpace

REFERENCE_DEFLECTION = -0.011600839735872


@lru_cache(maxsize=None)
def _odd_series_sum(limit=20001):
    """sum over odd m, n <= limit of 1/(m^2 + n^2)^2, compensated.

    The classical double Fourier series of the center deflection, an
    independent check of the single series used for the reference.
    """
    m = np.arange(1.0, limit + 0.5, 2.0)
    partials = []
    for chunk in np.array_split(m, max(1, m.size // 256)):
        terms = 1.0 / (chunk[:, None] ** 2 + m[None, :] ** 2) ** 2
        partials.extend(terms.sum(axis=1))
    return math.fsum(partials)


class TestSmoothSpec:
    def test_load_value_at_quarter_point(self):
        spec = benchmark_smooth()
        g = spec.problem.g(np.array([0.25]), np.array([0.25]))[0]
        assert g == pytest.approx(64.0 * np.pi**4, rel=1e-14)

    def test_exact_solution_vanishes_on_boundary(self):
        spec = benchmark_smooth()
        xs = np.linspace(0, 1, 11)
        for x in xs:
            assert abs(spec.exact_value(x, 0.0)) <= 1e-14
            assert abs(spec.exact_value(x, 1.0)) <= 1e-13
            assert abs(spec.exact_value(0.0, x)) <= 1e-14

    def test_manufactured_consistency(self):
        worst = check_manufactured_load(benchmark_smooth(), lo=0.1, hi=0.9, step=1e-3)
        assert worst <= 1e-4


class TestSingularSpec:
    def test_load_at_unit_corner(self):
        spec = benchmark_singular()
        g = spec.problem.g(np.array([1.0]), np.array([1.0]))[0]
        assert g == pytest.approx(49.1904, abs=1e-10)

    def test_trace_vanishes_along_bottom(self):
        spec = benchmark_singular()
        for x in np.linspace(0.0, 1.0, 7):
            assert spec.exact_value(x, 0.0) == 0.0

    def test_manufactured_consistency_away_from_singular_edges(self):
        worst = check_manufactured_load(benchmark_singular())
        assert worst <= 1e-4

    def test_uniform_p3_rate_limited_by_regularity(self):
        spec = benchmark_singular()
        space = HierarchicalSpace.create(4, 3)
        config = LoopConfig(max_iterations=5, mode="uniform")
        records = run(spec.problem, space, config, exact_hessian=spec.exact_hessian)
        # regularity 3.3 limits the h-rate to about 1.3 even for p = 3
        assert slopes(records, "h") == pytest.approx(1.3, abs=0.25)


class TestPointLoadSpec:
    def test_single_term_of_series(self):
        # m = n = 1 term alone: -4/pi^4 * 1/4
        single = 4.0 * (-1.0) / np.pi**4 * 0.25
        assert single == pytest.approx(-0.01026598, abs=1e-8)

    def test_full_series_matches_reported_reference(self):
        ref = center_deflection_reference()
        assert ref == pytest.approx(REFERENCE_DEFLECTION, abs=1e-10)

    def test_single_series_matches_double_series(self):
        double = 4.0 * (-1.0) / np.pi**4 * _odd_series_sum()
        assert center_deflection_reference() == pytest.approx(double, rel=1e-8, abs=0.0)
        assert center_deflection_reference(-2.0, 3.0, 0.5) == pytest.approx(
            36.0 * double, rel=1e-8, abs=0.0)

    def test_series_stagnation(self):
        full = _odd_series_sum()
        assert abs(_odd_series_sum(10001) - full) <= 1e-8 * abs(full)

    def test_uniform_deflection_error_decreases(self):
        spec = benchmark_point_load()
        space = HierarchicalSpace.create(4, 3)
        config = LoopConfig(max_iterations=4, mode="uniform")
        records = run(spec.problem, space, config, qoi_point=spec.qoi_point)
        errs = [abs(1.0 - r.qoi / spec.reference_qoi) for r in records]
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-2


class TestSplineExactSpec:
    def test_load_is_constant_eight(self):
        spec = benchmark_spline_exact()
        g = spec.problem.g(np.array([0.3, 0.7]), np.array([0.1, 0.9]))
        np.testing.assert_allclose(g, 8.0)

    def test_manufactured_consistency(self):
        worst = check_manufactured_load(benchmark_spline_exact(), lo=0.2, hi=0.8)
        assert worst <= 1e-4


class TestGradedLoadQuadrature:
    def test_grading_refines_near_singular_edges(self):
        # compare the singular load vector with and without graded quadrature
        # on a coarse mesh against a heavily refined reference
        from dataclasses import replace
        from hbplate.assembly import GeometryMap, assemble_load
        spec = benchmark_singular()
        space = HierarchicalSpace.create(2, 3)
        geo = GeometryMap.identity()
        plain = assemble_load(space, geo, spec.problem)
        graded = assemble_load(space, geo,
                               replace(spec.problem, load_grading=("left", "bottom")))
        # grading changes only elements touching the singular sides
        changed = np.abs(plain - graded) > 1e-13
        assert changed.any()
        # graded and plain agree where the integrand is smooth
        _, fx, fy = space.basis.indices
        for d in np.flatnonzero((fx > 3) & (fy > 3)).tolist():
            assert abs(plain[d] - graded[d]) <= 1e-12 * max(1.0, abs(plain[d]))
