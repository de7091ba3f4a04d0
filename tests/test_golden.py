"""Golden records: one short study per benchmark, compared field by field
at relative tolerance 1e-9 with values recorded when every basis table was
evaluated one point at a time. A change that batches or reorders the
floating-point work may move the last digits, not the results. The
mapped-geometry study (``affine_p3_adaptive``) was recorded later, with the
level-batched element kernel, before the field evaluation and the bubble
blocks were sum-factorised. Its problem is also refined uniformly, to check
the convergence rate on a mapped plate.
"""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from hbplate.adaptivity import LoopConfig, run, slopes
from hbplate.assembly import GeometryMap, PlateProblem
from hbplate.benchmarks import benchmark_point_load, benchmark_singular, benchmark_smooth
from hbplate.hierarchy import HierarchicalSpace

nan = math.nan

# (iteration, dofs, n_elements, h_max, error_h2, eta_total, theta, qoi)
GOLDEN = {
    "smooth_p5_uniform": [
        (0, 49, 4, 0.5, 3.030766524349942, 8.305249587249, 2.740313224566304, nan),
        (1, 81, 16, 0.25, 0.35480784112610875, 0.5937668371708581, 1.673488486856232, nan),
        (2, 169, 64, 0.125, 0.01243351825064513, 0.02408292493443447, 1.936935664463668, nan),
    ],
    "singular_p4_graded": [
        (0, 64, 16, 0.25, 0.004161743013383739, 0.008893191118347682, 2.136890982876187, nan),
        (1, 88, 40, 0.25, 0.001903323565188916, 0.003927888859966115, 2.063700009712352, nan),
        (2, 136, 88, 0.25, 0.0009782369255160195, 0.0017982932767635653,
         1.8383003440756098, nan),
    ],
    "point_load_p3_adaptive": [
        (0, 49, 16, 0.25, nan, 0.004030491135228347, nan, -0.011437519653846954),
        (1, 121, 64, 0.125, nan, 0.0016741181162678652, nan, -0.011559101614322857),
        (2, 193, 172, 0.125, nan, 0.0008185578279994433, nan, -0.011590316873218678),
        (3, 433, 364, 0.0625, nan, 0.0004320019399123184, nan, -0.011598165443857084),
    ],
    "affine_p3_adaptive": [
        (0, 49, 16, 0.25, 0.03757739092450837, 0.06885538027840737, 1.832361922538352,
         0.5079939663958242),
        (1, 121, 64, 0.125, 0.008806988491963196, 0.015702255170129152, 1.7829312692367227,
         0.5080664781460895),
        (2, 292, 223, 0.125, 0.00359365723227632, 0.004142490411949147, 1.152722740149923,
         0.5080669379372487),
    ],
}


def affine_problem():
    """u = sin(2x + 1) cos(1.5y) on the parallelogram x = A xi + b, with A a
    rotation times a shear: clamped on the left and bottom sides, simply
    supported with the exact moment on the right and top, Poisson 0.3. The
    mapped normals are not axis-aligned, so every geometry term is used.
    Returns (problem, geometry map, exact Hessian)."""
    c, s = math.cos(0.5), math.sin(0.5)
    matrix = np.array([[c, -s], [s, c]]) @ np.array([[1.0, 0.4], [0.0, 1.0]])
    geo = GeometryMap.affine(matrix, (0.3, -0.2))
    a, b, nu = 2.0, 1.5, 0.3

    def value(x, y):
        return np.sin(a * x + 1.0) * np.cos(b * y)

    def hessian(x, y):
        u = value(x, y)
        return (-a * a * u, -a * b * np.cos(a * x + 1.0) * np.sin(b * y), -b * b * u)

    inv_t = np.linalg.inv(matrix).T

    def normal(side):
        n = inv_t @ {"left": (-1, 0), "right": (1, 0), "bottom": (0, -1), "top": (0, 1)}[side]
        return n / np.linalg.norm(n)

    def rotation(side):
        # rotation data are minus the outward normal derivative
        nx, ny = normal(side)
        return lambda x, y: -(a * np.cos(a * x + 1.0) * np.cos(b * y) * nx
                              - b * np.sin(a * x + 1.0) * np.sin(b * y) * ny)

    def moment(side):
        nx, ny = normal(side)

        def fn(x, y):
            hxx, hxy, hyy = hessian(x, y)
            return (1.0 - nu) * (nx * nx * hxx + 2.0 * nx * ny * hxy + ny * ny * hyy) \
                + nu * (hxx + hyy)
        return fn

    problem = PlateProblem(
        g=lambda x, y: (a * a + b * b) ** 2 * value(x, y), poisson=nu,
        dirichlet_w={side: value for side in ("left", "bottom", "right", "top")},
        dirichlet_phi={side: rotation(side) for side in ("left", "bottom")},
        neumann_M={side: moment(side) for side in ("right", "top")})
    return problem, geo, hessian


def affine_study():
    problem, geo, hessian = affine_problem()
    return run(problem, HierarchicalSpace.create(4, 3), LoopConfig(max_iterations=3),
               geo=geo, exact_hessian=hessian, qoi_point=(0.37, 0.61))


def study(name):
    if name == "affine_p3_adaptive":
        return affine_study()
    if name == "smooth_p5_uniform":
        spec = benchmark_smooth()
        return run(spec.problem, HierarchicalSpace.create(2, 5),
                   LoopConfig(max_iterations=3, mode="uniform"),
                   exact_hessian=spec.exact_hessian)
    if name == "singular_p4_graded":
        spec = benchmark_singular()
        problem = replace(spec.problem, load_grading=("left", "bottom"))
        return run(problem, HierarchicalSpace.create(4, 4), LoopConfig(max_iterations=3),
                   exact_hessian=spec.exact_hessian)
    spec = benchmark_point_load()
    return run(spec.problem, HierarchicalSpace.create(4, 3), LoopConfig(max_iterations=4),
               qoi_point=spec.qoi_point)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_records_match_golden(name):
    records = [astuple(r) for r in study(name)]
    assert len(records) == len(GOLDEN[name])
    for got, want in zip(records, GOLDEN[name]):
        assert got[:3] == want[:3]
        for g, w in zip(got[3:], want[3:]):
            assert (math.isnan(g) and math.isnan(w)) or g == pytest.approx(w, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("p", [3, 4])
def test_affine_uniform_rate(p):
    """Uniform refinement of the mapped plate reaches the smooth-solution
    rate: the H^2 error falls like h^(p - 1)."""
    problem, geo, hessian = affine_problem()
    records = run(problem, HierarchicalSpace.create(2, p),
                  LoopConfig(max_iterations=4, mode="uniform"), geo=geo, exact_hessian=hessian)
    assert [r.h_max for r in records] == [0.5, 0.25, 0.125, 0.0625]
    assert slopes(records, "h") == pytest.approx(p - 1, abs=0.25)
