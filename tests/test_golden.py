"""Golden records: one short study per benchmark, compared field by field
at relative tolerance 1e-9 with values recorded when every basis table was
evaluated one point at a time. A change that batches or reorders the
floating-point work may move the last digits, not the results.
"""

import math
from dataclasses import astuple, replace

import pytest

from hbplate.adaptivity import LoopConfig, run
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
}


def study(name):
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
