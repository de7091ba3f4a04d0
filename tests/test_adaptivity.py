import math

import numpy as np
import pytest

from hbplate.adaptivity import (
    IterationRecord,
    LoopConfig,
    MarkParams,
    expand_marks,
    mark_maximum,
    run,
    slopes,
)
from hbplate.benchmarks import benchmark_smooth, benchmark_spline_exact
from hbplate.estimators import ElementEstimate
from hbplate.hierarchy import ElementId, HierarchicalSpace, init, neighbors


def est(level, ix, iy, eta):
    return ElementEstimate(element=ElementId(level, ix, iy), eta=eta)


class TestMarkMaximum:
    def test_threshold(self):
        ests = [est(0, 0, 0, 1.0), est(0, 1, 0, 0.6), est(0, 2, 0, 0.4)]
        marked = mark_maximum(ests, MarkParams(gamma=0.5))
        assert marked == {ElementId(0, 0, 0), ElementId(0, 1, 0)}

    def test_gamma_close_to_one_keeps_only_argmax(self):
        ests = [est(0, 0, 0, 1.0), est(0, 1, 0, 0.99), est(0, 2, 0, 0.5)]
        marked = mark_maximum(ests, MarkParams(gamma=0.995))
        assert marked == {ElementId(0, 0, 0)}

    def test_uniform_estimates_mark_everything(self):
        ests = [est(0, i, 0, 2.5) for i in range(5)]
        marked = mark_maximum(ests, MarkParams(gamma=0.9))
        assert len(marked) == 5

    def test_all_zero_gives_empty_set(self):
        ests = [est(0, i, 0, 0.0) for i in range(4)]
        assert mark_maximum(ests, MarkParams()) == set()

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        ests = [est(0, i, j, rng.uniform(0, 3)) for i in range(4) for j in range(4)]
        base = mark_maximum(ests, MarkParams(gamma=0.3))
        for c in (1e-6, 0.1, 7.0, 1e8):
            scaled = [ElementEstimate(e.element, c * e.eta) for e in ests]
            assert mark_maximum(scaled, MarkParams(gamma=0.3)) == base

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            MarkParams(gamma=0.0)
        with pytest.raises(ValueError):
            MarkParams(gamma=1.0)


class TestExpandMarks:
    def test_interior_mark_grows_to_nine(self):
        mesh, _ = init(4, 3)
        marked = expand_marks(mesh, {ElementId(0, 1, 1)})
        assert len(marked) == 9

    def test_corner_mark_grows_to_four(self):
        mesh, _ = init(4, 3)
        marked = expand_marks(mesh, {ElementId(0, 0, 0)})
        assert len(marked) == 4

    def test_adjacent_marks_union_without_duplicates(self):
        mesh, _ = init(4, 3)
        marked = expand_marks(mesh, {ElementId(0, 1, 1), ElementId(0, 2, 1)})
        assert marked == (expand_marks(mesh, {ElementId(0, 1, 1)})
                          | expand_marks(mesh, {ElementId(0, 2, 1)}))

    def test_superset_of_input(self):
        mesh, _ = init(3, 3)
        inp = {ElementId(0, 0, 0), ElementId(0, 2, 2)}
        assert inp <= expand_marks(mesh, inp)

    @pytest.mark.parametrize("p", [3, 4])
    def test_matches_the_union_of_neighbors_on_adaptive_meshes(self, p):
        # the per-level lookup against one neighbors call per marked element
        rng = np.random.default_rng(40 + p)
        space = HierarchicalSpace.create(4, p)
        for _ in range(4):
            active = space.mesh.active_elements()
            picks = rng.choice(len(active), size=max(1, len(active) // 6), replace=False)
            space = space.refined([active[i] for i in picks], p - 1)
        mesh = space.mesh
        assert mesh.num_levels >= 4
        active = mesh.active_elements()
        for size in (1, len(active) // 10, len(active) // 3, len(active)):
            marked = {active[i] for i in rng.choice(len(active), size=size, replace=False)}
            want = set(marked).union(*(neighbors(mesh, e) for e in marked))
            assert expand_marks(mesh, marked) == want

    def test_inactive_mark_is_rejected(self):
        mesh, _ = init(4, 3)
        for e in (ElementId(0, 4, 0), ElementId(1, 0, 0)):
            with pytest.raises(ValueError, match="not active"):
                expand_marks(mesh, {ElementId(0, 1, 1), e})


class TestSlopes:
    def test_exact_quadratic_in_h(self):
        recs = [IterationRecord(i, 10 * 4**i, 0, h_max=2.0**-i, error_h2=(2.0**-i) ** 2)
                for i in range(5)]
        assert slopes(recs, "h") == pytest.approx(2.0, abs=1e-12)

    def test_dofs_scaling(self):
        recs = [IterationRecord(i, 4**(i + 2), 0, h_max=1.0, error_h2=3.0 / 4**(i + 2))
                for i in range(4)]
        assert slopes(recs, "sqrt_dofs") == pytest.approx(-2.0, abs=1e-12)

    def test_insufficient_records(self):
        recs = [IterationRecord(0, 10, 0, 0.5, error_h2=1.0),
                IterationRecord(1, 20, 0, 0.25, error_h2=0.5)]
        with pytest.raises(ValueError):
            slopes(recs)

    def test_eta_field_selectable(self):
        recs = [IterationRecord(i, 10, 0, h_max=2.0**-i, error_h2=math.nan,
                                eta_total=(2.0**-i) ** 3) for i in range(4)]
        assert slopes(recs, "h", fieldname="eta_total") == pytest.approx(3.0, abs=1e-12)


class TestRun:
    def test_uniform_smooth_convergence(self):
        spec = benchmark_smooth()
        space = HierarchicalSpace.create(4, 3)
        config = LoopConfig(max_iterations=4, mode="uniform", validate=True)
        records = run(spec.problem, space, config, exact_hessian=spec.exact_hessian)
        assert len(records) == 4
        assert [r.dofs for r in records] == sorted(r.dofs for r in records)
        assert slopes(records, "h") == pytest.approx(2.0, abs=0.2)

    def test_adaptive_run_marks_and_refines(self):
        spec = benchmark_smooth()
        space = HierarchicalSpace.create(4, 3)
        config = LoopConfig(max_iterations=3, mode="adaptive", validate=True)
        records = run(spec.problem, space, config, exact_hessian=spec.exact_hessian)
        assert len(records) == 3
        assert records[-1].dofs > records[0].dofs
        assert all(np.isfinite(r.eta_total) for r in records)
        assert all(r.theta > 0 for r in records)

    def test_zero_estimates_terminate_early(self):
        spec = benchmark_spline_exact()
        space = HierarchicalSpace.create(3, 3)
        config = LoopConfig(max_iterations=5, mode="adaptive")
        records = run(spec.problem, space, config, exact_hessian=spec.exact_hessian)
        assert len(records) == 1  # first estimate vanishes, loop exits
        assert records[0].error_h2 <= 1e-8

    def test_max_dofs_budget_never_exceeded(self):
        spec = benchmark_smooth()
        space = HierarchicalSpace.create(4, 3)
        config = LoopConfig(max_iterations=10, max_dofs=400, mode="uniform")
        records = run(spec.problem, space, config)
        assert [r.dofs for r in records] == [49, 121, 361]
        assert all(r.dofs <= 400 for r in records)

    def test_qoi_recorded(self):
        spec = benchmark_smooth()
        space = HierarchicalSpace.create(4, 3)
        config = LoopConfig(max_iterations=1)
        records = run(spec.problem, space, config, exact_hessian=spec.exact_hessian,
                      qoi_point=(0.25, 0.25))
        assert np.isfinite(records[0].qoi)

    def test_residual_estimator_mode(self):
        spec = benchmark_smooth()
        space = HierarchicalSpace.create(4, 3)
        config = LoopConfig(max_iterations=2, estimator="residual")
        records = run(spec.problem, space, config, exact_hessian=spec.exact_hessian)
        assert len(records) == 2
        assert records[0].theta > 10.0  # strong-residual comparator overestimates

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoopConfig(mode="bogus")
        with pytest.raises(ValueError):
            LoopConfig(estimator="bogus")
        with pytest.raises(ValueError):
            LoopConfig(max_iterations=0)
        with pytest.raises(ValueError):
            LoopConfig(admissibility=1)
