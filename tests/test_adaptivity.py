import math

import numpy as np
import pytest

from hbplate.adaptivity import (
    IterationRecord,
    LoopConfig,
    expand_marks,
    mark_maximum,
    run,
    slopes,
)
from hbplate.benchmarks import benchmark_smooth, benchmark_spline_exact
from hbplate.hierarchy import HierarchicalSpace

from closure_oracle import ElementId, elements, neighbors, positions


class TestMarkMaximum:
    def test_threshold(self):
        marked = mark_maximum(np.array([1.0, 0.6, 0.4]), 0.5)
        assert marked.tolist() == [0, 1]

    def test_gamma_close_to_one_keeps_only_argmax(self):
        marked = mark_maximum(np.array([0.5, 1.0, 0.99]), 0.995)
        assert marked.tolist() == [1]

    def test_uniform_estimates_mark_everything(self):
        marked = mark_maximum(np.full(5, 2.5), 0.9)
        assert marked.tolist() == [0, 1, 2, 3, 4]

    def test_all_zero_gives_empty_set(self):
        assert mark_maximum(np.zeros(4), 0.5).size == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        eta = rng.uniform(0, 3, 16)
        base = mark_maximum(eta, 0.3)
        for c in (1e-6, 0.1, 7.0, 1e8):
            assert np.array_equal(mark_maximum(c * eta, 0.3), base)

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mark_maximum(np.zeros(0), 0.5)

    @pytest.mark.parametrize("eta,pos", [([math.nan, 1.0, 2.0], 0), ([1.0, 2.0, math.nan], 2),
                                         ([1.0, math.inf, 0.5], 1), ([0.0, -math.inf], 1)])
    def test_non_finite_indicator_is_rejected(self, eta, pos):
        # wherever it sits: a NaN first used to mark nothing, a NaN later
        # was ignored
        with pytest.raises(ValueError, match="indicator %d is not finite" % pos):
            mark_maximum(np.array(eta), 0.5)

    def test_gamma_validation(self):
        for gamma in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\), got %r" % gamma):
                mark_maximum(np.ones(3), gamma)


class TestExpandMarks:
    def test_interior_mark_grows_to_nine(self):
        space = HierarchicalSpace.create(4, 3)
        marked = expand_marks(space, positions(space.mesh, [ElementId(0, 1, 1)]))
        assert marked.dtype == np.int64 and marked.tolist() == sorted(set(marked.tolist()))
        assert len(marked) == 9

    def test_corner_mark_grows_to_four(self):
        space = HierarchicalSpace.create(4, 3)
        marked = expand_marks(space, positions(space.mesh, [ElementId(0, 0, 0)]))
        assert len(marked) == 4

    def test_adjacent_marks_union_without_duplicates(self):
        space = HierarchicalSpace.create(4, 3)
        a, b = positions(space.mesh, [ElementId(0, 1, 1), ElementId(0, 2, 1)])
        marked = expand_marks(space, [a, b])
        assert np.array_equal(marked, np.union1d(expand_marks(space, [a]),
                                                 expand_marks(space, [b])))

    def test_superset_of_input(self):
        space = HierarchicalSpace.create(3, 3)
        inp = positions(space.mesh, [ElementId(0, 0, 0), ElementId(0, 2, 2)])
        assert np.isin(inp, expand_marks(space, inp)).all()

    @pytest.mark.parametrize("p", [3, 4])
    def test_matches_the_union_of_neighbors_on_adaptive_meshes(self, p):
        # the per-level lookup against one neighbors call per marked element
        rng = np.random.default_rng(40 + p)
        space = HierarchicalSpace.create(4, p)
        for _ in range(4):
            active = space.mesh.active_elements()
            picks = rng.choice(len(active), size=max(1, len(active) // 6), replace=False)
            space = space.refined(picks, p - 1)
        mesh = space.mesh
        assert mesh.num_levels >= 4
        active = elements(mesh)
        for size in (1, len(active) // 10, len(active) // 3, len(active)):
            marked = rng.choice(len(active), size=size, replace=False)
            want = {active[k] for k in marked}.union(*(neighbors(mesh, active[k]) for k in marked))
            assert [active[k] for k in expand_marks(space, marked)] == sorted(want)

    def test_inactive_mark_is_rejected(self):
        # a position names an active cell only inside [0, 16)
        space = HierarchicalSpace.create(4, 3)
        for bad in (-1, 16, 40):
            with pytest.raises(ValueError, match=r"marked position %d is outside \[0, 16\)" % bad):
                expand_marks(space, np.array([5, bad]))
        with pytest.raises(ValueError, match="marks must be 1-D integers"):
            expand_marks(space, np.array([5.0]))


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

    def test_unknown_x_axis_is_rejected(self):
        recs = [IterationRecord(i, 10 * 4**i, 0, h_max=2.0**-i, error_h2=(2.0**-i) ** 2)
                for i in range(5)]
        for axis in ("dofs", "H", None):
            with pytest.raises(ValueError, match="x_axis must be 'h' or 'sqrt_dofs', got"):
                slopes(recs, axis)

    @pytest.mark.parametrize("k", [1, 0, -1])
    def test_fewer_than_two_records_to_fit_is_rejected(self, k):
        recs = [IterationRecord(i, 10 * 4**i, 0, h_max=2.0**-i, error_h2=(2.0**-i) ** 2)
                for i in range(5)]
        with pytest.raises(ValueError, match="k must be at least 2 to fit a slope, got %d" % k):
            slopes(recs, k=k)

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
        with pytest.raises(ValueError, match="mode must be 'uniform' or 'adaptive', got 'bogus'"):
            LoopConfig(mode="bogus")
        with pytest.raises(ValueError, match="estimator must be 'bubble' or 'residual', got 'bogus'"):
            LoopConfig(estimator="bogus")
        with pytest.raises(ValueError, match="admissibility class must be at least 2, got 1"):
            LoopConfig(admissibility=1)
        # a fractional class once failed several solves later, inside refine
        with pytest.raises(ValueError, match="at least 2, got non-integer 2.5"):
            LoopConfig(admissibility=2.5)
        assert LoopConfig(admissibility=np.int64(3)).admissibility == 3
        # budgets are integers >= 1: a NaN dof budget would never stop a
        # study, and a fractional iteration budget failed only in run
        for budget, bad in [("max_iterations", 0), ("max_iterations", 2.5),
                            ("max_dofs", 0), ("max_dofs", math.nan), ("max_dofs", 1e4)]:
            with pytest.raises(ValueError, match="budgets must be positive integers, got %s=%r"
                               % (budget, bad)):
                LoopConfig(**{budget: bad})
        config = LoopConfig(max_iterations=np.int64(3), max_dofs=np.int32(500))
        assert (config.max_iterations, config.max_dofs) == (3, 500)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_gamma_outside_the_open_unit_interval_rejected(self, gamma):
        # checked with the config, before any solve, not at the first marking
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\), got %r" % gamma):
            LoopConfig(gamma=gamma)

    @pytest.mark.parametrize("calibration", [-1.0, 0.0, math.inf, math.nan])
    def test_calibration_not_finite_and_positive_rejected(self, calibration):
        # a negative calibration makes every indicator negative, so nothing
        # would be marked and an adaptive study would stop after one solve
        with pytest.raises(ValueError, match="calibration must be finite and positive, got %r"
                           % calibration):
            LoopConfig(calibration=calibration)
