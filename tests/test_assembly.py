import math

import numpy as np
import pytest

from hbplate.assembly import (
    BoundaryDataError,
    GeometryMap,
    LinearSystem,
    PlateProblem,
    SolverError,
    apply_dirichlet,
    assemble_load,
    assemble_stiffness,
    assemble_system,
    evaluate,
    h2_seminorm_error,
    pushforward2,
    quadrature,
    solve,
)
from hbplate.hierarchy import ElementId, HierarchicalSpace
from hbplate.splines import make_open_uniform

IDENTITY = GeometryMap.identity()


def simply_supported(g=None, point_loads=None):
    zero = 0.0
    return PlateProblem(
        g=g,
        dirichlet_w={s: zero for s in ("left", "bottom", "right", "top")},
        neumann_M={s: zero for s in ("left", "bottom", "right", "top")},
        point_loads=point_loads or [],
    )


def spline_exact_problem():
    """u = x^2 y^2 lies in every plate space with p >= 3; g = lap^2 u = 8."""
    def trace(x, y):
        return x**2 * y**2
    def moment(x, y):
        # normal-normal second derivative on the axis-aligned sides
        return np.where((np.asarray(x) == 0.0) | (np.asarray(x) == 1.0),
                        2.0 * np.asarray(y)**2, 2.0 * np.asarray(x)**2)
    return PlateProblem(
        g=lambda x, y: np.full_like(np.asarray(x, dtype=float), 8.0),
        dirichlet_w={s: trace for s in ("left", "bottom", "right", "top")},
        neumann_M={s: moment for s in ("left", "bottom", "right", "top")},
    )


def exact_hessian_x2y2(x, y):
    return 2.0 * y**2, 4.0 * x * y, 2.0 * x**2


class TestPlateProblemValidation:
    def test_every_side_needs_exactly_one_of_each_pair(self):
        sides = ("left", "bottom", "right", "top")
        with pytest.raises(ValueError):
            PlateProblem(dirichlet_w={s: 0.0 for s in sides})  # no rotation/moment data
        with pytest.raises(ValueError):
            PlateProblem(dirichlet_w={s: 0.0 for s in sides},
                         neumann_Q={"left": 0.0},
                         neumann_M={s: 0.0 for s in sides})  # left doubly constrained
        with pytest.raises(ValueError):
            PlateProblem(dirichlet_w={"west": 0.0})  # unknown side name

    def test_clamped_and_supported_mix_accepted(self):
        prob = PlateProblem(
            dirichlet_w={s: 0.0 for s in ("left", "bottom", "right", "top")},
            dirichlet_phi={"left": 0.0, "right": 0.0},
            neumann_M={"bottom": 0.0, "top": 0.0})
        assert prob.poisson == 0.0 and prob.stiffness == 1.0


class TestQuadrature:
    def test_point_count_and_weight_sum(self):
        rule = quadrature(3)
        assert rule.points.shape == (25, 2)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_degree_nine_monomial_exact(self):
        rule = quadrature(3)
        val = np.sum(rule.weights * rule.points[:, 0] ** 8)
        assert val == pytest.approx(1.0 / 9.0, abs=1e-14)

    def test_p5_rule_integrates_degree_13(self):
        rule = quadrature(5)
        for k in (12, 13):
            val = np.sum(rule.weights * rule.points[:, 1] ** k)
            assert val == pytest.approx(1.0 / (k + 1), rel=1e-14)


class TestPushforward:
    def test_identity_passthrough(self):
        push = pushforward2(IDENTITY, (0.3, 0.7))
        grad, hess = push.apply([1.0, 2.0], [[3.0, 1.0], [1.0, 4.0]])
        np.testing.assert_allclose(grad, [1.0, 2.0])
        np.testing.assert_allclose(hess, [[3.0, 1.0], [1.0, 4.0]])
        assert push.jacobian_det == pytest.approx(1.0)

    def test_affine_scaling(self):
        geo = GeometryMap.affine([[2.0, 0.0], [0.0, 3.0]])
        push = pushforward2(geo, (0.5, 0.5))
        grad, hess = push.apply([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(grad, [0.5, 1.0 / 3.0])
        np.testing.assert_allclose(hess, [[0.25, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 9.0]])

    def test_bilinear_distortion_against_finite_differences(self):
        # geometry with bilinear control net; test polynomial in physical coords
        kv = make_open_uniform(2, 3)
        grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
        def fmap(xi, eta):
            return np.stack([xi + 0.3 * xi * eta, eta + 0.2 * xi * (1 - eta)], axis=-1)
        control = np.zeros((kv.num_basis, kv.num_basis, 2))
        for i, gx in enumerate(grev):
            for j, gy in enumerate(grev):
                control[i, j] = fmap(gx, gy)
        geo = GeometryMap.spline(kv, control)

        def u_phys(x, y):
            return x**3 * y + 2.0 * x * y**2

        xi0 = np.array([0.4, 0.6])
        h = 1e-5
        # parametric derivatives of u(S(xi)) by finite differences
        def u_par(xi):
            x, y = geo.map_points([xi])[0]
            return u_phys(x, y)
        grad_par = np.array([
            (u_par(xi0 + [h, 0]) - u_par(xi0 - [h, 0])) / (2 * h),
            (u_par(xi0 + [0, h]) - u_par(xi0 - [0, h])) / (2 * h)])
        hess_par = np.empty((2, 2))
        hess_par[0, 0] = (u_par(xi0 + [h, 0]) - 2 * u_par(xi0) + u_par(xi0 - [h, 0])) / h**2
        hess_par[1, 1] = (u_par(xi0 + [0, h]) - 2 * u_par(xi0) + u_par(xi0 - [0, h])) / h**2
        hess_par[0, 1] = hess_par[1, 0] = (
            u_par(xi0 + [h, h]) - u_par(xi0 + [h, -h])
            - u_par(xi0 + [-h, h]) + u_par(xi0 + [-h, -h])) / (4 * h**2)
        push = pushforward2(geo, xi0)
        grad_phys, hess_phys = push.apply(grad_par, hess_par)
        x0, y0 = geo.map_points([xi0])[0]
        exact_grad = np.array([3 * x0**2 * y0 + 2 * y0**2, x0**3 + 4 * x0 * y0])
        exact_hess = np.array([[6 * x0 * y0, 3 * x0**2 + 4 * y0],
                               [3 * x0**2 + 4 * y0, 4 * x0]])
        np.testing.assert_allclose(grad_phys, exact_grad, rtol=1e-5)
        np.testing.assert_allclose(hess_phys, exact_hess, rtol=1e-5, atol=1e-5)

    def test_singular_geometry_rejected(self):
        with pytest.raises(Exception):
            GeometryMap.affine([[1.0, 0.0], [0.0, -1.0]])


def bernstein_poly(q, i):
    """Bernstein polynomial as numpy poly1d, independent of the package."""
    poly = np.poly1d([0.0])
    for k in range(q - i + 1):
        c = math.comb(q, i) * math.comb(q - i, k) * (-1.0) ** k
        poly = poly + c * np.poly1d([1.0] + [0.0] * (i + k))
    return poly


class TestStiffness:
    def test_symmetry(self):
        space = HierarchicalSpace.create(3, 3)
        space = space.refined([ElementId(0, 0, 0)], m=2)
        a = assemble_stiffness(space, IDENTITY, PlateProblem(
            dirichlet_w={s: 0.0 for s in ("left", "bottom", "right", "top")},
            neumann_M={s: 0.0 for s in ("left", "bottom", "right", "top")}))
        diff = (a - a.T).tocoo()
        scale = np.abs(a.data).max()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12 * scale

    def test_affine_functions_are_energy_free(self):
        # coefficients reproducing x + y on a single-level space
        space = HierarchicalSpace.create(4, 3)
        prob = simply_supported()
        a = assemble_stiffness(space, IDENTITY, prob)
        kv = space.mesh.knots(0)
        grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
        coeffs = np.add.outer(grev, grev).ravel()  # Greville coefficients give x + y
        resid = a @ coeffs
        scale = np.abs(a.data).max()
        assert np.abs(resid).max() <= 1e-9 * scale

    def test_single_bernstein_element_against_exact_integration(self):
        space = HierarchicalSpace.create(1, 3)
        prob = simply_supported()
        a = assemble_stiffness(space, IDENTITY, prob).toarray()
        polys = [bernstein_poly(3, i) for i in range(4)]
        d2 = [np.polyder(q, 2) for q in polys]
        d1 = [np.polyder(q, 1) for q in polys]
        vals = np.zeros((16, 16))
        def integral(pa, pb):
            prod = np.polymul(pa, pb)
            integ = np.polyint(prod)
            return integ(1.0) - integ(0.0)
        for r in range(16):
            ix, iy = divmod(r, 4)
            for c in range(16):
                jx, jy = divmod(c, 4)
                hxx = integral(d2[ix], d2[jx]) * integral(polys[iy], polys[jy])
                hyy = integral(polys[ix], polys[jx]) * integral(d2[iy], d2[jy])
                hxy = integral(d1[ix], d1[jx]) * integral(d1[iy], d1[jy])
                vals[r, c] = hxx + hyy + 2.0 * hxy
        np.testing.assert_allclose(a, vals, rtol=1e-12, atol=1e-10)

    def test_stiffness_scale_linearity(self):
        space = HierarchicalSpace.create(2, 3)
        p1 = simply_supported()
        p2 = PlateProblem(stiffness=2.0,
                          dirichlet_w=p1.dirichlet_w, neumann_M=p1.neumann_M)
        a1 = assemble_stiffness(space, IDENTITY, p1)
        a2 = assemble_stiffness(space, IDENTITY, p2)
        np.testing.assert_allclose(a2.toarray(), 2.0 * a1.toarray(), rtol=1e-14)


class TestLoad:
    def test_zero_data_gives_zero_vector(self):
        space = HierarchicalSpace.create(2, 3)
        rhs = assemble_load(space, IDENTITY, simply_supported())
        np.testing.assert_array_equal(rhs, 0.0)

    def test_smooth_load_against_finer_quadrature(self):
        space = HierarchicalSpace.create(8, 3)
        g = lambda x, y: 64.0 * np.pi**4 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        rhs = assemble_load(space, IDENTITY, simply_supported(g=g))
        # oracle: the same integrals with twice as many Gauss points
        space7 = HierarchicalSpace.create(8, 3)
        from hbplate.assembly import _ElementEvaluator
        ev = _ElementEvaluator(space7, nq1=10)
        ref = np.zeros(space7.num_dofs)
        dof = space7.basis.dof_index
        for e in space7.mesh.active_elements():
            funcs, rows = ev.element_rows(e, combos=((0, 0),))
            pts, wts = ev.element_points(e)
            ref[[dof[f] for f in funcs]] += rows[(0, 0)] @ (wts * g(pts[:, 0], pts[:, 1]))
        scale = np.abs(ref).max()
        assert np.abs(rhs - ref).max() <= 1e-10 * scale

    def test_point_load_is_exact_point_evaluation(self):
        space = HierarchicalSpace.create(4, 3)
        rhs = assemble_load(space, IDENTITY,
                            simply_supported(point_loads=[((0.4, 0.55), -1.0)]))
        from hbplate.assembly import _point_values
        funcs, vals = _point_values(space, (0.4, 0.55))
        expected = np.zeros(space.num_dofs)
        for f, v in zip(funcs, vals):
            expected[space.basis.dof_index[f]] = -v
        np.testing.assert_allclose(rhs, expected, atol=1e-15)

    def test_point_load_outside_domain(self):
        space = HierarchicalSpace.create(2, 3)
        with pytest.raises(ValueError):
            assemble_load(space, IDENTITY,
                          simply_supported(point_loads=[((1.5, 0.5), 1.0)]))


class TestDirichlet:
    def test_simply_supported_constraint_count(self):
        space = HierarchicalSpace.create(4, 3)
        sys0 = LinearSystem(matrix=assemble_stiffness(space, IDENTITY, simply_supported()),
                            rhs=np.zeros(space.num_dofs))
        sys1 = apply_dirichlet(sys0, space, simply_supported())
        assert len(sys1.constraints) == 4 * 7 - 4
        assert all(v == 0.0 for v in sys1.constraints.values())

    def test_zero_trace_side_fitted_exactly(self):
        space = HierarchicalSpace.create(4, 3)
        prob = spline_exact_problem()
        sys0 = assemble_system(space, IDENTITY, prob)
        sys1 = apply_dirichlet(sys0, space, prob)
        # bottom side trace of x^2 y^2 vanishes: its dofs are zero
        for f in space.basis.active:
            if f.iy == 0:
                assert abs(sys1.constraints[space.basis.dof_index[f]]) <= 1e-12

    def test_clamped_side_constrains_two_layers(self):
        space = HierarchicalSpace.create(4, 3)
        prob = PlateProblem(
            dirichlet_w={s: 0.0 for s in ("left", "bottom", "right", "top")},
            dirichlet_phi={"left": 0.0},
            neumann_M={s: 0.0 for s in ("bottom", "right", "top")},
        )
        sys0 = LinearSystem(matrix=assemble_stiffness(space, IDENTITY, prob),
                            rhs=np.zeros(space.num_dofs))
        sys1 = apply_dirichlet(sys0, space, prob)
        n = space.mesh.knots(0).num_basis
        expected = {space.basis.dof_index[f] for f in space.basis.active
                    if f.ix == 0 or f.iy in (0, n - 1) or f.ix == n - 1 or f.ix == 1}
        assert set(sys1.constraints) == expected

    def test_corner_mismatch_raises(self):
        space = HierarchicalSpace.create(2, 3)
        prob = PlateProblem(
            dirichlet_w={"left": 1.0, "bottom": 0.0, "right": 0.0, "top": 1.0},
            neumann_M={s: 0.0 for s in ("left", "bottom", "right", "top")},
        )
        sys0 = LinearSystem(matrix=assemble_stiffness(space, IDENTITY, prob),
                            rhs=np.zeros(space.num_dofs))
        with pytest.raises(BoundaryDataError):
            apply_dirichlet(sys0, space, prob)


class TestSolve:
    def test_galerkin_orthogonality(self):
        rng = np.random.default_rng(4)
        space = HierarchicalSpace.create(4, 3)
        g = lambda x, y: np.sin(3 * x + y)
        prob = simply_supported(g=g)
        system = apply_dirichlet(assemble_system(space, IDENTITY, prob), space, prob)
        u = solve(system)
        free = sorted(set(range(space.num_dofs)) - set(system.constraints))
        resid = system.rhs - system.matrix @ u.coefficients
        scale = max(np.abs(system.rhs).max(), 1e-30)
        for _ in range(20):
            v = np.zeros(space.num_dofs)
            v[free] = rng.standard_normal(len(free))
            assert abs(resid @ v) <= 1e-9 * scale * np.linalg.norm(v)

    def test_spline_exact_solution_recovered(self):
        for p in (3, 4):
            space = HierarchicalSpace.create(3, p)
            prob = spline_exact_problem()
            system = apply_dirichlet(assemble_system(space, IDENTITY, prob), space, prob)
            u = solve(system)
            err = h2_seminorm_error(u, exact_hessian_x2y2, space, IDENTITY)
            assert err <= 1e-8

    def test_refined_space_recovers_exact_solution(self):
        space = HierarchicalSpace.create(2, 3)
        space = space.refined([ElementId(0, 0, 0), ElementId(0, 1, 1)], m=2)
        prob = spline_exact_problem()
        system = apply_dirichlet(assemble_system(space, IDENTITY, prob), space, prob)
        u = solve(system)
        err = h2_seminorm_error(u, exact_hessian_x2y2, space, IDENTITY)
        assert err <= 1e-8

    def test_solver_reports_breakdown(self):
        # singular reduced matrix: no constraints at all on the plate energy
        space = HierarchicalSpace.create(2, 3)
        prob = simply_supported(g=lambda x, y: np.ones_like(x))
        system = assemble_system(space, IDENTITY, prob)
        with pytest.raises(SolverError):
            solve(system)


class TestH2Seminorm:
    def test_exact_interpolant_of_quadratic_gives_zero(self):
        space = HierarchicalSpace.create(3, 3)
        prob = spline_exact_problem()
        system = apply_dirichlet(assemble_system(space, IDENTITY, prob), space, prob)
        u = solve(system)
        assert h2_seminorm_error(u, exact_hessian_x2y2, space, IDENTITY) <= 1e-8

    def test_zero_field_measures_exact_seminorm(self):
        space = HierarchicalSpace.create(8, 3)
        from hbplate.assembly import DiscreteField
        zero = DiscreteField(np.zeros(space.num_dofs))
        def hess(x, y):
            s = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
            c = np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
            return (-4 * np.pi**2 * s, 4 * np.pi**2 * c, -4 * np.pi**2 * s)
        err = h2_seminorm_error(zero, hess, space, IDENTITY)
        assert err == pytest.approx(4 * np.pi**2, rel=1e-6)


class TestEvaluate:
    def test_all_ones_on_single_level_is_one(self):
        space = HierarchicalSpace.create(3, 3)
        from hbplate.assembly import DiscreteField
        ones = DiscreteField(np.ones(space.num_dofs))
        pts = np.array([[0.1, 0.2], [0.5, 0.5], [0.99, 0.01]])
        vals, grads, hess = evaluate(ones, space, IDENTITY, pts)
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)
        np.testing.assert_allclose(grads, 0.0, atol=1e-9)

    def test_linear_field_gradient_and_hessian(self):
        space = HierarchicalSpace.create(4, 3)
        kv = space.mesh.knots(0)
        grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
        from hbplate.assembly import DiscreteField
        coeffs = np.add.outer(grev, grev).ravel()
        field = DiscreteField(coeffs)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, size=(10, 2))
        vals, grads, hess = evaluate(field, space, IDENTITY, pts)
        np.testing.assert_allclose(vals, pts[:, 0] + pts[:, 1], atol=1e-10)
        np.testing.assert_allclose(grads, 1.0, atol=1e-10)
        np.testing.assert_allclose(hess, 0.0, atol=1e-10)

    def test_out_of_domain_point(self):
        space = HierarchicalSpace.create(2, 3)
        from hbplate.assembly import DiscreteField
        field = DiscreteField(np.zeros(space.num_dofs))
        with pytest.raises(ValueError):
            evaluate(field, space, IDENTITY, [[1.2, 0.5]])


class TestTableCache:
    @staticmethod
    def tables(space):
        mesh = space.mesh
        return [mesh.knots(k).num_tables for k in range(mesh.num_levels)]

    @staticmethod
    def study(space):
        from hbplate.adaptivity import LoopConfig, run
        from hbplate.benchmarks import benchmark_smooth
        spec = benchmark_smooth()
        final = []

        def keep_last(sp, u_h, record):
            final[:] = [sp, u_h]

        run(spec.problem, space, LoopConfig(max_iterations=3), exact_hessian=spec.exact_hessian,
            on_iteration=keep_last)
        return final

    def test_fresh_space_starts_cold(self):
        space = HierarchicalSpace.create(4, 3)
        assert self.tables(space) == [0]
        assert self.tables(space.refined([ElementId(0, 1, 1)], 2)) == [0, 0]

    def test_studies_do_not_share_tables(self):
        first, _ = self.study(HierarchicalSpace.create(2, 3))
        counts = self.tables(first)
        assert first.mesh.num_levels > 1 and all(c > 0 for c in counts)
        second, _ = self.study(HierarchicalSpace.create(2, 3))
        assert self.tables(first) == counts
        assert all(second.mesh.knots(k) is not first.mesh.knots(k)
                   for k in range(first.mesh.num_levels))

    def test_only_quadrature_rules_are_cached(self):
        space, u_h = self.study(HierarchicalSpace.create(2, 3))
        counts = self.tables(space)
        pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(40, 2))
        evaluate(u_h, space, IDENTITY, pts)
        assert self.tables(space) == counts
        # reassembling on the same mesh finds every table it needs
        problem = simply_supported(g=1.0)
        apply_dirichlet(assemble_system(space, IDENTITY, problem), space, problem)
        h2_seminorm_error(u_h, exact_hessian_x2y2, space, IDENTITY)
        assert self.tables(space) == counts
