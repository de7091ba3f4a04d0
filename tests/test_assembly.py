import math

import numpy as np
import pytest

import hbplate.assembly
from hbplate.assembly import (
    _ASSEMBLY_COMBOS,
    SIDES,
    BoundaryDataError,
    GeometryError,
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
    solve,
    _edge_rule,
    _element_batches,
    _field_batches,
    _gauss01,
    _graded_rule,
    _level_cells,
)
from hbplate.hierarchy import ElementId, HierarchicalSpace, check_admissible, connectivity
from hbplate.splines import make_open_uniform, tabulate_in_span
from pushforward import pushforward2

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
    """The interior rule of every element integral: _gauss01(p + 2) per direction."""

    def test_point_count_and_weight_sum(self):
        nodes, w1 = _gauss01(3 + 2)
        assert nodes.shape == w1.shape == (5,)
        assert np.all((nodes > 0.0) & (nodes < 1.0))
        assert np.outer(w1, w1).sum() == pytest.approx(1.0, abs=1e-14)

    def test_degree_nine_monomial_exact(self):
        nodes, w1 = _gauss01(3 + 2)
        assert np.sum(w1 * nodes ** 8) == pytest.approx(1.0 / 9.0, abs=1e-14)
        assert np.sum(w1 * nodes ** 9) == pytest.approx(1.0 / 10.0, abs=1e-14)

    def test_p5_rule_integrates_degree_13(self):
        nodes, w1 = _gauss01(5 + 2)
        for k in (12, 13):
            assert np.sum(w1 * nodes ** k) == pytest.approx(1.0 / (k + 1), rel=1e-14)


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


class TestGeometryErrors:
    def test_folded_spline_net_names_level_and_cell(self):
        # one interior control point pulled across its neighbours folds the
        # map over [0.55, 1]^2, inside the refined level-1 cells
        kv = make_open_uniform(2, 3)
        grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
        control = np.stack(np.meshgrid(grev, grev, indexing="ij"), axis=-1)
        control[3, 3] = (0.05, 0.05)
        geo = GeometryMap.spline(kv, control)
        space = HierarchicalSpace.create(2, 3).refined([ElementId(0, 1, 1)], 2)
        prob = simply_supported(g=1.0)
        for assemble in (assemble_stiffness, assemble_load):
            with pytest.raises(GeometryError, match=r"level 1, cell \(2, 2\)"):
                assemble(space, geo, prob)


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


class TestLevelBatchKernel:
    @staticmethod
    def three_level_space(p):
        space = HierarchicalSpace.create(8, p).refined([ElementId(0, 1, 1)], 2)
        space = space.refined([ElementId(1, 2, 2)], 2)
        assert space.mesh.num_levels == 3 and check_admissible(space.mesh, 2, space.basis)
        return space

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_rows_follow_connectivity_and_tables(self, p):
        space = self.three_level_space(p)
        mesh, basis = space.mesh, space.basis
        nodes, w1 = np.polynomial.legendre.leggauss(p + 2)
        gauss = (0.5 * (nodes + 1.0), 0.5 * w1)
        # (rule passed to the kernel, its 1-D nodes and weights, power of h in the weights)
        rules = {"interior": (None, (gauss, gauss), 2)}
        for side in ("left", "bottom", "right", "top"):
            rule = _edge_rule(p, side)
            across, along = rule if side in ("left", "right") else rule[::-1]
            assert across[0].tolist() == [0.0 if side in ("left", "bottom") else 1.0]
            assert across[1].tolist() == [1.0]
            np.testing.assert_array_equal(along[0], gauss[0])
            np.testing.assert_array_equal(along[1], gauss[1])
            rules[side] = (rule, rule, 1)
        corner = _graded_rule(p, frozenset({"left", "bottom"}))
        for xn, xw in corner:
            # four strips graded toward 0, each with its own exact Gauss rule
            assert xn.size == 4 * (p + 2) and xn[0] < 0.15 ** 3 and np.all(np.diff(xn) > 0.0)
            for k in range(2 * (p + 2)):
                assert np.sum(xw * xn ** k) == pytest.approx(1.0 / (k + 1), rel=1e-13)
        rules["graded corner"] = (corner, corner, 2)
        a = mesh.interval[0]
        padded = 0
        for name, (rule, ((xn, xw), (yn, yw)), dims) in rules.items():
            seen = 0
            for level, cells in _level_cells(mesh):
                h = mesh.h(level)
                for sl, dofs, rows, wts, pts in _element_batches(
                        space, level, cells, _ASSEMBLY_COMBOS, rule):
                    for r, (ix, iy) in enumerate(cells[sl]):
                        e = ElementId(level, int(ix), int(iy))
                        funcs = connectivity(mesh, basis, e)
                        n = len(funcs)
                        want = [int(basis.level_dofs(*f)) for f in funcs]
                        assert list(dofs[r, :n]) == want, name
                        assert np.all(dofs[r, n:] == -1)
                        xs, ys = a + (ix + xn) * h, a + (iy + yn) * h
                        np.testing.assert_array_equal(pts[r, :, 0], np.repeat(xs, yn.size))
                        np.testing.assert_array_equal(pts[r, :, 1], np.tile(ys, xn.size))
                        np.testing.assert_allclose(wts[r], np.outer(xw, yw).ravel() * h ** dims,
                                                   rtol=1e-15)
                        tables = {}  # (level of f, its cell there, direction) -> table
                        tx, ty = [], []
                        for f in funcs:
                            shift = level - f.level
                            for out, t, cell, fi, axis in ((tx, xs, ix >> shift, f.ix, 0),
                                                           (ty, ys, iy >> shift, f.iy, 1)):
                                key = (f.level, cell, axis)
                                if key not in tables:
                                    kv = mesh.knots(f.level)
                                    tables[key] = tabulate_in_span(kv, t, cell + p, 2)
                                out.append(tables[key][:, fi - cell])
                        tx, ty = np.array(tx), np.array(ty)
                        for (dx, dy) in _ASSEMBLY_COMBOS:
                            ref = (tx[:, dx, :, None] * ty[:, dy, None, :]).reshape(n, -1)
                            np.testing.assert_array_equal(rows[(dx, dy)][r, :n], ref,
                                                          err_msg=name)
                            assert np.all(rows[(dx, dy)][r, n:] == 0.0)
                        seen += 1
                        padded += dofs.shape[1] - n
            assert seen == mesh.n_active
        assert padded > 0

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_field_mode_contracts_the_rows(self, p, monkeypatch):
        # sum factorisation against the rows mode's basis rows times the
        # coefficients, for every kind of rule and derivatives up to order 4,
        # with chunks small enough that both modes split every level
        monkeypatch.setattr(hbplate.assembly, "_CHUNK_BYTES", 1 << 14)
        space = self.three_level_space(p)
        coeff = np.random.default_rng(p).standard_normal(space.num_dofs)
        combos = _ASSEMBLY_COMBOS + ((3, 0), (2, 2), (1, 3), (0, 4))
        rules = [None, _graded_rule(p, frozenset({"left", "bottom"}))]
        rules += [_edge_rule(p, side, (1, 2)) for side in SIDES]
        rules.append(((np.array([0.0, 0.3, 1.0]), np.ones(3)), (np.array([0.7, 1.0]), np.ones(2))))
        split = 0
        for rule in rules:
            for level, cells in _level_cells(space.mesh):
                got, want = [], []  # per chunk: (derivatives by combo, weights, points)
                for _, ders, wts, pts in _field_batches(space, level, cells, coeff, combos, rule):
                    assert all(d.shape == (len(pts), 1, pts.shape[1]) for d in ders.values())
                    got.append(([ders[k][:, 0] for k in combos], wts, pts))
                split = max(split, len(got))
                for _, dofs, rows, wts, pts in _element_batches(space, level, cells, combos,
                                                                 rule):
                    c = np.where(dofs >= 0, coeff[dofs], 0.0)
                    want.append(([np.einsum("elq,el->eq", rows[k], c) for k in combos], wts, pts))
                for part in (1, 2):
                    np.testing.assert_array_equal(np.concatenate([g[part] for g in got]),
                                                  np.concatenate([w[part] for w in want]))
                for k in range(len(combos)):
                    g = np.concatenate([d[0][k] for d in got])
                    w = np.concatenate([d[0][k] for d in want])
                    assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max(), (rule, combos[k])
        assert split > 1

    def test_spline_geometry_stiffness_matches_element_loop(self):
        kv = make_open_uniform(2, 3)
        grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
        control = np.zeros((kv.num_basis, kv.num_basis, 2))
        for i, gx in enumerate(grev):
            for j, gy in enumerate(grev):
                control[i, j] = (gx + 0.3 * gx * gy, gy + 0.2 * gx * (1.0 - gy))
        geo = GeometryMap.spline(kv, control)
        space = HierarchicalSpace.create(2, 3).refined([ElementId(0, 0, 1)], 2)
        prob = PlateProblem(stiffness=2.0, poisson=0.3,
                            dirichlet_w={s: 0.0 for s in ("left", "bottom", "right", "top")},
                            neumann_M={s: 0.0 for s in ("left", "bottom", "right", "top")})
        got = assemble_stiffness(space, geo, prob).toarray()
        # reference: one element at a time, one point at a time, through pushforward2
        mesh, basis = space.mesh, space.basis
        nodes, w1 = np.polynomial.legendre.leggauss(5)
        nodes, w1 = 0.5 * (nodes + 1.0), 0.5 * w1
        ref = np.zeros_like(got)
        for e in mesh.active_elements():
            x0, y0, x1, y1 = mesh.element_rect(e)
            xs, ys = x0 + (x1 - x0) * nodes, y0 + (y1 - y0) * nodes
            funcs = connectivity(mesh, basis, e)
            tabs = []
            for f in funcs:
                k = mesh.knots(f.level)
                ax, ay = e.ix >> (e.level - f.level), e.iy >> (e.level - f.level)
                tabs.append((tabulate_in_span(k, xs, ax + 3, 2)[:, f.ix - ax],
                             tabulate_in_span(k, ys, ay + 3, 2)[:, f.iy - ay]))
            idx = [int(basis.level_dofs(*f)) for f in funcs]
            for qx, x in enumerate(xs):
                for qy, y in enumerate(ys):
                    push = pushforward2(geo, (x, y))
                    w = w1[qx] * w1[qy] * (x1 - x0) * (y1 - y0) * push.jacobian_det
                    hess = []
                    for tx, ty in tabs:
                        grad = [tx[1, qx] * ty[0, qy], tx[0, qx] * ty[1, qy]]
                        hpar = [[tx[2, qx] * ty[0, qy], tx[1, qx] * ty[1, qy]],
                                [tx[1, qx] * ty[1, qy], tx[0, qx] * ty[2, qy]]]
                        hess.append(push.apply(grad, hpar)[1])
                    hess = np.array(hess)
                    frob = np.einsum("iab,jab->ij", hess, hess)
                    lap = hess[:, 0, 0] + hess[:, 1, 1]
                    ref[np.ix_(idx, idx)] += 2.0 * w * (0.7 * frob + 0.3 * np.outer(lap, lap))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestLoad:
    def test_zero_data_gives_zero_vector(self):
        space = HierarchicalSpace.create(2, 3)
        rhs = assemble_load(space, IDENTITY, simply_supported())
        np.testing.assert_array_equal(rhs, 0.0)

    def test_smooth_load_against_finer_quadrature(self):
        space = HierarchicalSpace.create(8, 3)
        g = lambda x, y: 64.0 * np.pi**4 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        rhs = assemble_load(space, IDENTITY, simply_supported(g=g))
        # oracle: the same integrals with 10 Gauss points per direction, from
        # connectivity and the univariate tables of the one-level space
        mesh = space.mesh
        kv = mesh.knots(0)
        nodes, w1 = np.polynomial.legendre.leggauss(10)
        nodes, w1 = 0.5 * (nodes + 1.0), 0.5 * w1
        ref = np.zeros(space.num_dofs)
        for e in mesh.active_elements():
            x0, y0, x1, y1 = mesh.element_rect(e)
            xs, ys = x0 + (x1 - x0) * nodes, y0 + (y1 - y0) * nodes
            tx = tabulate_in_span(kv, xs, e.ix + 3, 0)[0]
            ty = tabulate_in_span(kv, ys, e.iy + 3, 0)[0]
            gw = g(xs[:, None], ys[None, :]) * np.outer(w1, w1) * (x1 - x0) * (y1 - y0)
            for f in connectivity(mesh, space.basis, e):
                ref[int(space.basis.level_dofs(*f))] += tx[f.ix - e.ix] @ gw @ ty[f.iy - e.iy]
        scale = np.abs(ref).max()
        assert np.abs(rhs - ref).max() <= 1e-10 * scale

    def test_point_load_is_exact_point_evaluation(self):
        space = HierarchicalSpace.create(4, 3)
        rhs = assemble_load(space, IDENTITY,
                            simply_supported(point_loads=[((0.4, 0.55), -1.0)]))
        # oracle: the functions on the owning element, from connectivity and
        # the univariate tables of the one-level space at the point
        mesh = space.mesh
        e = mesh.locate(0.4, 0.55)
        kv = mesh.knots(0)
        tx = tabulate_in_span(kv, [0.4], e.ix + 3, 0)[0, :, 0]
        ty = tabulate_in_span(kv, [0.55], e.iy + 3, 0)[0, :, 0]
        expected = np.zeros(space.num_dofs)
        for f in connectivity(mesh, space.basis, e):
            expected[int(space.basis.level_dofs(*f))] = -tx[f.ix - e.ix] * ty[f.iy - e.iy]
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
                assert abs(sys1.constraints[int(space.basis.level_dofs(*f))]) <= 1e-12

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
        expected = {int(space.basis.level_dofs(*f)) for f in space.basis.active
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


class TestDataCallables:
    def test_scalar_returns_broadcast(self):
        space = HierarchicalSpace.create(4, 3).refined([ElementId(0, 0, 0)], 2)
        sides = ("left", "bottom", "right", "top")
        const = PlateProblem(g=1.0, dirichlet_w={s: 0.5 for s in sides},
                             neumann_M={s: 0.25 for s in sides}, load_grading=("left",))
        scalar = PlateProblem(g=lambda x, y: 1.0,
                              dirichlet_w={s: (lambda x, y: 0.5) for s in sides},
                              neumann_M={s: (lambda x, y: 0.25) for s in sides},
                              load_grading=("left",))
        want = apply_dirichlet(assemble_system(space, IDENTITY, const), space, const)
        got = apply_dirichlet(assemble_system(space, IDENTITY, scalar), space, scalar)
        np.testing.assert_array_equal(got.rhs, want.rhs)
        assert got.constraints == want.constraints

    def test_nan_load_names_the_datum_and_level(self):
        space = HierarchicalSpace.create(2, 3)
        prob = simply_supported(g=lambda x, y: np.where(x > 0.5, np.nan, 1.0))
        with pytest.raises(ValueError, match="load g on level 0: non-finite"):
            assemble_load(space, IDENTITY, prob)

    def test_nan_side_data_names_the_side_and_kind(self):
        space = HierarchicalSpace.create(2, 3)
        sides = ("left", "bottom", "right", "top")
        prob = PlateProblem(dirichlet_w={s: 0.0 for s in sides},
                            neumann_M={**{s: 0.0 for s in sides}, "top": lambda x, y: np.nan})
        with pytest.raises(ValueError, match="moment data on side 'top', level 0: non-finite"):
            assemble_load(space, IDENTITY, prob)
        prob = PlateProblem(dirichlet_w={**{s: 0.0 for s in sides}, "right": lambda x, y: x / 0.0},
                            neumann_M={s: 0.0 for s in sides})
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="deflection data on side 'right'"):
            apply_dirichlet(assemble_system(space, IDENTITY, prob), space, prob)

    def test_values_that_do_not_fit_the_points_are_rejected(self):
        space = HierarchicalSpace.create(2, 3)
        prob = simply_supported(g=lambda x, y: np.ones(3))
        with pytest.raises(ValueError, match="load g on level 0: values of shape"):
            assemble_load(space, IDENTITY, prob)


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

    def test_clamped_solve_on_a_rotated_sheared_map(self):
        # physical u = x^2 y^2 through x = A xi + b with A a rotation times a
        # shear: a degree-4 tensor polynomial in the parameters, so p = 4
        # reproduces it; the normals of the mapped sides are not axis-aligned
        c, s = math.cos(0.5), math.sin(0.5)
        matrix = np.array([[c, -s], [s, c]]) @ np.array([[1.0, 0.4], [0.0, 1.0]])
        geo = GeometryMap.affine(matrix, (0.3, -0.2))
        inv_t = np.linalg.inv(matrix).T

        def rotation(side):
            # rotation data are minus the outward normal derivative
            n = inv_t @ {"left": (-1, 0), "right": (1, 0), "bottom": (0, -1), "top": (0, 1)}[side]
            nx, ny = n / np.linalg.norm(n)
            return lambda x, y: -(2.0 * x * y**2 * nx + 2.0 * x**2 * y * ny)

        sides = ("left", "bottom", "right", "top")
        prob = PlateProblem(g=8.0, dirichlet_w={side: lambda x, y: x**2 * y**2 for side in sides},
                            dirichlet_phi={side: rotation(side) for side in sides})
        space = HierarchicalSpace.create(3, 4).refined([ElementId(0, 1, 1)], 2)
        u = solve(apply_dirichlet(assemble_system(space, geo, prob), space, prob, geo))
        from hbplate.assembly import DiscreteField
        norm = h2_seminorm_error(DiscreteField(np.zeros(space.num_dofs)), exact_hessian_x2y2,
                                 space, geo)
        assert norm > 1.0
        assert h2_seminorm_error(u, exact_hessian_x2y2, space, geo) <= 1e-8 * norm

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

    def test_many_points_match_one_point_calls(self):
        # points in one call are grouped by owning element; on grid lines and
        # corners they must still agree with one call per point
        space = HierarchicalSpace.create(4, 3).refined(
            [ElementId(0, 1, 1), ElementId(0, 1, 2), ElementId(0, 2, 1)], 2)
        from hbplate.assembly import DiscreteField
        rng = np.random.default_rng(21)
        field = DiscreteField(rng.standard_normal(space.num_dofs))
        grid = np.linspace(0.0, 1.0, 9)
        pts = np.vstack([rng.uniform(0, 1, size=(150, 2)), np.stack(np.meshgrid(
            grid, grid), axis=-1).reshape(-1, 2), np.full((40, 2), 0.3)])
        for geo in (IDENTITY, GeometryMap.affine([[1.0, 0.3], [-0.2, 0.8]], (0.5, 1.0))):
            together = evaluate(field, space, geo, pts)
            single = [evaluate(field, space, geo, [pt]) for pt in pts]
            for k, got in enumerate(together):
                want = np.concatenate([one[k] for one in single])
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

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
