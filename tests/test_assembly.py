import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hbplate.assembly
from hbplate.assembly import (
    _ASSEMBLY_COMBOS,
    _DERIVATIVES,
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
    _cell_rows,
    _edge_rule,
    _field_chunks,
    _gauss01,
    _graded_rule,
)
from hbplate.benchmarks import benchmark_singular
from hbplate.hierarchy import HierarchicalSpace, check_admissible, connectivity
from hbplate.splines import eval_ders, make_open_uniform, tabulate_in_span
from closure_oracle import ElementId, cell_rect, elements, functions, locate, positions
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


def simply_supported_with(**material):
    return PlateProblem(dirichlet_w={s: 0.0 for s in SIDES},
                        neumann_M={s: 0.0 for s in SIDES}, **material)


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

    # the plate energy is positive definite only for D > 0 and -1 < nu < 1

    def test_poisson_outside_the_open_unit_interval_rejected(self):
        for nu in (1.5, 1.0, -1.0, math.inf):
            with pytest.raises(ValueError, match=r"poisson must lie in \(-1, 1\), got %r" % nu):
                simply_supported_with(poisson=nu)
        assert simply_supported_with(poisson=-0.99).poisson == -0.99

    def test_stiffness_not_positive_rejected(self):
        for d in (-1.0, 0.0, math.inf):
            with pytest.raises(ValueError, match="stiffness must be finite and positive, got %r"
                               % d):
                simply_supported_with(stiffness=d)

    @pytest.mark.parametrize("loads,k", [
        ([((0.5, 0.5), math.nan)], 0),
        ([((0.5, 0.5), -1.0), ((0.25, math.inf), 1.0)], 1),
        ([((0.5,), -1.0)], 0),
        ([((0.5, 0.5, 0.5), -1.0)], 0),
        ([((0.5, 0.5), -1.0), ((0.5, 0.5), None)], 1),
        ([((0.5, 0.5),)], 0),
        ([0.5], 0),
    ])
    def test_malformed_point_load_rejected(self, loads, k):
        # unchecked, a NaN magnitude reaches the solver as a NaN load, and a
        # point of one or three coordinates fails where it is unpacked
        with pytest.raises(ValueError, match=r"point load %d must be \(\(x, y\), magnitude\) "
                           "with finite values" % k):
            simply_supported_with(point_loads=loads)

    def test_nan_material_constants_rejected(self):
        with pytest.raises(ValueError, match="stiffness .* got nan"):
            simply_supported_with(stiffness=math.nan)
        with pytest.raises(ValueError, match="poisson .* got nan"):
            simply_supported_with(poisson=math.nan)


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

    def test_spline_map_tables_match_per_point_evaluation(self):
        # Gauss points of a 16 x 16 grid and every knot of it, in every span
        geo = oracle_geometry("spline")
        kv, p = geo.kv, geo.kv.degree
        xs = np.concatenate([((np.arange(16)[:, None] + _gauss01(5)[0]) / 16).ravel(),
                             np.linspace(0.0, 1.0, 17)])
        pts = np.stack(np.meshgrid(xs, xs[::-1], indexing="ij"), axis=-1).reshape(-1, 2)
        for max_der in (0, 1, 2, 3):
            blk, bx, by = geo._spline_basis(pts, max_der)
            for r in range(0, len(pts), 7):
                ex, ey = (eval_ders(kv, float(t), max_der) for t in pts[r])
                assert bx[:, :, r].tobytes() == ex.ders.tobytes()
                assert by[:, :, r].tobytes() == ey.ders.tobytes()
                np.testing.assert_array_equal(
                    blk[r], geo.control[ex.first_index:ex.first_index + p + 1,
                                        ey.first_index:ey.first_index + p + 1])
        with pytest.raises(ValueError, match="point 1.5 outside"):
            geo.map_points([[0.5, 0.5], [0.2, 1.5]])


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
        space = HierarchicalSpace.create(2, 3)
        space = space.refined(positions(space.mesh, [ElementId(0, 1, 1)]), 2)
        prob = simply_supported(g=1.0)
        for assemble in (assemble_stiffness, assemble_load):
            with pytest.raises(GeometryError, match=r"level 1, cell \(2, 2\)"):
                assemble(space, geo, prob)

    @pytest.mark.parametrize("matrix,offset,message", [
        ([[math.nan, 0.0], [0.0, 1.0]], (0.0, 0.0), r"matrix must be a finite 2x2, got \[\[nan"),
        ([[1.0, 0.0], [0.0, math.inf]], (0.0, 0.0), r"matrix must be a finite 2x2, got .*inf"),
        (np.eye(3), (0.0, 0.0), r"matrix must be a finite 2x2, got \[\[1\.0, 0\.0, 0\.0\]"),
        (np.eye(2), (math.nan, 0.0), r"offset must be two finite numbers, got \[nan, 0\.0\]"),
        (np.eye(2), (0.0, 0.0, 0.0), r"offset must be two finite numbers, got \[0\.0, 0\.0, 0\.0\]"),
    ])
    def test_affine_map_not_finite_2x2_rejected(self, matrix, offset, message):
        # a NaN matrix once reached the stiffness assembly, whose off-grid
        # Kronecker entries it made NaN instead of 0, and crashed the process
        with pytest.raises(GeometryError, match=message):
            GeometryMap.affine(matrix, offset)

    @pytest.mark.parametrize("args,message", [
        (("bogus",), "kind must be 'identity', 'affine' or 'spline', got 'bogus'"),
        (("affine",), "affine map given without its matrix"),
        (("spline",), "spline map given without its knot vector and control net"),
        (("spline", None, (0.0, 0.0), make_open_uniform(2, 3)), "spline map given without"),
        (("affine", [[math.nan, 0.0], [0.0, 1.0]]), r"matrix must be a finite 2x2, got \[\[nan"),
    ])
    def test_constructor_rejects_unknown_kinds_and_missing_parts(self, args, message):
        # checked at construction, not in the first assembly
        with pytest.raises(GeometryError, match=message):
            GeometryMap(*args)

    def test_constructor_builds_the_kinds(self):
        kv = make_open_uniform(1, 3)
        grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
        net = np.stack(np.meshgrid(grev, grev, indexing="ij"), axis=-1)
        pts = np.array([[0.2, 0.7], [0.9, 0.1]])
        for geo, want in ((GeometryMap("identity"), pts),
                          (GeometryMap("affine", [[2.0, 0.0], [0.0, 1.0]]), pts * [2.0, 1.0]),
                          (GeometryMap("spline", kv=kv, control=net), pts)):
            np.testing.assert_allclose(geo.map_points(pts), want, atol=1e-14)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_spline_map_names_the_first_non_finite_control_point(self, value):
        kv = make_open_uniform(2, 3)
        control = np.zeros((kv.num_basis, kv.num_basis, 2))
        control[2, 3, 1] = control[4, 0, 0] = value
        with pytest.raises(GeometryError, match=r"control point \(2, 3\) is not finite"):
            GeometryMap.spline(kv, control)


class TestStiffness:
    def test_symmetry(self):
        space = HierarchicalSpace.create(3, 3)
        space = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), m=2)
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


def oracle_tables(space, e, xs, ys, max_der=2):
    """Dofs of the active functions on element e, in connectivity order, and
    their univariate tables (function, derivative, node) at xs and ys, each
    from tabulate_in_span on its own level, in the span of e's ancestor."""
    mesh, basis, p = space.mesh, space.basis, space.degree
    dofs = connectivity(mesh, basis, e)
    tables = {}  # (level, its cell there, direction) -> table

    def table(k, cell, t):
        key = (k, cell, t is ys)
        if key not in tables:
            tables[key] = tabulate_in_span(mesh.knots(k), t, cell + p, max_der)
        return tables[key]
    tx, ty = [], []
    for k, fx, fy in zip(*(a[dofs].tolist() for a in basis.indices)):
        shift = e.level - k
        ax, ay = e.ix >> shift, e.iy >> shift
        tx.append(table(k, ax, xs)[:, fx - ax])
        ty.append(table(k, ay, ys)[:, fy - ay])
    return dofs.tolist(), np.array(tx), np.array(ty)


class TestLevelBatchKernel:
    @staticmethod
    def three_level_space(p):
        space = HierarchicalSpace.create(8, p)
        space = space.refined(positions(space.mesh, [ElementId(0, 1, 1)]), 2)
        space = space.refined(positions(space.mesh, [ElementId(1, 2, 2)]), 2)
        assert space.mesh.num_levels == 3 and check_admissible(space.mesh, 2, space.basis)
        return space

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_rows_follow_connectivity_and_tables(self, p):
        # each level's own rows times C are the rows of the hierarchical
        # functions on the cell, for every kind of rule, in chunks that mix
        # the levels
        space = self.three_level_space(p)
        mesh, view = space.mesh, space.active_cells
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
        c = space.stacked_ct.T.toarray()
        mixed, levels = 0, []
        for name, (rule, ((xn, xw), (yn, yw)), dims) in rules.items():
            seen = []
            for at, rows, wts, pts in _cell_rows(space, np.arange(mesh.n_active),
                                                 _ASSEMBLY_COMBOS, rule):
                levels.append(len(set(view.level[at].tolist())))
                for r, k in enumerate(at.tolist()):
                    (ix, iy), level = view.cells[k].tolist(), int(view.level[k])
                    h = mesh.h(level)
                    xs, ys = (ix + xn) * h, (iy + yn) * h
                    np.testing.assert_array_equal(pts[r, :, 0], np.repeat(xs, yn.size))
                    np.testing.assert_array_equal(pts[r, :, 1], np.tile(ys, xn.size))
                    np.testing.assert_allclose(wts[r], np.outer(xw, yw).ravel() * h ** dims,
                                               rtol=1e-15)
                    e = ElementId(level, ix, iy)
                    dofs, tx, ty = oracle_tables(space, e, xs, ys)
                    assert sorted(dofs) == dofs
                    cl = c[view.local[k]]
                    assert set(dofs) <= set(np.flatnonzero(np.abs(cl).sum(axis=0)).tolist())
                    for (dx, dy) in _ASSEMBLY_COMBOS:
                        got = cl.T @ rows[(dx, dy)][r]
                        ref = np.zeros_like(got)
                        ref[dofs] = (tx[:, dx, :, None] * ty[:, dy, None, :]).reshape(
                            len(dofs), -1)
                        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), \
                            (name, e, (dx, dy))
                    seen.append(e)
                    mixed += len({d for d in dofs if d < space.basis._starts[level]}) > 0
            assert seen == elements(mesh)
        assert mixed > 0 and max(levels) > 1

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_field_mode_contracts_the_rows(self, p, monkeypatch):
        # sum factorisation of C u against the oracle's rows times the
        # coefficients, for every kind of rule and derivatives up to order
        # 4, on the cells in a shuffled order, with chunks small enough to
        # split the cells
        monkeypatch.setattr(hbplate.assembly, "_CHUNK_BYTES", 1 << 14)
        space = self.three_level_space(p)
        mesh, view = space.mesh, space.active_cells
        rng = np.random.default_rng(p)
        coeff = rng.standard_normal(space.num_dofs)
        order = rng.permutation(mesh.n_active)
        combos = _ASSEMBLY_COMBOS + ((3, 0), (2, 2), (1, 3), (0, 4))
        rules = [None, _graded_rule(p, frozenset({"left", "bottom"}))]
        rules += [_edge_rule(p, side) for side in SIDES]
        rules.append(((np.array([0.0, 0.3, 1.0]), np.ones(3)), (np.array([0.7, 1.0]), np.ones(2))))
        split = 0
        for rule in rules:
            (xn, _), (yn, _) = rule or (_gauss01(p + 2),) * 2
            got = {k: [] for k in combos}
            chunks = list(_field_chunks(space, order, space.stacked_ct.T @ coeff, combos, rule))
            split = max(split, len(chunks))
            np.testing.assert_array_equal(np.concatenate([at for at, *_ in chunks]), order)
            for _, ders, wts, pts in chunks:
                assert all(d.shape == (len(pts), 1, pts.shape[1]) for d in ders.values())
                for k in combos:
                    got[k].append(ders[k][:, 0])
            want = {k: [] for k in combos}
            for k in order.tolist():
                (ix, iy), level = view.cells[k].tolist(), int(view.level[k])
                h = mesh.h(level)
                e = ElementId(level, ix, iy)
                dofs, tx, ty = oracle_tables(space, e, (ix + xn) * h, (iy + yn) * h, 4)
                for dx, dy in combos:
                    rows = (tx[:, dx, :, None] * ty[:, dy, None, :]).reshape(len(dofs), -1)
                    want[(dx, dy)].append(coeff[dofs] @ rows)
            for k in combos:
                g, w = np.concatenate(got[k]), np.array(want[k])
                assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max(), (rule, k)
        assert split > 1

    def test_spline_geometry_stiffness_matches_element_loop(self):
        kv = make_open_uniform(2, 3)
        grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
        control = np.zeros((kv.num_basis, kv.num_basis, 2))
        for i, gx in enumerate(grev):
            for j, gy in enumerate(grev):
                control[i, j] = (gx + 0.3 * gx * gy, gy + 0.2 * gx * (1.0 - gy))
        geo = GeometryMap.spline(kv, control)
        space = HierarchicalSpace.create(2, 3)
        space = space.refined(positions(space.mesh, [ElementId(0, 0, 1)]), 2)
        prob = PlateProblem(stiffness=2.0, poisson=0.3,
                            dirichlet_w={s: 0.0 for s in ("left", "bottom", "right", "top")},
                            neumann_M={s: 0.0 for s in ("left", "bottom", "right", "top")})
        got = assemble_stiffness(space, geo, prob).toarray()
        # reference: one element at a time, one point at a time, through pushforward2
        mesh, basis = space.mesh, space.basis
        nodes, w1 = np.polynomial.legendre.leggauss(5)
        nodes, w1 = 0.5 * (nodes + 1.0), 0.5 * w1
        ref = np.zeros_like(got)
        every = functions(basis)
        for e in elements(mesh):
            x0, y0, x1, y1 = cell_rect(mesh, e)
            xs, ys = x0 + (x1 - x0) * nodes, y0 + (y1 - y0) * nodes
            idx = connectivity(mesh, basis, e)
            funcs = [every[d] for d in idx]
            tabs = []
            for f in funcs:
                k = mesh.knots(f.level)
                ax, ay = e.ix >> (e.level - f.level), e.iy >> (e.level - f.level)
                tabs.append((tabulate_in_span(k, xs, ax + 3, 2)[:, f.ix - ax],
                             tabulate_in_span(k, ys, ay + 3, 2)[:, f.iy - ay]))
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


def oracle_geometry(kind):
    if kind == "identity":
        return IDENTITY
    if kind == "affine":
        return GeometryMap.affine([[1.1, 0.3], [-0.2, 0.8]], (0.2, -0.1))
    kv = make_open_uniform(2, 3)
    grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
    control = np.zeros((kv.num_basis, kv.num_basis, 2))
    for i, gx in enumerate(grev):
        for j, gy in enumerate(grev):
            control[i, j] = (gx + 0.3 * gx * gy, gy + 0.2 * gx * (1.0 - gy))
    return GeometryMap.spline(kv, control)


def oracle_space(name="three_levels"):
    """"three_levels": three levels, admissible, with 16 to 28 functions on
    an element; "uniform": one fully active level of 8 x 8 cells, refined
    from 4 x 4, wide enough for cells that are translates of one another."""
    if name == "uniform":
        space = HierarchicalSpace.create(4, 3)
        space = space.refined(np.arange(space.mesh.n_active), 2)
        assert [len(space.mesh.cells(l)) for l in range(2)] == [0, 64]
        return space
    space = HierarchicalSpace.create(5, 3)
    space = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), 2)
    space = space.refined(positions(space.mesh, [ElementId(1, 0, 0)]), 2)
    counts = {len(connectivity(space.mesh, space.basis, cell))
              for cell in space.mesh.active_elements()}
    assert space.mesh.num_levels == 3 and check_admissible(space.mesh, 2, space.basis)
    assert min(counts) < max(counts)
    return space


@lru_cache(maxsize=None)
def oracle_hessians(kind, name="three_levels"):
    """Per element: its dofs, and at every Gauss point its weight times
    det J and the physical Hessians (function, 2, 2), from the tables of
    tabulate_in_span and the per-point pushforward."""
    space, geo = oracle_space(name), oracle_geometry(kind)
    mesh, basis, p = space.mesh, space.basis, space.degree
    nodes, w1 = np.polynomial.legendre.leggauss(p + 2)
    nodes, w1 = 0.5 * (nodes + 1.0), 0.5 * w1
    out, every = [], functions(basis)
    for e in elements(mesh):
        x0, y0, x1, y1 = cell_rect(mesh, e)
        xs, ys = x0 + (x1 - x0) * nodes, y0 + (y1 - y0) * nodes
        idx = connectivity(mesh, basis, e)
        funcs = [every[d] for d in idx]
        tx, ty = [], []
        for f in funcs:
            kv, shift = mesh.knots(f.level), e.level - f.level
            ax, ay = e.ix >> shift, e.iy >> shift
            tx.append(tabulate_in_span(kv, xs, ax + p, 2)[:, f.ix - ax])
            ty.append(tabulate_in_span(kv, ys, ay + p, 2)[:, f.iy - ay])
        tx, ty = np.array(tx), np.array(ty)  # (function, derivative, node)
        points = []
        for qx, x in enumerate(xs):
            for qy, y in enumerate(ys):
                push = pushforward2(geo, (x, y))
                a, b = tx[:, :, qx], ty[:, :, qy]
                grad = np.stack([a[:, 1] * b[:, 0], a[:, 0] * b[:, 1]], axis=1)
                hpar = np.stack([a[:, 2] * b[:, 0], a[:, 1] * b[:, 1],
                                 a[:, 1] * b[:, 1], a[:, 0] * b[:, 2]], axis=1).reshape(-1, 2, 2)
                points.append((w1[qx] * w1[qy] * (x1 - x0) * (y1 - y0) * push.jacobian_det,
                               np.array([push.apply(g, h)[1] for g, h in zip(grad, hpar)])))
        out.append((idx, points))
    return out


class TestStiffnessOracle:
    """assemble_stiffness against a dense sum of element matrices, one
    element and one point at a time: on a three-level mesh whose elements
    carry different numbers of functions, and on one fully active level."""

    @staticmethod
    def reference(kind, prob, name):
        """Dense stiffness summed over the elements."""
        ref = np.zeros((oracle_space(name).num_dofs,) * 2)
        nu = prob.poisson
        for idx, points in oracle_hessians(kind, name):
            for w, hess in points:
                frob = np.einsum("iab,jab->ij", hess, hess)
                lap = hess[:, 0, 0] + hess[:, 1, 1]
                ref[np.ix_(idx, idx)] += prob.stiffness * w * (
                    (1.0 - nu) * frob + nu * np.outer(lap, lap))
        return ref

    def check(self, kind, nu, name="three_levels"):
        prob = PlateProblem(stiffness=1.7, poisson=nu,
                            dirichlet_w={s: 0.0 for s in SIDES}, neumann_M={s: 0.0 for s in SIDES})
        ref = self.reference(kind, prob, name)
        got = assemble_stiffness(oracle_space(name), oracle_geometry(kind), prob)
        assert got.format == "csr" and got.indices.dtype == np.int32
        assert (got != got.T).nnz == 0
        assert np.abs(got.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["identity", "affine", "spline"])
    @pytest.mark.parametrize("nu", [0.0, 0.3])
    def test_matches_the_element_sum(self, kind, nu):
        self.check(kind, nu)

    @pytest.mark.parametrize("kind", ["identity", "affine", "spline"])
    @pytest.mark.parametrize("nu", [0.0, 0.3])
    def test_matches_the_element_sum_on_a_fully_active_level(self, kind, nu):
        self.check(kind, nu, "uniform")

    @pytest.mark.parametrize("kind", ["identity", "spline"])
    def test_matches_the_element_sum_over_one_cell_chunks(self, kind, monkeypatch):
        # the element matrices scattered at once are bounded by _CHUNK_BYTES;
        # at 1 byte every chunk holds one cell
        monkeypatch.setattr(hbplate.assembly, "_CHUNK_BYTES", 1)
        self.check(kind, 0.3)


class TestSplineMapTabulation:
    def test_one_map_tabulation_per_kernel_chunk(self, monkeypatch):
        space, geo = oracle_space(), oracle_geometry("spline")
        calls = []
        real = GeometryMap._spline_basis

        def counted(self, pts, max_der):
            calls.append(max_der)
            return real(self, pts, max_der)
        monkeypatch.setattr(GeometryMap, "_spline_basis", counted)
        monkeypatch.setattr(hbplate.assembly, "_CHUNK_BYTES", 1 << 13)
        view = space.active_cells
        chunks = sum(len(list(hbplate.assembly._side_batches(space, geo, side))) for side in SIDES)
        assert len(calls) == chunks > 4
        calls.clear()
        # the stiffness: one pass over the cells of all levels
        prob = PlateProblem(dirichlet_w={s: 0.0 for s in SIDES}, neumann_M={s: 0.0 for s in SIDES})
        passes = []

        def recorded(space, at, *args):
            passes.append(at.tolist())
            return _cell_rows(space, at, *args)
        monkeypatch.setattr(hbplate.assembly, "_cell_rows", recorded)
        assemble_stiffness(space, geo, prob)
        assert passes == [list(range(len(view.cells)))]
        chunks = list(_cell_rows(space, np.arange(len(view.cells)), _DERIVATIVES))
        assert len(calls) == len(chunks) > 3
        calls.clear()
        # the error norm: chunks of the cells of all levels
        h2_seminorm_error(np.ones(space.num_dofs), exact_hessian_x2y2, space, geo)
        chunks = list(_field_chunks(space, np.arange(len(view.cells)),
                                    np.zeros(space.stacked_ct.shape[1]), _DERIVATIVES))
        assert len(calls) == len(chunks) > 3
        assert any(len(set(view.level[at].tolist())) > 1 for at, *_ in chunks)
        assert set(calls) == {2}


def connectivity_pattern(space):
    """Sorted CSR pattern (indptr, indices) of the dof pairs that share an
    active element, from connectivity, one element at a time."""
    n = space.num_dofs
    pairs = set()
    for cell in space.mesh.active_elements():
        idx = connectivity(space.mesh, space.basis, cell).tolist()
        pairs.update((i, j) for i in idx for j in idx)
    i, j = np.array(sorted(pairs)).T
    m = sp.csr_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    return m.indptr, m.indices


class TestStiffnessPattern:
    @pytest.mark.parametrize("degree, n0, config, grading", [
        (3, 4, dict(mode="adaptive", max_iterations=40, max_dofs=1400), ()),
        (5, 2, dict(mode="uniform", max_iterations=5), ()),
        (4, 4, dict(mode="adaptive", max_iterations=30, max_dofs=1000), ("left", "bottom")),
    ], ids=["point_load", "smooth", "singular"])
    def test_every_study_mesh_couples_the_dofs_that_share_an_element(
            self, degree, n0, config, grading):
        # the three benchmark studies; the solver's LU ordering depends on
        # this pattern, which is the pattern of the element-by-element sum
        from hbplate import LoopConfig, benchmarks, run
        spec = getattr(benchmarks, {3: "benchmark_point_load", 5: "benchmark_smooth",
                                    4: "benchmark_singular"}[degree])()
        problem = replace(spec.problem, load_grading=grading)
        seen = []

        def check(space, u_h, record):
            got = assemble_stiffness(space, IDENTITY, problem)
            indptr, indices = connectivity_pattern(space)
            np.testing.assert_array_equal(got.indptr, indptr)
            np.testing.assert_array_equal(got.indices, indices)
            seen.append(space.mesh.num_levels)

        run(problem, HierarchicalSpace.create(n0, degree), LoopConfig(**config),
            exact_hessian=spec.exact_hessian, on_iteration=check)
        assert len(seen) >= 5 and max(seen) >= 5


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
        ref, every = np.zeros(space.num_dofs), functions(space.basis)
        for e in elements(mesh):
            x0, y0, x1, y1 = cell_rect(mesh, e)
            xs, ys = x0 + (x1 - x0) * nodes, y0 + (y1 - y0) * nodes
            tx = tabulate_in_span(kv, xs, e.ix + 3, 0)[0]
            ty = tabulate_in_span(kv, ys, e.iy + 3, 0)[0]
            gw = g(xs[:, None], ys[None, :]) * np.outer(w1, w1) * (x1 - x0) * (y1 - y0)
            for d in connectivity(mesh, space.basis, e).tolist():
                f = every[d]
                ref[d] += tx[f.ix - e.ix] @ gw @ ty[f.iy - e.iy]
        scale = np.abs(ref).max()
        assert np.abs(rhs - ref).max() <= 1e-10 * scale

    def test_point_load_is_exact_point_evaluation(self):
        space = HierarchicalSpace.create(4, 3)
        rhs = assemble_load(space, IDENTITY,
                            simply_supported(point_loads=[((0.4, 0.55), -1.0)]))
        # oracle: the functions on the owning element, from connectivity and
        # the univariate tables of the one-level space at the point
        mesh = space.mesh
        e = locate(mesh, 0.4, 0.55)
        kv = mesh.knots(0)
        tx = tabulate_in_span(kv, [0.4], e.ix + 3, 0)[0, :, 0]
        ty = tabulate_in_span(kv, [0.55], e.iy + 3, 0)[0, :, 0]
        expected, every = np.zeros(space.num_dofs), functions(space.basis)
        for d in connectivity(mesh, space.basis, e).tolist():
            f = every[d]
            expected[d] = -tx[f.ix - e.ix] * ty[f.iy - e.iy]
        np.testing.assert_allclose(rhs, expected, atol=1e-15)

    @pytest.mark.parametrize("p", [3, 4])
    def test_three_levels_against_the_element_sum(self, p):
        # graded body load along the left side, moment and shear data on it
        # and point loads on two levels, through C_l, against a sum over the
        # elements of connectivity and tabulate_in_span tables
        space = HierarchicalSpace.create(8, p)
        for level in range(3):
            space = space.refined(
                positions(space.mesh, [ElementId(level, 0, 4 << level)]), 2)
        mesh = space.mesh
        assert all(len(mesh.cells(l)) for l in range(4)) and check_admissible(mesh, 2, space.basis)
        g = lambda x, y: np.exp(x) * np.cos(3.0 * y) + 1.0 / np.sqrt(x + 0.01)
        moment = lambda x, y: np.sin(2.0 * y) + 0.5
        shear = lambda x, y: y ** 2 - 0.3
        loads = [((0.02, 0.51), -1.5), ((0.9, 0.1), 0.8)]
        prob = PlateProblem(g=g, dirichlet_w={s: 0.0 for s in SIDES[1:]},
                            neumann_M={**{s: 0.0 for s in SIDES[1:]}, "left": moment},
                            neumann_Q={"left": shear}, point_loads=loads,
                            load_grading=("left",))
        got = assemble_load(space, IDENTITY, prob)
        assert locate(mesh, *loads[0][0]).level == 3 and locate(mesh, *loads[1][0]).level < 2
        ref = np.zeros(space.num_dofs)
        gauss = _gauss01(p + 2)
        for e in elements(mesh):
            x0, y0, x1, y1 = cell_rect(mesh, e)
            (xn, xw), (yn, yw) = _graded_rule(p, frozenset({"left"})) if x0 == 0.0 else (gauss,) * 2
            xs, ys = x0 + (x1 - x0) * xn, y0 + (y1 - y0) * yn
            dofs, tx, ty = oracle_tables(space, e, xs, ys)
            gw = g(xs[:, None], ys[None, :]) * np.outer(xw, yw) * (x1 - x0) * (y1 - y0)
            ref[dofs] += np.einsum("fi,ij,fj->f", tx[:, 0], gw, ty[:, 0])
            if x0 == 0.0:
                ys = y0 + (y1 - y0) * gauss[0]
                dofs, tx, ty = oracle_tables(space, e, np.zeros(1), ys)
                w = gauss[1] * (y1 - y0)
                ref[dofs] += (-tx[:, 1, 0, None] * ty[:, 0]) @ (w * moment(0.0, ys))
                ref[dofs] += (tx[:, 0, 0, None] * ty[:, 0]) @ (w * shear(0.0, ys))
        for (x, y), magnitude in loads:
            dofs, tx, ty = oracle_tables(space, locate(mesh, x, y), np.array([x]), np.array([y]))
            ref[dofs] += magnitude * tx[:, 0, 0] * ty[:, 0, 0]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

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
        for d, f in enumerate(functions(space.basis)):
            if f.iy == 0:
                assert abs(sys1.constraints[d]) <= 1e-12

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
        expected = {d for d, f in enumerate(functions(space.basis))
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

    def test_vanishing_data_build_no_least_squares_matrix(self, monkeypatch):
        space = HierarchicalSpace.create(4, 3)
        for level in range(5):
            space = space.refined(positions(space.mesh, [ElementId(level, 0, 0)]), 2)
        prob = PlateProblem(dirichlet_w={s: 0.0 for s in SIDES},
                            dirichlet_phi={"left": 0.0, "bottom": lambda x, y: 0.0 * x},
                            neumann_M={"right": 0.0, "top": 0.0})
        sys0 = LinearSystem(matrix=None, rhs=np.zeros(space.num_dofs))
        expected = apply_dirichlet(sys0, space, prob).constraints

        def fail(*args, **kwargs):
            raise AssertionError("least-squares matrix built for vanishing data")
        monkeypatch.setattr(hbplate.assembly, "_fit_matrix", fail)
        monkeypatch.setattr(np.linalg, "lstsq", fail)
        got = apply_dirichlet(sys0, space, prob).constraints
        assert got == expected and set(got.values()) == {0.0}
        traces = set()
        for side, depth in (("left", 2), ("bottom", 2), ("right", 1), ("top", 1)):
            traces.update(hbplate.assembly._trace_dofs(space, side, depth).tolist())
        assert set(got) == traces

    def test_nonzero_data_still_fitted(self, monkeypatch):
        space = HierarchicalSpace.create(4, 3)
        space = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), 2)
        prob = spline_exact_problem()
        blocks = []
        real = hbplate.assembly._fit_matrix
        monkeypatch.setattr(hbplate.assembly, "_fit_matrix",
                            lambda *args: blocks.append(1) or real(*args))
        got = apply_dirichlet(LinearSystem(matrix=None, rhs=np.zeros(space.num_dofs)),
                              space, prob).constraints
        assert blocks and max(abs(v) for v in got.values()) > 0.1


def dense_side_rows(space, side, kind):
    """The rows (point, dofs) of one side's values ("deflection") or minus
    outward normal derivatives ("rotation") at the edge rule's points, the
    square-rooted weights and the points, element by element from
    connectivity and tabulate_in_span."""
    mesh = space.mesh
    nodes, w1 = _gauss01(space.degree + 2)
    vertical, end = side in ("left", "right"), 0.0 if side in ("left", "bottom") else 1.0
    rows, wts, pts = [], [], []
    for e in elements(mesh):
        x0, y0, x1, y1 = cell_rect(mesh, e)
        if (x0, x1, y0, y1)[2 * (not vertical) + (end == 1.0)] != end:
            continue
        h = x1 - x0
        along = (y0 if vertical else x0) + h * nodes
        xs, ys = (np.array([end]), along) if vertical else (along, np.array([end]))
        dofs, tx, ty = oracle_tables(space, e, xs, ys)
        if vertical:
            val, dn = tx[:, 0, 0, None] * ty[:, 0], tx[:, 1, 0, None] * ty[:, 0]
        else:
            val, dn = tx[:, 0] * ty[:, 0, 0, None], tx[:, 0] * ty[:, 1, 0, None]
        dn = dn if end == 1.0 else -dn
        block = np.zeros((nodes.size, space.num_dofs))
        block[:, dofs] = (val if kind == "deflection" else -dn).T
        rows.append(block)
        wts.append(np.sqrt(w1 * h))
        pts.append(np.stack(np.broadcast_arrays(xs, ys), axis=-1).reshape(-1, 2))
    return np.vstack(rows), np.concatenate(wts), np.vstack(pts)


class TestDirichletLeastSquares:
    @pytest.mark.parametrize("p", [3, 4])
    def test_sparse_fit_matches_a_dense_lstsq_reference(self, p):
        # a clamped left side with nonzero deflection and rotation data,
        # refined to level 3 along it; the other sides are simply supported
        space = HierarchicalSpace.create(16, p)
        for level in range(3):
            space = space.refined(
                positions(space.mesh, [ElementId(level, 0, 8 << level)]), 2)
        mesh, funcs = space.mesh, functions(space.basis)
        assert mesh.num_levels == 4 and len({f.level for f in funcs if f.ix == 0}) >= 3
        w_left = lambda x, y: np.sin(np.pi * y) * (1.0 + y) + 0.0 * x
        phi_left = lambda x, y: np.cos(2.0 * y) - x
        prob = PlateProblem(dirichlet_w={**{s: 0.0 for s in SIDES}, "left": w_left},
                            dirichlet_phi={"left": phi_left},
                            neumann_M={s: 0.0 for s in SIDES[1:]})
        got = apply_dirichlet(LinearSystem(matrix=None, rhs=np.zeros(space.num_dofs)),
                              space, prob).constraints
        # the reference: dense least squares side by side, in the same order
        n_end = {k: mesh.knots(k).num_basis - 1 for k in range(mesh.num_levels)}
        layer = {"left": lambda f: f.ix, "right": lambda f: n_end[f.level] - f.ix,
                 "bottom": lambda f: f.iy, "top": lambda f: n_end[f.level] - f.iy}
        want = {}
        fits = [(s, "deflection", prob.dirichlet_w[s]) for s in SIDES]
        fits.append(("left", "rotation", phi_left))
        for side, kind, data in fits:
            depth = 1 if kind == "deflection" else 2
            trace = [d for d, f in enumerate(funcs) if layer[side](f) < depth]
            fixed = [d for d in trace if d in want]
            unknowns = [d for d in trace if d not in want]
            a, w, pts = dense_side_rows(space, side, kind)
            target = hbplate.assembly._as_fn(data)(pts[:, 0], pts[:, 1])
            target = target - a[:, fixed] @ np.array([want[d] for d in fixed])
            values, *_ = np.linalg.lstsq(a[:, unknowns] * w[:, None], target * w, rcond=None)
            want.update(zip(unknowns, values))
        assert set(got) == set(want)
        scale = max(abs(v) for v in want.values())
        assert scale > 0.5
        assert max(abs(got[d] - want[d]) for d in want) <= 1e-10 * scale

    @pytest.mark.parametrize("scale", [1e-14, 1e-15, 1e-16])
    def test_small_data_are_fitted(self, scale):
        # the singular problem's load, deflection and moment data times a
        # small scale: u_h scales with them, up to rounding, and no side's
        # deflection data are taken for zero
        def scaled(f):
            return lambda x, y: scale * f(x, y)
        prob = benchmark_singular().problem
        small = replace(prob, g=scaled(prob.g),
                        dirichlet_w={s: scaled(f) for s, f in prob.dirichlet_w.items()},
                        neumann_M={s: scaled(f) for s, f in prob.neumann_M.items()})
        space = HierarchicalSpace.create(4, 3)
        space = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), 2)
        u, u_small = (solve(apply_dirichlet(assemble_system(space, IDENTITY, pb), space, pb,
                                            IDENTITY)) for pb in (prob, small))
        assert np.abs(u_small - scale * u).max() <= 1e-14 * scale * np.abs(u).max()

    def test_rank_deficient_fit_names_the_side(self):
        a = sp.csr_matrix(np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(BoundaryDataError, match="deflection fit on side 'top'"):
            hbplate.assembly._least_squares(a, np.ones(3), "deflection fit on side 'top'")


class TestDataCallables:
    def test_scalar_returns_broadcast(self):
        space = HierarchicalSpace.create(4, 3)
        space = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), 2)
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
        resid = system.rhs - system.matrix @ u
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
        space = space.refined(
            positions(space.mesh, [ElementId(0, 0, 0), ElementId(0, 1, 1)]), m=2)
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
        space = HierarchicalSpace.create(3, 4)
        space = space.refined(positions(space.mesh, [ElementId(0, 1, 1)]), 2)
        u = solve(apply_dirichlet(assemble_system(space, geo, prob), space, prob, geo))
        norm = h2_seminorm_error(np.zeros(space.num_dofs), exact_hessian_x2y2, space, geo)
        assert norm > 1.0
        assert h2_seminorm_error(u, exact_hessian_x2y2, space, geo) <= 1e-8 * norm

    def test_residual_at_the_backward_error_floor_is_accepted(self):
        # Hilbert(12): no double-precision x has a residual within 1e-10 |b|,
        # but the one found is at the floor 100 eps (|A| |x| + |b|) and its
        # growth |A| |x| / |b| is that of a regular solve
        a = scipy.linalg.hilbert(12)
        b = np.ones(12)
        x = solve(LinearSystem(matrix=sp.csr_matrix(a), rhs=b))
        anorm, resid = np.abs(a).sum(axis=1).max(), np.linalg.norm(b - a @ x)
        assert resid > 1e-10 * np.linalg.norm(b)
        assert resid <= 100.0 * np.finfo(float).eps * (anorm * np.linalg.norm(x) + np.linalg.norm(b))
        assert anorm * np.linalg.norm(x) <= 1e13 * np.linalg.norm(b)

    def test_refinement_stops_at_the_floor(self):
        # Hilbert(12) again: the solve's residual lies above 1e-12 |b| but
        # within the floor, so one solver call is accepted as it stands
        a = sp.csr_matrix(scipy.linalg.hilbert(12))
        b = np.ones(12)
        lu, calls = spla.splu(a.tocsc()), []

        class Counted:
            def solve(self, r):
                calls.append(r)
                return lu.solve(r)
        x = hbplate.assembly._checked_solution(Counted(), a, b, np.arange(12))
        floor = 100.0 * np.finfo(float).eps * (np.abs(a).sum(axis=1).max() * np.linalg.norm(x)
                                                + np.linalg.norm(b))
        assert 1e-12 * np.linalg.norm(b) < np.linalg.norm(b - a @ x) <= floor
        assert len(calls) == 1

    def test_residual_at_the_floor_of_a_runaway_solution_is_rejected(self):
        # the same matrix on its eigenvector of least eigenvalue (~1e-16): the
        # residual is still below the floor, but the growth is above 1e13
        a = scipy.linalg.hilbert(12)
        b = np.linalg.eigh(a)[1][:, 0]
        with pytest.raises(SolverError, match=r"exceeds 1e-10 \(n=12, growth"):
            solve(LinearSystem(matrix=sp.csr_matrix(a), rhs=b))

    def test_factorization_failure_names_the_free_block(self):
        # dof 0 is constrained; the free block of dofs 1..3 is singular
        a = np.diag([1.0, 1.0, 1.0, 2.0])
        a[1:3, 1:3] = 1.0
        system = LinearSystem(matrix=sp.csr_matrix(a), rhs=np.ones(4), constraints={0: 0.0})
        with pytest.raises(SolverError, match=r"free block \(n=3, nnz=5\) failed"):
            solve(system)

    def test_residual_failure_names_the_global_dof(self):
        # dofs 0..19 constrained, 20..29 the identity and 30..41 Hilbert(12)
        # on its eigenvector of least eigenvalue: the identity rows solve
        # exactly, so the largest residual lies on a Hilbert dof, numbered
        # 30..41 globally and 10..21 in the free block
        a = scipy.linalg.block_diag(np.eye(30), scipy.linalg.hilbert(12))
        b = np.zeros(42)
        b[30:] = np.linalg.eigh(scipy.linalg.hilbert(12))[1][:, 0]
        system = LinearSystem(matrix=sp.csr_matrix(a), rhs=b,
                              constraints={d: 0.0 for d in range(20)})
        with pytest.raises(SolverError, match=r"exceeds 1e-10 \(n=22, growth") as info:
            solve(system)
        assert 30 <= int(str(info.value).rsplit("dof ", 1)[1]) <= 41

    def test_solver_reports_breakdown(self):
        # singular reduced matrix: no constraints at all on the plate energy
        space = HierarchicalSpace.create(2, 3)
        prob = simply_supported(g=lambda x, y: np.ones_like(x))
        system = assemble_system(space, IDENTITY, prob)
        with pytest.raises(SolverError):
            solve(system)


def clamped_left():
    """Clamped on the left side only, free elsewhere: the free dofs run to
    both ends in y."""
    free = ("bottom", "right", "top")
    return PlateProblem(g=lambda x, y: np.sin(3 * x + y), poisson=0.2,
                        dirichlet_w={"left": 0.0}, dirichlet_phi={"left": 0.0},
                        neumann_Q={s: 0.0 for s in free}, neumann_M={s: 0.0 for s in free})


def tensor_problem(name):
    """(space, geometry, problem) of single-level systems with every kind of
    free box: both ends constrained in both directions, inhomogeneous and
    mixed data, and a direction with free ends."""
    from hbplate.benchmarks import benchmark_singular, benchmark_smooth
    from test_golden import affine_problem
    if name.startswith("smooth_p"):
        return HierarchicalSpace.create(6, int(name[-1])), IDENTITY, benchmark_smooth().problem
    if name == "material":
        return (HierarchicalSpace.create(6, 4), IDENTITY,
                replace(benchmark_smooth().problem, poisson=0.3, stiffness=2.5))
    if name == "singular":
        return HierarchicalSpace.create(6, 4), IDENTITY, benchmark_singular().problem
    if name == "affine":
        problem, geo, _ = affine_problem()
        return HierarchicalSpace.create(6, 3), geo, problem
    return HierarchicalSpace.create(6, 4), IDENTITY, clamped_left()


def free_block(system):
    free = np.setdiff1d(np.arange(system.rhs.size), list(system.constraints))
    return system.matrix.tocsr()[free][:, free], free


class TestTensorSolve:
    @pytest.mark.parametrize("name", ["smooth_p3", "smooth_p4", "smooth_p5", "material",
                                      "singular", "affine", "clamped_left"])
    def test_fast_diagonalisation_pcg_matches_splu(self, name):
        space, geo, prob = tensor_problem(name)
        system = apply_dirichlet(assemble_system(space, geo, prob), space, prob, geo)
        aff, free = free_block(system)
        assert hbplate.assembly._TensorPCG.on_box(aff, system.tensor, free) is not None
        got = solve(system)
        want = solve(replace(system, tensor=None))
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_only_single_level_constant_jacobian_systems_carry_the_knots(self):
        prob = simply_supported(g=1.0)
        space = HierarchicalSpace.create(4, 3)
        fine = space.refined(np.arange(space.mesh.n_active), 2)
        for sp_, geo, level in ((space, IDENTITY, 0), (fine, oracle_geometry("affine"), 1)):
            system = apply_dirichlet(assemble_system(sp_, geo, prob), sp_, prob, geo)
            assert system.tensor is sp_.mesh.knots(level)
        multi = space.refined(positions(space.mesh, [ElementId(0, 1, 1)]), 2)
        assert assemble_system(multi, IDENTITY, prob).tensor is None
        assert assemble_system(space, oracle_geometry("spline"), prob).tensor is None
        assert LinearSystem(matrix=None, rhs=np.zeros(3)).tensor is None

    def test_free_dofs_off_a_box_go_to_splu(self):
        space = HierarchicalSpace.create(4, 3)
        prob = simply_supported(g=lambda x, y: np.sin(3 * x + y))
        system = apply_dirichlet(assemble_system(space, IDENTITY, prob), space, prob)
        # one more constraint inside the box of free dofs
        inner = dict(system.constraints)
        inner[3 * space.mesh.knots(0).num_basis + 3] = 0.0
        system = replace(system, constraints=inner)
        aff, free = free_block(system)
        assert hbplate.assembly._TensorPCG.on_box(aff, system.tensor, free) is None
        got = solve(system)
        want = solve(replace(system, tensor=None))
        np.testing.assert_array_equal(got, want)

    def test_a_plate_without_constraints_goes_to_splu(self):
        # no direction is constrained: L_x + L_y has a zero, the free block
        # is singular, and splu reports it (test_solver_reports_breakdown)
        space = HierarchicalSpace.create(2, 3)
        system = assemble_system(space, IDENTITY, simply_supported(g=1.0))
        aff, free = free_block(system)
        assert hbplate.assembly._TensorPCG.on_box(aff, system.tensor, free) is None

    def test_iteration_cap_names_the_size_and_the_iterations(self):
        # the stiffness shifted by the second least eigenvalue of its free
        # block: indefinite and singular
        space = HierarchicalSpace.create(4, 3)
        prob = simply_supported(g=lambda x, y: np.sin(3 * x + y))
        system = apply_dirichlet(assemble_system(space, IDENTITY, prob), space, prob)
        aff, free = free_block(system)
        shift = np.linalg.eigvalsh(aff.toarray())[1]
        matrix = (system.matrix - shift * sp.identity(space.num_dofs)).tocsr()
        with pytest.raises(SolverError, match=r"\(n=%d\) did not reach rtol 1e-13 in %d "
                           "iterations" % (free.size, hbplate.assembly._CG_MAX_ITERATIONS)):
            solve(replace(system, matrix=matrix))


class TestH2Seminorm:
    def test_exact_interpolant_of_quadratic_gives_zero(self):
        space = HierarchicalSpace.create(3, 3)
        prob = spline_exact_problem()
        system = apply_dirichlet(assemble_system(space, IDENTITY, prob), space, prob)
        u = solve(system)
        assert h2_seminorm_error(u, exact_hessian_x2y2, space, IDENTITY) <= 1e-8

    def test_zero_field_measures_exact_seminorm(self):
        space = HierarchicalSpace.create(8, 3)
        zero = np.zeros(space.num_dofs)
        def hess(x, y):
            s = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
            c = np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
            return (-4 * np.pi**2 * s, 4 * np.pi**2 * c, -4 * np.pi**2 * s)
        err = h2_seminorm_error(zero, hess, space, IDENTITY)
        assert err == pytest.approx(4 * np.pi**2, rel=1e-6)


class TestEvaluate:
    def test_all_ones_on_single_level_is_one(self):
        space = HierarchicalSpace.create(3, 3)
        ones = np.ones(space.num_dofs)
        pts = np.array([[0.1, 0.2], [0.5, 0.5], [0.99, 0.01]])
        vals, grads, hess = evaluate(ones, space, IDENTITY, pts)
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)
        np.testing.assert_allclose(grads, 0.0, atol=1e-9)

    def test_linear_field_gradient_and_hessian(self):
        space = HierarchicalSpace.create(4, 3)
        kv = space.mesh.knots(0)
        grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
        field = np.add.outer(grev, grev).ravel()
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, size=(10, 2))
        vals, grads, hess = evaluate(field, space, IDENTITY, pts)
        np.testing.assert_allclose(vals, pts[:, 0] + pts[:, 1], atol=1e-10)
        np.testing.assert_allclose(grads, 1.0, atol=1e-10)
        np.testing.assert_allclose(hess, 0.0, atol=1e-10)

    def test_many_points_match_one_point_calls(self):
        # points in one call are grouped by owning element; on grid lines and
        # corners they must still agree with one call per point
        space = HierarchicalSpace.create(4, 3)
        space = space.refined(positions(
            space.mesh, [ElementId(0, 1, 1), ElementId(0, 1, 2), ElementId(0, 2, 1)]), 2)
        rng = np.random.default_rng(21)
        field = rng.standard_normal(space.num_dofs)
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
        field = np.zeros(space.num_dofs)
        with pytest.raises(ValueError):
            evaluate(field, space, IDENTITY, [[1.2, 0.5]])

    def test_badly_shaped_and_non_finite_points_are_named(self):
        space = HierarchicalSpace.create(2, 3)
        field = np.zeros(space.num_dofs)
        with pytest.raises(ValueError, match=r"shaped \(n, 2\), got \(1, 3\)"):
            evaluate(field, space, IDENTITY, [(0.1, 0.2, 0.3)])
        with pytest.raises(ValueError, match=r"point \(0.3, nan\)"):
            evaluate(field, space, IDENTITY, [(0.1, 0.2), (0.3, float("nan"))])

    def test_no_points_give_empty_arrays(self):
        space = HierarchicalSpace.create(2, 3)
        space = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), 2)
        field = np.ones(space.num_dofs)
        for geo in (IDENTITY, GeometryMap.affine([[1.1, 0.3], [-0.2, 0.8]], (0.2, -0.1))):
            for points in ([], np.empty((0, 2))):
                vals, grads, hess = evaluate(field, space, geo, points)
                assert (vals.shape, grads.shape, hess.shape) == ((0,), (0, 2), (0, 3))


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
        multi = space.refined(positions(space.mesh, [ElementId(0, 1, 1)]), 2)
        assert self.tables(multi) == [0, 0]

    def test_studies_do_not_share_tables(self):
        first, _ = self.study(HierarchicalSpace.create(2, 3))
        counts = self.tables(first)
        assert first.mesh.num_levels > 1 and all(c > 0 for c in counts)
        second, _ = self.study(HierarchicalSpace.create(2, 3))
        assert self.tables(first) == counts
        assert all(second.mesh.knots(k) is not first.mesh.knots(k)
                   for k in range(first.mesh.num_levels))

    def test_class_tables_are_bounded_by_rules_and_orders(self):
        # a deep adaptive study with a graded load: each knot vector keeps
        # one class table per node set and derivative order it was asked
        # for, whatever the number of its cells; the node sets of a bubble
        # study are the Gauss nodes, the graded nodes toward either end and
        # the two edge ends, all at derivative order 2
        from hbplate.adaptivity import LoopConfig, run
        from hbplate.benchmarks import benchmark_singular
        spec = benchmark_singular()
        problem = replace(spec.problem, load_grading=("left", "bottom"))
        seen = []

        def count(space, u_h, record):
            mesh = space.mesh
            seen.append((mesh.n_active, [
                [key for key in mesh.knots(k)._tables if key[0] == "classes"]
                for k in range(mesh.num_levels)]))

        run(problem, HierarchicalSpace.create(4, 4), LoopConfig(max_iterations=9, max_dofs=4000),
            on_iteration=count)
        assert len(seen[-1][1]) >= 7 and seen[-1][0] >= 5 * seen[2][0]
        for _, per_level in seen:
            for keys in per_level:
                assert len(keys) <= 5 and {key[1] for key in keys} <= {2}
        # the coarse levels were complete early and stay so as cells grow
        assert seen[-1][1][:2] == seen[2][1][:2]

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
