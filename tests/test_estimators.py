import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hbplate.assembly
import hbplate.estimators
from hbplate.assembly import (
    GeometryMap,
    PlateProblem,
    apply_dirichlet,
    assemble_stiffness,
    assemble_system,
    h2_seminorm_error,
    solve,
)
from hbplate.estimators import (
    BubbleBlock,
    assemble_blocks,
    build_bubble_space,
    estimate,
    eta_elements,
    natural_boundary_sides,
    residual_estimator,
    solve_blocks,
)
from hbplate.benchmarks import benchmark_spline_exact
from hbplate.hierarchy import HierarchicalSpace, connectivity
from hbplate.splines import eval_bernstein_ders, make_open_uniform, tabulate_in_span
from closure_oracle import ElementId, cell_rect, elements, functions, positions
from pushforward import pushforward2

IDENTITY = GeometryMap.identity()
ALL = ("left", "bottom", "right", "top")


def spline_exact_problem():
    def trace(x, y):
        return x**2 * y**2
    def moment(x, y):
        return np.where((np.asarray(x) == 0.0) | (np.asarray(x) == 1.0),
                        2.0 * np.asarray(y)**2, 2.0 * np.asarray(x)**2)
    return PlateProblem(
        g=lambda x, y: np.full_like(np.asarray(x, dtype=float), 8.0),
        dirichlet_w={s: trace for s in ALL},
        neumann_M={s: moment for s in ALL},
    )


def smooth_problem():
    g = lambda x, y: 64.0 * np.pi**4 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    return PlateProblem(g=g,
                        dirichlet_w={s: 0.0 for s in ALL},
                        neumann_M={s: 0.0 for s in ALL})


def solve_problem(space, problem):
    system = apply_dirichlet(assemble_system(space, IDENTITY, problem), space, problem)
    return solve(system)


def smooth_hessian(x, y):
    s = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    c = np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    return (-4 * np.pi**2 * s, 4 * np.pi**2 * c, -4 * np.pi**2 * s)


def pairs_of(mesh, bubbles, e):
    """The bubble index pairs of element e, looked up through the groups
    by its position."""
    k = positions(mesh, [e])[0]
    found = [pairs for level, _, pairs, at in bubbles if level == e.level and k in at]
    assert len(found) == 1, e
    return found[0]


def element_rows(blocks):
    """(position, matrix, rhs, coeffs) of every row of every block: row k
    of a block of E rows and m matrices goes with matrix k // (E / m)."""
    for blk in blocks:
        per = len(blk.at) // len(blk.matrix)
        for k, pos in enumerate(blk.at.tolist()):
            yield (pos, blk.matrix[k // per], blk.rhs[k],
                   None if blk.coeffs is None else blk.coeffs[k])


def block(level, at, matrices, rhs, coeffs=None):
    """A hand-made block: positions at (E,), matrices (m, n, n), rows (E, n)."""
    matrices = np.asarray(matrices, dtype=float)
    return BubbleBlock(level=level, at=np.array(at, dtype=np.int64),
                       indices=list(range(matrices.shape[-1])), matrix=matrices,
                       rhs=np.asarray(rhs, dtype=float),
                       coeffs=None if coeffs is None else np.asarray(coeffs, dtype=float))


class TestBubbleSpace:
    def test_interior_counts(self):
        for p, count in [(3, 1), (4, 4), (5, 9)]:
            space = HierarchicalSpace.create(3, p)
            bubbles = build_bubble_space(space.mesh)
            inner = ElementId(0, 1, 1)
            assert len(pairs_of(space.mesh, bubbles, inner)) == count
            if p == 3:
                assert pairs_of(space.mesh, bubbles, inner) == [(2, 2)]

    def test_moment_side_adds_rotation_bubbles(self):
        p = 4
        space = HierarchicalSpace.create(3, p)
        bubbles = build_bubble_space(space.mesh, {"bottom": {"moment"}})
        edge = ElementId(0, 1, 0)
        pairs = pairs_of(space.mesh, bubbles, edge)
        assert len(pairs) == 4 + (p - 2)
        assert set(pairs) == {(2, 2), (2, 3), (3, 2), (3, 3), (2, 1), (3, 1)}
        inner = ElementId(0, 1, 1)
        assert len(pairs_of(space.mesh, bubbles, inner)) == 4

    def test_shear_side_adds_value_bubbles(self):
        p = 4
        space = HierarchicalSpace.create(3, p)
        bubbles = build_bubble_space(space.mesh, {"right": {"shear"}})
        edge = ElementId(0, 2, 1)
        q = p + 1
        assert (q, 2) in pairs_of(space.mesh, bubbles, edge)

    def test_interior_bubble_vanishes_with_gradient_on_boundary(self):
        for p in (3, 4, 5):
            q = p + 1
            ts = np.linspace(0, 1, 20)
            for i in range(2, q - 1):
                for t in (0.0, 1.0):
                    ev = eval_bernstein_ders(q, t, 1)
                    assert abs(ev.values[i]) <= 1e-12
                    assert abs(ev.d1[i]) <= 1e-12
            # tensor bubble trace along a full edge
            i, j = 2, q - 2
            for t in ts:
                edge_val = eval_bernstein_ders(q, 0.0).values[i] * \
                    eval_bernstein_ders(q, t).values[j]
                assert abs(edge_val) <= 1e-12

    def test_rotation_bubble_is_value_free_on_its_side(self):
        q = 5
        ev = eval_bernstein_ders(q, 0.0, 1)
        assert ev.values[1] == pytest.approx(0.0, abs=1e-15)
        assert ev.d1[1] == pytest.approx(q)


class TestBlocks:
    def test_spline_exact_solution_has_vanishing_residuals(self):
        space = HierarchicalSpace.create(3, 3)
        prob = spline_exact_problem()
        u = solve_problem(space, prob)
        bubbles = build_bubble_space(space.mesh, natural_boundary_sides(prob))
        blocks = assemble_blocks(bubbles, u, space, IDENTITY, prob)
        scale = math.sqrt(float(u @ (assemble_system(space, IDENTITY, prob).matrix @ u)))
        for e, _, rhs, _ in element_rows(blocks):
            assert np.linalg.norm(rhs) <= 1e-9 * max(scale, 1.0), e

    def test_doubling_load_doubles_rhs_for_zero_field(self):
        space = HierarchicalSpace.create(2, 3)
        prob1 = smooth_problem()
        prob2 = PlateProblem(
            g=lambda x, y: 2.0 * prob1.g(x, y),
            dirichlet_w=prob1.dirichlet_w, neumann_M=prob1.neumann_M)
        zero = np.zeros(space.num_dofs)
        bubbles = build_bubble_space(space.mesh, natural_boundary_sides(prob1))
        b1 = assemble_blocks(bubbles, zero, space, IDENTITY, prob1)
        b2 = assemble_blocks(bubbles, zero, space, IDENTITY, prob2)
        for x, y in zip(b1, b2):
            np.testing.assert_allclose(y.rhs, 2.0 * x.rhs, rtol=1e-13)

    def test_p3_interior_block_is_bubble_energy(self):
        # oracle: integrate the degree-4 (2,2) tensor bubble energy exactly
        space = HierarchicalSpace.create(2, 3)
        zero = np.zeros(space.num_dofs)
        prob = smooth_problem()
        bubbles = build_bubble_space(space.mesh)
        blocks = assemble_blocks(bubbles, zero, space, IDENTITY, prob)
        bpoly = np.poly1d([0.0])
        for k in range(3):  # B_{2,4} = C(4,2) t^2 (1-t)^2
            bpoly = bpoly + math.comb(4, 2) * math.comb(2, k) * (-1.0)**k * \
                np.poly1d([1.0] + [0.0] * (2 + k))
        d2 = np.polyder(bpoly, 2)
        d1 = np.polyder(bpoly, 1)
        def integral(poly):
            integ = np.polyint(poly)
            return integ(1.0) - integ(0.0)
        h = 0.5
        ixx = integral(np.polymul(d2, d2)) / h**3 * integral(np.polymul(bpoly, bpoly)) * h
        ixy = integral(np.polymul(d1, d1)) / h * integral(np.polymul(d1, d1)) / h
        energy = 2 * ixx + 2 * ixy
        for _, mat, _, _ in element_rows(blocks):
            assert mat.shape == (1, 1)
            assert mat[0, 0] == pytest.approx(energy, rel=1e-12)

    def test_block_diagonal_equivalence_with_global_system(self):
        # oracle: assemble one global sparse system over all bubbles at once
        space = HierarchicalSpace.create(3, 3)
        space = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), m=2)
        prob = smooth_problem()
        u = solve_problem(space, prob)
        bubbles = build_bubble_space(space.mesh, natural_boundary_sides(prob))
        rows = list(element_rows(solve_blocks(
            assemble_blocks(bubbles, u, space, IDENTITY, prob))))
        assert sorted(k for k, _, _, _ in rows) == list(range(space.mesh.n_active))
        offsets = {}
        total = 0
        for e, _, rhs, _ in rows:
            offsets[e] = total
            total += len(rhs)
        gmat = sp.lil_matrix((total, total))
        grhs = np.zeros(total)
        for e, mat, rhs, _ in rows:
            o = offsets[e]
            n = len(rhs)
            gmat[o:o + n, o:o + n] = mat
            grhs[o:o + n] = rhs
        gsol = spla.spsolve(gmat.tocsc(), grhs)
        packed = np.concatenate([c for _, _, _, c in rows])
        scale = max(np.abs(gsol).max(), 1e-30)
        assert np.abs(gsol - packed).max() <= 1e-12 * scale

    def test_solve_blocks_trivial_cases(self):
        blk = block(0, [0], [[[4.0]]], [[2.0]])
        solve_blocks([blk])
        assert blk.coeffs[0, 0] == pytest.approx(0.5)
        blk2 = block(0, [0], [[[4.0]]], [[0.0]])
        solve_blocks([blk2])
        assert blk2.coeffs[0, 0] == 0.0


    def test_ill_conditioned_blocks_are_solved_to_the_backward_error_floor(self):
        # Hilbert-like blocks (cond 2e8 to 2e16), three right-hand sides to a
        # matrix, two matrices of one shape in one block: every residual is
        # far above 1e-12 of its right-hand side, and within n eps (|A| |c|
        # + |b|), the floor of a backward-stable solve
        mats = [[scipy.linalg.hilbert(9)], [scipy.linalg.hilbert(12)],
                [np.kron(scipy.linalg.hilbert(4), scipy.linalg.hilbert(4)),
                 np.kron(scipy.linalg.invhilbert(4), scipy.linalg.hilbert(4))]]
        rng = np.random.default_rng(5)
        blocks = [block(1, [10 * k + r for r in range(3 * len(m))], m,
                        rng.standard_normal((3 * len(m), len(m[0]))))
                  for k, m in enumerate(mats)]
        rows = list(element_rows(solve_blocks(blocks)))
        assert len(rows) == 12
        for e, a, b, c in rows:
            resid = np.linalg.norm(b - a @ c)
            assert resid > 1e-12 * np.linalg.norm(b)
            assert resid <= len(b) * np.finfo(float).eps * (
                np.linalg.norm(a, 2) * np.linalg.norm(c) + np.linalg.norm(b)), e

    def test_solve_blocks_names_the_block_that_is_not_spd(self):
        good = [[4.0, 1.0], [1.0, 3.0]]
        bad = [[1.0, 2.0], [2.0, 1.0]]
        # shared: the failing matrix belongs to the whole group, named by
        # its first cell
        shared = [block(1, [0, 1], [good], np.ones((2, 2))),
                  block(1, [5, 7, 2], [bad], np.ones((3, 2)))]
        with pytest.raises(RuntimeError, match=re.escape("position 5 (level 1)")):
            solve_blocks(shared)
        # per element: the bad element's own cell, not the block's first
        per_element = [block(2, [0, 5, 7], [good, bad, good], np.ones((3, 2)))]
        with pytest.raises(RuntimeError, match=re.escape("position 5 (level 2)")):
            solve_blocks(per_element)

class TestEta:
    def test_zero_coeffs_zero_eta(self):
        blk = block(0, [0], [[[4.0]]], [[0.0]], coeffs=[[0.0]])
        assert eta_elements([blk]).tolist() == [0.0]

    @pytest.mark.parametrize("calibration", [-3.0, 0.0, math.inf, math.nan])
    def test_calibration_not_finite_and_positive_rejected(self, calibration):
        blk = block(0, [0], [[[4.0]]], [[1.0]], coeffs=[[1.0]])
        with pytest.raises(ValueError, match="calibration must be finite and positive"):
            eta_elements([blk], calibration)

    def test_calibration_linearity(self):
        space = HierarchicalSpace.create(3, 3)
        prob = smooth_problem()
        u = solve_problem(space, prob)
        eta3, tot3 = estimate(u, space, prob, calibration=3.0)
        eta6, tot6 = estimate(u, space, prob, calibration=6.0)
        assert tot6 == pytest.approx(2.0 * tot3, rel=1e-14)
        assert eta6.shape == eta3.shape
        for a, b in zip(eta3, eta6):
            assert b == pytest.approx(2.0 * a, rel=1e-13)

    def test_spline_exact_estimates_vanish(self):
        for p in (3, 4, 5):
            space = HierarchicalSpace.create(2, p)
            prob = spline_exact_problem()
            u = solve_problem(space, prob)
            system = assemble_system(space, IDENTITY, prob)
            energy = math.sqrt(float(u @ (system.matrix @ u)))
            eta, _ = estimate(u, space, prob)
            assert eta.max() <= 1e-8 * energy


class TestMappedDomain:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_spline_exact_solution_on_an_affine_map(self, p):
        # x^2 y^2 on the physical rectangle [-1, 1] x [0.25, 0.75]: still in the
        # mapped space, and the map keeps normals axis-aligned, so the moment
        # data n.H.n of benchmark_spline_exact stay exact on every side
        spec = benchmark_spline_exact()
        geo = GeometryMap.affine(np.diag([2.0, 0.5]), (-1.0, 0.25))
        space = HierarchicalSpace.create(3, p)
        space = space.refined(
            positions(space.mesh, [ElementId(0, 0, 0), ElementId(0, 2, 1)]), 2)
        system = apply_dirichlet(assemble_system(space, geo, spec.problem), space, spec.problem,
                                 geo)
        u = solve(system)
        assert h2_seminorm_error(u, spec.exact_hessian, space, geo) <= 1e-8
        energy = math.sqrt(float(u @ (system.matrix @ u)))
        eta, _ = estimate(u, space, spec.problem, geo)
        assert eta.max() <= 1e-8 * energy


def mapped_geometry(kind):
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


def mapped_block_problem():
    """Moment data on the bottom and right sides, shear data on the top,
    clamped on the left, and a point load in a bottom boundary cell."""
    return PlateProblem(
        g=lambda x, y: np.cos(2.0 * x) + x * y, stiffness=1.7, poisson=0.3,
        dirichlet_w={s: 0.0 for s in ("left", "bottom", "right")},
        dirichlet_phi={"left": 0.0, "top": 0.0},
        neumann_M={"bottom": lambda x, y: 1.0 + x * y, "right": lambda x, y: np.sin(y)},
        neumann_Q={"top": lambda x, y: 0.5 + x * x},
        point_loads=[((0.6, 0.1), 2.5)])


# outward normal, tangent and the reference point at t along the side
REFERENCE_SIDES = {"left": ((-1.0, 0.0), (0.0, 1.0), lambda t: (0.0, t)),
                   "bottom": ((0.0, -1.0), (1.0, 0.0), lambda t: (t, 0.0)),
                   "right": ((1.0, 0.0), (0.0, 1.0), lambda t: (1.0, t)),
                   "top": ((0.0, 1.0), (1.0, 0.0), lambda t: (t, 1.0))}


def reference_block(space, geo, problem, u, e, pairs):
    """Block matrix and right-hand side of the bubbles `pairs` on element e
    by per-point quadrature: the p + 2 point Gauss rule, every bubble and
    u_h pushed forward one point at a time, the moment and shear data on
    e's edges along natural sides, and the point loads inside e."""
    mesh, p = space.mesh, space.degree
    q, d, nu = p + 1, problem.stiffness, problem.poisson
    x0, y0, x1, y1 = cell_rect(mesh, e)
    h = x1 - x0
    nodes, w1 = np.polynomial.legendre.leggauss(p + 2)
    nodes, w1 = 0.5 * (nodes + 1.0), 0.5 * w1
    dofs, every = connectivity(mesh, space.basis, e), functions(space.basis)
    funcs, coeffs = [every[k] for k in dofs], u[dofs]

    def bubbles(tx, ty):
        bx = eval_bernstein_ders(q, tx, 2).ders
        by = eval_bernstein_ders(q, ty, 2).ders
        return [(bx[0, i] * by[0, j], [bx[1, i] * by[0, j] / h, bx[0, i] * by[1, j] / h],
                 [[bx[2, i] * by[0, j] / h**2, bx[1, i] * by[1, j] / h**2],
                  [bx[1, i] * by[1, j] / h**2, bx[0, i] * by[2, j] / h**2]]) for i, j in pairs]

    def field(xi, eta):
        grad, hess = np.zeros(2), np.zeros((2, 2))
        for f, c in zip(funcs, coeffs):
            kv = mesh.knots(f.level)
            ax, ay = e.ix >> (e.level - f.level), e.iy >> (e.level - f.level)
            tx = tabulate_in_span(kv, [xi], ax + p, 2)[:, f.ix - ax, 0]
            ty = tabulate_in_span(kv, [eta], ay + p, 2)[:, f.iy - ay, 0]
            grad += c * np.array([tx[1] * ty[0], tx[0] * ty[1]])
            hess += c * np.array([[tx[2] * ty[0], tx[1] * ty[1]], [tx[1] * ty[1], tx[0] * ty[2]]])
        return grad, hess

    def energy(a, b):
        return d * ((1.0 - nu) * np.sum(a * b) + nu * np.trace(a) * np.trace(b))

    amat, rhs = np.zeros((len(pairs), len(pairs))), np.zeros(len(pairs))
    for qx, tx in enumerate(nodes):
        for qy, ty in enumerate(nodes):
            xi, eta = x0 + h * tx, y0 + h * ty
            push = pushforward2(geo, (xi, eta))
            w = w1[qx] * w1[qy] * h * h * push.jacobian_det
            bs = bubbles(tx, ty)
            hb = [push.apply(g, hs)[1] for _, g, hs in bs]
            hu = push.apply(*field(xi, eta))[1]
            x, y = geo.map_points([(xi, eta)])[0]
            amat += w * np.array([[energy(a, b) for b in hb] for a in hb])
            rhs += w * np.array([problem.g(x, y) * v - energy(a, hu)
                                 for (v, _, _), a in zip(bs, hb)])
    last = mesh.n_elements_1d(e.level) - 1
    for side, (normal, tangent, at) in REFERENCE_SIDES.items():
        if (e.ix, e.iy, last - e.ix, last - e.iy)[ALL.index(side)] > 0:
            continue
        for qt, t in enumerate(nodes):
            tx, ty = at(t)
            xi, eta = x0 + h * tx, y0 + h * ty
            push = pushforward2(geo, (xi, eta))
            n = np.linalg.inv(push.jacobian).T @ normal
            ds = w1[qt] * h * np.linalg.norm(push.jacobian @ tangent)
            x, y = geo.map_points([(xi, eta)])[0]
            for data, slope in ((problem.neumann_M.get(side), True),
                                (problem.neumann_Q.get(side), False)):
                if data is not None:
                    rhs += ds * data(x, y) * np.array([
                        push.apply(g, hs)[0] @ n / np.linalg.norm(n) if slope else v
                        for v, g, hs in bubbles(tx, ty)])
    for (px, py), magnitude in problem.point_loads:
        if mesh.locate([(px, py)])[0] == mesh.cell_index(e.level, e.ix, e.iy):
            rhs += magnitude * np.array([v for v, _, _ in bubbles((px - x0) / h, (py - y0) / h)])
    return amat, rhs


class TestMappedBlocks:
    # interior (on both levels), bottom (moment) side with the point load,
    # the bottom-right corner of two moment sides, top (shear) side, and the
    # top-right corner of a moment and a shear side
    ELEMENTS = (ElementId(0, 2, 2), ElementId(1, 2, 3), ElementId(0, 2, 0), ElementId(0, 3, 0),
                ElementId(0, 2, 3), ElementId(0, 3, 3))

    def blocks(self, kind, p):
        space = HierarchicalSpace.create(4, p)
        space = space.refined(positions(space.mesh, [ElementId(0, 1, 1)]), 2)
        prob = mapped_block_problem()
        u = np.random.default_rng(p).standard_normal(space.num_dofs)
        geo = mapped_geometry(kind)
        bubbles = build_bubble_space(space.mesh, natural_boundary_sides(prob))
        return space, geo, prob, u, bubbles, assemble_blocks(bubbles, u, space, geo, prob)

    @pytest.mark.parametrize("kind", ["identity", "affine", "spline"])
    @pytest.mark.parametrize("p", [3, 4])
    def test_blocks_match_per_point_quadrature(self, kind, p):
        space, geo, prob, u, bubbles, blocks = self.blocks(kind, p)
        by_element = {k: (mat, rhs) for k, mat, rhs, _ in element_rows(blocks)}
        indices = {k: blk.indices for blk in blocks for k in blk.at.tolist()}
        for e in self.ELEMENTS:
            pairs = pairs_of(space.mesh, bubbles, e)
            amat, rhs = reference_block(space, geo, prob, u, e, pairs)
            k = positions(space.mesh, [e])[0]
            assert indices[k] == pairs
            mat, row = by_element[k]
            assert np.abs(mat - amat).max() <= 1e-12 * np.abs(amat).max(), e
            assert np.abs(row - rhs).max() <= 1e-12 * np.abs(rhs).max(), e

    @pytest.mark.parametrize("kind", ["identity", "affine", "spline"])
    def test_one_energy_form_matches_the_four_term_form(self, kind, monkeypatch):
        # at nu = 0.3 the three Cholesky terms of the energy give the
        # stiffness and the bubble blocks of the four terms (1 - nu) H:H +
        # nu lap lap
        def four_terms(rows, wts, poisson):
            hxx, hxy, hyy = rows[(2, 0)], rows[(1, 1)], rows[(0, 2)]
            scales = (1.0 - poisson, 2.0 * (1.0 - poisson), 1.0 - poisson, poisson)
            return (np.concatenate([hxx, hxy, hyy, hxx + hyy], axis=-1),
                    np.concatenate([s * wts for s in scales], axis=-1))

        space, geo, prob, u, bubbles, blocks = self.blocks(kind, 3)
        assert prob.poisson == 0.3
        stiffness = assemble_stiffness(space, geo, prob).toarray()
        for module in (hbplate.assembly, hbplate.estimators):
            monkeypatch.setattr(module, "_energy_terms", four_terms)
        want = assemble_stiffness(space, geo, prob).toarray()
        assert np.abs(stiffness - want).max() <= 1e-14 * np.abs(want).max()
        wanted = assemble_blocks(bubbles, u, space, geo, prob)
        assert len(wanted) == len(blocks)
        for blk, want in zip(blocks, wanted):
            assert np.array_equal(blk.at, want.at) and blk.indices == want.indices
            assert np.abs(blk.matrix - want.matrix).max() <= 1e-14 * np.abs(want.matrix).max()
            assert np.abs(blk.rhs - want.rhs).max() <= 1e-14 * np.abs(want.rhs).max()

    @pytest.mark.parametrize("kind", ["identity", "affine", "spline"])
    def test_one_block_per_group(self, kind):
        space, _, _, _, _, blocks = self.blocks(kind, 3)
        for blk in blocks:
            # one matrix for the group under a constant Jacobian, one to an
            # element under the spline map
            assert len(blk.matrix) == (len(blk.at) if kind == "spline" else 1)
            assert blk.matrix.shape[1:] == (len(blk.indices),) * 2
            assert blk.rhs.shape == (len(blk.at), len(blk.indices))
        keys = [(blk.level, tuple(blk.indices)) for blk in blocks]
        assert len(set(keys)) == len(keys)
        assert any(len(blk.at) > 1 for blk in blocks)
        assert sum(len(blk.at) for blk in blocks) == space.mesh.n_active


class TestLevelSweep:
    @pytest.mark.parametrize("kind", ["identity", "spline"])
    def test_one_field_pass_per_call(self, kind, monkeypatch):
        space, geo, prob, u, bubbles, blocks = TestMappedBlocks().blocks(kind, 3)
        passes = []
        field_chunks = hbplate.estimators._field_chunks

        def counted(space, at, *args):
            passes.append(at.tolist())
            return field_chunks(space, at, *args)

        monkeypatch.setattr(hbplate.estimators, "_field_chunks", counted)
        again = assemble_blocks(bubbles, u, space, geo, prob)
        assert len(bubbles) > len(np.unique(space.active_cells.level)) > 1
        assert passes == [list(range(space.mesh.n_active))]
        for blk, want in zip(again, blocks):
            assert np.array_equal(blk.rhs, want.rhs) and np.array_equal(blk.matrix, want.matrix)


def zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def side_data_problem(data):
    """Deflection, rotation, moment and shear sides all carrying `data`."""
    return PlateProblem(g=lambda x, y: 1.0 + x * y,
                        dirichlet_w={s: data for s in ("left", "bottom", "right")},
                        neumann_Q={"top": data}, dirichlet_phi={"left": data},
                        neumann_M={s: data for s in ("bottom", "right", "top")})


class TestVanishingData:
    @pytest.mark.parametrize("kind", ["identity", "spline"])
    def test_constant_zero_matches_a_zero_callable_without_quadrature(self, kind, monkeypatch):
        space = HierarchicalSpace.create(3, 3)
        space = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), 2)
        geo = mapped_geometry(kind)
        u = np.random.default_rng(3).standard_normal(space.num_dofs)
        out = []
        for data in (zero, 0.0):
            prob = side_data_problem(data)
            system = apply_dirichlet(assemble_system(space, geo, prob), space, prob, geo)
            bubbles = build_bubble_space(space.mesh, natural_boundary_sides(prob))
            out.append((system, assemble_blocks(bubbles, u, space, geo, prob)))
            # the callable is integrated; constant zero data get no quadrature
            for module, name in ((hbplate.assembly, "_side_batches"),
                                 (hbplate.estimators, "_bubble_edge_terms")):
                monkeypatch.setattr(module, name, None)
        (want, want_blocks), (system, blocks) = out
        assert np.array_equal(system.rhs, want.rhs)
        assert system.constraints == want.constraints and len(want.constraints) > 0
        for blk, ref in zip(blocks, want_blocks, strict=True):
            assert blk.indices == ref.indices
            assert np.array_equal(blk.rhs, ref.rhs) and np.array_equal(blk.matrix, ref.matrix)

    @pytest.mark.parametrize("field, side", [("dirichlet_w", "left"), ("dirichlet_phi", "left"),
                                             ("neumann_M", "top"), ("neumann_Q", "top")])
    def test_constant_nan_still_raises(self, field, side):
        space = HierarchicalSpace.create(2, 3)
        prob = side_data_problem(0.0)
        getattr(prob, field)[side] = float("nan")
        u = np.zeros(space.num_dofs)
        bubbles = build_bubble_space(space.mesh, natural_boundary_sides(prob))
        steps = [lambda: apply_dirichlet(assemble_system(space, IDENTITY, prob), space, prob)]
        if field.startswith("neumann"):
            steps += [lambda: assemble_blocks(bubbles, u, space, IDENTITY, prob)]
        for step in steps:
            with pytest.raises(ValueError, match="side %r" % side):
                step()


class TestEstimate:
    @pytest.mark.parametrize("kind", ["identity", "affine", "spline"])
    def test_indicators_in_active_element_order(self, kind):
        # one indicator per active element, in mesh order, each equal to
        # calibration * sqrt(c^T A c) of its own block by per-point
        # quadrature and a dense solve
        space, geo, prob, u, bubbles, _ = TestMappedBlocks().blocks(kind, 3)
        eta, total = estimate(u, space, prob, geo, calibration=3.0)
        active = elements(space.mesh)
        assert eta.shape == (len(active),)
        assert total == math.sqrt(sum(v**2 for v in eta.tolist()))
        for e in TestMappedBlocks.ELEMENTS:
            amat, rhs = reference_block(space, geo, prob, u, e, pairs_of(space.mesh, bubbles, e))
            c = np.linalg.solve(amat, rhs)
            assert eta[active.index(e)] == pytest.approx(3.0 * math.sqrt(c @ amat @ c),
                                                         rel=1e-12), e

    def test_uniform_refinement_reduces_total(self):
        prob = smooth_problem()
        totals = []
        for n0 in (4, 8):
            space = HierarchicalSpace.create(n0, 3)
            u = solve_problem(space, prob)
            _, tot = estimate(u, space, prob)
            totals.append(tot)
        assert totals[1] < totals[0]

    def test_smooth_uniform_slope_matches_error_rate(self):
        prob = smooth_problem()
        errs, totals, hs = [], [], []
        for n0 in (4, 8, 16):
            space = HierarchicalSpace.create(n0, 3)
            u = solve_problem(space, prob)
            _, tot = estimate(u, space, prob)
            errs.append(h2_seminorm_error(u, smooth_hessian, space, IDENTITY))
            totals.append(tot)
            hs.append(1.0 / n0)
        slope_err = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        slope_eta = np.polyfit(np.log(hs), np.log(totals), 1)[0]
        assert slope_err == pytest.approx(2.0, abs=0.2)
        assert slope_eta == pytest.approx(2.0, abs=0.25)


class TestResidualEstimator:
    def test_spline_exact_estimates_vanish(self):
        uniform = HierarchicalSpace.create(3, 3)
        # level interfaces: the two sides of a jump meet on part of an edge
        graded = uniform.refined(positions(uniform.mesh, [ElementId(0, 1, 1)]), 2)
        graded = graded.refined(positions(graded.mesh, [ElementId(1, 2, 3)]), 2)
        prob = spline_exact_problem()
        for space in (uniform, graded):
            u = solve_problem(space, prob)
            eta = residual_estimator(u, space, prob)
            assert eta.max() <= 1e-8

    def test_smooth_uniform_slope(self):
        prob = smooth_problem()
        totals, hs = [], []
        for n0 in (4, 8, 16):
            space = HierarchicalSpace.create(n0, 3)
            u = solve_problem(space, prob)
            eta = residual_estimator(u, space, prob)
            totals.append(math.sqrt(sum(v**2 for v in eta.tolist())))
            hs.append(1.0 / n0)
        slope = np.polyfit(np.log(hs), np.log(totals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_residual_effectivity_much_larger_than_bubble(self):
        prob = smooth_problem()
        space = HierarchicalSpace.create(8, 3)
        u = solve_problem(space, prob)
        err = h2_seminorm_error(u, smooth_hessian, space, IDENTITY)
        _, eta_bubble = estimate(u, space, prob)
        eta = residual_estimator(u, space, prob)
        eta_res = math.sqrt(sum(v**2 for v in eta.tolist()))
        theta_b = eta_bubble / err
        theta_r = eta_res / err
        assert theta_r / theta_b > 10.0

    def test_jump_terms_present_on_level_interfaces(self):
        # a refined patch creates interior edges between levels
        space = HierarchicalSpace.create(2, 3)
        space = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), m=2)
        prob = smooth_problem()
        u = solve_problem(space, prob)
        eta = residual_estimator(u, space, prob)
        assert np.isfinite(eta).all()
        assert eta.shape == (space.mesh.n_active,)


class TestEffectivity:
    def test_bubble_effectivity_in_band_on_smooth_problem(self):
        prob = smooth_problem()
        for p in (3, 4):
            space = HierarchicalSpace.create(8, p)
            u = solve_problem(space, prob)
            err = h2_seminorm_error(u, smooth_hessian, space, IDENTITY)
            _, tot = estimate(u, space, prob)
            theta = tot / err
            assert 1.0 <= theta <= 10.0
