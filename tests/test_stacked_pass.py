"""The one pass over the active cells of all levels against the per-level
passes it replaced (``level_oracle.py``): stiffness, load, Dirichlet fit,
energy error norm, field evaluation and the bubble estimator's blocks, on
multi-level meshes under identity, affine and spline maps, with a graded
load, point loads on two levels, moment and shear sides and rotation fits;
the trace dofs of the Dirichlet fit and the strong-residual estimator
against their per-level and per-element forms.
"""

import numpy as np
import pytest

import level_oracle
from hbplate.assembly import (
    SIDES,
    GeometryMap,
    LinearSystem,
    PlateProblem,
    _blockdiag_stiffness,
    _energy_form,
    _trace_dofs,
    apply_dirichlet,
    assemble_load,
    assemble_stiffness,
    assemble_system,
    evaluate,
    h2_seminorm_error,
    solve,
)
from hbplate.estimators import (
    _edge_pieces,
    _jump_terms,
    assemble_blocks,
    build_bubble_space,
    natural_boundary_sides,
    residual_estimator,
)
from hbplate.hierarchy import HierarchicalSpace, check_admissible
from hbplate.splines import make_open_uniform
from closure_oracle import ElementId, positions
from test_hierarchy import random_admissible_meshes

RTOL = 1e-13


def geometry(kind):
    if kind == "identity":
        return GeometryMap.identity()
    if kind == "affine":
        return GeometryMap.affine([[1.1, 0.3], [-0.2, 0.8]], (0.2, -0.1))
    kv = make_open_uniform(2, 3)
    grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
    control = np.zeros((kv.num_basis, kv.num_basis, 2))
    for i, gx in enumerate(grev):
        for j, gy in enumerate(grev):
            control[i, j] = (gx + 0.3 * gx * gy, gy + 0.2 * gx * (1.0 - gy))
    return GeometryMap.spline(kv, control)


def space_of(p):
    """A refined corner at the right and four levels along the left side."""
    space = HierarchicalSpace.create(8, p)
    space = space.refined(positions(space.mesh, [ElementId(0, 7, 0)]), 2)
    for level in range(3):
        space = space.refined(positions(space.mesh, [ElementId(level, 0, 4 << level)]), 2)
    mesh = space.mesh
    assert mesh.num_levels == 4 and check_admissible(mesh, 2, space.basis)
    assert all(len(mesh.cells(level)) for level in range(4))
    return space


def problem():
    """Clamped left and right sides with nonzero deflection and rotation
    data, moment data on the bottom, shear and moment data on the top, a
    body load graded toward the left side and point loads on two levels."""
    w = lambda x, y: np.sin(x + 2.0 * y) + 0.5 * x * y
    return PlateProblem(
        g=lambda x, y: np.cos(2.0 * x) + x * y + 1.0, stiffness=1.3, poisson=0.3,
        dirichlet_w={"left": w, "bottom": w, "right": w},
        dirichlet_phi={"left": lambda x, y: np.cos(2.0 * y) - x,
                       "right": lambda x, y: 0.5 + x * y},
        neumann_M={"bottom": lambda x, y: 1.0 + x * y, "top": lambda x, y: np.sin(x)},
        neumann_Q={"top": lambda x, y: 0.5 + x * x},
        point_loads=[((0.01, 0.51), -1.5), ((0.55, 0.9), 0.8)],
        load_grading=("left",))


def relative(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


KINDS = ["identity", "affine", "spline"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [3, 4])
def test_stiffness(kind, p):
    # the stacked keys are the level oracle's keys, level after level, so
    # blockdiag(K_l) and K have the same sparsity and differ only by the
    # order in which chunk boundaries add the entries
    space, geo, prob = space_of(p), geometry(kind), problem()
    form = _energy_form(geo, prob.poisson) if geo.constant_jacobian else None
    for got, want in ((_blockdiag_stiffness(space, geo, prob, form),
                       level_oracle.blockdiag_stiffness(space, geo, prob)),
                      (assemble_stiffness(space, geo, prob),
                       level_oracle.assemble_stiffness(space, geo, prob))):
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert relative(got.data, want.data) <= 1e-15


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [3, 4])
def test_load(kind, p):
    space, geo, prob = space_of(p), geometry(kind), problem()
    levels = space.active_cells.level[space.mesh.locate([pt for pt, _ in prob.point_loads])]
    assert levels.tolist() == [3, 1]
    assert relative(assemble_load(space, geo, prob),
                    level_oracle.assemble_load(space, geo, prob)) <= RTOL


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [3, 4])
def test_dirichlet_fit(kind, p):
    space, geo, prob = space_of(p), geometry(kind), problem()
    system = LinearSystem(matrix=None, rhs=np.zeros(space.num_dofs))
    got = apply_dirichlet(system, space, prob, geo).constraints
    want = level_oracle.dirichlet_constraints(space, geo, prob)
    assert list(got) == list(want)
    assert relative(list(got.values()), np.array(list(want.values()))) <= RTOL


@pytest.mark.parametrize("kind", KINDS)
def test_error_norm_and_evaluation(kind):
    space, geo = space_of(3), geometry(kind)
    rng = np.random.default_rng(5)
    field = rng.standard_normal(space.num_dofs)

    def hessian(x, y):
        return np.sin(x) * y, x * x, np.cos(y)
    got = h2_seminorm_error(field, hessian, space, geo)
    assert abs(got - level_oracle.h2_seminorm_error(field, hessian, space, geo)) <= RTOL * got
    grid = np.linspace(0.0, 1.0, 7)
    pts = np.vstack([rng.uniform(0.0, 1.0, (60, 2)),
                     np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)])
    assert len(np.unique(space.active_cells.level[space.mesh.locate(pts)])) == 4
    for got, want in zip(evaluate(field, space, geo, pts),
                         level_oracle.evaluate(field, space, geo, pts)):
        assert relative(got, want) <= RTOL


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [3, 4])
def test_estimator_blocks(kind, p):
    space, geo, prob = space_of(p), geometry(kind), problem()
    u = np.random.default_rng(p).standard_normal(space.num_dofs)
    bubbles = build_bubble_space(space.mesh, natural_boundary_sides(prob))
    got = assemble_blocks(bubbles, u, space, geo, prob)
    want = level_oracle.assemble_blocks(bubbles, u, space, geo, prob)
    levels = len(np.unique(space.active_cells.level))
    assert len(got) == len(want) == len(bubbles) > levels
    for blk, ref in zip(got, want):
        assert blk.level == ref.level and blk.indices == ref.indices
        np.testing.assert_array_equal(blk.at, ref.at)
        assert blk.matrix.shape == ref.matrix.shape and blk.rhs.shape == ref.rhs.shape
        assert relative(blk.matrix, ref.matrix) <= RTOL
        assert relative(blk.rhs, ref.rhs) <= RTOL


@pytest.mark.parametrize("p, m", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_trace_dofs(p, m):
    for mesh in random_admissible_meshes(p, m):
        space = HierarchicalSpace(mesh)
        for side in SIDES:
            for depth in (1, 2):
                got = _trace_dofs(space, side, depth)
                np.testing.assert_array_equal(
                    got, np.sort(level_oracle.trace_dofs(space, side, depth)))
                assert got.size


def clamped(g, point_loads=()):
    return PlateProblem(g=g, dirichlet_w=dict.fromkeys(SIDES, 0.0),
                        dirichlet_phi=dict.fromkeys(SIDES, 0.0), point_loads=list(point_loads))


def solved(space, prob):
    system = assemble_system(space, GeometryMap.identity(), prob)
    return solve(apply_dirichlet(system, space, prob))


def residual_cases():
    """Random admissible meshes with a random field, and the solutions on a
    mesh refined toward a point load and on a graded mesh whose level
    interfaces meet on part of an edge."""
    load = clamped(lambda x, y: np.cos(3.0 * x) + x * y, [((0.3, 0.7), 1.5)])
    for p, m in ((3, 2), (3, 3), (4, 2), (4, 3)):
        for k, mesh in enumerate(random_admissible_meshes(p, m)):
            space = HierarchicalSpace(mesh)
            rng = np.random.default_rng(10 * p + k)
            yield ("random p=%d m=%d #%d" % (p, m, k), space, load,
                   rng.standard_normal(space.num_dofs))
    point = clamped(0.0, [((0.5, 0.5), -1.0)])
    space = HierarchicalSpace.create(4, 3)
    for _ in range(4):
        space = space.refined(space.mesh.locate([(0.5, 0.5)]), 2)
    yield "point load", space, point, solved(space, point)
    smooth = clamped(lambda x, y: 64.0 * np.pi**4 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    space = HierarchicalSpace.create(3, 3)
    space = space.refined(positions(space.mesh, [ElementId(0, 1, 1)]), 2)
    space = space.refined(positions(space.mesh, [ElementId(1, 2, 3)]), 2)
    yield "graded", space, smooth, solved(space, smooth)


def test_residual_estimator():
    names = []
    for name, space, prob, u in residual_cases():
        # some pieces have their two cells on different levels
        view = space.active_cells
        assert any((view.level[c] < view.level[f]).any()
                   for f, c in (_edge_pieces(space, side) for side in SIDES))
        got = residual_estimator(u, space, prob)
        want = level_oracle.residual_estimator(u, space, prob)
        assert got.shape == (space.mesh.n_active,)
        assert relative(got, want) <= 1e-12, name
        # the edge terms alone, which the interior terms outweigh; p = 4
        # fields are C^3, so there both jumps vanish up to rounding
        coeffs = space.stacked_c @ u
        jumps, ref = _jump_terms(space, coeffs), level_oracle.jump_terms(space, coeffs)
        if space.degree == 3:
            assert relative(jumps, ref) <= 1e-12 and (ref > 0.0).all(), name
        else:
            assert max(jumps.max(), ref.max()) <= 1e-24 * (want**2).max(), name
        names.append(name)
    assert len(names) == 14


def test_residual_estimator_on_one_cell():
    # no interior edge: the indicator is the interior term alone
    space = HierarchicalSpace.create(1, 3)
    prob = clamped(lambda x, y: 1.0 + x * y, [((0.4, 0.6), 2.0)])
    u = np.random.default_rng(0).standard_normal(space.num_dofs)
    coeffs = space.stacked_c @ u
    assert not _jump_terms(space, coeffs).any()
    got = residual_estimator(u, space, prob)
    assert got.shape == (1,)
    assert relative(got, level_oracle.residual_estimator(u, space, prob)) <= 1e-12
