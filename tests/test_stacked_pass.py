"""The one pass over the active cells of all levels against the per-level
passes it replaced (``level_oracle.py``): stiffness, load, Dirichlet fit,
energy error norm, field evaluation and the bubble estimator's blocks, on
multi-level meshes under identity, affine and spline maps, with a graded
load, point loads on two levels, moment and shear sides and rotation fits.
"""

import numpy as np
import pytest

import level_oracle
from hbplate.assembly import (
    DiscreteField,
    GeometryMap,
    LinearSystem,
    PlateProblem,
    _blockdiag_stiffness,
    _energy_form,
    apply_dirichlet,
    assemble_load,
    assemble_stiffness,
    evaluate,
    h2_seminorm_error,
)
from hbplate.estimators import assemble_blocks, build_bubble_space, natural_boundary_sides
from hbplate.hierarchy import ElementId, HierarchicalSpace, check_admissible
from hbplate.splines import make_open_uniform

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
    space = HierarchicalSpace.create(8, p).refined([ElementId(0, 7, 0)], 2)
    for level in range(3):
        space = space.refined([ElementId(level, 0, 4 << level)], 2)
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
    levels = [space.mesh.locate(*pt).level for pt, _ in prob.point_loads]
    assert levels == [3, 1]
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
    field = DiscreteField(rng.standard_normal(space.num_dofs))

    def hessian(x, y):
        return np.sin(x) * y, x * x, np.cos(y)
    got = h2_seminorm_error(field, hessian, space, geo)
    assert abs(got - level_oracle.h2_seminorm_error(field, hessian, space, geo)) <= RTOL * got
    grid = np.linspace(0.0, 1.0, 7)
    pts = np.vstack([rng.uniform(0.0, 1.0, (60, 2)),
                     np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)])
    assert len({space.mesh.locate(*pt).level for pt in pts}) == 4
    for got, want in zip(evaluate(field, space, geo, pts),
                         level_oracle.evaluate(field, space, geo, pts)):
        assert relative(got, want) <= RTOL


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [3, 4])
def test_estimator_blocks(kind, p):
    space, geo, prob = space_of(p), geometry(kind), problem()
    u = DiscreteField(np.random.default_rng(p).standard_normal(space.num_dofs))
    bubbles = build_bubble_space(space.mesh, p, natural_boundary_sides(prob))
    got = assemble_blocks(bubbles, u, space, geo, prob)
    want = level_oracle.assemble_blocks(bubbles, u, space, geo, prob)
    levels = len(np.unique(space.active_cells.level))
    assert len(got) == len(want) == len(bubbles.groups) > levels
    for blk, ref in zip(got, want):
        assert blk.level == ref.level and blk.indices == ref.indices
        np.testing.assert_array_equal(blk.cells, ref.cells)
        assert blk.matrix.shape == ref.matrix.shape and blk.rhs.shape == ref.rhs.shape
        assert relative(blk.matrix, ref.matrix) <= RTOL
        assert relative(blk.rhs, ref.rhs) <= RTOL
