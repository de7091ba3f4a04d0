"""Galerkin assembly and solution of the Kirchhoff plate bending problem.

The bilinear form is the plate energy
``a(u, v) = int D [ (1-nu) H(u):H(v) + nu lap(u) lap(v) ]``; with the default
normalization nu = 0, D = 1 it reduces to the Frobenius product of Hessians.
Quadrature uses one tensor Gauss rule with degree + 2 points per direction
on every active element, for the stiffness, loads, error norms and the
estimator blocks alike.

Everything is assembled level by level from the two-scale relation: on the
active cells of level l every active function is a fixed sum of level l's
own tensor B-splines, (p + 1)^2 per cell, given by the sparse operator C_l
(:attr:`hbplate.hierarchy.HierarchicalSpace.levels`, built once per
space). So each operator works on those single-level functions only:

- the stiffness is K = sum over l of C_l^T K_l C_l (:func:`assemble_stiffness`);
- the load is b = sum over l of C_l^T b_l (:func:`assemble_load`);
- a field u enters as u_l = C_l u (:func:`h2_seminorm_error`,
  :func:`evaluate` and the estimators);
- the Dirichlet fit's least-squares matrix is W T_l C_l, sparse
  (:func:`apply_dirichlet`).

The level kernel, :func:`_level_chunks`, hands out the univariate tables of
a level's B-splines on chunks of its cells at the nodes of a tensor
reference rule on [0, 1]^2: the interior Gauss rule, an edge rule with one
node on a domain side (moment and shear loads, Dirichlet fits), or a
graded rule whose strips crowd toward graded sides (the graded body load).
A uniform knot vector has at most 2p + 1 classes of cells, so the tables
of a rule are one array per knot vector,
:func:`hbplate.splines.class_tables`, cached on it; refined meshes share
those knot vectors, so the tables carry over from iteration to iteration,
while a new space starts with none. On top of it, body loads and fields
are sum-factorised (``tx @ G @ ty^T`` per cell, and the coefficients
contracted in y, then in x, :func:`_field_chunks`); edge integrals and the
spline-map stiffness use rows (:func:`_level_rows`). One-off points
(:func:`evaluate`, point loads, the residual estimator's edge pieces) are
tabulated in one :func:`hbplate.splines.tabulate_in_span` call per level
and direction, each point in its own cell's span, and not kept.

Under a constant Jacobian the element matrices of K_l are sums of
Kronecker products of univariate cell Gram matrices, and a mesh with one
fully active level is one sum of Kronecker products of banded matrices;
under a spline map K_l comes from quadrature on the level's own functions.
The upper triangle of K is mirrored, so the matrix is exactly symmetric.
The moment and shear data are integrated once, in :func:`_natural_terms`,
for the load vector and the estimator alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .splines import cell_classes, cell_grams, class_tables, find_span, tabulate_in_span
# bench/tracer.py counts calls by wrapping this module's names, so they stay
# bound here although nothing in this module calls them any more
from .hierarchy import connectivity  # noqa: F401
from .splines import eval_ders, eval_ders_in_span  # noqa: F401

__all__ = [
    "SIDES",
    "GeometryError",
    "SolverError",
    "BoundaryDataError",
    "GeometryMap",
    "PlateProblem",
    "DiscreteField",
    "LinearSystem",
    "assemble_stiffness",
    "assemble_load",
    "assemble_system",
    "apply_dirichlet",
    "solve",
    "h2_seminorm_error",
    "evaluate",
]

SIDES = ("left", "bottom", "right", "top")


class GeometryError(RuntimeError):
    """Geometry map is singular or otherwise unusable."""


class SolverError(RuntimeError):
    """Linear solve failed or did not reach the required residual."""


class BoundaryDataError(ValueError):
    """Boundary data is inconsistent (e.g. mismatched corner values)."""


# ---------------------------------------------------------------------------
# geometry

class GeometryMap:
    """Map from the parametric square to the physical domain.

    Supported kinds: ``identity``, ``affine`` (x = A xi + b) and ``spline``
    (control points over the coarsest tensor-product basis).
    """

    def __init__(self, kind, matrix=None, offset=None, kv=None, control=None):
        self.kind = kind
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=float)
        self.offset = None if offset is None else np.asarray(offset, dtype=float)
        self.kv = kv
        self.control = None if control is None else np.asarray(control, dtype=float)

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def affine(cls, matrix, offset=(0.0, 0.0)):
        matrix = np.asarray(matrix, dtype=float)
        if np.linalg.det(matrix) <= 0.0:
            raise GeometryError("affine map must have positive Jacobian determinant")
        return cls("affine", matrix=matrix, offset=offset)

    @classmethod
    def spline(cls, kv, control):
        control = np.asarray(control, dtype=float)
        n = kv.num_basis
        if control.shape != (n, n, 2):
            raise GeometryError("control net must have shape (%d, %d, 2)" % (n, n))
        return cls("spline", kv=kv, control=control)

    @property
    def is_identity(self):
        return self.kind == "identity"

    @property
    def constant_jacobian(self):
        return self.kind in ("identity", "affine")

    def _spline_basis(self, pts, max_der):
        """Control-net blocks (point, i, j, component) and the univariate
        tables (derivative, i, point) in x and y at every point, each point
        in its own span."""
        kv, p = self.kv, self.kv.degree
        spans = [find_span(kv, col) for col in pts.T]
        bx, by = (tabulate_in_span(kv, col, span, max_der) for col, span in zip(pts.T, spans))
        local = np.arange(p + 1) - p
        ix = (spans[0][:, None] + local)[:, :, None]
        iy = (spans[1][:, None] + local)[:, None, :]
        return self.control[ix, iy], bx, by

    def derivatives(self, pts):
        """Mapped points (n, 2), Jacobians (n, 2, 2) and Hessians (point,
        component, a, b) at the points (n, 2); a spline map tabulates the
        points once for all three."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        if self.kind == "identity":
            return pts.copy(), np.broadcast_to(np.eye(2), (n, 2, 2)).copy(), np.zeros((n, 2, 2, 2))
        if self.kind == "affine":
            return (pts @ self.matrix.T + self.offset,
                    np.broadcast_to(self.matrix, (n, 2, 2)).copy(), np.zeros((n, 2, 2, 2)))
        blk, bx, by = self._spline_basis(pts, 2)

        def part(dx, dy):
            return np.einsum("iq,jq,qijk->qk", bx[dx], by[dy], blk)
        jac = np.empty((n, 2, 2))
        jac[:, :, 0], jac[:, :, 1] = part(1, 0), part(0, 1)
        hess = np.empty((n, 2, 2, 2))
        hess[:, :, 0, 0] = part(2, 0)
        hess[:, :, 0, 1] = hess[:, :, 1, 0] = part(1, 1)
        hess[:, :, 1, 1] = part(0, 2)
        return part(0, 0), jac, hess

    def map_points(self, pts):
        return self.derivatives(pts)[0]


# ---------------------------------------------------------------------------
# quadrature

@lru_cache(maxsize=None)
def _gauss01(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_GRADING_RATIO = 0.15  # width ratio of neighbouring strips toward a graded side
_GRADING_STRIPS = 4


def _graded_breaks(toward_lo, toward_hi):
    """Strip breaks on [0, 1], graded geometrically toward 0 (or else
    toward 1); [0, 1] itself when neither end is graded."""
    if not (toward_lo or toward_hi):
        return np.array([0.0, 1.0])
    fr = np.array([0.0] + [_GRADING_RATIO ** (_GRADING_STRIPS - i)
                           for i in range(1, _GRADING_STRIPS)] + [1.0])
    return fr if toward_lo else 1.0 - fr[::-1]


@lru_cache(maxsize=None)
def _graded_rule(p, sides):
    """Reference rule of an element touching the graded sides: per
    direction, the Gauss nodes of every strip of :func:`_graded_breaks`,
    concatenated, with weights scaled by the strip widths."""
    nodes, w1 = _gauss01(p + 2)
    rule = []
    for lo, hi in (("left", "right"), ("bottom", "top")):
        br = _graded_breaks(lo in sides, hi in sides)
        rule.append((np.concatenate([b0 + (b1 - b0) * nodes for b0, b1 in zip(br, br[1:])]),
                     np.concatenate([(b1 - b0) * w1 for b0, b1 in zip(br, br[1:])])))
    return tuple(rule)


@lru_cache(maxsize=None)
def _edge_rule(p, side, part=(0, 1)):
    """Reference rule of the edge on one side of an element: one node of
    weight 1 at the side's end of [0, 1] across it, the Gauss rule along
    it, on part r of f equal parts of the edge for part (r, f)."""
    end = (np.array([0.0 if side in ("left", "bottom") else 1.0]), np.ones(1))
    (r, f), (nodes, w1) = part, _gauss01(p + 2)
    along = ((r + nodes) / f, w1 / f)
    return (end, along) if side in ("left", "right") else (along, end)


# ---------------------------------------------------------------------------
# problem data

def _as_fn(data):
    """Normalize boundary/load data to a vectorized callable of (x, y)."""
    if data is None:
        return None
    if callable(data):
        return data
    value = float(data)
    return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)


def _vanishes(*data):
    """Whether all the data are absent or the constant 0, so that they need
    no quadrature; constant NaN does not vanish and raises where evaluated."""
    return all(d is None or (not callable(d) and float(d) == 0.0) for d in data)


@dataclass
class PlateProblem:
    """Load, material constants and boundary-condition layout.

    Every side of the square must appear in exactly one of ``dirichlet_w`` /
    ``neumann_Q`` (deflection or effective shear) and exactly one of
    ``dirichlet_phi`` / ``neumann_M`` (rotation or bending moment). Data are
    callables of (x, y) or constants.
    """

    g: object = None
    stiffness: float = 1.0
    poisson: float = 0.0
    dirichlet_w: dict = field(default_factory=dict)
    dirichlet_phi: dict = field(default_factory=dict)
    neumann_M: dict = field(default_factory=dict)
    neumann_Q: dict = field(default_factory=dict)
    point_loads: list = field(default_factory=list)
    load_grading: tuple = ()

    def __post_init__(self):
        # the energy is positive definite iff D > 0 and -1 < nu < 1
        if not 0.0 < self.stiffness < np.inf:
            raise ValueError("stiffness must be finite and positive, got %r" % (self.stiffness,))
        if not -1.0 < self.poisson < 1.0:
            raise ValueError("poisson must lie in (-1, 1), got %r" % (self.poisson,))
        for side in list(self.dirichlet_w) + list(self.dirichlet_phi) \
                + list(self.neumann_M) + list(self.neumann_Q):
            if side not in SIDES:
                raise ValueError("unknown side %r" % side)
        for side in SIDES:
            in_w = side in self.dirichlet_w
            in_q = side in self.neumann_Q
            if in_w == in_q:
                raise ValueError(
                    "side %r must carry exactly one of deflection/shear data" % side)
            in_phi = side in self.dirichlet_phi
            in_m = side in self.neumann_M
            if in_phi == in_m:
                raise ValueError(
                    "side %r must carry exactly one of rotation/moment data" % side)
        for side in self.load_grading:
            if side not in SIDES:
                raise ValueError("unknown grading side %r" % side)


@dataclass
class DiscreteField:
    """Coefficient vector over the active basis dofs."""

    coefficients: np.ndarray


@dataclass
class LinearSystem:
    matrix: sp.spmatrix
    rhs: np.ndarray
    constraints: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the level kernel

_ASSEMBLY_COMBOS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_DERIVATIVES = _ASSEMBLY_COMBOS[1:]
_HESSIANS = _ASSEMBLY_COMBOS[3:]
_CHUNK_BYTES = 1 << 20  # tables, rows and products held for one chunk of cells


def _rule_on_cells(mesh, level, cells, rule):
    """Points (E, nq, 2), x-major, and weights (nq,) of a reference rule on
    cells of one level. A direction with several nodes scales its weights
    by h; a direction with one node is a trace and keeps its weight."""
    h, a = mesh.h(level), mesh.interval[0]
    (xn, xw), (yn, yw) = rule
    xs = a + (cells[:, 0, None] + xn) * h
    ys = a + (cells[:, 1, None] + yn) * h
    pts = np.stack([np.repeat(xs, yn.size, axis=1), np.tile(ys, xn.size)], axis=-1)
    scale = (h if xn.size > 1 else 1.0) * (h if yn.size > 1 else 1.0)
    return pts, np.outer(xw, yw).ravel() * scale


def _level_chunks(mesh, level, cells, rule, max_der, floats):
    """The level kernel: the level's own tensor B-splines on chunks of its
    cells (E, 2) at the nodes of a tensor reference rule ((x nodes, x
    weights), (y nodes, y weights)) on [0, 1], from the class tables of its
    knot vector (:func:`~hbplate.splines.class_tables`); nodes at 0 or 1
    give one-sided limits on each cell.

    Yields (sl, tx, ty, wts, pts) for each chunk ``cells[sl]`` of e cells:
    tx (e, derivative, i, x node) tabulates the functions c + i of each
    cell c in x, ty likewise in y, and wts (e, nq) and pts (e, nq, 2) are
    the rule's weights and points (:func:`_rule_on_cells`). A chunk holds at
    most _CHUNK_BYTES of the caller's `floats` per cell.
    """
    kv = mesh.knots(level)
    xtab, ytab = (class_tables(kv, nodes, max_der) for nodes, _ in rule)
    cx, cy = cell_classes(kv, cells).T
    step = max(1, _CHUNK_BYTES // (8 * floats))
    for start in range(0, len(cells), step):
        sl = slice(start, start + step)
        pts, w = _rule_on_cells(mesh, level, cells[sl], rule)
        yield sl, xtab[cx[sl]], ytab[cy[sl]], np.broadcast_to(w, pts.shape[:2]), pts


def _level_rows(space, level, cells, combos, rule=None):
    """Rows of the level's own tensor B-splines on chunks of its cells (E,
    2), by :func:`_level_chunks` (by default at the interior Gauss rule):
    yields (sl, rows, wts, pts) with rows mapping each combo (dx, dy) to
    (e, (p + 1)^2, nq), each cell's functions x-major as in
    :attr:`~hbplate.hierarchy.LevelOperator.local`."""
    n1 = space.degree + 1
    rule = rule or (_gauss01(n1 + 1),) * 2
    nq = rule[0][0].size * rule[1][0].size
    for sl, tx, ty, wts, pts in _level_chunks(space.mesh, level, cells, rule,
                                              max(max(c) for c in combos),
                                              len(combos) * n1 * n1 * nq):
        rows = {(dx, dy): (tx[:, dx, :, None, :, None] * ty[:, dy, None, :, None, :]).reshape(
            len(tx), n1 * n1, nq) for dx, dy in combos}
        yield sl, rows, wts, pts


def _field_chunks(space, op, at, coeff, combos, rule=None):
    """Derivatives of a discrete field on chunks of the cells ``op.cells[at]``
    of one level (a :class:`~hbplate.hierarchy.LevelOperator`), from its
    level coefficients coeff = C_l u, by :func:`_level_chunks`.

    Sum factorisation: each cell's (p + 1) x (p + 1) coefficients, gathered
    through ``op.local``, are contracted with the tables in y and then in
    x; no basis rows are built. Yields (sl, ders, wts, pts) for each chunk
    ``at[sl]``, with ders mapping each combo (dx, dy) to (e, 1, nq).
    """
    n1 = space.degree + 1
    rule = rule or (_gauss01(n1 + 1),) * 2
    nd = max(max(c) for c in combos) + 1
    nx, ny = rule[0][0].size, rule[1][0].size
    # floats per cell: coefficients, tables, y products, result
    floats = n1 * (n1 + nd * nx + 2 * nd * ny) + nd * nx * nd * ny
    for sl, tx, ty, wts, pts in _level_chunks(space.mesh, op.level, op.cells[at], rule, nd - 1,
                                              floats):
        e = len(tx)
        coef = coeff[op.local[at[sl]]].reshape(e, n1, n1)
        # y first, (e, i, (dy, y node)); then x, (e, (dx, x node), (dy, y node))
        part = coef @ ty[:, :nd].transpose(0, 2, 1, 3).reshape(e, n1, -1)
        full = (tx[:, :nd].transpose(0, 1, 3, 2).reshape(e, -1, n1) @ part).reshape(
            e, nd, nx, nd, ny)
        yield sl, {(dx, dy): full[:, dx, :, dy].reshape(e, 1, nx * ny)
                   for dx, dy in combos}, wts, pts


def _point_tables(space, op, cells, pts, max_der):
    """Tables (derivative, i, point) in x and in y of the level's own
    B-splines at the parametric points pts (n, 2), each in the span of its
    cell of cells (n, 2), so that points on a cell's edge give one-sided
    limits on it, and each point's position in ``op.cells``: one
    tabulate_in_span call per direction, for one-off points, not kept."""
    kv, p = space.mesh.knots(op.level), space.degree
    tx, ty = (tabulate_in_span(kv, pts[:, axis], cells[:, axis] + p, max_der) for axis in (0, 1))
    return tx, ty, space.mesh.cell_index(op.level, cells[:, 0], cells[:, 1])


def _point_ders(space, op, cells, pts, coeff, combos):
    """Derivatives (n,) by combo of the field with level coefficients coeff
    = C_l u at the parametric points pts (n, 2) of the cells (n, 2) of one
    level, by :func:`_point_tables`."""
    tx, ty, at = _point_tables(space, op, cells, pts, max(max(c) for c in combos))
    coef = coeff[op.local[at]].reshape(len(pts), tx.shape[1], -1)
    return {(dx, dy): np.einsum("ik,jk,kij->k", tx[dx], ty[dy], coef) for dx, dy in combos}


def _add_local(vec, local, loc):
    """Add the values loc (e, n) of the cells' own functions into the level
    vector vec at their positions local (e, n)."""
    vec += np.bincount(local.ravel(), loc.ravel(), minlength=vec.size)


def _at_points(fn, pts, what):
    """fn(x, y) called once on the flattened points (..., 2); each returned
    value comes back in the points' shape, so scalar returns broadcast.
    Values that are not finite or do not fit the points raise ValueError
    naming `what`."""
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    out = fn(x, y)

    def shaped(v):
        try:
            v = np.broadcast_to(np.asarray(v, dtype=float), x.shape)
        except (TypeError, ValueError) as exc:
            raise ValueError("%s: values of shape %s do not fit %d points"
                             % (what, np.shape(v), x.size)) from exc
        if not np.all(np.isfinite(v)):
            raise ValueError("%s: non-finite values" % what)
        return v.reshape(pts.shape[:-1])
    return tuple(map(shaped, out)) if isinstance(out, tuple) else shaped(out)


def _transform_rows(geo, pts, rows, wts, level, cells, local=None):
    """Push parametric derivative rows (e, n, nq) at the points (e, nq, 2)
    of the cells (e, 2) of one level to physical ones; scales the weights
    (e, nq) and maps the points. Hessian rows need the gradient rows too
    only under a spline map: the gradient terms of the Hessian pushforward
    carry the map's own Hessian, which is zero for an affine map. local is
    geo.derivatives at the points, when the caller has it already."""
    if geo.is_identity:
        return rows, wts, pts
    mapped, jac, hess = local if local is not None else geo.derivatives(pts.reshape(-1, 2))
    det = np.linalg.det(jac)
    shape = pts.shape[:2]
    if np.any(det <= 0.0):
        ix, iy = cells[(det.reshape(shape) <= 0.0).any(axis=1).argmax()]
        raise GeometryError("geometry Jacobian is singular on level %d, cell (%d, %d)"
                            % (level, ix, iy))
    jinv = np.linalg.inv(jac).reshape(shape + (2, 2))[:, None]
    out = dict(rows)
    if (1, 0) in rows:
        gx, gy = rows[(1, 0)], rows[(0, 1)]
        # grad_phys_a = sum_b Jinv[q, b, a] grad_par_b
        px = jinv[..., 0, 0] * gx + jinv[..., 1, 0] * gy
        py = jinv[..., 0, 1] * gx + jinv[..., 1, 1] * gy
        out[(1, 0)], out[(0, 1)] = px, py
    if (2, 0) in rows:
        cxx, cxy, cyy = rows[(2, 0)], rows[(1, 1)], rows[(0, 2)]
        if not geo.constant_jacobian:
            hg = hess.reshape(shape + (2, 2, 2))[:, None]
            cxx = cxx - px * hg[..., 0, 0, 0] - py * hg[..., 1, 0, 0]
            cxy = cxy - px * hg[..., 0, 0, 1] - py * hg[..., 1, 0, 1]
            cyy = cyy - px * hg[..., 0, 1, 1] - py * hg[..., 1, 1, 1]
        # H_phys = Jinv^T C Jinv, per point
        a, b, c, d = jinv[..., 0, 0], jinv[..., 0, 1], jinv[..., 1, 0], jinv[..., 1, 1]
        out[(2, 0)] = a * (a * cxx + c * cxy) + c * (a * cxy + c * cyy)
        out[(1, 1)] = b * (a * cxx + c * cxy) + d * (a * cxy + c * cyy)
        out[(0, 2)] = b * (b * cxx + d * cxy) + d * (b * cxy + d * cyy)
    return out, wts * det.reshape(shape), mapped.reshape(pts.shape)


def _energy_terms(rows, wts, poisson):
    """Hessian rows (e, n, nq) laid side by side as (e, n, 3 nq), with
    weights (e, 3 nq), so that the plate energy of two function sets is
    the stiffness times (terms * weights) @ terms^T.

    The energy density (1 - nu) H(u):H(v) + nu lap(u) lap(v) is
    u_xx v_xx + u_yy v_yy + nu (u_xx v_yy + u_yy v_xx) + 2 (1 - nu) u_xy v_xy;
    the terms (h_xx + nu h_yy, h_xy, h_yy) with the scales
    (1, 2 (1 - nu), 1 - nu^2) factor its (xx, yy) part [[1, nu], [nu, 1]]
    by Cholesky, for every nu.
    """
    hxx, hxy, hyy = rows[(2, 0)], rows[(1, 1)], rows[(0, 2)]
    scales = (1.0, 2.0 * (1.0 - poisson), 1.0 - poisson ** 2)
    return (np.concatenate([hxx + poisson * hyy, hxy, hyy], axis=-1),
            np.concatenate([s * wts for s in scales], axis=-1))


def _energy_form(geo, poisson):
    """The plate energy under a map with a constant Jacobian as a 3 x 3
    matrix M on the parametric Hessians h = (h_xx, h_xy, h_yy): the energy
    density times det J is h(u)^T M h(v). It is what :func:`_transform_rows`
    and :func:`_energy_terms` make of the three unit Hessians, so the plate
    energy stays defined in one place."""
    unit = {c: np.eye(3)[None, :, r, None] for r, c in enumerate(_HESSIANS)}
    rows, wts, _ = _transform_rows(geo, np.zeros((1, 1, 2)), unit, np.ones((1, 1)), 0,
                                   np.zeros((1, 2), dtype=np.int64))
    terms, w = _energy_terms(rows, wts, poisson)
    return ((terms * w[:, None]) @ terms.swapaxes(1, 2))[0]


def _gram_terms(kv, form):
    """The terms (M_ab, x Gram matrices, y Gram matrices) of the energy form
    M with M_ab != 0: the cell Gram matrices of kv, by class, of the x and y
    derivative orders of the Hessian components a and b."""
    grams = cell_grams(kv)
    return [(form[a, b], grams[:, _HESSIANS[a][0], _HESSIANS[b][0]],
             grams[:, _HESSIANS[a][1], _HESSIANS[b][1]]) for a, b in zip(*np.nonzero(form))]


def _class_elements(kv, form):
    """Element matrices, up to the factor D, of the tensor B-splines of one
    uniform level under a constant Jacobian, for each pair of cell classes
    (:func:`~hbplate.splines.cell_classes`) in x and y: (x class, y class,
    (p + 1)^2, (p + 1)^2), functions x-major, each a sum of Kronecker
    products of cell Gram matrices."""
    out = 0.0
    for m, gx, gy in _gram_terms(kv, form):
        out = out + m * gx[:, None, :, None, :, None] * gy[None, :, None, :, None, :]
    nc, n1 = out.shape[0], out.shape[2]
    return out.reshape(nc, nc, n1 * n1, n1 * n1)


def _kron_upper(kv, form, stiffness):
    """Upper triangle, in CSR, of the stiffness of a fully active level
    under a constant Jacobian: the sum over the energy form's terms of
    M_ab (A_ab x B_ab), Kronecker products of the banded univariate
    matrices that the cell Gram matrices of every cell sum to, formed
    directly in CSR order. Functions (i, k) are numbered i n + k."""
    p, n, nel = kv.degree, kv.num_basis, kv.num_elements
    classes = cell_classes(kv, np.arange(nel))
    # offsets (d, e) of a column from its row, d in x, e in y, both shifted
    # by p, in the order of the columns; only those on or above the diagonal
    d, e = np.divmod(np.arange((2 * p + 1) ** 2), 2 * p + 1)
    up = (d > p) | ((d == p) & (e >= p))
    d, e = d[up], e[up]
    vals = 0.0
    for m, gx, gy in _gram_terms(kv, form):
        # band[r, c - r + p] of the univariate matrix summed over the cells
        bx, by = np.zeros((n, 2 * p + 1)), np.zeros((n, 2 * p + 1))
        for i in range(p + 1):
            for j in range(p + 1):
                bx[i:i + nel, j - i + p] += gx[classes, i, j]
                by[i:i + nel, j - i + p] += gy[classes, i, j]
        vals = vals + m * bx[:, None, d] * by[None, :, e]
    vals = stiffness * vals
    keep = vals != 0.0
    r = np.arange(n)
    cols = (r[:, None, None] + d - p) * n + (r[None, :, None] + e - p)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=2).ravel())])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n * n, n * n))


def _level_stiffness(space, geo, problem, op, form):
    """Stiffness of the tensor B-splines of the level of op (a
    :class:`~hbplate.hierarchy.LevelOperator`) over its active cells, rows
    and columns in the order of ``op.keys``, as CSR arrays (data, columns,
    entries per row), columns sorted within rows.

    The element matrices are scattered into a stencil (function, offset of
    the other function), one local row of every cell at a time, so no
    entry is written twice by one scatter; the offsets of a row are in the
    order of its columns, so the stencil's nonzeros are the CSR arrays.
    Under a constant Jacobian (form is its energy form) the element
    matrices come from :func:`_class_elements`; under a spline map from the
    kernel's quadrature of the (p + 1)^2 functions, pushed forward.
    """
    p, keys, local = space.degree, op.keys, op.local
    n1, width = p + 1, 2 * p + 1
    ix, iy = np.divmod(np.arange(n1 * n1), n1)
    # stencil column of the pair (a, b) of a cell's functions
    offset = (ix[None, :] - ix[:, None] + p) * width + (iy[None, :] - iy[:, None] + p)
    stencil = np.zeros(len(keys) * width * width)
    if form is not None:
        kv = space.mesh.knots(op.level)
        elems = problem.stiffness * _class_elements(kv, form)
        cx, cy = cell_classes(kv, op.cells).T
        step = max(1, _CHUNK_BYTES // (8 * n1 ** 4))
        chunks = ((sl, elems[cx[sl], cy[sl]]) for sl in (
            slice(start, start + step) for start in range(0, len(op.cells), step)))
    else:
        chunks = _stiffness_chunks(space, geo, problem, op.level, op.cells)
    for sl, aloc in chunks:
        for a in range(n1 * n1):
            stencil[local[sl, a, None] * width * width + offset[a]] += aloc[:, a]
    stencil = stencil.reshape(len(keys), -1)
    live = stencil != 0.0
    dx, dy = np.divmod(np.arange(width * width), width)
    cols = np.searchsorted(keys, (keys[:, None] + ((dx - p) << 32) + (dy - p))[live])
    return stencil[live], cols.astype(np.int32), live.sum(axis=1)


def _stiffness_chunks(space, geo, problem, level, cells):
    """Element matrices (e, (p + 1)^2, (p + 1)^2) of the level's own tensor
    B-splines under a spline map, chunk by chunk: (sl, matrices)."""
    for sl, rows, wts, pts in _level_rows(space, level, cells, _DERIVATIVES):
        rows, wts, _ = _transform_rows(geo, pts, rows, wts, level, cells[sl])
        terms, w = _energy_terms(rows, wts, problem.poisson)
        yield sl, problem.stiffness * ((terms * w[:, None]) @ terms.swapaxes(1, 2))


def assemble_stiffness(space, geo, problem):
    """Sparse symmetric plate stiffness matrix over the active basis, in
    CSR with int32 indices, by two-scale assembly: K = sum over the levels
    l of C_l^T K_l C_l.

    K_l is the stiffness of level l's tensor B-splines over its active
    cells, (p + 1)^2 functions per cell (:func:`_level_stiffness`), and C_l
    writes each active function that acts on those cells as a sum of them
    (:func:`hbplate.hierarchy.two_scale`). The products run as one,
    C^T blockdiag(K_l) C with C the C_l stacked. A mesh whose active cells
    all lie on one level has C = I, and under a constant Jacobian its K is
    a sum of Kronecker products of banded univariate matrices
    (:func:`_kron_upper`). The upper triangle of the result is mirrored,
    so the matrix is exactly symmetric.
    """
    form = _energy_form(geo, problem.poisson) if geo.constant_jacobian else None
    levels = space.levels
    if len(levels) == 1 and form is not None:
        upper = _kron_upper(space.mesh.knots(levels[0].level), form, problem.stiffness)
    else:
        full = _blockdiag_stiffness(space, geo, problem, form)
        if len(levels) > 1:
            full = space.stacked_ct @ (full @ space.stacked_ct.T)
        upper = _triangle(full, 0)
        upper.sort_indices()
    return upper + _triangle(upper, 1).T


def _blockdiag_stiffness(space, geo, problem, form):
    """blockdiag(K_l) over the levels with active cells
    (:attr:`~hbplate.hierarchy.HierarchicalSpace.levels`), in CSR, the rows
    of each K_l numbered after those of the levels before it, as in
    :attr:`~hbplate.hierarchy.HierarchicalSpace.stacked_ct`."""
    blocks, base = [], 0
    for op in space.levels:
        data, cols, counts = _level_stiffness(space, geo, problem, op, form)
        blocks.append((data, cols + base, counts))
        base += len(op.keys)
    data, cols, counts = map(np.concatenate, zip(*blocks))
    return sp.csr_matrix((data, cols, np.concatenate([[0], np.cumsum(counts)])),
                         shape=(base, base))


def _triangle(a, k):
    """The entries of the CSR matrix a with column >= row + k, in CSR."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    keep = a.indices >= rows + k
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=a.shape[0]))])
    return sp.csr_matrix((a.data[keep], a.indices[keep], indptr), shape=a.shape)


# ---------------------------------------------------------------------------
# boundary edges

def _on_side(mesh, level, cells, side):
    """Which of the cells (E, 2) of one level have an edge on one side of
    the domain."""
    edge = 0 if side in ("left", "bottom") else mesh.n_elements_1d(level) - 1
    return cells[:, 0 if side in ("left", "right") else 1] == edge


def _side_groups(mesh, level, cells, sides):
    """The cells (E, 2) of one level grouped by which of `sides` of the
    domain they touch: yields (frozenset of the touched sides, positions of
    the group's cells), the groups in order of their first cell."""
    # bit b of a cell's code: the cell touches SIDES[b]
    code = np.zeros(len(cells), dtype=np.int64)
    for b, side in enumerate(SIDES):
        if side in sides:
            code |= _on_side(mesh, level, cells, side) << b
    for c in dict.fromkeys(code.tolist()):
        yield (frozenset(side for b, side in enumerate(SIDES) if c >> b & 1),
               np.flatnonzero(code == c))


_SIDE_NORMAL = {"left": (-1.0, 0.0), "right": (1.0, 0.0),
                "bottom": (0.0, -1.0), "top": (0.0, 1.0)}


def _side_batches(space, geo, side):
    """The boundary cells of one side through the level kernel's edge rule,
    chunk by chunk: (level operator, positions of the cells in it, values
    and outward normal derivatives (e, (p + 1)^2, nq) of the cells' own
    functions, physical points (e, nq, 2), arc weights (e, nq))."""
    rule = _edge_rule(space.degree, side)
    for op in space.levels:
        at = np.flatnonzero(_on_side(space.mesh, op.level, op.cells, side))
        for sl, rows, wts, pts in _level_rows(space, op.level, op.cells[at],
                                              _ASSEMBLY_COMBOS[:3], rule):
            dn, pts, wts = _edge_transform(geo, pts, side, wts, rows[(1, 0)], rows[(0, 1)],
                                           op.level, op.cells[at[sl]])
            yield op, at[sl], rows[(0, 0)], dn, pts, wts


def _edge_transform(geo, pts, side, wts, gx, gy, level, cells):
    """Outward-normal derivative rows (e, n, nq), physical points and arc
    weights along the boundary edges of the cells (e, 2) of one level, from
    parametric gradient rows (e, n, nq) at the points (e, nq, 2) and
    parametric arc weights (e, nq)."""
    local = None if geo.is_identity else geo.derivatives(pts.reshape(-1, 2))
    grad, _, pts_phys = _transform_rows(geo, pts, {(1, 0): gx, (0, 1): gy}, wts, level, cells,
                                        local)
    normal = np.array(_SIDE_NORMAL[side])
    nx, ny = normal
    if not geo.is_identity:
        # _transform_rows found det J > 0, so arcs and normals are nonzero
        jac = local[1]
        normals = np.einsum("qba,b->qa", np.linalg.inv(jac), normal)
        norms = np.linalg.norm(normals, axis=1)
        nx, ny = (normals / norms[:, None]).T.reshape((2, wts.shape[0], 1, -1))
        wts = wts * np.linalg.norm(jac @ np.abs(normal[::-1]), axis=1).reshape(wts.shape)
    return grad[(1, 0)] * nx + grad[(0, 1)] * ny, pts_phys, wts


def _natural_terms(problem, side, level, vals, dn, pts, wts):
    """The moment and shear data of one side integrated against functions
    with values `vals` and outward normal derivatives `dn` (e, n, nq) at
    the physical points (e, nq, 2), with arc weights (e, nq), along the
    boundary edges of e elements of one level: (e, n)."""
    out = np.zeros(dn.shape[:2])
    for data, kind, rows in ((problem.neumann_M.get(side), "moment", dn),
                             (problem.neumann_Q.get(side), "shear", vals)):
        if not _vanishes(data):
            what = "%s data on side %r, level %d" % (kind, side, level)
            out += np.einsum("elq,eq->el", rows, wts * _at_points(_as_fn(data), pts, what))
    return out


# ---------------------------------------------------------------------------
# load vector

def assemble_load(space, geo, problem):
    """Right-hand side by two-scale assembly, b = sum over the levels l of
    C_l^T b_l, where b_l tests the load against level l's own tensor
    B-splines on its active cells.

    The body load is sum-factorised: tx G ty^T per cell, with G the
    weighted load at the nodes of the Gauss rule, or of the graded rule on
    cells touching graded sides. Moment and shear data go through the edge
    rule (:func:`_natural_terms`), point loads through exact evaluation.
    """
    mesh, n1 = space.mesh, space.degree + 1
    gfun = _as_fn(problem.g)
    loads = problem.point_loads
    owners = np.array([mesh.locate(pt[0], pt[1]) for pt, _ in loads],
                      dtype=np.int64).reshape(-1, 3)
    b = {op.level: np.zeros(len(op.keys)) for op in space.levels}
    for side in SIDES:
        if _vanishes(problem.neumann_M.get(side), problem.neumann_Q.get(side)):
            continue
        for op, at, vals, dn, pts, wts in _side_batches(space, geo, side):
            _add_local(b[op.level], op.local[at],
                       _natural_terms(problem, side, op.level, vals, dn, pts, wts))
    rhs = np.zeros(space.num_dofs)
    for op in space.levels:
        groups = _side_groups(mesh, op.level, op.cells, problem.load_grading) if gfun else ()
        for key, at in groups:
            rule = _graded_rule(n1 - 1, key) if key else (_gauss01(n1 + 1),) * 2
            nx, ny = rule[0][0].size, rule[1][0].size
            # floats per cell: tables, points, weighted load, products
            for sl, tx, ty, wts, pts in _level_chunks(mesh, op.level, op.cells[at], rule, 0,
                                                      3 * n1 * (nx + ny) + 8 * nx * ny):
                _, wts, pts = _transform_rows(geo, pts, {}, wts, op.level, op.cells[at[sl]])
                gv = _at_points(gfun, pts, "load g on level %d" % op.level)
                loc = tx[:, 0] @ (wts * gv).reshape(-1, nx, ny) @ ty[:, 0].swapaxes(1, 2)
                _add_local(b[op.level], op.local[at[sl]], loc.reshape(len(loc), -1))
        on = np.flatnonzero(owners[:, 0] == op.level)
        if on.size:
            tx, ty, at = _point_tables(space, op, owners[on, 1:],
                                       np.array([loads[i][0] for i in on], dtype=float), 0)
            loc = tx[0].T[:, :, None] * ty[0].T[:, None, :]
            _add_local(b[op.level], op.local[at],
                       np.array([loads[i][1] for i in on])[:, None] * loc.reshape(len(on), -1))
        rhs += op.matrix.T @ b[op.level]
    return rhs


def assemble_system(space, geo, problem):
    """Stiffness and load in one :class:`LinearSystem` (no constraints yet)."""
    return LinearSystem(
        matrix=assemble_stiffness(space, geo, problem),
        rhs=assemble_load(space, geo, problem),
        constraints={},
    )


# ---------------------------------------------------------------------------
# Dirichlet constraints

def _trace_dofs(space, side, depth):
    """Dofs of the active functions in the first `depth` layers along a
    side: depth 1 has the nonzero deflection traces, depth 2 the nonzero
    rotation traces."""
    out = []
    for k in range(space.mesh.num_levels):
        n = space.mesh.knots(k).num_basis
        near = np.arange(depth) if side in ("left", "bottom") else n - 1 - np.arange(depth)
        along = np.arange(n)
        ix, iy = (near[:, None], along) if side in ("left", "right") else (along[:, None], near)
        d = space.basis.level_dofs(k, ix, iy)
        out.append(d[d >= 0])
    return np.concatenate(out)


def _fit_side(space, geo, side, kind, data, constraints):
    """Weighted least-squares fit of one side's "deflection" or (outward)
    "rotation" data.

    Already-constrained trace dofs contribute to the right-hand side; the
    remaining trace dofs become new constraints, one least-squares column
    each, in dof order. The least-squares matrix is W T_l C_l per level,
    sparse (:func:`_fit_block`), and is built and solved
    (:func:`_least_squares`) only for data that do not vanish; constant 0
    data on a trace without nonzero constraints take no quadrature either.
    """
    n = space.num_dofs
    trace = np.zeros(n, dtype=bool)
    trace[_trace_dofs(space, side, 1 if kind == "deflection" else 2)] = True
    fixed = np.zeros(n, dtype=bool)
    fixed[list(constraints)] = True
    given = np.zeros(n)
    given[list(constraints)] = list(constraints.values())
    given[~trace] = 0.0
    unknowns = np.flatnonzero(trace & ~fixed)
    if not unknowns.size:
        return
    if _vanishes(data) and not given.any():
        constraints.update(dict.fromkeys(unknowns.tolist(), 0.0))
        return
    chunks = []
    for op, at, vals, dn, pts, wts in _side_batches(space, geo, side):
        rows = vals if kind == "deflection" else -dn
        target = _at_points(_as_fn(data), pts,
                            "%s data on side %r, level %d" % (kind, side, op.level))
        target = target - np.einsum("elq,el->eq", rows, (op.matrix @ given)[op.local[at]])
        w = np.sqrt(wts)
        chunks.append((op, at, rows, w, (target * w).ravel()))
    b = np.concatenate([c[4] for c in chunks])
    scale = np.abs(b).max() if b.size else 0.0
    # vanishing data need no least-squares matrix
    if scale <= 1e-14:
        values = np.zeros(unknowns.size)
    else:
        pick = sp.csr_matrix((np.ones(unknowns.size), (unknowns, np.arange(unknowns.size))),
                             shape=(n, unknowns.size))
        a = sp.vstack([_fit_block(op, at, rows, w) @ (op.matrix @ pick)
                       for op, at, rows, w, _ in chunks], format="csr")
        values = _least_squares(a, b, "%s fit on side %r" % (kind, side))
    constraints.update(zip(unknowns.tolist(), values.tolist()))


def _fit_block(op, at, rows, w):
    """W T_l: the rows (e nq, keys) of a side's least-squares matrix on the
    cells ``op.cells[at]`` of one level, in the level's own B-splines:
    their rows (e, (p + 1)^2, nq) at the columns ``op.local``, weighted by
    w (e, nq), without the zeros."""
    vals = (rows * w[:, None, :]).transpose(0, 2, 1)
    cols = np.broadcast_to(op.local[at][:, None, :], vals.shape)
    pos = np.broadcast_to(np.arange(vals[..., 0].size).reshape(vals.shape[:2])[..., None],
                          vals.shape)
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (pos[keep], cols[keep])),
                         shape=(vals[..., 0].size, len(op.keys)))


def _least_squares(a, b, what):
    """x minimising |b - a x| for a sparse a of full column rank, by the
    normal equations a^T a x = a^T b, factored by splu on the diagonal
    (the matrix is SPD).

    x is accepted when the least-squares residual a^T (b - a x) is at the
    rounding floor: within 100 eps |a|^T (|b| + |a| |x|), the error of
    computing it in double precision, in the 2-norm. A singular matrix or
    a residual above the floor raises BoundaryDataError naming `what`.
    """
    normal = (a.T @ a).tocsc()
    try:
        lu = spla.splu(normal, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise BoundaryDataError("%s: normal equations (n=%d) are singular: %s"
                                % (what, normal.shape[0], exc)) from exc
    x = lu.solve(a.T @ b)
    resid = np.linalg.norm(a.T @ (b - a @ x))
    mag = abs(a)
    floor = 100.0 * np.finfo(float).eps * np.linalg.norm(mag.T @ (np.abs(b) + mag @ np.abs(x)))
    if not (np.all(np.isfinite(x)) and resid <= floor):
        raise BoundaryDataError("%s: least-squares residual %.3e above the rounding floor %.3e"
                                % (what, resid, floor))
    return x


def apply_dirichlet(system, space, problem, geo=None):
    """Constrain deflection and rotation dofs from the Dirichlet data.

    Each side is fitted by univariate least squares; corner dofs shared by
    two sides keep the value of the side processed first, which agrees with
    the other side because the data must match at corners (checked to 1e-8).
    """
    geo = geo or GeometryMap.identity()
    constraints = {}
    w_data = {s: _as_fn(d) for s, d in problem.dirichlet_w.items()}
    a, b = space.mesh.interval
    corners = {("left", "bottom"): (a, a), ("bottom", "right"): (b, a),
               ("right", "top"): (b, b), ("top", "left"): (a, b)}
    for (s1, s2), pt in corners.items():
        if s1 in w_data and s2 in w_data:
            xy = geo.map_points([pt])
            v1, v2 = (float(_at_points(w_data[s], xy, "deflection data on side %r at corner %s"
                                       % (s, pt))[0]) for s in (s1, s2))
            if abs(v1 - v2) > 1e-8 * (1.0 + max(abs(v1), abs(v2))):
                raise BoundaryDataError(
                    "deflection data disagrees at corner %s: %g vs %g" % (pt, v1, v2))
    for kind, data in (("deflection", problem.dirichlet_w), ("rotation", problem.dirichlet_phi)):
        for side in SIDES:
            if side in data:
                _fit_side(space, geo, side, kind, data[side], constraints)
    return replace(system, constraints=constraints)


# ---------------------------------------------------------------------------
# solve and postprocessing

def _refined_solution(lu, a, b, dofs):
    """Solve a x = b from the factor lu of a and check the result; dofs
    are the global dof numbers of the unknowns, for the error message.

    Steps of iterative refinement against the factor are taken while the
    residual |b - a x| exceeds 1e-12 |b| and falls, at most 8 of them. The
    result is accepted when its residual is within 1e-10 |b|, or within the
    floor 100 eps (|a| |x| + |b|) below which a double-precision residual
    cannot be measured, with |a| the largest absolute row sum; the floor
    counts only while the growth |a| |x| / |b| stays within 1e13, as in a
    regular solve. A non-finite or unaccepted x raises SolverError, which
    names the dof of the largest residual entry.
    """
    x = lu.solve(b)
    scale = np.linalg.norm(b)
    resid = np.linalg.norm(b - a @ x)
    for _ in range(8):
        if resid <= 1e-12 * max(scale, 1e-300):
            break
        better = x + lu.solve(b - a @ x)
        resid_better = np.linalg.norm(b - a @ better)
        if resid_better >= resid:
            break
        x, resid = better, resid_better
    if not np.all(np.isfinite(x)):
        raise SolverError("solver produced non-finite values (n=%d)" % b.size)
    anorm = np.abs(a).sum(axis=1).max() if a.nnz else 0.0
    growth = anorm * np.linalg.norm(x) / scale if scale > 0.0 else 0.0
    floor = 100.0 * np.finfo(float).eps * (anorm * np.linalg.norm(x) + scale)
    if scale > 0.0 and resid > max(1e-10 * scale, floor if growth <= 1e13 else 0.0):
        raise SolverError(
            "relative residual %.3e exceeds 1e-10 (n=%d, growth %.1e); largest entry at dof %d"
            % (resid / scale, b.size, growth, dofs[np.abs(b - a @ x).argmax()]))
    return x


def solve(system):
    """Direct sparse solve of the constrained system.

    Constraints are eliminated symmetrically, and the free block is solved
    and checked by :func:`_refined_solution`.
    """
    a = system.matrix.tocsr()
    n = a.shape[0]
    x = np.zeros(n)
    for d, v in system.constraints.items():
        x[d] = v
    constrained = np.zeros(n, dtype=bool)
    constrained[list(system.constraints)] = True
    free = np.flatnonzero(~constrained)
    if free.size == 0:
        return DiscreteField(x)
    b = system.rhs - a @ x
    aff = a[free][:, free].tocsc()
    try:
        # the free block is SPD: a symmetric minimum-degree ordering on the
        # diagonal keeps fill low without pivoting
        lu = spla.splu(aff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError("sparse factorization of the free block (n=%d, nnz=%d) failed: %s"
                          % (free.size, aff.nnz, exc)) from exc
    x[free] = _refined_solution(lu, aff, b[free], free)
    return DiscreteField(x)


def h2_seminorm_error(field, exact_hessian, space, geo=None):
    """Energy-norm distance sqrt(int |H(u_h) - H_exact|_F^2) by element
    quadrature, from the level coefficients C_l u on each level's own
    B-splines."""
    geo = geo or GeometryMap.identity()
    total = 0.0
    for op in space.levels:
        coeff = op.matrix @ field.coefficients
        for sl, ders, wts, pts in _field_chunks(space, op, np.arange(len(op.cells)), coeff,
                                                _DERIVATIVES):
            ders, wts, pts = _transform_rows(geo, pts, ders, wts, op.level, op.cells[sl])
            exx, exy, eyy = _at_points(exact_hessian, pts, "exact Hessian on level %d" % op.level)
            total += float(np.sum(wts * ((ders[(2, 0)][:, 0] - exx) ** 2
                                         + 2.0 * (ders[(1, 1)][:, 0] - exy) ** 2
                                         + (ders[(0, 2)][:, 0] - eyy) ** 2)))
    return float(np.sqrt(total))


def evaluate(field, space, geo, points):
    """Field values, gradients and Hessians at parametric points.

    Returns (values (N,), gradients (N, 2), hessians (N, 3)) with the
    Hessian packed as (xx, xy, yy), in physical coordinates. Each point is
    evaluated on the finest active element holding it, from the level
    coefficients C_l u, all points of one level at once.
    """
    geo = geo or GeometryMap.identity()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    owners = np.array([space.mesh.locate(x, y) for x, y in pts.tolist()], dtype=np.int64)
    ders = np.empty((len(_ASSEMBLY_COMBOS), len(pts)))
    for op in space.levels:
        at = np.flatnonzero(owners[:, 0] == op.level)
        if at.size:
            cells = owners[at, 1:]
            d = _point_ders(space, op, cells, pts[at], op.matrix @ field.coefficients,
                            _ASSEMBLY_COMBOS)
            d = _transform_rows(geo, pts[at, None], {k: v[:, None, None] for k, v in d.items()},
                                np.ones((at.size, 1)), op.level, cells)[0]
            ders[:, at] = [d[k][:, 0, 0] for k in _ASSEMBLY_COMBOS]
    return ders[0], ders[1:3].T, ders[3:].T
