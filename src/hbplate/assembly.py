"""Galerkin assembly and solution of the Kirchhoff plate bending problem.

The bilinear form is the plate energy
``a(u, v) = int D [ (1-nu) H(u):H(v) + nu lap(u) lap(v) ]``; with the default
normalization nu = 0, D = 1 it reduces to the Frobenius product of Hessians.
Quadrature uses one tensor Gauss rule with degree + 2 points per direction
on every active element, for the stiffness, loads, error norms and the
estimator blocks alike.

Everything is assembled from the two-scale relation: on the active cells
of level l every active function is a fixed sum of level l's own tensor
B-splines, (p + 1)^2 per cell, given by the sparse operator C_l
(:func:`hbplate.hierarchy.two_scale`). With the keys of all levels
numbered one after another, C = [C_l] maps them all at once (``stacked_c``,
``stacked_ct`` of :class:`~hbplate.hierarchy.HierarchicalSpace`, built once
per space), and each operator works on those single-level functions only:
K = C^T blockdiag(K_l) C
(:func:`assemble_stiffness`), b = C^T b_s (:func:`assemble_load`), a
field u enters as C u (:func:`h2_seminorm_error`, :func:`evaluate` and
the estimators), and the Dirichlet fit's least-squares matrix is W T C,
sparse (:func:`apply_dirichlet`).

The level kernel, :func:`_cell_chunks`, hands out the univariate tables of
the levels' B-splines on chunks of the active cells of all levels
(:attr:`~hbplate.hierarchy.HierarchicalSpace.active_cells`) at the nodes
of a tensor reference rule on [0, 1]^2: the interior Gauss rule, an edge
rule with one node on a domain side (moment and shear loads, Dirichlet
fits), or a graded rule whose strips crowd toward graded sides (the
graded body load). A uniform knot vector has at most 2p + 1 classes of
cells, so the tables of a rule are one array per knot vector,
:func:`hbplate.splines.class_tables`, cached on it; refined meshes share
those knot vectors, so the tables carry over from iteration to iteration,
while a new space starts with none. On top of it, body loads and fields
are sum-factorised (``tx @ G @ ty^T`` per cell, and the coefficients
contracted in y, then in x, :func:`_field_chunks`); edge integrals and the
spline-map stiffness use rows (:func:`_cell_rows`). Every operator makes
one pass over the cells of all levels. One-off points
(:func:`evaluate`, point loads, the residual estimator's edge pieces) are
tabulated in one :func:`hbplate.splines.tabulate_in_span` call per level
and direction, each point in its own cell's span, and not kept.

Under a constant Jacobian the element matrices of K_l are sums of
Kronecker products of univariate cell Gram matrices, one per pair of cell
classes, and a mesh with one fully active level is one sum of Kronecker
products of banded matrices; under a spline map they come from quadrature.
The upper triangle of K is mirrored, so the matrix is exactly symmetric.
:func:`solve` runs CG with a fast-diagonalisation preconditioner on the
Kronecker case and factors every other system by splu.
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

    def __init__(self, kind, matrix=None, offset=(0.0, 0.0), kv=None, control=None):
        if kind not in ("identity", "affine", "spline"):
            raise GeometryError("geometry kind must be 'identity', 'affine' or 'spline', got %r"
                                % (kind,))
        if (kind == "affine" and matrix is None
                or kind == "spline" and (kv is None or control is None)):
            raise GeometryError("%s map given without its %s" % (
                kind, "matrix" if kind == "affine" else "knot vector and control net"))
        self.kind, self.kv = kind, kv
        self.matrix = self.offset = self.control = None
        if kind == "affine":
            matrix, offset = np.asarray(matrix, dtype=float), np.asarray(offset, dtype=float)
            if matrix.shape != (2, 2) or not np.isfinite(matrix).all():
                raise GeometryError("affine map matrix must be a finite 2x2, got %r"
                                    % (matrix.tolist(),))
            if offset.shape != (2,) or not np.isfinite(offset).all():
                raise GeometryError("affine map offset must be two finite numbers, got %r"
                                    % (offset.tolist(),))
            if np.linalg.det(matrix) <= 0.0:
                raise GeometryError("affine map must have positive Jacobian determinant")
            self.matrix, self.offset = matrix, offset
        if kind == "spline":
            control, n = np.asarray(control, dtype=float), kv.num_basis
            if control.shape != (n, n, 2):
                raise GeometryError("control net must have shape (%d, %d, 2)" % (n, n))
            bad = np.argwhere(~np.isfinite(control).all(axis=2))
            if bad.size:
                raise GeometryError("control point (%d, %d) is not finite: %r"
                                    % (*bad[0], control[tuple(bad[0])].tolist()))
            self.control = control

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def affine(cls, matrix, offset=(0.0, 0.0)):
        return cls("affine", matrix=matrix, offset=offset)

    @classmethod
    def spline(cls, kv, control):
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
def _edge_rule(p, side):
    """Reference rule of the edge on one side of an element: one node of
    weight 1 at the side's end of [0, 1] across it, the Gauss rule along
    it."""
    end = (np.array([0.0 if side in ("left", "bottom") else 1.0]), np.ones(1))
    along = _gauss01(p + 2)
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
    callables of (x, y) or constants. With M = D[(1 - nu) H(u) + nu lap(u) I],
    outward normal n and counterclockwise tangent t, the moment datum is
    M_nn and the shear datum is -(D d_n lap(u) + d_t M_nt), minus the
    Kirchhoff effective shear. Where two shear sides meet, the corner force
    is a point load: the jump of M_nt there, arriving minus leaving.
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
        for k, load in enumerate(self.point_loads):
            try:
                pt, magnitude = load
                ok = np.shape(pt) == (2,) and np.isfinite(np.array([*pt, magnitude], float)).all()
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError("point load %d must be ((x, y), magnitude) with finite "
                                 "values, got %r" % (k, load))


@dataclass
class LinearSystem:
    matrix: sp.spmatrix
    rhs: np.ndarray
    constraints: dict = field(default_factory=dict)
    tensor: object = None  # the knot vector when :func:`_tensor_knots` has one


# ---------------------------------------------------------------------------
# the level kernel

_ASSEMBLY_COMBOS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_DERIVATIVES = _ASSEMBLY_COMBOS[1:]
_HESSIANS = _ASSEMBLY_COMBOS[3:]
_CHUNK_BYTES = 1 << 20  # tables, rows and products held for one chunk of cells


def _rule_on_cells(space, at, rule):
    """Points (e, nq, 2), x-major, and weights (e, nq) of a reference rule
    on the active cells at (positions in ``space.active_cells``), each at
    its own size h. A direction with several nodes scales its weights by h;
    a direction with one node is a trace and keeps its weight."""
    view = space.active_cells
    (xn, xw), (yn, yw) = rule
    cells, h = view.cells[at], view.h[at, None]
    pts = np.empty((len(at), xn.size, yn.size, 2))
    pts[..., 0] = ((cells[:, 0, None] + xn) * h)[:, :, None]
    pts[..., 1] = ((cells[:, 1, None] + yn) * h)[:, None, :]
    scale = (h if xn.size > 1 else 1.0) * (h if yn.size > 1 else 1.0)
    return pts.reshape(len(at), xn.size * yn.size, 2), np.outer(xw, yw).ravel() * scale


def _cell_chunks(space, at, rule, max_der, floats):
    """The level kernel: each level's own tensor B-splines on chunks of the
    active cells at (positions in ``space.active_cells``, of any levels) at
    the nodes of a tensor reference rule ((x nodes, x weights), (y nodes,
    y weights)) on [0, 1], from the class tables of the levels' knot
    vectors (:func:`~hbplate.splines.class_tables`), stacked in level order
    and kept on the space; nodes at 0 or 1 give one-sided limits on each
    cell.

    Yields (c, tx, ty, wts, pts) for each chunk c of e positions of at:
    tx (e, derivative, i, x node) tabulates the functions c + i of each
    cell c in x, ty likewise in y, and wts (e, nq) and pts (e, nq, 2) are
    the rule's weights and points (:func:`_rule_on_cells`). A chunk holds at
    most _CHUNK_BYTES of the caller's `floats` per cell.
    """
    view = space.active_cells
    for nodes, _ in rule:
        if (nodes.tobytes(), max_der) not in view.tables:
            view.tables[nodes.tobytes(), max_der] = np.concatenate([
                class_tables(space.mesh.knots(l), nodes, max_der) for l in np.unique(view.level)])
    xtab, ytab = (view.tables[nodes.tobytes(), max_der] for nodes, _ in rule)
    step = max(1, _CHUNK_BYTES // (8 * floats))
    for start in range(0, len(at), step):
        c = at[start:start + step]
        pts, wts = _rule_on_cells(space, c, rule)
        yield c, xtab[view.classes[c, 0]], ytab[view.classes[c, 1]], wts, pts


def _cell_rows(space, at, combos, rule=None):
    """Rows of the levels' own tensor B-splines on chunks of the active
    cells at, by :func:`_cell_chunks` (by default at the interior Gauss
    rule): yields (c, rows, wts, pts) with rows mapping each combo (dx, dy)
    to (e, (p + 1)^2, nq), each cell's functions x-major as in
    ``space.active_cells.local``."""
    n1 = space.degree + 1
    rule = rule or (_gauss01(n1 + 1),) * 2
    nq = rule[0][0].size * rule[1][0].size
    for c, tx, ty, wts, pts in _cell_chunks(space, at, rule, max(max(c) for c in combos),
                                            len(combos) * n1 * n1 * nq):
        rows = {(dx, dy): (tx[:, dx, :, None, :, None] * ty[:, dy, None, :, None, :]).reshape(
            len(tx), n1 * n1, nq) for dx, dy in combos}
        yield c, rows, wts, pts


def _field_chunks(space, at, coeff, combos, rule=None):
    """Derivatives of a discrete field on chunks of the active cells at,
    from its coefficients coeff = C u on the stacked keys of all levels, by
    :func:`_cell_chunks`.

    Sum factorisation: each cell's (p + 1) x (p + 1) coefficients, gathered
    through ``space.active_cells.local``, are contracted with the tables in
    y and then in x; no basis rows are built. Yields (c, ders, wts, pts)
    for each chunk c of at, with ders mapping each combo (dx, dy) to
    (e, 1, nq).
    """
    n1, local = space.degree + 1, space.active_cells.local
    rule = rule or (_gauss01(n1 + 1),) * 2
    nd = max(max(c) for c in combos) + 1
    nx, ny = rule[0][0].size, rule[1][0].size
    # floats per cell: coefficients, tables, y products, result
    floats = n1 * (n1 + nd * nx + 2 * nd * ny) + nd * nx * nd * ny
    for c, tx, ty, wts, pts in _cell_chunks(space, at, rule, nd - 1, floats):
        e = len(tx)
        coef = coeff[local[c]].reshape(e, n1, n1)
        # y first, (e, i, (dy, y node)); then x, (e, (dx, x node), (dy, y node))
        part = coef @ ty[:, :nd].transpose(0, 2, 1, 3).reshape(e, n1, -1)
        full = (tx[:, :nd].transpose(0, 1, 3, 2).reshape(e, -1, n1) @ part).reshape(
            e, nd, nx, nd, ny)
        yield c, {(dx, dy): full[:, dx, :, dy].reshape(e, 1, nx * ny)
                  for dx, dy in combos}, wts, pts


def _point_tables(space, at, pts, max_der):
    """Tables (derivative, i, point) in x and in y of the levels' own
    B-splines at the parametric points pts (n, 2), each in the span of its
    active cell at (n,), so that points on a cell's edge give one-sided
    limits on it: one tabulate_in_span call per level and direction, for
    one-off points, not kept."""
    view, p = space.active_cells, space.degree
    tabs = np.empty((2, max(max_der, 2) + 1, p + 1, len(at)))
    for level in set(view.level[at].tolist()):
        on = view.level[at] == level
        for axis in (0, 1):
            tabs[axis][..., on] = tabulate_in_span(space.mesh.knots(level), pts[on, axis],
                                                   view.cells[at[on], axis] + p, max_der)
    return tabs


def _point_ders(space, at, pts, coeff, combos):
    """Derivatives (n,) by combo of the field with coefficients coeff = C u
    at the parametric points pts (n, 2) of the active cells at (n,), by
    :func:`_point_tables`."""
    tx, ty = _point_tables(space, at, pts, max(max(c) for c in combos))
    coef = coeff[space.active_cells.local[at]].reshape(len(pts), tx.shape[1], tx.shape[1])
    return {(dx, dy): np.einsum("ik,jk,kij->k", tx[dx], ty[dy], coef) for dx, dy in combos}


def _add_local(vec, local, loc):
    """Add the values loc (e, n) of the cells' own functions into the
    vector vec at their positions local (e, n)."""
    vec += np.bincount(local.ravel(), loc.ravel(), minlength=vec.size)


def _at_points(fn, pts, what, levels=None):
    """fn(x, y) called once on the flattened points (e, ..., 2); each
    returned value comes back in the points' shape, so scalar returns
    broadcast. Values that are not finite or do not fit the points raise
    ValueError naming `what`: with levels, the level (e,) of each row of
    points, a format for the level of the first offending point."""
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    out = fn(x, y)

    def named(at):  # with levels, `what` names the level of the point at
        row = at // (x.size // len(pts))
        return what if levels is None else what % np.broadcast_to(levels, len(pts))[row]

    def shaped(v):
        try:
            v = np.broadcast_to(np.asarray(v, dtype=float), x.shape)
        except (TypeError, ValueError) as exc:
            raise ValueError("%s: values of shape %s do not fit %d points"
                             % (named(0), np.shape(v), x.size)) from exc
        if not np.all(np.isfinite(v)):
            raise ValueError("%s: non-finite values" % named(np.argmin(np.isfinite(v))))
        return v.reshape(pts.shape[:-1])
    return tuple(map(shaped, out)) if isinstance(out, tuple) else shaped(out)


def _transform_rows(geo, pts, rows, wts, level, cells, local=None):
    """Push parametric derivative rows (e, n, nq) at the points (e, nq, 2)
    of the cells (e, 2) on the level (one, or one per cell) to physical
    ones; scales the weights (e, nq) and maps the points. Hessian rows need
    the gradient rows too only under a spline map: the gradient terms of the
    Hessian pushforward carry the map's own Hessian, which is zero for an
    affine map. local is geo.derivatives at the points, when the caller has
    it already."""
    if geo.is_identity:
        return rows, wts, pts
    mapped, jac, hess = local if local is not None else geo.derivatives(pts.reshape(-1, 2))
    det = np.linalg.det(jac)
    shape = pts.shape[:2]
    if np.any(det <= 0.0):
        k = (det.reshape(shape) <= 0.0).any(axis=1).argmax()
        raise GeometryError("geometry Jacobian is singular on level %d, cell (%d, %d)"
                            % (np.broadcast_to(level, len(cells))[k], *cells[k]))
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


def _gram_terms(grams, form):
    """The terms (M_ab, x Gram matrices, y Gram matrices) of the energy form
    M with M_ab != 0: the cell Gram matrices grams (class, derivative,
    derivative, p + 1, p + 1) of :func:`~hbplate.splines.cell_grams`, by
    class, of the x and y derivative orders of the Hessian components a and
    b."""
    return [(form[a, b], grams[:, _HESSIANS[a][0], _HESSIANS[b][0]],
             grams[:, _HESSIANS[a][1], _HESSIANS[b][1]]) for a, b in zip(*np.nonzero(form))]


def _band(kv, gram):
    """band[r, c - r + p] (n, 2p + 1) of the banded univariate matrix that
    the cell Gram matrices gram (class, p + 1, p + 1) of every cell of kv
    sum to."""
    p, n, nel = kv.degree, kv.num_basis, kv.num_elements
    i, j, c = np.ogrid[:p + 1, :p + 1, :nel]
    # bincount adds the terms of an entry in the order of i, from 0.0
    vals = gram[cell_classes(kv, np.arange(nel))].transpose(1, 2, 0)
    at = np.broadcast_to((i + c) * (2 * p + 1) + j - i + p, vals.shape)
    return np.bincount(at.ravel(), vals.ravel(), minlength=n * (2 * p + 1)).reshape(n, -1)


def _tensor_knots(space, geo):
    """The knot vector of the one level of a mesh whose active cells all lie
    on it, under a constant Jacobian: the case where the stiffness is a sum
    of Kronecker products of banded univariate matrices; else None."""
    level = space.active_cells.level
    if level[0] == level[-1] and geo.constant_jacobian:
        return space.mesh.knots(level[0])
    return None


def _kron_upper(kv, form, stiffness):
    """Upper triangle, in CSR, of the stiffness of a fully active level
    under a constant Jacobian: the sum over the energy form's terms of
    M_ab (A_ab x B_ab), Kronecker products of the banded univariate
    matrices that the cell Gram matrices of every cell sum to, formed
    directly in CSR order. Functions (i, k) are numbered i n + k."""
    p, n = kv.degree, kv.num_basis
    # offsets (d, e) of a column from its row, d in x, e in y, both shifted
    # by p, in the order of the columns; only those on or above the diagonal
    d, e = np.divmod(np.arange((2 * p + 1) ** 2), 2 * p + 1)
    up = (d > p) | ((d == p) & (e >= p))
    d, e = d[up], e[up]
    vals = 0.0
    for m, gx, gy in _gram_terms(cell_grams(kv), form):
        vals = vals + m * _band(kv, gx)[:, None, d] * _band(kv, gy)[None, :, e]
    vals = stiffness * vals
    # entries at off-grid offsets are exact zeros, and so dropped, only when the form is finite
    keep = vals != 0.0
    r = np.arange(n)
    cols = (r[:, None, None] + d - p) * n + (r[None, :, None] + e - p)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=2).ravel())])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n * n, n * n))


def _element_matrices(space, geo, problem, form):
    """Element matrices (e, (p + 1)^2, (p + 1)^2) of the levels' own tensor
    B-splines on chunks of the active cells of all levels, functions x-major
    as in ``space.active_cells.local``: yields (positions in
    ``space.active_cells``, matrices).

    Under a constant Jacobian (form is its energy form) they are gathered
    from the matrices of the (x class, y class) pairs that occur, each a sum
    of Kronecker products of the levels' cell Gram matrices; under a spline
    map they come from the kernel's quadrature, pushed forward.
    """
    view, n1 = space.active_cells, space.degree + 1
    at = np.arange(len(view.cells))
    if form is None:
        for c, rows, wts, pts in _cell_rows(space, at, _DERIVATIVES):
            rows, wts, _ = _transform_rows(geo, pts, rows, wts, view.level[c], view.cells[c])
            terms, w = _energy_terms(rows, wts, problem.poisson)
            yield c, problem.stiffness * ((terms * w[:, None]) @ terms.swapaxes(1, 2))
        return
    # the Gram matrices of all levels, stacked as the class rows of the view
    grams = np.concatenate([cell_grams(space.mesh.knots(l)) for l in np.unique(view.level)])
    pairs, pair = np.unique(view.classes @ [len(grams), 1], return_inverse=True)
    px, py = np.divmod(pairs, len(grams))
    elems = np.zeros((len(pairs), n1, n1, n1, n1))
    for m, gx, gy in _gram_terms(grams, form):
        elems += m * gx[px, :, None, :, None] * gy[py, None, :, None, :]
    elems = problem.stiffness * elems.reshape(len(pairs), n1 * n1, n1 * n1)
    step = max(1, _CHUNK_BYTES // (8 * n1 ** 4))
    for start in range(0, len(at), step):
        c = at[start:start + step]
        yield c, elems[pair[c]]


def assemble_stiffness(space, geo, problem):
    """Sparse symmetric plate stiffness matrix over the active basis, in
    CSR with int32 indices, by two-scale assembly: K = C^T blockdiag(K_l) C.

    K_l is the stiffness of level l's tensor B-splines over its active
    cells, (p + 1)^2 functions per cell, all levels in one pass over
    :attr:`~hbplate.hierarchy.HierarchicalSpace.active_cells`
    (:func:`_blockdiag_stiffness`), and C = [C_l] writes each active
    function that acts on a level's cells as a sum of them
    (:func:`hbplate.hierarchy.two_scale`). A mesh whose active cells all
    lie on one level has C = I, and under a constant Jacobian its K is a
    sum of Kronecker products of banded univariate matrices
    (:func:`_kron_upper`). The upper triangle of the result is mirrored,
    so the matrix is exactly symmetric.
    """
    form = _energy_form(geo, problem.poisson) if geo.constant_jacobian else None
    kv = _tensor_knots(space, geo)
    if kv is not None:
        upper = _kron_upper(kv, form, problem.stiffness)
    else:
        full = _blockdiag_stiffness(space, geo, problem, form)
        upper = _triangle(space.stacked_ct @ (full @ space.stacked_c), 0)
        upper.sort_indices()
    return upper + _triangle(upper, 1).T


def _blockdiag_stiffness(space, geo, problem, form):
    """blockdiag(K_l) in CSR over the stacked keys of ``space.stacked_ct``,
    from one pass of :func:`_element_matrices` over the cells of all levels.

    The element matrices are scattered into a stencil (key, offset of the
    other function) one local row of every cell at a time, so no entry is
    written twice by one scatter, and the same scatter writes each slot's
    column from the cells' locals. The offsets of a row are in the order of
    its columns, so the stencil's nonzeros are the CSR arrays.
    """
    p, local = space.degree, space.active_cells.local
    n, n1, width = space.stacked_ct.shape[1], p + 1, 2 * p + 1
    ix, iy = np.divmod(np.arange(n1 * n1), n1)
    # stencil slot of the pair (a, b) of a cell's functions, from a's key
    offset = (ix[None, :] - ix[:, None] + p) * width + (iy[None, :] - iy[:, None] + p)
    stencil = np.zeros(n * width * width)
    cols = np.zeros(stencil.size, dtype=np.int32)
    for c, elems in _element_matrices(space, geo, problem, form):
        for a in range(n1 * n1):
            slot = local[c, a, None] * width * width + offset[a]
            stencil[slot] += elems[:, a]
            cols[slot] = local[c]
        del elems  # so that two chunks are never held at once
    live = stencil != 0.0
    indptr = np.concatenate([[0], np.cumsum(live.reshape(n, -1).sum(axis=1))])
    return sp.csr_matrix((stencil[live], cols[live], indptr), shape=(n, n))


def _triangle(a, k):
    """The entries of the CSR matrix a with column >= row + k, in CSR."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    keep = a.indices >= rows + k
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=a.shape[0]))])
    return sp.csr_matrix((a.data[keep], a.indices[keep], indptr), shape=a.shape)


# ---------------------------------------------------------------------------
# boundary edges

def _on_side(mesh, level, cells, side):
    """Which of the cells (E, 2) on the level (one, or one per cell) have
    an edge on one side of the domain."""
    edge = 0 if side in ("left", "bottom") else mesh.n_elements_1d(level) - 1
    return cells[:, 0 if side in ("left", "right") else 1] == edge


def _side_groups(mesh, level, cells, sides):
    """The cells (E, 2) on the level (one, or one per cell) grouped by
    which of `sides` of the domain they touch: yields (frozenset of the
    touched sides, positions of the group's cells), the groups in order of
    their first cell."""
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
    """The boundary cells of one side, of all levels, through the level
    kernel's edge rule, chunk by chunk: (positions of the cells in
    ``space.active_cells``, values and outward normal derivatives
    (e, (p + 1)^2, nq) of the cells' own functions, physical points
    (e, nq, 2), arc weights (e, nq))."""
    view = space.active_cells
    at = np.flatnonzero(_on_side(space.mesh, view.level, view.cells, side))
    for c, rows, wts, pts in _cell_rows(space, at, _ASSEMBLY_COMBOS[:3],
                                        _edge_rule(space.degree, side)):
        dn, pts, wts = _edge_transform(geo, pts, side, wts, rows[(1, 0)], rows[(0, 1)],
                                       view.level[c], view.cells[c])
        yield c, rows[(0, 0)], dn, pts, wts


def _edge_transform(geo, pts, side, wts, gx, gy, level, cells):
    """Outward-normal derivative rows (e, n, nq), physical points and arc
    weights along the boundary edges of the cells (e, 2) on the level (one,
    or one per cell), from
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
    boundary edges of e elements on the level (one, or one per element):
    (e, n)."""
    out = np.zeros(dn.shape[:2])
    for data, kind, rows in ((problem.neumann_M.get(side), "moment", dn),
                             (problem.neumann_Q.get(side), "shear", vals)):
        if not _vanishes(data):
            what = "%s data on side %r, level %%d" % (kind, side)
            out += np.einsum("elq,eq->el", rows, wts * _at_points(_as_fn(data), pts, what, level))
    return out


# ---------------------------------------------------------------------------
# load vector

def assemble_load(space, geo, problem):
    """Right-hand side by two-scale assembly, b = C^T b_s, where b_s tests
    the load against the levels' own tensor B-splines on the active cells,
    in one pass over the cells of all levels.

    The body load is sum-factorised: tx G ty^T per cell, with G the
    weighted load at the nodes of the Gauss rule, or of the graded rule on
    cells touching graded sides. Moment and shear data go through the edge
    rule (:func:`_natural_terms`), point loads through exact evaluation.
    """
    n1, view, loads = space.degree + 1, space.active_cells, problem.point_loads
    gfun = _as_fn(problem.g)
    b = np.zeros(space.stacked_ct.shape[1])
    for side in SIDES:
        if _vanishes(problem.neumann_M.get(side), problem.neumann_Q.get(side)):
            continue
        for at, vals, dn, pts, wts in _side_batches(space, geo, side):
            _add_local(b, view.local[at],
                       _natural_terms(problem, side, view.level[at], vals, dn, pts, wts))
    groups = _side_groups(space.mesh, view.level, view.cells, problem.load_grading) if gfun else ()
    for key, at in groups:
        rule = _graded_rule(n1 - 1, key) if key else (_gauss01(n1 + 1),) * 2
        nx, ny = rule[0][0].size, rule[1][0].size
        # floats per cell: tables, points, weighted load, products
        for c, tx, ty, wts, pts in _cell_chunks(space, at, rule, 0,
                                                3 * n1 * (nx + ny) + 8 * nx * ny):
            _, wts, pts = _transform_rows(geo, pts, {}, wts, view.level[c], view.cells[c])
            gv = _at_points(gfun, pts, "load g on level %d", view.level[c])
            loc = tx[:, 0] @ (wts * gv).reshape(-1, nx, ny) @ ty[:, 0].swapaxes(1, 2)
            _add_local(b, view.local[c], loc.reshape(len(loc), -1))
    if loads:
        pts = np.array([pt for pt, _ in loads], dtype=float)
        at = space.mesh.locate(pts)
        tx, ty = _point_tables(space, at, pts, 0)
        loc = tx[0].T[:, :, None] * ty[0].T[:, None, :]
        _add_local(b, view.local[at],
                   np.array([m for _, m in loads])[:, None] * loc.reshape(len(at), -1))
    return space.stacked_ct @ b


def assemble_system(space, geo, problem):
    """Stiffness and load in one :class:`LinearSystem` (no constraints yet),
    with the knot vector of a single-level mesh under a constant Jacobian
    (:func:`_tensor_knots`) for :func:`solve`."""
    return LinearSystem(
        matrix=assemble_stiffness(space, geo, problem),
        rhs=assemble_load(space, geo, problem),
        constraints={},
        tensor=_tensor_knots(space, geo),
    )


# ---------------------------------------------------------------------------
# Dirichlet constraints

def _trace_dofs(space, side, depth):
    """Dofs of the active functions in the first `depth` layers along a
    side: depth 1 has the nonzero deflection traces, depth 2 the nonzero
    rotation traces."""
    mesh, (level, ix, iy) = space.mesh, space.basis.indices
    normal = ix if side in ("left", "right") else iy
    if side in ("right", "top"):
        # a level has p more functions than cells along a side
        normal = mesh.n_elements_1d(level) + mesh.p - 1 - normal
    return np.flatnonzero(normal < depth)


def _fit_side(space, geo, side, kind, data, constraints):
    """Weighted least-squares fit of one side's "deflection" or (outward)
    "rotation" data.

    Already-constrained trace dofs contribute to the right-hand side,
    through C given; the remaining trace dofs become new constraints, one
    least-squares column each, in dof order. The least-squares matrix is
    W T C, sparse: T the side's boundary points by the stacked keys of all
    levels (:func:`_fit_matrix`), built and solved (:func:`_least_squares`)
    only for data that do not vanish; constant 0 data on a trace without
    nonzero constraints take no quadrature either.
    """
    n, view = space.num_dofs, space.active_cells
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
    ct = space.stacked_ct
    known = space.stacked_c @ given
    chunks = []
    for at, vals, dn, pts, wts in _side_batches(space, geo, side):
        rows = vals if kind == "deflection" else -dn
        target = _at_points(_as_fn(data), pts, "%s data on side %r, level %%d" % (kind, side),
                            view.level[at])
        target = target - np.einsum("elq,el->eq", rows, known[view.local[at]])
        w = np.sqrt(wts)
        chunks.append((view.local[at], rows * w[:, None, :], (target * w).ravel()))
    b = np.concatenate([c[2] for c in chunks])
    values = np.zeros(unknowns.size)
    if b.any():  # only exactly vanishing data need no least-squares matrix
        a = _fit_matrix(chunks, ct.shape[1]) @ ct[unknowns].T
        values = _least_squares(a, b, "%s fit on side %r" % (kind, side))
    constraints.update(zip(unknowns.tolist(), values.tolist()))


def _fit_matrix(chunks, keys):
    """W T: the rows (points, keys) of a side's least-squares matrix in the
    levels' own B-splines, from chunks (cells' positions among the stacked
    keys (e, (p + 1)^2), weighted rows (e, (p + 1)^2, nq), ...): each
    cell's rows at its columns, without the zeros."""
    vals = np.concatenate([rows for _, rows, _ in chunks]).transpose(0, 2, 1)
    cols = np.broadcast_to(np.concatenate([local for local, _, _ in chunks])[:, None, :],
                           vals.shape)
    pos = np.broadcast_to(np.arange(vals[..., 0].size).reshape(vals.shape[:2])[..., None],
                          vals.shape)
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (pos[keep], cols[keep])), shape=(vals[..., 0].size, keys))


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
    corners = {("left", "bottom"): (0.0, 0.0), ("bottom", "right"): (1.0, 0.0),
               ("right", "top"): (1.0, 1.0), ("top", "left"): (0.0, 1.0)}
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

_CG_RTOL = 1e-13
_CG_MAX_ITERATIONS = 1000


class _TensorPCG:
    """CG on a free block that is a sum of Kronecker products on the box
    [lo_x, hi_x) x [lo_y, hi_y) of a level's index grid, preconditioned by
    fast diagonalisation (Lynch, Rice & Thomas 1964; Sangalli & Tani 2016):
    P = (A x M + M x A) (M x M)^-1 (A x M + M x A), with A and M the
    univariate first-derivative stiffness and mass matrices on the box's
    index range in each direction. From A U = M U L per direction,
    P^-1 r = (U_x x U_y) (L_x + L_y)^-2 (U_x x U_y)^T r, two dense products
    on each side of the box-shaped r."""

    def __init__(self, a, ux, uy, pencil):
        self.a, self.ux, self.uy, self.scale = a, ux, uy, pencil ** -2.0
        self.precondition = spla.LinearOperator(a.shape, matvec=self._apply, dtype=float)

    @classmethod
    def on_box(cls, a, kv, free):
        """The solver of the free block a of the dofs free (sorted), or None
        when they are not a box, or when L_x + L_y is at the rounding level
        of its largest value: then the block is singular (no direction is
        constrained), and splu reports it."""
        ix, iy = np.divmod(free, kv.num_basis)
        box = [(i.min(), i.max() + 1) for i in (ix, iy)]
        if free.size != (box[0][1] - box[0][0]) * (box[1][1] - box[1][0]):
            return None
        p, n, grams = kv.degree, kv.num_basis, cell_grams(kv)
        rows, cols = np.indices((n, 2 * p + 1))
        cols += rows - p
        ok = (cols >= 0) & (cols < n)
        stiff, mass = np.zeros((2, n, n))
        for dense, k in ((stiff, 1), (mass, 0)):
            dense[rows[ok], cols[ok]] = _band(kv, grams[:, k, k])[ok]
        pairs = []
        for lo, hi in box:
            # M = C C^T, and U = C^-T V with V L V^T = C^-1 A C^-T; numpy's
            # LAPACK, as for the estimator's blocks, adds less to the RSS
            # than a second library's generalised eigensolver
            ci = np.linalg.inv(np.linalg.cholesky(mass[lo:hi, lo:hi]))
            lam, v = np.linalg.eigh(ci @ stiff[lo:hi, lo:hi] @ ci.T)
            pairs.append((lam, ci.T @ v))
        pencil = pairs[0][0][:, None] + pairs[1][0][None, :]
        if pencil.min() <= 1e-10 * pencil.max():
            return None
        return cls(a, pairs[0][1], pairs[1][1], pencil)

    def _apply(self, r):
        core = self.ux.T @ r.reshape(self.scale.shape) @ self.uy
        return (self.ux @ (core * self.scale) @ self.uy.T).ravel()

    def solve(self, b):
        x, info = spla.cg(self.a, b, rtol=_CG_RTOL, atol=0.0, maxiter=_CG_MAX_ITERATIONS,
                          M=self.precondition)
        if info:
            raise SolverError("preconditioned CG on the free block (n=%d) did not reach "
                              "rtol %.0e in %d iterations" % (b.size, _CG_RTOL, info))
        return x


def _checked_solution(solver, a, b, dofs):
    """Solve a x = b by ``solver.solve`` (a sparse factor of a, or
    :class:`_TensorPCG`) and check the result; dofs are the global dof
    numbers of the unknowns, for the error message.

    The result is accepted when its residual |b - a x| is within 1e-10 |b|
    or within the floor 100 eps (|a| |x| + |b|), |a| the largest absolute
    row sum, below which a double-precision residual cannot be measured;
    the floor counts only while the growth |a| |x| / |b| stays within 1e13,
    as in a regular solve. A non-finite or unaccepted x raises SolverError,
    which names the dof of the largest residual entry.
    """
    anorm = np.abs(a).sum(axis=1).max() if a.nnz else 0.0
    x = solver.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("solver produced non-finite values (n=%d)" % b.size)
    scale, r, ax = np.linalg.norm(b), b - a @ x, anorm * np.linalg.norm(x)
    floor = 100.0 * np.finfo(float).eps * (ax + scale) if ax <= 1e13 * scale else 0.0
    if scale > 0.0 and np.linalg.norm(r) > max(1e-10 * scale, floor):
        raise SolverError(
            "relative residual %.3e exceeds 1e-10 (n=%d, growth %.1e); largest entry at dof %d"
            % (np.linalg.norm(r) / scale, b.size, ax / scale, dofs[np.abs(r).argmax()]))
    return x


def solve(system):
    """The dof coefficients (n,) solving the constrained system. Constraints
    are eliminated symmetrically; the free block is solved by
    :class:`_TensorPCG` if the system has a knot vector (``system.tensor``)
    and its free dofs form a box, else factored by splu, and checked by
    :func:`_checked_solution`."""
    a = system.matrix.tocsr()
    n = a.shape[0]
    x = np.zeros(n)
    for d, v in system.constraints.items():
        x[d] = v
    constrained = np.zeros(n, dtype=bool)
    constrained[list(system.constraints)] = True
    free = np.flatnonzero(~constrained)
    if free.size == 0:
        return x
    b = system.rhs - a @ x
    # one outer-index selection of the free rows and columns
    aff = a[free[:, None], free]
    solver = None if system.tensor is None else _TensorPCG.on_box(aff, system.tensor, free)
    if solver is None:
        aff = aff.tocsc()
        try:
            # the free block is SPD: a symmetric minimum-degree ordering on the
            # diagonal keeps fill low without pivoting
            solver = spla.splu(aff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                               options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError("sparse factorization of the free block (n=%d, nnz=%d) failed: %s"
                              % (free.size, aff.nnz, exc)) from exc
    x[free] = _checked_solution(solver, aff, b[free], free)
    return x


def h2_seminorm_error(u_h, exact_hessian, space, geo=None):
    """H^2 seminorm sqrt(int |H(u_h) - H_exact|_F^2) of the error, in one pass
    over the active cells of all levels: the plate energy norm only at D = 1,
    nu = 0, though theta divides the energy-norm eta by it."""
    geo = geo or GeometryMap.identity()
    view, total = space.active_cells, 0.0
    for c, ders, wts, pts in _field_chunks(space, np.arange(len(view.cells)),
                                           space.stacked_c @ u_h, _DERIVATIVES):
        ders, wts, pts = _transform_rows(geo, pts, ders, wts, view.level[c], view.cells[c])
        exx, exy, eyy = _at_points(exact_hessian, pts, "exact Hessian on level %d", view.level[c])
        total += float(np.sum(wts * ((ders[(2, 0)][:, 0] - exx) ** 2
                                     + 2.0 * (ders[(1, 1)][:, 0] - exy) ** 2
                                     + (ders[(0, 2)][:, 0] - eyy) ** 2)))
    return float(np.sqrt(total))


def evaluate(u_h, space, geo, points):
    """Values, gradients and Hessians of the field u_h at parametric points.

    Returns (values (N,), gradients (N, 2), hessians (N, 3)) with the
    Hessian packed as (xx, xy, yy), in physical coordinates. Each point is
    evaluated on the finest active element holding it, from the
    coefficients C u, all points at once.
    """
    geo = geo or GeometryMap.identity()
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(0, 2) if pts.shape == (0,) else np.atleast_2d(pts)
    view = space.active_cells
    at = space.mesh.locate(pts)
    d = _point_ders(space, at, pts, space.stacked_c @ u_h, _ASSEMBLY_COMBOS)
    d = _transform_rows(geo, pts[:, None], {k: v[:, None, None] for k, v in d.items()},
                        np.ones((len(at), 1)), view.level[at], view.cells[at])[0]
    ders = np.array([d[k][:, 0, 0] for k in _ASSEMBLY_COMBOS])
    return ders[0], ders[1:3].T, ders[3:].T
