"""Galerkin assembly and solution of the Kirchhoff plate bending problem.

The bilinear form is the plate energy
``a(u, v) = int D [ (1-nu) H(u):H(v) + nu lap(u) lap(v) ]``; with the default
normalization nu = 0, D = 1 it reduces to the Frobenius product of Hessians.
Quadrature uses one tensor Gauss rule with degree + 2 points per direction
on every active element, for the stiffness, loads, error norms and the
estimator blocks alike.

Every element integral and every point value runs through one element
kernel, which works on chunks of active elements of one level at the nodes
of a tensor reference rule on [0, 1]^2: the interior Gauss rule, an edge
rule with one node on a domain side (moment and shear loads, Dirichlet
fits, the residual estimator's edge jumps), a graded rule whose strips
crowd toward graded sides (the graded body load), or a one-off rule at
given points (:func:`evaluate`, point loads). Both of its modes share one
set-up, :func:`_kernel_setup`: each level's dof lookup and the univariate
tables at the rule's nodes.

- Rows mode, :func:`_element_batches`, hands out the basis: dofs padded
  with -1 and derivative rows (element, function, node), for the integrals
  whose test functions are the basis (stiffness, loads, Dirichlet fits).
- Field mode, :func:`_field_batches`, hands out the derivatives of one
  discrete field (element, 1, node) by sum factorisation: each element's
  coefficients, as (p + 1) x (p + 1) tensors per level, are contracted with
  the tables in y and then in x, and no basis rows are built. The error
  norm, :func:`evaluate` and the estimators' u_h terms use it.

The stiffness asks the kernel for Hessian rows only, and for gradient rows
as well under a spline map, whose Hessian pushforward needs them. Each
chunk's element matrices come from one stacked product; only their pairs
with dof_i <= dof_j are scattered, summed into CSR once per assembly, and
the strict upper triangle is mirrored at the end.

Basis values come from one tabulation kernel,
:func:`hbplate.splines.tabulate_in_span`, which runs Cox-de Boor over many
points at once. Tables of the fixed rules are cached on the knot vector of
their level by :meth:`~hbplate.splines.KnotVector.table`; refined meshes
share those knot vectors, so the tables carry over from iteration to
iteration, while a new space starts with none. Tables of one-off rules are
tabulated and not kept; a spline map tabulates each point in its own span.
The moment and shear data are integrated once, in :func:`_natural_terms`,
for the load vector and the estimator alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .splines import KnotVector, find_span, tabulate_in_span
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

    def map_points(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "identity":
            return pts.copy()
        if self.kind == "affine":
            return pts @ self.matrix.T + self.offset
        blk, bx, by = self._spline_basis(pts, 0)
        return np.einsum("iq,jq,qijk->qk", bx[0], by[0], blk)

    def jacobians(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        if self.kind == "identity":
            return np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
        if self.kind == "affine":
            return np.broadcast_to(self.matrix, (n, 2, 2)).copy()
        blk, bx, by = self._spline_basis(pts, 1)
        out = np.empty((n, 2, 2))
        out[:, :, 0] = np.einsum("iq,jq,qijk->qk", bx[1], by[0], blk)
        out[:, :, 1] = np.einsum("iq,jq,qijk->qk", bx[0], by[1], blk)
        return out

    def hessians(self, pts):
        """Second derivatives of the map: [point, component, a, b]."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        if self.kind in ("identity", "affine"):
            return np.zeros((n, 2, 2, 2))
        blk, bx, by = self._spline_basis(pts, 2)
        out = np.empty((n, 2, 2, 2))
        out[:, :, 0, 0] = np.einsum("iq,jq,qijk->qk", bx[2], by[0], blk)
        out[:, :, 0, 1] = np.einsum("iq,jq,qijk->qk", bx[1], by[1], blk)
        out[:, :, 1, 0] = out[:, :, 0, 1]
        out[:, :, 1, 1] = np.einsum("iq,jq,qijk->qk", bx[0], by[2], blk)
        return out


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
# the element kernel

_ASSEMBLY_COMBOS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_DERIVATIVES = _ASSEMBLY_COMBOS[1:]
_HESSIANS = _ASSEMBLY_COMBOS[3:]
_CHUNK_BYTES = 1 << 20  # basis rows held for one chunk of elements
_EVAL_POINTS = 32  # points per kernel call of evaluate on one element
_PENDING_ENTRIES = 1_000_000  # stiffness entries scattered before they are summed into CSR


def _level_cells(mesh):
    """(level, cells) for every level with active elements: their cell
    indices as an (E, 2) array in (ix, iy) order."""
    for l in range(mesh.num_levels):
        cells = mesh.cells(l)
        if len(cells):
            yield l, cells


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


def _kernel_setup(space, level, cells, combos, rule, cached):
    """What both modes of the element kernel share on the cells (E, 2) of
    one level: the rule (by default the interior Gauss rule), the dofs
    (E, L, p + 1, p + 1) of the functions of the L levels k <= level that
    act on the cells, from the basis's dof lookup per level and -1 where
    inactive, and per direction the univariate tables (cell, L, derivative,
    i, node) at the rule's nodes of the distinct cell indices, with each
    cell's position among them."""
    mesh, basis, p = space.mesh, space.basis, space.degree
    rule = rule or (_gauss01(p + 2),) * 2
    h, a = mesh.h(level), mesh.interval[0]
    loc = np.arange(p + 1)
    levels, dofs = [], []
    for k in range(level + 1):
        ax, ay = (cells >> (level - k)).T
        d = basis.level_dofs(k, ax[:, None, None] + loc[:, None], ay[:, None, None] + loc)
        if (d >= 0).any():
            levels.append(k)
            dofs.append(d)
    max_der = max(max(c) for c in combos)
    tabulate = KnotVector.table if cached else tabulate_in_span
    tabs = []
    for axis, (nodes, _) in enumerate(rule):
        ucells, inverse = np.unique(cells[:, axis], return_inverse=True)
        tabs.append((np.array([[tabulate(mesh.knots(k), a + (c + nodes) * h,
                                         (c >> (level - k)) + p, max_der)
                                for k in levels] for c in ucells]), inverse))
    return rule, np.stack(dofs, axis=1), tabs


def _element_batches(space, level, cells, combos, rule=None, cached=True):
    """The element kernel in rows mode: active basis functions and their
    rows on chunks of active elements of one level, given by their (E, 2)
    cells, at the nodes of a tensor reference rule.

    A rule is ((x nodes, x weights), (y nodes, y weights)) on [0, 1]; the
    default is the interior Gauss rule of p + 2 points per direction. Every
    node is evaluated in the span of its element, so nodes at 0 or 1 give
    one-sided limits on the element. Weights are the products of the 1-D
    weights times h for each direction with more than one node: h^2 (the
    element area) for the interior and graded rules, h (the edge length)
    for an edge rule, whose single node across the edge has weight 1.

    Yields (sl, dofs, rows, wts, pts) for each chunk ``cells[sl]`` of e
    elements. dofs (e, nloc) lists each element's active functions in
    connectivity order, padded with -1; rows maps each combo (dx, dy) to
    parametric derivative rows (e, nloc, nq), exactly zero on padded slots;
    wts (e, nq) and pts (e, nq, 2) are the rule's weights and points
    (x-major). Functions come from the basis's dof lookup per level, and
    rows from univariate tables gathered per active slot; a chunk's rows
    fill at most _CHUNK_BYTES. The tables of fixed rules are cached on each
    level's knot vector; ``cached=False`` tabulates one-off rules and drops
    them.
    """
    rule, dofs_by_level, ((xtab, xat), (ytab, yat)) = _kernel_setup(
        space, level, cells, combos, rule, cached)
    # slots run over (level, i, j) as connectivity does; a stable sort puts
    # the active ones first, in that order, and the inactive (-1) after them
    slot_dofs = dofs_by_level.reshape(len(cells), -1)
    order = np.argsort(slot_dofs < 0, axis=1, kind="stable")
    count = (slot_dofs >= 0).sum(axis=1)
    # the tables of each combo's derivative orders, picked before the gather
    xtab = xtab[:, :, [c[0] for c in combos]]
    ytab = ytab[:, :, [c[1] for c in combos]]
    nq = rule[0][0].size * rule[1][0].size
    step = max(1, _CHUNK_BYTES // (8 * len(combos) * int(count.max()) * nq))
    for start in range(0, len(cells), step):
        sl = slice(start, start + step)
        nloc = int(count[sl].max())
        slot = order[sl, :nloc]
        dofs = np.take_along_axis(slot_dofs[sl], slot, axis=1)
        k, i, j = np.unravel_index(slot, dofs_by_level.shape[1:])
        tx = xtab[xat[sl, None], k, :, i]
        ty = ytab[yat[sl, None], k, :, j]
        tx[dofs < 0] = 0.0
        # element-major (e, nloc, combo, nq); each combo's rows are a view
        rows = (tx[..., :, None] * ty[..., None, :]).reshape(len(dofs), nloc, len(combos), nq)
        pts, w = _rule_on_cells(space.mesh, level, cells[sl], rule)
        yield (sl, dofs, {c: rows[:, :, r] for r, c in enumerate(combos)},
               np.broadcast_to(w, (len(dofs), nq)), pts)


def _field_batches(space, level, cells, coeff, combos, rule=None, cached=True):
    """The element kernel in field mode: derivatives of the discrete field
    with coefficients coeff on chunks of the cells (E, 2) of one level, at
    the nodes of a tensor reference rule, as in :func:`_element_batches`.

    Sum factorisation: each element's coefficients are gathered per level
    as (p + 1) x (p + 1) tensors, 0 for inactive functions, and contracted
    with the univariate tables, first in y and then in x (over levels and
    x functions at once). No basis rows are built.

    Yields (sl, ders, wts, pts) for each chunk ``cells[sl]`` of e elements:
    ders maps each combo (dx, dy) to parametric derivative rows (e, 1, nq)
    of the field, x-major; wts and pts are those of rows mode. A chunk's
    gathered tables and products fill at most _CHUNK_BYTES.
    """
    rule, dofs_by_level, ((xtab, xat), (ytab, yat)) = _kernel_setup(
        space, level, cells, combos, rule, cached)
    # padding slots (-1) read the appended zero
    coef = np.append(coeff, 0.0)[dofs_by_level]
    dxs = sorted({c[0] for c in combos})
    dys = sorted({c[1] for c in combos})
    xtab, ytab = xtab[:, :, dxs], ytab[:, :, dys]
    _, nl, n1, _ = coef.shape
    nx, ny = rule[0][0].size, rule[1][0].size
    # floats per element: coefficients, gathered tables, y products, result
    floats = nl * n1 * (n1 + len(dxs) * nx + 2 * len(dys) * ny) + len(dxs) * nx * len(dys) * ny
    step = max(1, _CHUNK_BYTES // (8 * floats))
    for start in range(0, len(cells), step):
        sl = slice(start, start + step)
        e = len(coef[sl])
        # y first, (e, L, dy, i, y node); then x, summing over (L, i) at once
        part = (coef[sl, :, None] @ ytab[yat[sl]]).transpose(0, 1, 3, 2, 4)
        part = part.reshape(e, nl * n1, -1)
        tx = xtab[xat[sl]].transpose(0, 2, 4, 1, 3).reshape(e, -1, nl * n1)
        full = (tx @ part).reshape(e, len(dxs), nx, len(dys), ny)
        ders = {(dx, dy): full[:, dxs.index(dx), :, dys.index(dy)].reshape(e, 1, nx * ny)
                for dx, dy in combos}
        pts, w = _rule_on_cells(space.mesh, level, cells[sl], rule)
        yield sl, ders, np.broadcast_to(w, (e, nx * ny)), pts


def _point_rule(mesh, e, xs, ys):
    """One-off rule at the parametric points xs x ys (x-major) on element
    e, taken as one-sided limits on e, and e's cell as a (1, 2) array."""
    h, a = mesh.h(e.level), mesh.interval[0]
    rule = [((np.asarray(t, dtype=float) - a) / h - c, np.ones(len(t)))
            for t, c in ((xs, e.ix), (ys, e.iy))]
    return np.array([e[1:]], dtype=np.int64), rule


def _add_local(vec, dofs, loc):
    """Add local values (e, nloc) into vec at the dofs, skipping padding."""
    live = dofs >= 0
    vec += np.bincount(dofs[live], loc[live], minlength=vec.size)


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


def _transform_rows(geo, pts, rows, wts, level, cells):
    """Push parametric derivative rows (e, n, nq) at the points (e, nq, 2)
    of the cells (e, 2) of one level to physical ones; scales the weights
    (e, nq) and maps the points. Hessian rows need the gradient rows too
    only under a spline map: the gradient terms of the Hessian pushforward
    carry the map's own Hessian, which is zero for an affine map."""
    if geo.is_identity:
        return rows, wts, pts
    flat = pts.reshape(-1, 2)
    jac = geo.jacobians(flat)
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
            hg = geo.hessians(flat).reshape(shape + (2, 2, 2))[:, None]
            cxx = cxx - px * hg[..., 0, 0, 0] - py * hg[..., 1, 0, 0]
            cxy = cxy - px * hg[..., 0, 0, 1] - py * hg[..., 1, 0, 1]
            cyy = cyy - px * hg[..., 0, 1, 1] - py * hg[..., 1, 1, 1]
        # H_phys = Jinv^T C Jinv, per point
        a, b, c, d = jinv[..., 0, 0], jinv[..., 0, 1], jinv[..., 1, 0], jinv[..., 1, 1]
        out[(2, 0)] = a * (a * cxx + c * cxy) + c * (a * cxy + c * cyy)
        out[(1, 1)] = b * (a * cxx + c * cxy) + d * (a * cxy + c * cyy)
        out[(0, 2)] = b * (b * cxx + d * cxy) + d * (b * cxy + d * cyy)
    return out, wts * det.reshape(shape), geo.map_points(flat).reshape(pts.shape)


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


def assemble_stiffness(space, geo, problem):
    """Sparse symmetric plate stiffness matrix over the active basis, in
    CSR with int32 indices.

    The kernel hands out Hessian rows only, plus gradient rows under a
    spline map, whose pushforward needs them. Each kernel chunk gives its
    element matrices by one stacked product, of which only the pairs with
    dof_i <= dof_j are scattered. The upper triangle goes into CSR once
    per assembly (or whenever _PENDING_ENTRIES are pending, to bound the
    memory), and its strict part is mirrored at the end.
    """
    n = space.num_dofs
    combos = _HESSIANS if geo.constant_jacobian else _DERIVATIVES

    def folded(upper, parts):
        # dof_i, dof_j and values are joined one at a time, each list of
        # pieces emptied before the next is joined, to bound the memory
        joined = []
        for pieces in parts:
            joined.append(np.concatenate(pieces))
            pieces.clear()
        i, j, v = joined
        summed = sp.csr_matrix((v, (i, j)), shape=(n, n))
        return summed if upper is None else upper + summed

    upper, parts, pending = None, ([], [], []), 0
    for level, cells in _level_cells(space.mesh):
        for sl, dofs, rows, wts, pts in _element_batches(space, level, cells, combos):
            rows, wts, _ = _transform_rows(geo, pts, rows, wts, level, cells[sl])
            terms, w = _energy_terms(rows, wts, problem.poisson)
            aloc = problem.stiffness * ((terms * w[:, None]) @ terms.swapaxes(1, 2))
            # padding is -1, so a live dof_i <= dof_j makes dof_j live too
            pair = (dofs[:, :, None] >= 0) & (dofs[:, :, None] <= dofs[:, None, :])
            idx = dofs.astype(np.int32)
            for pieces, x in zip(parts, (np.broadcast_to(idx[:, :, None], aloc.shape),
                                         np.broadcast_to(idx[:, None, :], aloc.shape), aloc)):
                pieces.append(x[pair])
            pending += parts[2][-1].size
            if pending > _PENDING_ENTRIES:
                upper, pending = folded(upper, parts), 0
    if pending:
        upper = folded(upper, parts)
    return upper + sp.triu(upper, 1).T


# ---------------------------------------------------------------------------
# boundary edges

def _on_side(mesh, level, cells, side):
    """Which of the cells (E, 2) of one level have an edge on one side of
    the domain."""
    edge = 0 if side in ("left", "bottom") else mesh.n_elements_1d(level) - 1
    return cells[:, 0 if side in ("left", "right") else 1] == edge


def _boundary_cells(mesh, side):
    """(level, cells) of the active elements with an edge on one side of the
    domain, as (E, 2) arrays by level and then along the side."""
    for level, cells in _level_cells(mesh):
        on = _on_side(mesh, level, cells, side)
        if on.any():
            yield level, cells[on]


def _side_groups(mesh, level, cells, sides):
    """The cells (E, 2) of one level grouped by which of `sides` of the
    domain they touch: yields (frozenset of the touched sides, cells), the
    groups in order of their first cell."""
    # bit b of a cell's code: the cell touches SIDES[b]
    code = np.zeros(len(cells), dtype=np.int64)
    for b, side in enumerate(SIDES):
        if side in sides:
            code |= _on_side(mesh, level, cells, side) << b
    for c in dict.fromkeys(code.tolist()):
        yield frozenset(side for b, side in enumerate(SIDES) if c >> b & 1), cells[code == c]


_SIDE_NORMAL = {"left": (-1.0, 0.0), "right": (1.0, 0.0),
                "bottom": (0.0, -1.0), "top": (0.0, 1.0)}


def _side_batches(space, geo, side):
    """The boundary cells of one side through the kernel's edge rule, chunk
    by chunk: (level, dofs, values (e, nloc, nq), outward normal
    derivatives (e, nloc, nq), physical points (e, nq, 2), arc weights)."""
    rule = _edge_rule(space.degree, side)
    for level, cells in _boundary_cells(space.mesh, side):
        for sl, dofs, rows, wts, pts in _element_batches(
                space, level, cells, _ASSEMBLY_COMBOS[:3], rule):
            dn, pts, wts = _edge_transform(geo, pts, side, wts, rows[(1, 0)], rows[(0, 1)],
                                           level, cells[sl])
            yield level, dofs, rows[(0, 0)], dn, pts, wts


def _edge_transform(geo, pts, side, wts, gx, gy, level, cells):
    """Outward-normal derivative rows (e, n, nq), physical points and arc
    weights along the boundary edges of the cells (e, 2) of one level, from
    parametric gradient rows (e, n, nq) at the points (e, nq, 2) and
    parametric arc weights (e, nq)."""
    grad, _, pts_phys = _transform_rows(geo, pts, {(1, 0): gx, (0, 1): gy}, wts, level, cells)
    normal = np.array(_SIDE_NORMAL[side])
    nx, ny = normal
    if not geo.is_identity:
        # _transform_rows found det J > 0, so arcs and normals are nonzero
        jac = geo.jacobians(pts.reshape(-1, 2))
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
        if data is not None:
            what = "%s data on side %r, level %d" % (kind, side, level)
            out += np.einsum("elq,eq->el", rows, wts * _at_points(_as_fn(data), pts, what))
    return out


# ---------------------------------------------------------------------------
# load vector

def assemble_load(space, geo, problem):
    """Right-hand side: body load (by the kernel's Gauss rule, or its graded
    rule on elements touching graded sides), natural boundary terms by the
    edge rule, point loads by exact evaluation."""
    mesh = space.mesh
    rhs = np.zeros(space.num_dofs)
    gfun = _as_fn(problem.g)
    if gfun is not None:
        for level, cells in _level_cells(mesh):
            for key, part in _side_groups(mesh, level, cells, problem.load_grading):
                rule = _graded_rule(space.degree, key) if key else None
                for sl, dofs, rows, wts, pts in _element_batches(
                        space, level, part, ((0, 0),), rule):
                    rows, wts, pts = _transform_rows(geo, pts, rows, wts, level, part[sl])
                    gv = _at_points(gfun, pts, "load g on level %d" % level)
                    _add_local(rhs, dofs, np.einsum("elq,eq->el", rows[(0, 0)], wts * gv))
    for side in SIDES:
        if problem.neumann_M.get(side) is None and problem.neumann_Q.get(side) is None:
            continue
        for level, dofs, vals, dn, pts, wts in _side_batches(space, geo, side):
            _add_local(rhs, dofs, _natural_terms(problem, side, level, vals, dn, pts, wts))
    for (pt, magnitude) in problem.point_loads:
        e = mesh.locate(pt[0], pt[1])
        cells, rule = _point_rule(mesh, e, [pt[0]], [pt[1]])
        for _, dofs, rows, _, _ in _element_batches(space, e.level, cells, ((0, 0),), rule,
                                                    cached=False):
            _add_local(rhs, dofs, magnitude * rows[(0, 0)][..., 0])
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

def _side_corner_points(interval):
    a, b = interval
    return {
        ("left", "bottom"): (a, a),
        ("bottom", "right"): (b, a),
        ("right", "top"): (b, b),
        ("top", "left"): (a, b),
    }


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


def _fit_side(space, geo, side, kind, data_fn, constraints):
    """Weighted least-squares fit of one side's "deflection" or (outward)
    "rotation" data.

    Already-constrained trace dofs contribute to the right-hand side; the
    remaining trace dofs become new constraints, one least-squares column
    each, in dof order.
    """
    n = space.num_dofs
    trace = np.zeros(n, dtype=bool)
    trace[_trace_dofs(space, side, 1 if kind == "deflection" else 2)] = True
    fixed = np.zeros(n, dtype=bool)
    fixed[list(constraints)] = True
    known = np.zeros(n)
    known[list(constraints)] = list(constraints.values())
    unknowns = np.flatnonzero(trace & ~fixed)
    if not unknowns.size:
        return
    col = np.full(n, -1)
    col[unknowns] = np.arange(unknowns.size)
    blocks = []
    rhs_blocks = []
    for level, dofs, vals, dn, pts, wts in _side_batches(space, geo, side):
        rows = vals if kind == "deflection" else -dn
        target = _at_points(data_fn, pts, "%s data on side %r, level %d" % (kind, side, level))
        live = dofs >= 0
        given = np.where(live & trace[dofs] & fixed[dofs], known[dofs], 0.0)
        target = target - np.einsum("elq,el->eq", rows, given)
        block = np.zeros(pts.shape[:2] + (unknowns.size,))
        e, l = np.nonzero(live & (col[dofs] >= 0))
        block[e, :, col[dofs[e, l]]] = rows[e, l]
        w = np.sqrt(wts)
        blocks.append((block * w[..., None]).reshape(-1, unknowns.size))
        rhs_blocks.append((target * w).ravel())
    a = np.vstack(blocks)
    b = np.concatenate(rhs_blocks)
    scale = np.abs(b).max() if b.size else 0.0
    if scale <= 1e-14:
        values = np.zeros(unknowns.size)
    else:
        values, *_ = np.linalg.lstsq(a, b, rcond=None)
    constraints.update(zip(unknowns.tolist(), values.tolist()))


def apply_dirichlet(system, space, problem, geo=None):
    """Constrain deflection and rotation dofs from the Dirichlet data.

    Each side is fitted by univariate least squares; corner dofs shared by
    two sides keep the value of the side processed first, which agrees with
    the other side because the data must match at corners (checked to 1e-8).
    """
    geo = geo or GeometryMap.identity()
    constraints = {}
    w_data = {s: _as_fn(d) for s, d in problem.dirichlet_w.items()}
    phi_data = {s: _as_fn(d) for s, d in problem.dirichlet_phi.items()}
    for (s1, s2), pt in _side_corner_points(space.mesh.interval).items():
        if s1 in w_data and s2 in w_data:
            xy = geo.map_points([pt])
            v1, v2 = (float(_at_points(w_data[s], xy, "deflection data on side %r at corner %s"
                                       % (s, pt))[0]) for s in (s1, s2))
            if abs(v1 - v2) > 1e-8 * (1.0 + max(abs(v1), abs(v2))):
                raise BoundaryDataError(
                    "deflection data disagrees at corner %s: %g vs %g" % (pt, v1, v2))
    for side in SIDES:
        if side in w_data:
            _fit_side(space, geo, side, "deflection", w_data[side], constraints)
    for side in SIDES:
        if side in phi_data:
            _fit_side(space, geo, side, "rotation", phi_data[side], constraints)
    return replace(system, constraints=constraints)


# ---------------------------------------------------------------------------
# solve and postprocessing

def _refined_solution(lu, a, b):
    """Solve a x = b from the factor lu of a and check the result.

    Steps of iterative refinement against the factor are taken while the
    residual |b - a x| exceeds 1e-12 |b| and falls, at most 8 of them. The
    result is accepted when its residual is within 1e-10 |b|, or within the
    floor 100 eps (|a| |x| + |b|) below which a double-precision residual
    cannot be measured, with |a| the largest absolute row sum; the floor
    counts only while the growth |a| |x| / |b| stays within 1e13, as in a
    regular solve. A non-finite or unaccepted x raises SolverError.
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
        raise SolverError("solver produced non-finite values")
    anorm = np.abs(a).sum(axis=1).max() if a.nnz else 0.0
    growth = anorm * np.linalg.norm(x) / scale if scale > 0.0 else 0.0
    floor = 100.0 * np.finfo(float).eps * (anorm * np.linalg.norm(x) + scale)
    if scale > 0.0 and resid > max(1e-10 * scale, floor if growth <= 1e13 else 0.0):
        raise SolverError(
            "relative residual %.3e exceeds 1e-10 (n=%d, growth %.1e)"
            % (resid / scale, b.size, growth))
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
        raise SolverError("sparse factorization failed: %s" % exc) from exc
    x[free] = _refined_solution(lu, aff, b[free])
    return DiscreteField(x)


def h2_seminorm_error(field, exact_hessian, space, geo=None):
    """Energy-norm distance sqrt(int |H(u_h) - H_exact|_F^2) by element quadrature."""
    geo = geo or GeometryMap.identity()
    total = 0.0
    for level, cells in _level_cells(space.mesh):
        for sl, ders, wts, pts in _field_batches(space, level, cells, field.coefficients,
                                                 _DERIVATIVES):
            ders, wts, pts = _transform_rows(geo, pts, ders, wts, level, cells[sl])
            exx, exy, eyy = _at_points(exact_hessian, pts, "exact Hessian on level %d" % level)
            total += float(np.sum(wts * ((ders[(2, 0)][:, 0] - exx) ** 2
                                         + 2.0 * (ders[(1, 1)][:, 0] - exy) ** 2
                                         + (ders[(0, 2)][:, 0] - eyy) ** 2)))
    return float(np.sqrt(total))


def evaluate(field, space, geo, points):
    """Field values, gradients and Hessians at parametric points.

    Returns (values (N,), gradients (N, 2), hessians (N, 3)) with the
    Hessian packed as (xx, xy, yy), in physical coordinates.
    """
    geo = geo or GeometryMap.identity()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ders = np.empty((len(_ASSEMBLY_COMBOS), len(pts)))
    owned = {}
    for r, (x, y) in enumerate(pts.tolist()):
        owned.setdefault(space.mesh.locate(x, y), []).append(r)
    for e, at in owned.items():
        # the kernel tabulates the x-by-y grid of a call's points, whose
        # diagonal holds the points, so a call takes at most _EVAL_POINTS
        for part in (at[i:i + _EVAL_POINTS] for i in range(0, len(at), _EVAL_POINTS)):
            cells, rule = _point_rule(space.mesh, e, pts[part, 0], pts[part, 1])
            _, d, _, _ = next(_field_batches(space, e.level, cells, field.coefficients,
                                             _ASSEMBLY_COMBOS, rule, cached=False))
            d = {k: r[..., ::len(part) + 1] for k, r in d.items()}
            d = _transform_rows(geo, pts[part][None], d, np.ones((1, len(part))),
                                e.level, np.array([e[1:]]))[0]
            ders[:, part] = [d[k][0, 0] for k in _ASSEMBLY_COMBOS]
    return ders[0], ders[1:3].T, ders[3:].T
