"""Galerkin assembly and solution of the Kirchhoff plate bending problem.

The bilinear form is the plate energy
``a(u, v) = int D [ (1-nu) H(u):H(v) + nu lap(u) lap(v) ]``; with the default
normalization nu = 0, D = 1 it reduces to the Frobenius product of Hessians.
Quadrature uses one tensor Gauss rule with degree + 2 points per direction
on every active element, for the stiffness, loads, error norms and the
estimator blocks alike.

Element integrals run through one level-batch kernel, :func:`_element_batches`,
which hands out chunks of active elements of one level as arrays (dofs
padded with -1, derivative rows, weights, points), so the stiffness, body
load, energy error and estimator blocks contract a chunk in one product.

Every basis evaluation goes through one tabulation kernel,
:func:`hbplate.splines.tabulate_in_span`, which runs Cox-de Boor over all
points of a span at once. Tables at quadrature points (element Gauss points,
edge points, graded load subcells) are cached on the knot vector of their
level by :meth:`~hbplate.splines.KnotVector.table`; refined meshes share
those knot vectors, so the tables carry over from iteration to iteration,
while a new space starts with none. Values at user points (:func:`evaluate`,
point loads) are tabulated and not kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hierarchy import ElementId, connectivity
from .splines import find_span, tabulate_in_span
# bench/tracer.py counts calls by wrapping this module's names, so they stay
# bound here although nothing in this module calls them any more
from .splines import eval_ders, eval_ders_in_span  # noqa: F401

__all__ = [
    "SIDES",
    "GeometryError",
    "SolverError",
    "BoundaryDataError",
    "GeometryMap",
    "PushForward",
    "PlateProblem",
    "DiscreteField",
    "LinearSystem",
    "QuadRule",
    "quadrature",
    "pushforward2",
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

    def _spline_basis(self, pts, max_der):
        """Control-net blocks (point, i, j, component) and the univariate
        tables (derivative, i, point) in x and y at every point; points
        that share a span are tabulated together."""
        kv, p = self.kv, self.kv.degree
        firsts, tabs = [], []
        for col in pts.T:
            spans = np.array([find_span(kv, x) for x in col], dtype=np.intp)
            tab = np.empty((max(max_der, 2) + 1, p + 1, col.size))
            for span in np.unique(spans):
                sel = spans == span
                tab[:, :, sel] = tabulate_in_span(kv, col[sel], span, max_der)
            firsts.append(spans - p)
            tabs.append(tab)
        local = np.arange(p + 1)
        ix = (firsts[0][:, None] + local)[:, :, None]
        iy = (firsts[1][:, None] + local)[:, None, :]
        return self.control[ix, iy], tabs[0], tabs[1]

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


@dataclass
class PushForward:
    """Transforms parametric gradients/Hessians at one point to physical ones."""

    jacobian: np.ndarray
    geometry_hessian: np.ndarray

    @property
    def jacobian_det(self):
        return float(np.linalg.det(self.jacobian))

    def apply(self, grad, hess):
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        jinv = np.linalg.inv(self.jacobian)
        grad_phys = jinv.T @ grad
        corr = hess - grad_phys[0] * self.geometry_hessian[0] \
            - grad_phys[1] * self.geometry_hessian[1]
        hess_phys = jinv.T @ corr @ jinv
        return grad_phys, hess_phys


def pushforward2(geo, xi):
    """Chain-rule transform of (gradient, Hessian) through the geometry at xi."""
    pt = np.asarray(xi, dtype=float).reshape(1, 2)
    jac = geo.jacobians(pt)[0]
    det = float(np.linalg.det(jac))
    if det <= 0.0 or not np.isfinite(det):
        raise GeometryError("singular geometry Jacobian at %s (det=%g)" % (tuple(xi), det))
    return PushForward(jacobian=jac, geometry_hessian=geo.hessians(pt)[0])


# ---------------------------------------------------------------------------
# quadrature

@lru_cache(maxsize=None)
def _gauss01(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class QuadRule:
    nodes1d: np.ndarray
    weights1d: np.ndarray
    points: np.ndarray
    weights: np.ndarray


def quadrature(p):
    """Tensor Gauss rule with p + 2 points per direction on [0, 1]^2."""
    if p < 3:
        raise ValueError("plate quadrature expects degree >= 3, got %d" % p)
    n = p + 2
    x, w = _gauss01(n)
    pts = np.column_stack([np.repeat(x, n), np.tile(x, n)])
    wts = np.outer(w, w).ravel()
    return QuadRule(nodes1d=x, weights1d=w, points=pts, weights=wts)


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
# element-wise evaluation tables

_ASSEMBLY_COMBOS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_DERIVATIVES = _ASSEMBLY_COMBOS[1:]
_CHUNK_BYTES = 1 << 20  # basis rows held for one chunk of elements


def _element_tables(space, e, xs, ys, max_der, cached=True):
    """Active functions on element e, in connectivity order, and their
    univariate tables (function, derivative, point) at the points xs in x
    and ys in y, taking one-sided limits on e.

    Quadrature points go through the knot vectors' caches; one-off points
    (``cached=False``) are tabulated and dropped.
    """
    mesh, p = space.mesh, space.degree
    funcs = connectivity(mesh, space.basis, e)
    lev = np.array([f.level for f in funcs], dtype=np.intp)
    out = [funcs]
    for cell, pts, index in ((e.ix, xs, [f.ix for f in funcs]), (e.iy, ys, [f.iy for f in funcs])):
        tabs = []
        for k in range(lev[0], e.level + 1):
            kv, span = mesh.knots(k), (cell >> (e.level - k)) + p
            tabs.append(kv.table(pts, span, max_der) if cached
                        else tabulate_in_span(kv, pts, span, max_der))
        out.append(np.stack(tabs)[lev - lev[0], :, np.array(index) - (cell >> (e.level - lev))])
    return out


def _field_ders(space, coeff, e, xs, ys, combos, max_der=2):
    """Parametric derivatives (one row per combo) of the discrete field at
    the points (xs, ys) of element e, taking one-sided limits on e.

    Each point sums its function terms one after another in connectivity
    order, starting from 0.0 (the leading zero row), so the result does not
    depend on which points are batched together.
    """
    funcs, tx, ty = _element_tables(space, e, xs, ys, max_der, cached=False)
    c = coeff[[space.basis.dof_index[f] for f in funcs]][:, None]
    terms = np.zeros((len(combos), len(funcs) + 1, len(xs)))
    for r, (dx, dy) in enumerate(combos):
        terms[r, 1:] = c * tx[:, dx] * ty[:, dy]
    return np.add.accumulate(terms, axis=1)[:, -1]


def _level_cells(mesh, skip=frozenset()):
    """(level, cells) for every level with active elements not in skip:
    their cell indices as an (E, 2) array in (ix, iy) order."""
    for l in range(mesh.num_levels):
        cells = [c for c in sorted(mesh.active_level(l)) if (l,) + c not in skip]
        if cells:
            yield l, np.array(cells, dtype=np.int64)


def _element_batches(space, level, cells, combos):
    """The level-batch kernel: active basis functions and their rows on
    chunks of active elements of one level, given by their (E, 2) cells.

    Yields (sl, dofs, rows, wts, pts) for each chunk ``cells[sl]`` of e
    elements. dofs (e, nloc) lists each element's active functions in
    connectivity order, padded with -1; rows maps each combo (dx, dy) to
    parametric derivative rows (e, nloc, nq), exactly zero on padded slots;
    wts (e, nq) and pts (e, nq, 2) are the tensor Gauss rule (x-major) of
    p + 2 points per direction. Functions come from the basis's dof lookup
    per level, and rows from the tables cached on each level's knot vector,
    gathered per active slot; a chunk's rows fill at most _CHUNK_BYTES.
    """
    mesh, basis, p = space.mesh, space.basis, space.degree
    nodes, w1 = _gauss01(p + 2)
    h, a = mesh.h(level), mesh.interval[0]
    loc = np.arange(p + 1)
    levels, slot_dofs = [], []
    for k in range(level + 1):
        ax, ay = (cells >> (level - k)).T
        d = basis.level_dofs(k, ax[:, None, None] + loc[:, None], ay[:, None, None] + loc)
        if (d >= 0).any():
            levels.append(k)
            slot_dofs.append(d.reshape(len(cells), -1))
    # slots run over (level, i, j) as connectivity does; a stable sort puts
    # the active ones first, in that order, and the inactive (-1) after them
    slot_dofs = np.concatenate(slot_dofs, axis=1)
    order = np.argsort(slot_dofs < 0, axis=1, kind="stable")
    count = (slot_dofs >= 0).sum(axis=1)
    ucells, where = np.unique(cells, return_inverse=True)
    where = where.reshape(cells.shape)
    max_der = max(max(c) for c in combos)
    tabs = np.array([[mesh.knots(k).table(a + (c + nodes) * h, (c >> (level - k)) + p, max_der)
                      for k in levels] for c in ucells])
    cdx = [c[0] for c in combos]
    cdy = [c[1] for c in combos]
    w = np.outer(w1, w1).ravel() * (h * h)
    step = max(1, _CHUNK_BYTES // (8 * len(combos) * int(count.max()) * w.size))
    for start in range(0, len(cells), step):
        sl = slice(start, start + step)
        nloc = int(count[sl].max())
        slot = order[sl, :nloc]
        dofs = np.take_along_axis(slot_dofs[sl], slot, axis=1)
        k, i, j = np.unravel_index(slot, (len(levels), p + 1, p + 1))
        tx = tabs[where[sl, 0, None], k, :, i][:, :, cdx]
        ty = tabs[where[sl, 1, None], k, :, j][:, :, cdy]
        tx[dofs < 0] = 0.0
        rows = (np.moveaxis(tx, 2, 0)[..., :, None] * np.moveaxis(ty, 2, 0)[..., None, :])
        e = len(dofs)
        xs = a + (cells[sl, 0, None] + nodes) * h
        ys = a + (cells[sl, 1, None] + nodes) * h
        pts = np.stack([np.repeat(xs, nodes.size, axis=1), np.tile(ys, nodes.size)], axis=-1)
        yield (sl, dofs, dict(zip(combos, rows.reshape(len(combos), e, nloc, -1))),
               np.broadcast_to(w, (e, w.size)), pts)


def _field_rows(coeff, dofs, rows):
    """Derivative rows (e, 1, nq) of the discrete field with coefficients
    coeff, from a chunk's dofs and basis rows."""
    c = np.where(dofs >= 0, coeff[dofs], 0.0)
    return {k: np.einsum("elq,el->eq", r, c)[:, None] for k, r in rows.items()}


def _at_points(fn, pts):
    """fn(x, y) called once on the flattened points (..., 2); each returned
    value comes back in the points' shape."""
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    out = fn(x, y)

    def shaped(v):
        return np.broadcast_to(np.asarray(v, dtype=float), x.shape).reshape(pts.shape[:-1])
    return tuple(map(shaped, out)) if isinstance(out, tuple) else shaped(out)


def _transform_rows(geo, pts, rows, wts):
    """Push parametric derivative rows (e, n, nq) at the points (e, nq, 2)
    to physical ones; scales the weights (e, nq) and maps the points."""
    if geo.is_identity:
        return rows, wts, pts
    flat = pts.reshape(-1, 2)
    jac = geo.jacobians(flat)
    det = np.linalg.det(jac)
    if np.any(det <= 0.0):
        raise GeometryError("geometry Jacobian is singular on an element")
    shape = pts.shape[:2]
    jinv = np.linalg.inv(jac).reshape(shape + (2, 2))[:, None]
    out = dict(rows)
    if (1, 0) in rows:
        gx, gy = rows[(1, 0)], rows[(0, 1)]
        # grad_phys_a = sum_b Jinv[q, b, a] grad_par_b
        px = jinv[..., 0, 0] * gx + jinv[..., 1, 0] * gy
        py = jinv[..., 0, 1] * gx + jinv[..., 1, 1] * gy
        out[(1, 0)], out[(0, 1)] = px, py
    if (2, 0) in rows:
        hg = geo.hessians(flat).reshape(shape + (2, 2, 2))[:, None]
        cxx = rows[(2, 0)] - px * hg[..., 0, 0, 0] - py * hg[..., 1, 0, 0]
        cxy = rows[(1, 1)] - px * hg[..., 0, 0, 1] - py * hg[..., 1, 0, 1]
        cyy = rows[(0, 2)] - px * hg[..., 0, 1, 1] - py * hg[..., 1, 1, 1]
        # H_phys = Jinv^T C Jinv, per point
        a, b, c, d = jinv[..., 0, 0], jinv[..., 0, 1], jinv[..., 1, 0], jinv[..., 1, 1]
        out[(2, 0)] = a * (a * cxx + c * cxy) + c * (a * cxy + c * cyy)
        out[(1, 1)] = b * (a * cxx + c * cxy) + d * (a * cxy + c * cyy)
        out[(0, 2)] = b * (b * cxx + d * cxy) + d * (b * cxy + d * cyy)
    return out, wts * det.reshape(shape), geo.map_points(flat).reshape(pts.shape)


def _energy_terms(rows, wts, poisson):
    """Hessian rows (e, n, nq) laid side by side as (e, n, k nq), with
    weights (e, k nq), so that the plate energy of two function sets is
    the stiffness times (terms * weights) @ terms^T."""
    hxx, hxy, hyy = rows[(2, 0)], rows[(1, 1)], rows[(0, 2)]
    terms = [hxx, hxy, hyy]
    scales = [1.0 - poisson, 2.0 * (1.0 - poisson), 1.0 - poisson]
    if poisson != 0.0:
        terms.append(hxx + hyy)
        scales.append(poisson)
    return (np.concatenate(terms, axis=-1),
            np.concatenate([s * wts for s in scales], axis=-1))


def assemble_stiffness(space, geo, problem):
    """Sparse symmetric plate stiffness matrix over the active basis: one
    stacked product per kernel chunk, summed into CSR (int32 indices) at
    the end of each level and whenever 1M entries are pending."""
    n = space.num_dofs

    def summed(parts):
        i, j, v = (np.concatenate(x) for x in zip(*parts))
        return sp.csr_matrix((v, (i, j)), shape=(n, n))

    mat = sp.csr_matrix((n, n))
    for level, cells in _level_cells(space.mesh):
        parts, pending = [], 0
        for _, dofs, rows, wts, pts in _element_batches(space, level, cells, _DERIVATIVES):
            rows, wts, _ = _transform_rows(geo, pts, rows, wts)
            terms, w = _energy_terms(rows, wts, problem.poisson)
            aloc = problem.stiffness * ((terms * w[:, None]) @ terms.swapaxes(1, 2))
            pair = (dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0)
            idx = dofs.astype(np.int32)
            parts.append((np.broadcast_to(idx[:, :, None], aloc.shape)[pair],
                          np.broadcast_to(idx[:, None, :], aloc.shape)[pair], aloc[pair]))
            pending += parts[-1][2].size
            if pending > 1_000_000:
                mat, parts, pending = mat + summed(parts), [], 0
        if parts:
            mat = mat + summed(parts)
    return mat


# ---------------------------------------------------------------------------
# boundary edges

def _boundary_cells(mesh, side):
    """Active elements with an edge on one side of the domain, by level and
    then along the side; each level reads only its boundary row or column."""
    out = []
    for l in range(mesh.num_levels):
        act = mesh.active_level(l)
        nel = mesh.n_elements_1d(l)
        edge = 0 if side in ("left", "bottom") else nel - 1
        for t in range(nel):
            cell = (edge, t) if side in ("left", "right") else (t, edge)
            if cell in act:
                out.append(ElementId(l, *cell))
    return out


_SIDE_NORMAL = {"left": (-1.0, 0.0), "right": (1.0, 0.0),
                "bottom": (0.0, -1.0), "top": (0.0, 1.0)}


def _edge_basis_rows(space, geo, e, side):
    """Values and outward-normal derivatives of the active functions on the
    edge of element e lying on a domain side.

    Returns (funcs, values (nloc, nq), dn (nloc, nq), physical points,
    arc-length weights).
    """
    nq1 = space.degree + 2
    nodes, w1 = _gauss01(nq1)
    x0, y0, x1, y1 = space.mesh.element_rect(e)
    if side in ("left", "right"):
        xb = x0 if side == "left" else x1
        ts = y0 + (y1 - y0) * nodes
        pts = np.column_stack([np.full(nq1, xb), ts])
        h_t = y1 - y0
    else:
        yb = y0 if side == "bottom" else y1
        ts = x0 + (x1 - x0) * nodes
        pts = np.column_stack([ts, np.full(nq1, yb)])
        h_t = x1 - x0
    funcs, tx, ty = _element_tables(space, e, pts[:, 0], pts[:, 1], 1)
    vals = tx[:, 0] * ty[:, 0]
    gx = tx[:, 1] * ty[:, 0]
    gy = tx[:, 0] * ty[:, 1]
    dn, pts_phys, wts = _edge_transform(geo, pts, side, h_t, w1, gx, gy)
    return funcs, vals, dn, pts_phys, wts


def _edge_transform(geo, pts, side, h_t, w1, gx, gy):
    """Outward-normal derivative rows, physical points and arc weights along
    one edge, from parametric gradient rows (n, nq) at its points."""
    normals = np.broadcast_to(_SIDE_NORMAL[side], pts.shape)
    wts = w1 * h_t
    if not geo.is_identity:
        jac = geo.jacobians(pts)
        arc = np.linalg.norm(jac @ np.abs(normals[0, ::-1]), axis=1)
        normals = np.einsum("qba,qb->qa", np.linalg.inv(jac), normals)
        norms = np.linalg.norm(normals, axis=1)
        if np.any(norms <= 0.0) or np.any(arc <= 0.0):
            raise GeometryError("degenerate geometry along boundary side %r" % side)
        normals, wts = normals / norms[:, None], wts * arc
    grad, _, pts_phys = _transform_rows(
        geo, pts[None], {(1, 0): gx[None], (0, 1): gy[None]}, wts[None])
    return grad[(1, 0)][0] * normals[:, 0] + grad[(0, 1)][0] * normals[:, 1], pts_phys[0], wts


# ---------------------------------------------------------------------------
# load vector

def _graded_breaks(rect, sides, ratio=0.15, n_strips=4):
    """Strip breaks (x, y) of an element, graded geometrically toward the
    listed domain sides; the subrectangles are their tensor product."""
    x0, y0, x1, y1 = rect
    def breaks(lo, hi, toward_lo):
        fr = [0.0] + [ratio ** (n_strips - i) for i in range(1, n_strips)] + [1.0]
        fr = np.array(fr)
        if not toward_lo:
            fr = 1.0 - fr[::-1]
        return lo + (hi - lo) * fr
    bx = np.array([x0, x1])
    by = np.array([y0, y1])
    if "left" in sides:
        bx = breaks(x0, x1, True)
    elif "right" in sides:
        bx = breaks(x0, x1, False)
    if "bottom" in sides:
        by = breaks(y0, y1, True)
    elif "top" in sides:
        by = breaks(y0, y1, False)
    return bx, by


def _graded_element_load(space, geo, e, grading, gfun, nodes, w1, rhs):
    """Body load of one element integrated over its graded subrectangles.

    Connectivity and dof indices are found once per element, and all
    strips are tabulated at once; subrectangles are added to rhs one at a
    time.
    """
    bx, by = _graded_breaks(space.mesh.element_rect(e), grading)
    nq1 = nodes.size
    xs = [bx[i] + (bx[i + 1] - bx[i]) * nodes for i in range(len(bx) - 1)]
    ys = [by[j] + (by[j + 1] - by[j]) * nodes for j in range(len(by) - 1)]
    funcs, tx, ty = _element_tables(space, e, np.concatenate(xs), np.concatenate(ys), 0)
    idx = [space.basis.dof_index[f] for f in funcs]
    tx = tx[:, 0].reshape(len(funcs), len(xs), nq1)
    ty = ty[:, 0].reshape(len(funcs), len(ys), nq1)
    for i in range(len(xs)):
        for j in range(len(ys)):
            vals = (tx[:, i, :, None] * ty[:, j, None, :]).reshape(len(funcs), -1)
            pts = np.column_stack([np.repeat(xs[i], nq1), np.tile(ys[j], nq1)])
            wts = np.outer(w1, w1).ravel() * (bx[i + 1] - bx[i]) * (by[j + 1] - by[j])
            _, wts, pts = _transform_rows(geo, pts[None], {}, wts[None])
            rhs[idx] += vals @ (wts[0] * gfun(pts[0, :, 0], pts[0, :, 1]))


def assemble_load(space, geo, problem):
    """Right-hand side: body load (over graded subcells on graded sides,
    else by the level-batch kernel), natural boundary terms, point loads."""
    dof = space.basis.dof_index
    rhs = np.zeros(space.num_dofs)
    gfun = _as_fn(problem.g)
    if gfun is not None:
        graded = {}
        for side in problem.load_grading:
            for e in _boundary_cells(space.mesh, side):
                graded.setdefault(e, []).append(side)
        nodes, w1 = _gauss01(space.degree + 2)
        for e, sides in graded.items():
            _graded_element_load(space, geo, e, sides, gfun, nodes, w1, rhs)
        for level, cells in _level_cells(space.mesh, skip=graded):
            for _, dofs, rows, wts, pts in _element_batches(space, level, cells, ((0, 0),)):
                rows, wts, pts = _transform_rows(geo, pts, rows, wts)
                loc = np.einsum("elq,eq->el", rows[(0, 0)], wts * _at_points(gfun, pts))
                rhs += np.bincount(dofs[dofs >= 0], loc[dofs >= 0], minlength=rhs.size)
    for side, data in problem.neumann_M.items():
        fn = _as_fn(data)
        for e in _boundary_cells(space.mesh, side):
            funcs, _, dn, pts, wts = _edge_basis_rows(space, geo, e, side)
            mv = fn(pts[:, 0], pts[:, 1])
            idx = [dof[f] for f in funcs]
            rhs[idx] += dn @ (wts * mv)
    for side, data in problem.neumann_Q.items():
        fn = _as_fn(data)
        for e in _boundary_cells(space.mesh, side):
            funcs, vals, _, pts, wts = _edge_basis_rows(space, geo, e, side)
            qv = fn(pts[:, 0], pts[:, 1])
            idx = [dof[f] for f in funcs]
            rhs[idx] += vals @ (wts * qv)
    for (pt, magnitude) in problem.point_loads:
        funcs, vals = _point_values(space, pt)
        idx = [dof[f] for f in funcs]
        rhs[idx] += magnitude * vals
    return rhs


def _point_values(space, pt):
    mesh = space.mesh
    e = mesh.locate(pt[0], pt[1])
    funcs, tx, ty = _element_tables(space, e, [pt[0]], [pt[1]], 0, cached=False)
    return funcs, tx[:, 0, 0] * ty[:, 0, 0]


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


def _value_trace_funcs(space, side):
    """Active functions with a nonzero deflection trace on the side."""
    out = []
    for f in space.basis.active:
        n = space.mesh.knots(f.level).num_basis
        if ((side == "left" and f.ix == 0) or (side == "right" and f.ix == n - 1)
                or (side == "bottom" and f.iy == 0) or (side == "top" and f.iy == n - 1)):
            out.append(f)
    return out


def _rotation_trace_funcs(space, side):
    """Active functions with a nonzero normal-derivative trace on the side."""
    out = []
    for f in space.basis.active:
        n = space.mesh.knots(f.level).num_basis
        if ((side == "left" and f.ix <= 1) or (side == "right" and f.ix >= n - 2)
                or (side == "bottom" and f.iy <= 1) or (side == "top" and f.iy >= n - 2)):
            out.append(f)
    return out


def _fit_side(space, geo, side, rows_kind, data_fn, constraints):
    """Weighted least-squares fit of one side's boundary data.

    Already-constrained dofs contribute to the right-hand side; remaining
    trace dofs become new constraints. rows_kind selects the deflection
    trace ("value") or the outward rotation trace ("rotation").
    """
    if rows_kind == "value":
        wanted = set(_value_trace_funcs(space, side))
    else:
        wanted = set(_rotation_trace_funcs(space, side))
    if not wanted:
        return
    unknowns = sorted(f for f in wanted if space.basis.dof_index[f] not in constraints)
    if not unknowns:
        return
    col = {f: c for c, f in enumerate(unknowns)}
    blocks = []
    rhs_blocks = []
    for e in _boundary_cells(space.mesh, side):
        funcs, vals, dn, pts, wts = _edge_basis_rows(space, geo, e, side)
        rows = vals if rows_kind == "value" else -dn
        target = data_fn(pts[:, 0], pts[:, 1]).astype(float)
        w = np.sqrt(wts)
        block = np.zeros((pts.shape[0], len(unknowns)))
        for r, f in enumerate(funcs):
            if f not in wanted:
                continue
            d = space.basis.dof_index[f]
            if d in constraints:
                target = target - constraints[d] * rows[r]
            else:
                block[:, col[f]] += rows[r]
        blocks.append(block * w[:, None])
        rhs_blocks.append(target * w)
    a = np.vstack(blocks)
    b = np.concatenate(rhs_blocks)
    scale = np.abs(b).max() if b.size else 0.0
    if scale <= 1e-14:
        values = np.zeros(len(unknowns))
    else:
        values, *_ = np.linalg.lstsq(a, b, rcond=None)
    for f, v in zip(unknowns, values):
        constraints[space.basis.dof_index[f]] = float(v)


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
            x, y = geo.map_points([pt])[0]
            v1 = float(np.asarray(w_data[s1](np.array([x]), np.array([y])))[0])
            v2 = float(np.asarray(w_data[s2](np.array([x]), np.array([y])))[0])
            if abs(v1 - v2) > 1e-8 * (1.0 + max(abs(v1), abs(v2))):
                raise BoundaryDataError(
                    "deflection data disagrees at corner %s: %g vs %g" % (pt, v1, v2))
    for side in SIDES:
        if side in w_data:
            _fit_side(space, geo, side, "value", w_data[side], constraints)
    for side in SIDES:
        if side in phi_data:
            _fit_side(space, geo, side, "rotation", phi_data[side], constraints)
    return replace(system, constraints=constraints)


# ---------------------------------------------------------------------------
# solve and postprocessing

def solve(system):
    """Direct sparse solve of the constrained system.

    Constraints are eliminated symmetrically; one step of iterative
    refinement keeps the relative residual within 1e-10.
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
    bf = b[free]
    try:
        # the free block is SPD: a symmetric minimum-degree ordering on the
        # diagonal keeps fill low without pivoting
        lu = spla.splu(aff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        xf = lu.solve(bf)
        scale = np.linalg.norm(bf)
        resid = np.linalg.norm(bf - aff @ xf)
        for _ in range(8):  # iterative refinement against the LU factor
            if resid <= 1e-12 * max(scale, 1e-300):
                break
            better = xf + lu.solve(bf - aff @ xf)
            resid_better = np.linalg.norm(bf - aff @ better)
            if resid_better >= resid:
                break
            xf, resid = better, resid_better
    except RuntimeError as exc:
        raise SolverError("sparse factorization failed: %s" % exc) from exc
    if not np.all(np.isfinite(xf)):
        raise SolverError("solver produced non-finite values")
    # measuring the residual in double precision is itself limited by
    # eps * (|A| |x| + |b|); accept solutions at that backward-error floor,
    # but only while the solution growth stays consistent with a regular solve
    anorm = np.abs(aff).sum(axis=1).max() if aff.nnz else 0.0
    growth = anorm * np.linalg.norm(xf) / scale if scale > 0.0 else 0.0
    floor = 100.0 * np.finfo(float).eps * (anorm * np.linalg.norm(xf) + scale)
    acceptable = max(1e-10 * scale, floor if growth <= 1e13 else 0.0)
    if scale > 0.0 and resid > acceptable:
        raise SolverError(
            "relative residual %.3e exceeds 1e-10 (n=%d, growth %.1e)"
            % (resid / scale, free.size, growth))
    x[free] = xf
    return DiscreteField(x)


def h2_seminorm_error(field, exact_hessian, space, geo=None):
    """Energy-norm distance sqrt(int |H(u_h) - H_exact|_F^2) by element quadrature."""
    geo = geo or GeometryMap.identity()
    total = 0.0
    for level, cells in _level_cells(space.mesh):
        for _, dofs, rows, wts, pts in _element_batches(space, level, cells, _DERIVATIVES):
            ders, wts, pts = _transform_rows(
                geo, pts, _field_rows(field.coefficients, dofs, rows), wts)
            exx, exy, eyy = _at_points(exact_hessian, pts)
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
    owned = {}
    for r, (x, y) in enumerate(pts):
        owned.setdefault(space.mesh.locate(x, y), []).append(r)
    ders = np.empty((len(_ASSEMBLY_COMBOS), pts.shape[0]))
    for e, rs in owned.items():
        ders[:, rs] = _field_ders(space, field.coefficients, e, pts[rs, 0], pts[rs, 1],
                                  _ASSEMBLY_COMBOS)
    rows = {k: d[None, None] for k, d in zip(_ASSEMBLY_COMBOS, ders)}
    d = _transform_rows(geo, pts[None], rows, np.ones((1, len(pts))))[0]
    return (d[(0, 0)][0, 0], np.column_stack([d[k][0, 0] for k in _DERIVATIVES[:2]]),
            np.column_stack([d[k][0, 0] for k in _DERIVATIVES[2:]]))
