"""Element-local error estimation for the plate solver.

The primary estimator solves, level by level, tiny independent systems in a
space of degree p+1 Bernstein bubbles supported on single active elements
(value and gradient vanish on the element boundary, so the global system is
block diagonal by construction). Natural-boundary sides get extra bubbles
that are rotation-active (moment sides) or value-active (shear sides) on
the boundary, to pick up the error in the natural data.

A classical strong-residual estimator with interior and edge-jump terms is
provided for comparison; it needs fourth derivatives of the discrete
solution and a regularized representation of point loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .assembly import (
    GeometryMap,
    _ElementEvaluator,
    _edge_transform,
    _element_touches_side,
    _field_ders,
    _gauss01,
    _local_stiffness,
    _transform_rows,
    _as_fn,
)
from .hierarchy import ElementId
from .splines import eval_bernstein_ders
# bench/tracer.py counts calls by wrapping this module's names, so the name
# stays bound here although nothing in this module calls it any more
from .splines import eval_ders_in_span  # noqa: F401

__all__ = [
    "BubbleSpace",
    "BubbleBlock",
    "ElementEstimate",
    "EffectivityReport",
    "natural_boundary_sides",
    "build_bubble_space",
    "assemble_blocks",
    "solve_blocks",
    "eta_elements",
    "estimate",
    "residual_estimator",
    "effectivity",
]


@dataclass
class BubbleSpace:
    """Per-element Bernstein index pairs of the enrichment space."""

    degree: int
    per_element: dict


@dataclass
class BubbleBlock:
    element: ElementId
    indices: list
    matrix: np.ndarray
    rhs: np.ndarray
    coeffs: np.ndarray = None


@dataclass
class ElementEstimate:
    element: ElementId
    eta: float


@dataclass
class EffectivityReport:
    eta_total: float
    error: float
    theta: float


def natural_boundary_sides(problem):
    """Map each natural-boundary side to its kinds ('moment' / 'shear')."""
    out = {}
    for side in problem.neumann_M:
        out.setdefault(side, set()).add("moment")
    for side in problem.neumann_Q:
        out.setdefault(side, set()).add("shear")
    return out


def _side_indices(side, kinds, q):
    """Boundary-active Bernstein indices added for one side.

    Moment sides use the rotation-active function (zero value, nonzero
    normal slope at the boundary); shear sides use the value-active one.
    """
    low = side in ("left", "bottom")
    idx = []
    if "moment" in kinds:
        idx.append(1 if low else q - 1)
    if "shear" in kinds:
        idx.append(0 if low else q)
    return idx


def build_bubble_space(mesh, p, neumann_sides=None):
    """Bubble index pairs of degree p+1 for every active element.

    Interior bubbles use indices {2, ..., q-2} in both directions; elements
    with an edge on a natural-boundary side additionally get boundary
    bubbles pairing a boundary-active index with interior indices in the
    other direction.
    """
    if p < 3:
        raise ValueError("bubble space needs degree >= 3, got %d" % p)
    q = p + 1
    interior = list(range(2, q - 1))
    neumann_sides = neumann_sides or {}
    per_element = {}
    for e in mesh.active_elements():
        pairs = [(i, j) for i in interior for j in interior]
        for side, kinds in neumann_sides.items():
            if not _element_touches_side(mesh, e, side):
                continue
            for b in _side_indices(side, kinds, q):
                if side in ("left", "right"):
                    pairs.extend((b, j) for j in interior)
                else:
                    pairs.extend((i, b) for i in interior)
        per_element[e] = pairs
    return BubbleSpace(degree=q, per_element=per_element)


@lru_cache(maxsize=None)
def _bernstein_table(q, nq1, max_der=2):
    """Bernstein values/derivatives of degree q at the Gauss nodes on [0, 1]."""
    nodes, _ = _gauss01(nq1)
    tab = np.empty((max_der + 1, q + 1, nq1))
    for k, t in enumerate(nodes):
        tab[:, :, k] = eval_bernstein_ders(q, t, max_der).ders[: max_der + 1]
    return tab


@lru_cache(maxsize=None)
def _bernstein_end(q, at_one):
    ev = eval_bernstein_ders(q, 1.0 if at_one else 0.0, 1)
    return ev.ders[0].copy(), ev.ders[1].copy()


def _bubble_rows(bubbles, e, h, nq1):
    """Parametric derivative rows of the element's bubbles at quad points."""
    q = bubbles.degree
    tab = _bernstein_table(q, nq1)
    pairs = bubbles.per_element[e]
    ii = np.array([i for i, _ in pairs], dtype=int)
    jj = np.array([j for _, j in pairs], dtype=int)
    rows = {}
    for (dx, dy) in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        scale = h ** (-(dx + dy))
        rows[(dx, dy)] = scale * np.einsum(
            "bq,br->bqr", tab[dx][ii], tab[dy][jj]).reshape(len(pairs), -1)
    return pairs, rows


def _bubble_edge_terms(bubbles, e, side, rect, problem, geo, rhs):
    """Add natural-boundary data integrals to the bubble right-hand side."""
    q = bubbles.degree
    pairs = bubbles.per_element[e]
    x0, y0, x1, y1 = rect
    h = x1 - x0
    nq1 = len(_gauss01(q + 1)[0])
    nodes, w1 = _gauss01(nq1)
    tab = _bernstein_table(q, nq1)
    at_one = side in ("right", "top")
    vend, dend = _bernstein_end(q, at_one)
    if side in ("left", "right"):
        xb = x0 if side == "left" else x1
        pts = np.column_stack([np.full(nq1, xb), y0 + h * nodes])
        perp = np.array([i for i, _ in pairs])
        tang = np.array([j for _, j in pairs])
    else:
        yb = y0 if side == "bottom" else y1
        pts = np.column_stack([x0 + h * nodes, np.full(nq1, yb)])
        perp = np.array([j for _, j in pairs])
        tang = np.array([i for i, _ in pairs])
    vals = vend[perp][:, None] * tab[0][tang]
    dperp = (dend[perp] / h)[:, None] * tab[0][tang]
    dtang = vend[perp][:, None] * (tab[1][tang] / h)
    if side in ("left", "right"):
        gx, gy = dperp, dtang
    else:
        gx, gy = dtang, dperp
    dn, pts_phys, wts = _edge_transform(geo, pts, side, h, w1, gx, gy)
    mdata = problem.neumann_M.get(side)
    if mdata is not None:
        mv = _as_fn(mdata)(pts_phys[:, 0], pts_phys[:, 1])
        rhs += dn @ (wts * np.asarray(mv, dtype=float))
    qdata = problem.neumann_Q.get(side)
    if qdata is not None:
        qv = _as_fn(qdata)(pts_phys[:, 0], pts_phys[:, 1])
        rhs += vals @ (wts * np.asarray(qv, dtype=float))


def assemble_blocks(bubbles, u_h, space, geo, problem, elements=None):
    """Independent residual systems, one dense block per active element."""
    geo = geo or GeometryMap.identity()
    mesh = space.mesh
    ev = _ElementEvaluator(space)
    dof = space.basis.dof_index
    coeff = u_h.coefficients
    gfun = _as_fn(problem.g)
    d_const = problem.stiffness
    nu = problem.poisson
    owners = {}
    for (pt, magnitude) in problem.point_loads:
        owners.setdefault(mesh.locate(pt[0], pt[1]), []).append((pt, magnitude))
    if elements is None:
        elements = mesh.active_elements()
    blocks = []
    for e in elements:
        rect = mesh.element_rect(e)
        h = rect[2] - rect[0]
        pairs, rows = _bubble_rows(bubbles, e, h, ev.nq1)
        pts, wts = ev.element_points(e)
        rows, bwts, pts_phys = _transform_rows(geo, pts, rows, wts)
        amat = _local_stiffness(rows, bwts, d_const, nu)
        rhs = np.zeros(len(pairs))
        if gfun is not None:
            gv = np.asarray(gfun(pts_phys[:, 0], pts_phys[:, 1]), dtype=float)
            rhs += rows[(0, 0)] @ (bwts * gv)
        # residual of the discrete solution against each bubble
        funcs, urows = ev.element_rows(e)
        urows, uwts, _ = _transform_rows(geo, pts, urows, wts)
        c = coeff[[dof[f] for f in funcs]]
        hxx = c @ urows[(2, 0)]
        hxy = c @ urows[(1, 1)]
        hyy = c @ urows[(0, 2)]
        pair_e = (rows[(2, 0)] @ (uwts * hxx) + 2.0 * (rows[(1, 1)] @ (uwts * hxy))
                  + rows[(0, 2)] @ (uwts * hyy))
        if nu != 0.0:
            lap_u = hxx + hyy
            lap_b = rows[(2, 0)] + rows[(0, 2)]
            pair_e = (1.0 - nu) * pair_e + nu * (lap_b @ (uwts * lap_u))
        rhs -= d_const * pair_e
        for side in ("left", "bottom", "right", "top"):
            if (side in problem.neumann_M or side in problem.neumann_Q) \
                    and _element_touches_side(mesh, e, side):
                _bubble_edge_terms(bubbles, e, side, rect, problem, geo, rhs)
        for (pt, magnitude) in owners.get(e, ()):
            tx = (pt[0] - rect[0]) / h
            ty = (pt[1] - rect[1]) / h
            bx = eval_bernstein_ders(bubbles.degree, tx, 0).values
            by = eval_bernstein_ders(bubbles.degree, ty, 0).values
            for k, (i, j) in enumerate(pairs):
                rhs[k] += magnitude * bx[i] * by[j]
        blocks.append(BubbleBlock(element=e, indices=list(pairs), matrix=amat, rhs=rhs))
    return blocks


def solve_blocks(blocks):
    """Solve every block by dense Cholesky; blocks must be SPD."""
    for blk in blocks:
        if blk.matrix.size == 0:
            blk.coeffs = np.zeros(0)
            continue
        try:
            cho = scipy.linalg.cho_factor(blk.matrix)
            blk.coeffs = scipy.linalg.cho_solve(cho, blk.rhs)
        except scipy.linalg.LinAlgError as exc:
            raise RuntimeError(
                "bubble block on %s is not SPD (assembly bug): %s"
                % (blk.element, exc)) from exc
        resid = np.linalg.norm(blk.matrix @ blk.coeffs - blk.rhs)
        scale = np.linalg.norm(blk.rhs)
        if scale > 0.0 and resid > 1e-12 * scale:
            blk.coeffs = blk.coeffs + scipy.linalg.cho_solve(cho, blk.rhs - blk.matrix @ blk.coeffs)
    return blocks


def eta_elements(blocks, calibration=3.0):
    """Element indicators: calibration times the local energy norm."""
    out = []
    for blk in blocks:
        if blk.coeffs is None:
            raise ValueError("blocks must be solved before computing indicators")
        energy = float(blk.coeffs @ blk.matrix @ blk.coeffs) if blk.coeffs.size else 0.0
        out.append(ElementEstimate(element=blk.element,
                                   eta=calibration * math.sqrt(max(energy, 0.0))))
    return out


def estimate(u_h, space, problem, geo=None, calibration=3.0):
    """Bubble estimate of the energy error, processed level by level.

    Blocks are independent across elements, so the level-wise sweep returns
    the same indicators as any other processing order.
    """
    geo = geo or GeometryMap.identity()
    mesh = space.mesh
    bubbles = build_bubble_space(mesh, space.degree, natural_boundary_sides(problem))
    estimates = []
    for level in range(mesh.num_levels):
        elems = [ElementId(level, i, j) for (i, j) in sorted(mesh.active_level(level))]
        if not elems:
            continue
        blocks = assemble_blocks(bubbles, u_h, space, geo, problem, elements=elems)
        solve_blocks(blocks)
        estimates.extend(eta_elements(blocks, calibration))
    eta_total = math.sqrt(sum(est.eta**2 for est in estimates))
    return estimates, eta_total


def effectivity(estimates, exact_error):
    """Ratio of the estimated total to the true energy error."""
    if not exact_error > 0.0:
        raise ValueError("effectivity undefined for zero exact error")
    if isinstance(estimates, (int, float)):
        eta_total = float(estimates)
    else:
        eta_total = math.sqrt(sum(est.eta**2 for est in estimates))
    return EffectivityReport(eta_total=eta_total, error=float(exact_error),
                             theta=eta_total / float(exact_error))


# ---------------------------------------------------------------------------
# strong-residual comparator

def _gaussian_load(pt, magnitude, sigma):
    x0, y0 = pt
    def fn(x, y):
        r2 = (x - x0) ** 2 + (y - y0) ** 2
        return magnitude / (2.0 * np.pi * sigma**2) * np.exp(-r2 / (2.0 * sigma**2))
    return fn


def _edge_neighbor_pieces(mesh, e, side):
    """Active elements across one edge with the shared tangential interval.

    Returns [] for edges on the domain boundary. Pieces are found with
    exact integer index arithmetic across all levels.
    """
    l = e.level
    nel = mesh.n_elements_1d(l)
    a = mesh.interval[0]
    vertical = side in ("left", "right")
    if vertical:
        line = e.ix if side == "left" else e.ix + 1
        t_lo, t_hi = e.iy, e.iy + 1
    else:
        line = e.iy if side == "bottom" else e.iy + 1
        t_lo, t_hi = e.ix, e.ix + 1
    if line == 0 or line == nel:
        return []
    pieces = []
    h_l = mesh.h(l)
    for lp in range(mesh.num_levels):
        act = mesh.active_level(lp)
        if not act:
            continue
        if lp >= l:
            f = 1 << (lp - l)
            col = line * f if side in ("right", "top") else line * f - 1
            for row in range(t_lo * f, t_hi * f):
                cell = (col, row) if vertical else (row, col)
                if cell in act:
                    hp = mesh.h(lp)
                    pieces.append((ElementId(lp, cell[0], cell[1]),
                                   a + row * hp, a + (row + 1) * hp))
        else:
            f = 1 << (l - lp)
            if line % f:
                continue
            col = line // f if side in ("right", "top") else line // f - 1
            row = t_lo // f
            cell = (col, row) if vertical else (row, col)
            if cell in act:
                pieces.append((ElementId(lp, cell[0], cell[1]),
                               a + t_lo * h_l, a + t_hi * h_l))
    return pieces


def residual_estimator(u_h, space, problem, point_load_sigma=None, geo=None):
    """Classical strong-residual indicators for the biharmonic problem.

    Interior term h^4 ||g - D lap^2 u_h||^2 plus half of the edge jumps of
    lap(u_h) (weight h) and of its normal derivative (weight h^3) on each
    interior edge. Point loads enter through a Gaussian regularization with
    width tied to the containing element.
    """
    geo = geo or GeometryMap.identity()
    if not geo.is_identity:
        raise ValueError("the strong-residual estimator supports the identity geometry only")
    mesh = space.mesh
    ev = _ElementEvaluator(space, max_der=4)
    dof = space.basis.dof_index
    coeff = u_h.coefficients
    gfun = _as_fn(problem.g)
    d_const = problem.stiffness
    loads = []
    for (pt, magnitude) in problem.point_loads:
        owner = mesh.locate(pt[0], pt[1])
        sigma = point_load_sigma or mesh.h(owner.level) / 4.0
        captured = 1.0 - math.exp(-18.0)  # analytic mass inside radius 6 sigma
        if captured < 1.0 - 1e-6:
            raise ValueError("Gaussian regularization too wide for the load at %s" % (pt,))
        loads.append(_gaussian_load(pt, magnitude, sigma))
    nq1 = ev.nq1
    nodes, w1 = _gauss01(nq1)
    out = []
    for e in mesh.active_elements():
        rect = mesh.element_rect(e)
        h = rect[2] - rect[0]
        funcs, rows = ev.element_rows(e, combos=((4, 0), (2, 2), (0, 4)))
        pts, wts = ev.element_points(e)
        c = coeff[[dof[f] for f in funcs]]
        bilap = c @ (rows[(4, 0)] + 2.0 * rows[(2, 2)] + rows[(0, 4)])
        gv = np.zeros(pts.shape[0])
        if gfun is not None:
            gv += np.asarray(gfun(pts[:, 0], pts[:, 1]), dtype=float)
        for fn in loads:
            gv += fn(pts[:, 0], pts[:, 1])
        eta2 = h**4 * float(np.sum(wts * (gv - d_const * bilap) ** 2))
        for side in ("left", "bottom", "right", "top"):
            vertical = side in ("left", "right")
            if vertical:
                xb = rect[0] if side == "left" else rect[2]
            else:
                yb = rect[1] if side == "bottom" else rect[3]
            lap_c = ((2, 0), (0, 2))
            dn_c = ((3, 0), (1, 2)) if vertical else ((0, 3), (2, 1))
            combos = lap_c + dn_c
            for (nb, t0, t1) in _edge_neighbor_pieces(mesh, e, side):
                he = t1 - t0
                ts = t0 + he * nodes
                xs, ys = (np.full(nq1, xb), ts) if vertical else (ts, np.full(nq1, yb))
                own = _field_ders(space, coeff, e, xs, ys, combos, 4)
                oth = _field_ders(space, coeff, nb, xs, ys, combos, 4)
                jl = (own[0] + own[1]) - (oth[0] + oth[1])
                jn = (own[2] + own[3]) - (oth[2] + oth[3])
                eta2 += 0.5 * he * float(np.sum(w1 * he * jl**2))
                eta2 += 0.5 * he**3 * float(np.sum(w1 * he * jn**2))
        out.append(ElementEstimate(element=e, eta=math.sqrt(eta2)))
    return out
