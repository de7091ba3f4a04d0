"""Element-local error estimation for the plate solver.

The primary estimator solves tiny independent systems, one per element, in a
space of degree p+1 Bernstein bubbles supported on single active elements
(value and gradient vanish on the element boundary, so the global system is
block diagonal by construction). Natural-boundary sides get extra bubbles
that are rotation-active (moment sides) or value-active (shear sides) on
the boundary, to pick up the error in the natural data. Under a map with a
constant Jacobian, every element of one level with the same bubbles has the
same block matrix, so it is formed and factored once per such group.

A classical strong-residual estimator with interior and edge-jump terms is
provided for comparison; it needs fourth derivatives of the discrete
solution and a regularized representation of point loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .assembly import (
    _DERIVATIVES,
    SIDES,
    GeometryMap,
    _as_fn,
    _at_points,
    _boundary_cells,
    _edge_rule,
    _edge_transform,
    _energy_terms,
    _field_batches,
    _gauss01,
    _level_cells,
    _on_side,
    _rule_on_cells,
    _transform_rows,
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
    per_element = {e: [(i, j) for i in interior for j in interior]
                   for e in mesh.active_elements()}
    for side, kinds in neumann_sides.items():
        for level, cells in _boundary_cells(mesh, side):
            for ix, iy in cells.tolist():
                pairs = per_element[ElementId(level, ix, iy)]
                for b in _side_indices(side, kinds, q):
                    pairs.extend((b, t) if side in ("left", "right") else (t, b) for t in interior)
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


def _bubble_edge_terms(q, pairs, side, mesh, level, cells, problem, geo):
    """Natural-boundary data integrals (e, nb) of the bubbles `pairs` over
    the edges on one side of the cells (e, 2) of one level."""
    h = mesh.h(level)
    tab = _bernstein_table(q, q + 1)
    vend, dend = _bernstein_end(q, side in ("right", "top"))
    ii, jj = np.array(pairs).T
    perp, tang = (ii, jj) if side in ("left", "right") else (jj, ii)
    vals = vend[perp][:, None] * tab[0][tang]
    dperp = (dend[perp] / h)[:, None] * tab[0][tang]
    dtang = vend[perp][:, None] * (tab[1][tang] / h)
    grad = (dperp, dtang) if side in ("left", "right") else (dtang, dperp)
    pts, w = _rule_on_cells(mesh, level, cells, _edge_rule(q - 1, side))
    e = len(cells)
    dn, pts, wts = _edge_transform(geo, pts, side, np.broadcast_to(w, (e, w.size)),
                                   *(np.broadcast_to(g, (e,) + g.shape) for g in grad),
                                   level, cells)
    out = np.zeros((e, len(pairs)))
    vals = np.broadcast_to(vals, dn.shape)
    for data, kind, rows in ((problem.neumann_M.get(side), "moment", dn),
                             (problem.neumann_Q.get(side), "shear", vals)):
        if data is not None:
            what = "%s data on side %r, level %d" % (kind, side, level)
            out += np.einsum("ebq,eq->eb", rows, wts * _at_points(_as_fn(data), pts, what))
    return out


def assemble_blocks(bubbles, u_h, space, geo, problem, elements=None):
    """Independent residual systems, one dense block per element.

    Elements of one level with the same bubble indices form a group. The
    bubbles' rows are the h-scaled Bernstein tables of the group, and u_h's
    derivatives come from the element kernel's field mode. When the map's
    Jacobian is constant (identity or affine) the group's matrix is formed
    once, from its first element, and all of its blocks share that one
    array; on a spline map every element gets its own. Either way the
    residuals of u_h and the body loads of a kernel chunk are one product
    each, and natural-boundary terms and point loads are added per chunk.
    Blocks come back in the order of `elements` (by default all active
    elements).
    """
    geo = geo or GeometryMap.identity()
    mesh = space.mesh
    q = bubbles.degree
    gfun = _as_fn(problem.g)
    d_const, nu = problem.stiffness, problem.poisson
    loads = [(mesh.locate(pt[0], pt[1]), pt, magnitude) for pt, magnitude in problem.point_loads]
    natural = [side for side in SIDES if side in problem.neumann_M or side in problem.neumann_Q]
    if elements is None:
        elements = mesh.active_elements()
    groups = {}
    for pos, e in enumerate(elements):
        groups.setdefault((e.level, tuple(bubbles.per_element[e])), []).append(pos)
    tab = _bernstein_table(q, space.degree + 2)
    blocks = [None] * len(elements)
    for (level, pairs), where in groups.items():
        h = mesh.h(level)
        ii, jj = np.array(pairs).T
        brows = {(dx, dy): h ** (-(dx + dy)) * (tab[dx][ii][:, :, None] * tab[dy][jj][:, None, :])
                 .reshape(1, len(pairs), -1) for (dx, dy) in ((0, 0),) + _DERIVATIVES}
        cells = np.array([elements[k][1:] for k in where], dtype=np.int64)
        mats = None
        for sl, ders, wts, pts in _field_batches(space, level, cells, u_h.coefficients,
                                                 _DERIVATIVES):
            chunk = cells[sl]
            if mats is None or not geo.constant_jacobian:
                # the bubbles' physical rows, weights and matrices: on one
                # element for the whole group, or on each element of the chunk
                at = slice(0, 1) if geo.constant_jacobian else slice(None)
                b, bwts, _ = _transform_rows(geo, pts[at], brows, wts[at], level, chunk[at])
                terms, w = _energy_terms(b, bwts, nu)
                weighted = terms * w[:, None]
                mats = list(d_const * (weighted @ terms.swapaxes(1, 2)))
            u, _, pts = _transform_rows(geo, pts, ders, wts, level, chunk)
            rhs = -d_const * (_energy_terms(u, bwts, nu)[0] @ weighted.swapaxes(1, 2))[:, 0]
            if gfun is not None:
                gv = _at_points(gfun, pts, "load g on level %d" % level)
                rhs += (bwts * gv) @ brows[(0, 0)][0].T
            for side in natural:
                on = _on_side(mesh, level, chunk, side)
                if on.any():
                    rhs[on] += _bubble_edge_terms(q, pairs, side, mesh, level, chunk[on],
                                                  problem, geo)
            for owner, pt, magnitude in loads:
                hit = (owner.level == level) & np.all(chunk == owner[1:], axis=1)
                if hit.any():
                    x0, y0, _, _ = mesh.element_rect(owner)
                    bx = eval_bernstein_ders(q, (pt[0] - x0) / h, 0).values
                    by = eval_bernstein_ders(q, (pt[1] - y0) / h, 0).values
                    rhs[hit] += magnitude * bx[ii] * by[jj]
            for r, k in enumerate(where[sl]):
                blocks[k] = BubbleBlock(element=elements[k], indices=list(pairs),
                                        matrix=mats[r if len(mats) > 1 else 0], rhs=rhs[r])
    return blocks


def _stacks(blocks):
    """The blocks by matrix: yields positions (m, c) of the blocks that
    share each of m matrix objects, c blocks to a matrix, and the m
    matrices stacked. Matrices of one shape that equally many blocks share
    go in one stack."""
    shared = {}
    for k, blk in enumerate(blocks):
        shared.setdefault(id(blk.matrix), []).append(k)
    stacks = {}
    for where in shared.values():
        stacks.setdefault((blocks[where[0]].matrix.shape, len(where)), []).append(where)
    for groups in stacks.values():
        yield np.array(groups), np.stack([blocks[w[0]].matrix for w in groups])


def _cho_solve(low, rhs):
    """Solve the stacked systems (L L^T) X = B from Cholesky factors L
    (m, n, n) and right-hand sides B (m, n, c)."""
    return np.linalg.solve(low.swapaxes(1, 2), np.linalg.solve(low, rhs))


def solve_blocks(blocks):
    """Solve every block by dense Cholesky; blocks must be SPD.

    Each distinct matrix is factored once, and all blocks that share it are
    solved together as the columns of one right-hand side; matrices of one
    shape shared by equally many blocks are factored as one stack (on a
    spline map, one matrix per block). One step of iterative refinement is
    taken for the blocks whose residual exceeds 1e-12 of their right-hand
    side.
    """
    for pos, mats in _stacks(blocks):
        rhs = np.array([[blocks[k].rhs for k in w] for w in pos.tolist()]).swapaxes(1, 2)
        try:
            low = np.linalg.cholesky(mats)
        except np.linalg.LinAlgError as exc:
            for w, mat in zip(pos, mats):
                try:
                    np.linalg.cholesky(mat)
                except np.linalg.LinAlgError:
                    raise RuntimeError("bubble block on %s is not SPD (assembly bug): %s"
                                       % (blocks[w[0]].element, exc)) from exc
            raise
        coeffs = _cho_solve(low, rhs)
        resid = rhs - mats @ coeffs
        scale = np.linalg.norm(rhs, axis=1)
        redo = (scale > 0.0) & (np.linalg.norm(resid, axis=1) > 1e-12 * scale)
        some = redo.any(axis=1)
        if some.any():
            coeffs[some] += np.where(redo[some, None], _cho_solve(low[some], resid[some]), 0.0)
        for w, c in zip(pos.tolist(), coeffs.swapaxes(1, 2)):
            for k, ck in zip(w, c):
                blocks[k].coeffs = ck
    return blocks


def eta_elements(blocks, calibration=3.0):
    """Element indicators: calibration times the local energy norm."""
    if any(blk.coeffs is None for blk in blocks):
        raise ValueError("blocks must be solved before computing indicators")
    energy = np.zeros(len(blocks))
    for pos, mats in _stacks(blocks):
        c = np.array([[blocks[k].coeffs for k in w] for w in pos.tolist()])
        energy[pos] = np.sum((c @ mats) * c, axis=-1)
    eta = calibration * np.sqrt(np.maximum(energy, 0.0))
    return [ElementEstimate(element=blk.element, eta=float(v)) for blk, v in zip(blocks, eta)]


def estimate(u_h, space, problem, geo=None, calibration=3.0):
    """Bubble estimate of the energy error: one block per active element,
    in the order of ``mesh.active_elements()``, from one
    :func:`assemble_blocks` call over all active elements. On identity and
    affine maps the blocks of each (level, bubble pattern) group share one
    matrix, which :func:`solve_blocks` factors once for the whole group."""
    bubbles = build_bubble_space(space.mesh, space.degree, natural_boundary_sides(problem))
    blocks = solve_blocks(assemble_blocks(bubbles, u_h, space, geo, problem))
    estimates = eta_elements(blocks, calibration)
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
    """Active elements across one edge, each with the piece of the edge the
    two share: part r of f equal parts of the edge of the coarser element
    (r = 0, f = 1 when both are on one level), as (element, (r, f)).

    Returns [] for edges on the domain boundary. Pieces are found with
    exact integer index arithmetic across all levels.
    """
    l = e.level
    vertical = side in ("left", "right")
    # the grid line of the edge, across it, and the edge's cell along it
    line, t_lo = (e.ix, e.iy) if vertical else (e.iy, e.ix)
    line += side in ("right", "top")
    if line == 0 or line == mesh.n_elements_1d(l):
        return []
    pieces = []
    for lp in range(mesh.num_levels):
        finer = lp >= l
        f = 1 << abs(lp - l)
        if not finer and line % f:
            continue
        col = (line * f if finer else line // f) - (side in ("left", "bottom"))
        rows = np.arange(t_lo * f, (t_lo + 1) * f) if finer else np.array([t_lo // f])
        found = mesh.cell_index(lp, *((col, rows) if vertical else (rows, col))) >= 0
        for row in rows[found].tolist():
            pieces.append((ElementId(lp, *((col, row) if vertical else (row, col))),
                           (row - t_lo * f, f) if finer else (t_lo % f, f)))
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
    interior = []
    for level, cells in _level_cells(mesh):
        for _, d, wts, pts in _field_batches(space, level, cells, coeff,
                                             ((4, 0), (2, 2), (0, 4))):
            bilap = (d[(4, 0)] + 2.0 * d[(2, 2)] + d[(0, 4)])[:, 0]
            gv = np.zeros(bilap.shape)
            if gfun is not None:
                gv += _at_points(gfun, pts, "load g on level %d" % level)
            for fn in loads:
                gv += _at_points(fn, pts, "regularized point load on level %d" % level)
            interior.extend(mesh.h(level)**4 * np.sum(wts * (gv - d_const * bilap) ** 2, axis=1))
    # each interior edge piece is evaluated from both of its elements, with
    # the edge rule of that element's side restricted to the piece; the
    # evaluations that share a level, a side and a piece go through the
    # kernel together, with tables that are not kept
    opposite = dict(zip(SIDES, SIDES[2:] + SIDES[:2]))
    batches, pieces = {}, []

    def at(el, side, part):
        cells = batches.setdefault((el.level, side, part), [])
        cells.append(el[1:])
        return (el.level, side, part), len(cells) - 1

    active = mesh.active_elements()
    for pos, e in enumerate(active):
        for side in SIDES:
            for nb, part in _edge_neighbor_pieces(mesh, e, side):
                finer = nb.level >= e.level
                pieces.append((pos, mesh.h(max(e.level, nb.level)),
                               at(e, side, part if finer else (0, 1)),
                               at(nb, opposite[side], (0, 1) if finer else part)))
    traces = {}
    for (level, side, part), cells in batches.items():
        combos = ((2, 0), (0, 2)) + (((3, 0), (1, 2)) if side in ("left", "right")
                                     else ((0, 3), (2, 1)))
        rule = _edge_rule(space.degree, side, part)
        d = [ders for _, ders, _, _ in _field_batches(
            space, level, np.array(cells), coeff, combos, rule, cached=False)]
        # rows (E, nq) of the Laplacian and of its derivative across the edge
        traces[level, side, part] = [np.concatenate([c[k1][:, 0] + c[k2][:, 0] for c in d])
                                     for k1, k2 in (combos[:2], combos[2:])]
    w1 = _gauss01(space.degree + 2)[1]
    eta2 = list(interior)
    for pos, he, (own, i), (oth, j) in pieces:
        jl = traces[own][0][i] - traces[oth][0][j]
        jn = traces[own][1][i] - traces[oth][1][j]
        eta2[pos] += 0.5 * he * float(np.sum(w1 * he * jl**2))
        eta2[pos] += 0.5 * he**3 * float(np.sum(w1 * he * jn**2))
    return [ElementEstimate(element=e, eta=math.sqrt(v)) for e, v in zip(active, eta2)]
