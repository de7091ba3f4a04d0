"""Element-local error estimation for the plate solver.

The primary estimator solves tiny independent systems, one per element, in a
space of degree p+1 Bernstein bubbles supported on single active elements
(value and gradient vanish on the element boundary, so the global system is
block diagonal by construction). Natural-boundary sides get extra bubbles
that are rotation-active (moment sides) or value-active (shear sides) on
the boundary, to pick up the error in the natural data. Bernstein
polynomials are the B-splines of the one-span knot vector
:func:`~hbplate.splines.bernstein_knots`, so the bubbles share the solver's
tabulation kernel, table cache and natural-boundary integrals. The
elements of one level that touch the same natural sides have the same
bubbles and form a group, with one block of arrays: its cells,
right-hand sides and solutions, and one matrix under a map with a
constant Jacobian, formed and factored once, or one per element under a
spline map. The blocks come from one sweep per level over the union of
its groups' bubbles; each group's block is a selection from it.

A classical strong-residual estimator with interior and edge-jump terms is
provided for comparison; it needs fourth derivatives of the discrete
solution and a regularized representation of point loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    _ASSEMBLY_COMBOS,
    _DERIVATIVES,
    SIDES,
    GeometryMap,
    _as_fn,
    _at_points,
    _edge_rule,
    _edge_transform,
    _energy_terms,
    _field_chunks,
    _gauss01,
    _natural_terms,
    _point_ders,
    _rule_on_cells,
    _side_groups,
    _transform_rows,
    _vanishes,
)
from .hierarchy import ElementId
from .splines import bernstein_knots, class_tables, tabulate_in_span
# bench/tracer.py counts calls by wrapping this module's names, so they stay
# bound here although nothing in this module calls them any more
from .splines import eval_bernstein_ders, eval_ders_in_span  # noqa: F401

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
    """Bernstein index pairs of the enrichment space, by group: a list of
    (level, touched natural sides, pairs, cells (E, 2))."""

    degree: int
    groups: list


@dataclass
class BubbleBlock:
    """The residual systems of one group's E elements, one row of the
    right-hand sides and solutions to an element, and m matrices, each for
    E / m consecutive rows: m = 1 under a constant Jacobian, m = E under a
    spline map."""

    level: int
    cells: np.ndarray  # (E, 2)
    indices: list
    matrix: np.ndarray  # (m, nb, nb)
    rhs: np.ndarray  # (E, nb)
    coeffs: np.ndarray = None  # (E, nb)


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
    """Bubble index pairs of degree p+1 for every group of active elements.

    Interior bubbles use indices {2, ..., q-2} in both directions; elements
    with an edge on a natural-boundary side additionally get boundary
    bubbles pairing a boundary-active index with interior indices in the
    other direction, side by side in the order of `neumann_sides`. The
    elements of one level that touch the same natural sides form a group;
    groups go by level and then by first cell.
    """
    if p < 3:
        raise ValueError("bubble space needs degree >= 3, got %d" % p)
    q = p + 1
    interior = list(range(2, q - 1))
    neumann_sides = neumann_sides or {}
    groups = []
    for level in range(mesh.num_levels):
        cells = mesh.cells(level)
        for touched, at in _side_groups(mesh, level, cells, neumann_sides):
            pairs = [(i, j) for i in interior for j in interior]
            for side, kinds in neumann_sides.items():
                if side in touched:
                    for b in _side_indices(side, kinds, q):
                        pairs.extend((b, t) if side in ("left", "right") else (t, b)
                                     for t in interior)
            groups.append((level, touched, pairs, cells[at]))
    return BubbleSpace(degree=q, groups=groups)


def _bubble_rows(q, pairs, rule, h, combos):
    """Rows (1, nb, nq) of the bubbles `pairs` of degree q at the nodes of a
    tensor reference rule (x-major), for each combo (dx, dy): products of
    the Bernstein tables of :func:`bernstein_knots` at the rule's nodes (its
    one cell's class tables), scaled by h^-(dx + dy) to an element of size
    h."""
    kv = bernstein_knots(q)
    max_der = max(max(c) for c in combos)
    tx, ty = (class_tables(kv, nodes, max_der)[0] for nodes, _ in rule)
    ii, jj = np.array(pairs).T
    return {(dx, dy): h ** (-(dx + dy)) * (tx[dx][ii][:, :, None] * ty[dy][jj][:, None, :])
            .reshape(1, len(pairs), -1) for dx, dy in combos}


def _bubble_edge_terms(q, pairs, side, mesh, level, cells, problem, geo):
    """Natural-boundary data integrals (e, nb) of the bubbles `pairs` over
    the edges on one side of the cells (e, 2) of one level, by the edge
    rule the load vector uses."""
    rule = _edge_rule(q - 1, side)
    pts, w = _rule_on_cells(mesh, level, cells, rule)
    e = len(cells)
    rows = {c: np.broadcast_to(r, (e,) + r.shape[1:])
            for c, r in _bubble_rows(q, pairs, rule, mesh.h(level), _ASSEMBLY_COMBOS[:3]).items()}
    dn, pts, wts = _edge_transform(geo, pts, side, np.broadcast_to(w, (e, w.size)),
                                   rows[(1, 0)], rows[(0, 1)], level, cells)
    return _natural_terms(problem, side, level, rows[(0, 0)], dn, pts, wts)


def assemble_blocks(bubbles, u_h, space, geo, problem):
    """Independent residual systems, one block per group of the bubble
    space, in the order of its groups, from one sweep per level over the
    union of its groups' bubble pairs.

    u_h's derivatives on the level's cells come from one pass of the level
    kernel over C_l u. The union matrix is formed once per level under a
    constant Jacobian (identity or affine) and once per element under a
    spline map; residuals and body loads are one product per chunk. Moment
    and shear terms are one edge integral per side, none where the side's
    data vanish, and point loads one tabulation per level. A group's block
    selects its cells' rows and its pairs' rows and columns.
    """
    geo = geo or GeometryMap.identity()
    mesh, q, loads = space.mesh, bubbles.degree, problem.point_loads
    gfun = _as_fn(problem.g)
    d_const, nu = problem.stiffness, problem.poisson
    owners = np.array([mesh.locate(*pt) for pt, _ in loads], dtype=np.int64).reshape(-1, 3)
    interior = (_gauss01(space.degree + 2),) * 2
    blocks = [None] * len(bubbles.groups)
    for op in space.levels:
        level, h = op.level, mesh.h(op.level)
        ks = [k for k, group in enumerate(bubbles.groups) if group[0] == level]
        groups = [bubbles.groups[k] for k in ks]
        union = list(dict.fromkeys(pair for _, _, pairs, _ in groups for pair in pairs))
        brows = _bubble_rows(q, union, interior, h, _ASSEMBLY_COMBOS)
        mats, rhs = [], []
        for sl, ders, wts, pts in _field_chunks(space, op, np.arange(len(op.cells)),
                                                op.matrix @ u_h.coefficients, _DERIVATIVES):
            chunk = op.cells[sl]
            # a spline map is tabulated once per chunk, for bubbles and u_h
            local = None if geo.constant_jacobian else geo.derivatives(pts.reshape(-1, 2))
            if not mats or not geo.constant_jacobian:
                # the bubbles' physical rows, weights and matrices: on one
                # element for the whole level, or on each element of the chunk
                at = slice(0, 1) if geo.constant_jacobian else slice(None)
                b, bwts, _ = _transform_rows(geo, pts[at], brows, wts[at], level, chunk[at], local)
                terms, w = _energy_terms(b, bwts, nu)
                weighted = terms * w[:, None]
                mats.append(d_const * (weighted @ terms.swapaxes(1, 2)))
            u, _, pts = _transform_rows(geo, pts, ders, wts, level, chunk, local)
            r = -d_const * (_energy_terms(u, bwts, nu)[0] @ weighted.swapaxes(1, 2))[:, 0]
            if gfun is not None:
                gv = _at_points(gfun, pts, "load g on level %d" % level)
                r += (bwts * gv) @ brows[(0, 0)][0].T
            rhs.append(r)
        mat, r = np.concatenate(mats), np.concatenate(rhs)
        at = [mesh.cell_index(level, cells[:, 0], cells[:, 1]) for *_, cells in groups]
        for side in SIDES:
            pos = [p for (_, touched, _, _), p in zip(groups, at) if side in touched]
            if pos and not _vanishes(problem.neumann_M.get(side), problem.neumann_Q.get(side)):
                pos = np.concatenate(pos)
                r[pos] += _bubble_edge_terms(q, union, side, mesh, level, op.cells[pos],
                                             problem, geo)
        on = np.flatnonzero(owners[:, 0] == level)
        if on.size:
            # each load's point on its cell's reference square, by direction
            corner = mesh.interval[0] + owners[on, 1:] * h
            bx, by = (tabulate_in_span(bernstein_knots(q), np.clip(t, 0.0, 1.0), q, 0)[0]
                      for t in ((np.array([loads[i][0] for i in on]) - corner) / h).T)
            ii, jj = np.array(union).T
            np.add.at(r, mesh.cell_index(level, owners[on, 1], owners[on, 2]),
                      (np.array([loads[i][1] for i in on]) * bx[ii] * by[jj]).T)
        for k, (_, _, pairs, cells), pos in zip(ks, groups, at):
            sel = np.array([union.index(pair) for pair in pairs])
            m = mat if geo.constant_jacobian else mat[pos]
            blocks[k] = BubbleBlock(level=level, cells=cells, indices=list(pairs),
                                    matrix=m[:, sel[:, None], sel], rhs=r[pos][:, sel])
    return blocks


def _rows_by_matrix(blk, rows):
    """Rows (E, nb) of a block as (m, E / m, nb): the rows of each of its
    m matrices."""
    return rows.reshape(len(blk.matrix), -1, rows.shape[-1])


def solve_blocks(blocks):
    """Solve every block by dense Cholesky; blocks must be SPD.

    Each block's m matrices are factored as one stack, and the E / m
    right-hand sides of each matrix are solved together as the columns of
    one right-hand side. Cholesky is backward stable, so every residual is
    within a small multiple of the floor eps |A| |c| at which double
    precision can measure it, and no refinement follows.
    """
    for blk in blocks:
        try:
            low = np.linalg.cholesky(blk.matrix)
        except np.linalg.LinAlgError as exc:
            for k, mat in enumerate(blk.matrix):
                try:
                    np.linalg.cholesky(mat)
                except np.linalg.LinAlgError:
                    ix, iy = _rows_by_matrix(blk, blk.cells)[k, 0].tolist()
                    raise RuntimeError("bubble block on %s is not SPD (assembly bug): %s"
                                       % (ElementId(blk.level, ix, iy), exc)) from exc
            raise
        # (L L^T) X = B for the stack, by a forward and a backward solve
        coeffs = np.linalg.solve(low.swapaxes(1, 2), np.linalg.solve(
            low, _rows_by_matrix(blk, blk.rhs).swapaxes(1, 2)))
        blk.coeffs = coeffs.swapaxes(1, 2).reshape(blk.rhs.shape)
    return blocks


def eta_elements(blocks, calibration=3.0):
    """Element indicators: calibration times the local energy norm, block
    by block and row by row."""
    if any(blk.coeffs is None for blk in blocks):
        raise ValueError("blocks must be solved before computing indicators")
    out = []
    for blk in blocks:
        c = _rows_by_matrix(blk, blk.coeffs)
        energy = np.sum((c @ blk.matrix) * c, axis=-1).ravel()
        eta = calibration * np.sqrt(np.maximum(energy, 0.0))
        out.extend(ElementEstimate(element=ElementId(blk.level, ix, iy), eta=v)
                   for (ix, iy), v in zip(blk.cells.tolist(), eta.tolist()))
    return out


def estimate(u_h, space, problem, geo=None, calibration=3.0):
    """Bubble estimate of the energy error: one indicator per active
    element, in the order of ``mesh.active_elements()``, from one
    :func:`assemble_blocks` call over all groups of the bubble space."""
    bubbles = build_bubble_space(space.mesh, space.degree, natural_boundary_sides(problem))
    blocks = solve_blocks(assemble_blocks(bubbles, u_h, space, geo, problem))
    estimates = eta_elements(blocks, calibration)
    keys = np.concatenate([np.c_[np.full(len(blk.cells), blk.level), blk.cells] for blk in blocks])
    estimates = [estimates[k] for k in np.lexsort(keys.T[::-1]).tolist()]
    eta_total = math.sqrt(sum(est.eta**2 for est in estimates))
    return estimates, eta_total


def effectivity(eta_total, exact_error):
    """Ratio of the estimated total to the true energy error."""
    if not exact_error > 0.0:
        raise ValueError("effectivity undefined for zero exact error")
    return EffectivityReport(eta_total=float(eta_total), error=float(exact_error),
                             theta=float(eta_total) / float(exact_error))


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
    coeffs = {op.level: op.matrix @ u_h.coefficients for op in space.levels}
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
    for op in space.levels:
        for _, d, wts, pts in _field_chunks(space, op, np.arange(len(op.cells)),
                                            coeffs[op.level], ((4, 0), (2, 2), (0, 4))):
            bilap = (d[(4, 0)] + 2.0 * d[(2, 2)] + d[(0, 4)])[:, 0]
            gv = np.zeros(bilap.shape)
            if gfun is not None:
                gv += _at_points(gfun, pts, "load g on level %d" % op.level)
            for fn in loads:
                gv += _at_points(fn, pts, "regularized point load on level %d" % op.level)
            interior.extend(mesh.h(op.level)**4 * np.sum(wts * (gv - d_const * bilap) ** 2, axis=1))
    # each interior edge piece is evaluated from both of its elements, with
    # the edge rule of that element's side restricted to the piece; the
    # points of one level go through one batched tabulation, not kept
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
    for op in space.levels:
        keys = [key for key in batches if key[0] == op.level]
        if not keys:
            continue
        cells = [np.array(batches[key]) for key in keys]
        pts = [_rule_on_cells(mesh, op.level, c, _edge_rule(space.degree, side, part))[0]
               for c, (_, side, part) in zip(cells, keys)]
        d = _point_ders(space, op, np.concatenate([c.repeat(pt.shape[1], axis=0)
                                                   for c, pt in zip(cells, pts)]),
                        np.concatenate([pt.reshape(-1, 2) for pt in pts]),
                        coeffs[op.level], ((2, 0), (0, 2), (3, 0), (1, 2), (0, 3), (2, 1)))
        start = 0
        for key, pt in zip(keys, pts):
            sl = slice(start, start + pt[..., 0].size)
            start = sl.stop
            across = ((3, 0), (1, 2)) if key[1] in ("left", "right") else ((0, 3), (2, 1))
            # rows (E, nq) of the Laplacian and of its derivative across the edge
            traces[key] = [(d[k1][sl] + d[k2][sl]).reshape(pt.shape[:2])
                           for k1, k2 in (((2, 0), (0, 2)), across)]
    w1 = _gauss01(space.degree + 2)[1]
    eta2 = list(interior)
    for pos, he, (own, i), (oth, j) in pieces:
        jl = traces[own][0][i] - traces[oth][0][j]
        jn = traces[own][1][i] - traces[oth][1][j]
        eta2[pos] += 0.5 * he * float(np.sum(w1 * he * jl**2))
        eta2[pos] += 0.5 * he**3 * float(np.sum(w1 * he * jn**2))
    return [ElementEstimate(element=e, eta=math.sqrt(v)) for e, v in zip(active, eta2)]
