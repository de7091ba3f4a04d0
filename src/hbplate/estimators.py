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
bubbles and form a group, with one block of arrays: its cells' positions,
right-hand sides and solutions, and one matrix under a map with a
constant Jacobian, formed and factored once, or one per element under a
spline map. The blocks come from one sweep over the active cells of all
levels and the union of the groups' bubbles; each group's block is a
selection from it.

A classical strong-residual estimator is provided for comparison; it needs
fourth derivatives of u_h and a regularized representation of point loads.
Its interior terms come from one pass over the active cells of all levels,
its one edge jump, of the third normal derivative, from one lookup per
level over all active cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    _ASSEMBLY_COMBOS,
    _DERIVATIVES,
    SIDES,
    _SIDE_NORMAL,
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
from .splines import bernstein_knots, class_tables, tabulate_in_span
# bench/tracer.py counts calls by wrapping this module's names, so they stay
# bound here although nothing in this module calls them any more
from .splines import eval_bernstein_ders, eval_ders_in_span  # noqa: F401

__all__ = [
    "BubbleBlock",
    "natural_boundary_sides",
    "build_bubble_space",
    "assemble_blocks",
    "solve_blocks",
    "eta_elements",
    "estimate",
    "residual_estimator",
]


@dataclass
class BubbleBlock:
    """The residual systems of one group's E elements, at their positions
    in ``mesh.active_elements()``, one row of the right-hand sides and
    solutions to an element, and m matrices, each for E / m consecutive
    rows: m = 1 under a constant Jacobian, m = E under a spline map."""

    level: int
    at: np.ndarray  # (E,)
    indices: list
    matrix: np.ndarray  # (m, nb, nb)
    rhs: np.ndarray  # (E, nb)
    coeffs: np.ndarray = None  # (E, nb)


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


def build_bubble_space(mesh, neumann_sides=None):
    """Bubble index pairs of degree p+1, p = ``mesh.p``, by group of active
    elements: a list of (level, touched natural sides, pairs, positions
    (E,) of its cells).

    Interior bubbles use indices {2, ..., q-2} in both directions; elements
    with an edge on a natural-boundary side additionally get boundary
    bubbles pairing a boundary-active index with interior indices in the
    other direction, side by side in the order of `neumann_sides`. The
    elements of one level that touch the same natural sides form a group,
    held by their positions; groups go by level and then by first cell.
    """
    q = mesh.p + 1
    interior = list(range(2, q - 1))
    neumann_sides = neumann_sides or {}
    groups, base = [], 0
    for level in range(mesh.num_levels):
        cells = mesh.cells(level)
        for touched, at in _side_groups(mesh, level, cells, neumann_sides):
            pairs = [(i, j) for i in interior for j in interior]
            for side, kinds in neumann_sides.items():
                if side in touched:
                    for b in _side_indices(side, kinds, q):
                        pairs.extend((b, t) if side in ("left", "right") else (t, b)
                                     for t in interior)
            groups.append((level, touched, pairs, base + at))
        base += len(cells)
    return groups


def _bubble_rows(q, pairs, rule, h, combos):
    """Rows (e, nb, nq) of the bubbles `pairs` of degree q at the nodes of a
    tensor reference rule (x-major), for each combo (dx, dy): products of
    the Bernstein tables of :func:`bernstein_knots` at the rule's nodes (its
    one cell's class tables), scaled by h^-(dx + dy) to elements of the
    sizes h (e,), or of one size."""
    kv = bernstein_knots(q)
    max_der = max(max(c) for c in combos)
    tx, ty = (class_tables(kv, nodes, max_der)[0] for nodes, _ in rule)
    ii, jj = np.array(pairs).T
    return {(dx, dy): np.reshape(h, (-1, 1, 1)) ** (-(dx + dy)) * (
        tx[dx][ii][:, :, None] * ty[dy][jj][:, None, :]).reshape(1, len(pairs), -1)
        for dx, dy in combos}


def _bubble_edge_terms(q, pairs, side, space, at, problem, geo):
    """Natural-boundary data integrals (e, nb) of the bubbles `pairs` over
    the edges on one side of the active cells at (positions in
    ``space.active_cells``), by the edge rule the load vector uses."""
    view, rule = space.active_cells, _edge_rule(q - 1, side)
    pts, w = _rule_on_cells(space, at, rule)
    rows = _bubble_rows(q, pairs, rule, view.h[at], _ASSEMBLY_COMBOS[:3])
    dn, pts, wts = _edge_transform(geo, pts, side, w, rows[(1, 0)], rows[(0, 1)],
                                   view.level[at], view.cells[at])
    return _natural_terms(problem, side, view.level[at], rows[(0, 0)], dn, pts, wts)


def assemble_blocks(groups, u_h, space, geo, problem):
    """Independent residual systems, one block per group of
    :func:`build_bubble_space`, in their order, from one sweep over the active
    cells of all levels and the union of the groups' bubble pairs.

    u_h's derivatives come from one pass of the level kernel over C u.
    Under a constant Jacobian (identity or affine) the bubbles' weighted
    energy terms do not depend on the element, so the residuals are one
    product with them per chunk, and each level's matrix is the one of a
    unit element times h^-2; under a spline map the matrix is formed per
    element. Body loads are one product per chunk, moment and shear terms
    one edge integral per side, none where the side's data vanish, and
    point loads one tabulation. A group's block selects its cells' rows
    and its pairs' rows and columns.
    """
    geo = geo or GeometryMap.identity()
    mesh, view, q, loads = space.mesh, space.active_cells, space.degree + 1, problem.point_loads
    gfun = _as_fn(problem.g)
    d_const, nu = problem.stiffness, problem.poisson
    interior = (_gauss01(space.degree + 2),) * 2
    union = list(dict.fromkeys(pair for *_, pairs, _ in groups for pair in pairs))
    values = _bubble_rows(q, union, interior, 1.0, ((0, 0),))[(0, 0)][0]
    if geo.constant_jacobian:
        # the bubbles' weighted energy terms do not depend on the element,
        # and their matrix goes with h^-2: both from an element of size 1
        (_, xw), (_, yw) = interior
        b, bwts, _ = _transform_rows(geo, np.zeros((1, xw.size * yw.size, 2)),
                                     _bubble_rows(q, union, interior, 1.0, _ASSEMBLY_COMBOS),
                                     np.outer(xw, yw).reshape(1, -1), 0, np.zeros((1, 2)))
        terms, w = _energy_terms(b, bwts, nu)
        weighted = terms * w[:, None]
        unit = d_const * (weighted @ terms.swapaxes(1, 2))
    mats, r = [], np.empty((len(view.cells), len(union)))
    for at, ders, wts, pts in _field_chunks(space, np.arange(len(view.cells)),
                                            space.stacked_c @ u_h, _DERIVATIVES):
        level, cells = view.level[at], view.cells[at]
        # a spline map is tabulated once per chunk, for bubbles and u_h
        local = None if geo.constant_jacobian else geo.derivatives(pts.reshape(-1, 2))
        if not geo.constant_jacobian:
            b, bwts, _ = _transform_rows(geo, pts, _bubble_rows(
                q, union, interior, view.h[at], _ASSEMBLY_COMBOS), wts, level, cells, local)
            terms, w = _energy_terms(b, bwts, nu)
            weighted = terms * w[:, None]
            mats.append(d_const * (weighted @ terms.swapaxes(1, 2)))
        u, uwts, pts = _transform_rows(geo, pts, ders, wts, level, cells, local)
        uterms = _energy_terms(u, uwts, nu)[0][:, 0]
        # one product for the chunk under a constant Jacobian, one per element else
        res = -d_const * (uterms @ weighted[0].T if geo.constant_jacobian else
                          np.einsum("ek,enk->en", uterms, weighted))
        if gfun is not None:
            res += (uwts * _at_points(gfun, pts, "load g on level %d", level)) @ values.T
        r[at] = res
    for side in SIDES:
        pos = [at for _, touched, _, at in groups if side in touched]
        if pos and not _vanishes(problem.neumann_M.get(side), problem.neumann_Q.get(side)):
            pos = np.concatenate(pos)
            r[pos] += _bubble_edge_terms(q, union, side, space, pos, problem, geo)
    if loads:
        pts = np.array([pt for pt, _ in loads], dtype=float)
        on = mesh.locate(pts)
        # each load's point on its cell's reference square, by direction
        h = view.h[on, None]
        bx, by = (tabulate_in_span(bernstein_knots(q), np.clip(t, 0.0, 1.0), q, 0)[0]
                  for t in ((pts - view.cells[on] * h) / h).T)
        ii, jj = np.array(union).T
        np.add.at(r, on, (np.array([m for _, m in loads]) * bx[ii] * by[jj]).T)
    index = {pair: k for k, pair in enumerate(union)}
    mat = None if geo.constant_jacobian else np.concatenate(mats)
    blocks = []
    for level, _, pairs, at in groups:
        sel = np.array([index[pair] for pair in pairs])
        m = unit * mesh.h(level) ** -2.0 if mat is None else mat[at]
        blocks.append(BubbleBlock(level=level, at=at, indices=list(pairs),
                                  matrix=m[:, sel[:, None], sel], rhs=r[at][:, sel]))
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
            for pos, mat in zip(blk.at[::len(blk.at) // len(blk.matrix)].tolist(), blk.matrix):
                try:
                    np.linalg.cholesky(mat)
                except np.linalg.LinAlgError:
                    raise RuntimeError("bubble block at position %d (level %d) is not SPD "
                                       "(assembly bug): %s" % (pos, blk.level, exc)) from exc
            raise
        # (L L^T) X = B for the stack, by a forward and a backward solve
        coeffs = np.linalg.solve(low.swapaxes(1, 2), np.linalg.solve(
            low, _rows_by_matrix(blk, blk.rhs).swapaxes(1, 2)))
        blk.coeffs = coeffs.swapaxes(1, 2).reshape(blk.rhs.shape)
    return blocks


def eta_elements(blocks, calibration=3.0):
    """Element indicators, calibration times the local energy norm, as one
    float array: the rows of the blocks, in block order."""
    if not 0.0 < calibration < math.inf:
        raise ValueError("calibration must be finite and positive, got %r" % (calibration,))
    if any(blk.coeffs is None for blk in blocks):
        raise ValueError("blocks must be solved before computing indicators")
    energy = []
    for blk in blocks:
        c = _rows_by_matrix(blk, blk.coeffs)
        energy.append(np.sum((c @ blk.matrix) * c, axis=-1).ravel())
    return calibration * np.sqrt(np.maximum(np.concatenate(energy), 0.0))


def estimate(u_h, space, problem, geo=None, calibration=3.0):
    """Bubble estimate of the energy error, from one :func:`assemble_blocks`
    call over all groups of the bubble space: the indicators as one float
    array, aligned with ``mesh.active_elements()`` (position k is the k-th
    active element in (level, ix, iy) order), and their root sum of
    squares."""
    groups = build_bubble_space(space.mesh, natural_boundary_sides(problem))
    blocks = solve_blocks(assemble_blocks(groups, u_h, space, geo, problem))
    eta = np.empty(space.mesh.n_active)
    eta[np.concatenate([blk.at for blk in blocks])] = eta_elements(blocks, calibration)
    return eta, math.sqrt(sum(v**2 for v in eta.tolist()))


# ---------------------------------------------------------------------------
# strong-residual comparator

def _gaussian_load(pt, magnitude, sigma):
    x0, y0 = pt
    def fn(x, y):
        r2 = (x - x0) ** 2 + (y - y0) ** 2
        return magnitude / (2.0 * np.pi * sigma**2) * np.exp(-r2 / (2.0 * sigma**2))
    return fn


def _edge_pieces(space, side):
    """The interior edge pieces on one side of the active cells: positions
    f and c in ``space.active_cells``, c the active cell across the whole
    edge of f, on f's level or a coarser one. They tile every interior
    edge; a same-level pair is found from both of its cells. One lookup
    per level l finds the level-l cells across the edges of all finer cells."""
    mesh, view = space.mesh, space.active_cells
    # the index across each edge; one step off the domain finds no cell
    across = view.cells + np.array(_SIDE_NORMAL[side], dtype=np.int64)
    f, c = [], []
    for level in range(mesh.num_levels):
        at = np.flatnonzero(view.level >= level)
        found = mesh.cell_index(level, *(across[at] >> (view.level[at, None] - level)).T)
        f.append(at[found >= 0])
        c.append(found[found >= 0])
    return np.concatenate(f), np.concatenate(c)


def _jump_terms(space, coeffs):
    """Edge terms of the strong-residual indicators by active cell, for
    the field with coefficients coeffs = C u: half of the squared jump of
    its third normal derivative (weight h^3), the only jump a C^(p-1) field
    has (and zero up to rounding for p >= 4), on the pieces of
    :func:`_edge_pieces`, at the edge rule of f, from one-sided limits on f
    and on c. Each piece goes to f, and to c when c is coarser.
    """
    view, p = space.active_cells, space.degree
    w1, out = _gauss01(p + 2)[1], np.zeros(len(view.cells))
    for side in SIDES:
        f, c = _edge_pieces(space, side)
        pts = _rule_on_cells(space, f, _edge_rule(p, side))[0].reshape(-1, 2)
        normal = (3, 0) if side in ("left", "right") else (0, 3)
        on_f, on_c = (_point_ders(space, cells.repeat(w1.size), pts, coeffs, (normal,))[normal]
                      for cells in (f, c))
        term = 0.5 * view.h[f]**4 * ((on_f - on_c).reshape(-1, w1.size) ** 2 @ w1)
        coarser = view.level[c] < view.level[f]
        out += np.bincount(f, term, out.size) + np.bincount(c[coarser], term[coarser], out.size)
    return out


def residual_estimator(u_h, space, problem, geo=None):
    """Classical strong-residual indicators for the biharmonic problem, as
    one float array aligned with ``mesh.active_elements()``.

    Interior term h^4 ||g - D lap^2 u_h||^2 plus the edge terms of
    :func:`_jump_terms`. Point loads enter through a Gaussian
    regularization of width h / 4 of the containing element.
    """
    geo = geo or GeometryMap.identity()
    if not geo.is_identity:
        raise ValueError("the strong-residual estimator supports the identity geometry only")
    view = space.active_cells
    coeffs = space.stacked_c @ u_h
    gfun = _as_fn(problem.g)
    d_const = problem.stiffness
    width = view.h[space.mesh.locate([pt for pt, _ in problem.point_loads])] / 4.0
    loads = [_gaussian_load(pt, m, sigma) for (pt, m), sigma in zip(problem.point_loads, width)]
    interior = []
    for at, d, wts, pts in _field_chunks(space, np.arange(len(view.cells)), coeffs,
                                         ((4, 0), (2, 2), (0, 4))):
        bilap = (d[(4, 0)] + 2.0 * d[(2, 2)] + d[(0, 4)])[:, 0]
        gv = np.zeros(bilap.shape)
        if gfun is not None:
            gv += _at_points(gfun, pts, "load g on level %d", view.level[at])
        for fn in loads:
            gv += _at_points(fn, pts, "regularized point load on level %d", view.level[at])
        interior.append(view.h[at]**4 * np.sum(wts * (gv - d_const * bilap) ** 2, axis=1))
    return np.sqrt(np.concatenate(interior) + _jump_terms(space, coeffs))
