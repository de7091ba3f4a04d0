"""The per-level passes that the stacked level kernel replaced, kept as the
oracle of its tests: the stiffness, the load, the Dirichlet fit (with its
per-level trace lookup), the energy error norm, field evaluation and the
bubble estimator's blocks, each one pass of a level kernel per level with
active cells, on the level operators of :func:`hbplate.hierarchy.two_scale`,
whose locals number each level's own keys from 0; and the strong-residual
estimator's per-element search for the pieces of its edge jumps. Points
go to their cells one at a time, by the per-point
:func:`closure_oracle.locate`.
"""

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from hbplate.assembly import (
    _ASSEMBLY_COMBOS,
    _DERIVATIVES,
    _CHUNK_BYTES,
    SIDES,
    GeometryMap,
    _add_local,
    _as_fn,
    _at_points,
    _edge_rule,
    _field_chunks,
    _edge_transform,
    _energy_form,
    _energy_terms,
    _gauss01,
    _gram_terms,
    _graded_rule,
    _least_squares,
    _natural_terms,
    _on_side,
    _point_ders,
    _rule_on_cells,
    _side_groups,
    _transform_rows,
    _triangle,
    _vanishes,
)
from hbplate.estimators import BubbleBlock, _gaussian_load
from hbplate.hierarchy import two_scale
from hbplate.splines import (
    bernstein_knots,
    cell_classes,
    cell_grams,
    class_tables,
    tabulate_in_span,
)

from closure_oracle import ElementId, elements, locate


def level_ops(space):
    """The level operator of every level with active cells, locals from 0."""
    mesh = space.mesh
    return [two_scale(mesh, space.basis, level) for level in range(mesh.num_levels)
            if len(mesh.cells(level))]


def level_positions(mesh, level, cells):
    """The numbers from 0 of the active cells (E, 2) of one level among that
    level's cells: their ``cell_index`` less the cells of coarser levels."""
    pos = mesh.cell_index(level, cells[:, 0], cells[:, 1])
    assert (pos >= 0).all()
    return pos - sum(len(mesh.cells(k)) for k in range(level))


def rule_on_cells(mesh, level, cells, rule):
    (xn, xw), (yn, yw) = rule
    h = mesh.h(level)
    xs = (cells[:, 0, None] + xn) * h
    ys = (cells[:, 1, None] + yn) * h
    pts = np.stack([np.repeat(xs, yn.size, axis=1), np.tile(ys, xn.size)], axis=-1)
    scale = (h if xn.size > 1 else 1.0) * (h if yn.size > 1 else 1.0)
    return pts, np.outer(xw, yw).ravel() * scale


def level_chunks(mesh, level, cells, rule, max_der, floats):
    kv = mesh.knots(level)
    xtab, ytab = (class_tables(kv, nodes, max_der) for nodes, _ in rule)
    cx, cy = cell_classes(kv, cells).T
    step = max(1, _CHUNK_BYTES // (8 * floats))
    for start in range(0, len(cells), step):
        sl = slice(start, start + step)
        pts, w = rule_on_cells(mesh, level, cells[sl], rule)
        yield sl, xtab[cx[sl]], ytab[cy[sl]], np.broadcast_to(w, pts.shape[:2]), pts


def level_rows(space, level, cells, combos, rule):
    n1 = space.degree + 1
    nq = rule[0][0].size * rule[1][0].size
    for sl, tx, ty, wts, pts in level_chunks(space.mesh, level, cells, rule,
                                             max(max(c) for c in combos),
                                             len(combos) * n1 * n1 * nq):
        rows = {(dx, dy): (tx[:, dx, :, None, :, None] * ty[:, dy, None, :, None, :]).reshape(
            len(tx), n1 * n1, nq) for dx, dy in combos}
        yield sl, rows, wts, pts


def field_chunks(space, op, coeff, combos):
    n1 = space.degree + 1
    rule = (_gauss01(n1 + 1),) * 2
    nd = max(max(c) for c in combos) + 1
    nx, ny = rule[0][0].size, rule[1][0].size
    floats = n1 * (n1 + nd * nx + 2 * nd * ny) + nd * nx * nd * ny
    for sl, tx, ty, wts, pts in level_chunks(space.mesh, op.level, op.cells, rule, nd - 1,
                                             floats):
        e = len(tx)
        coef = coeff[op.local[sl]].reshape(e, n1, n1)
        part = coef @ ty[:, :nd].transpose(0, 2, 1, 3).reshape(e, n1, -1)
        full = (tx[:, :nd].transpose(0, 1, 3, 2).reshape(e, -1, n1) @ part).reshape(
            e, nd, nx, nd, ny)
        yield sl, {(dx, dy): full[:, dx, :, dy].reshape(e, 1, nx * ny)
                   for dx, dy in combos}, wts, pts


def class_elements(kv, form):
    """Element matrices of one level under a constant Jacobian, for each
    pair of cell classes: (x class, y class, (p + 1)^2, (p + 1)^2)."""
    out = 0.0
    for m, gx, gy in _gram_terms(cell_grams(kv), form):
        out = out + m * gx[:, None, :, None, :, None] * gy[None, :, None, :, None, :]
    nc, n1 = out.shape[0], out.shape[2]
    return out.reshape(nc, nc, n1 * n1, n1 * n1)


def level_stiffness(space, geo, problem, op, form):
    """K_l of one level over its cells, rows and columns in the order of
    op.keys, as CSR arrays (data, columns, entries per row): the element
    matrices scattered into a stencil (function, offset of the other
    function) one local row at a time, and the columns of its nonzeros
    searched in op.keys."""
    p, keys, local = space.degree, op.keys, op.local
    n1, width = p + 1, 2 * p + 1
    ix, iy = np.divmod(np.arange(n1 * n1), n1)
    offset = (ix[None, :] - ix[:, None] + p) * width + (iy[None, :] - iy[:, None] + p)
    stencil = np.zeros(len(keys) * width * width)
    if form is not None:
        kv = space.mesh.knots(op.level)
        elems = problem.stiffness * class_elements(kv, form)
        cx, cy = cell_classes(kv, op.cells).T
        step = max(1, _CHUNK_BYTES // (8 * n1 ** 4))
        chunks = ((sl, elems[cx[sl], cy[sl]]) for sl in (
            slice(start, start + step) for start in range(0, len(op.cells), step)))
    else:
        def quadrature():
            for sl, rows, wts, pts in level_rows(space, op.level, op.cells, _DERIVATIVES,
                                                 (_gauss01(n1 + 1),) * 2):
                rows, wts, _ = _transform_rows(geo, pts, rows, wts, op.level, op.cells[sl])
                terms, w = _energy_terms(rows, wts, problem.poisson)
                yield sl, problem.stiffness * ((terms * w[:, None]) @ terms.swapaxes(1, 2))
        chunks = quadrature()
    for sl, aloc in chunks:
        for a in range(n1 * n1):
            stencil[local[sl, a, None] * width * width + offset[a]] += aloc[:, a]
    stencil = stencil.reshape(len(keys), -1)
    live = stencil != 0.0
    dx, dy = np.divmod(np.arange(width * width), width)
    cols = np.searchsorted(keys, (keys[:, None] + ((dx - p) << 32) + (dy - p))[live])
    return stencil[live], cols.astype(np.int32), live.sum(axis=1)


def blockdiag_stiffness(space, geo, problem):
    """blockdiag(K_l) over the levels with active cells, in CSR, the rows
    of each K_l numbered after those of the levels before it."""
    form = _energy_form(geo, problem.poisson) if geo.constant_jacobian else None
    blocks, base = [], 0
    for op in level_ops(space):
        data, cols, counts = level_stiffness(space, geo, problem, op, form)
        blocks.append((data, cols + base, counts))
        base += len(op.keys)
    data, cols, counts = map(np.concatenate, zip(*blocks))
    return sp.csr_matrix((data, cols, np.concatenate([[0], np.cumsum(counts)])),
                         shape=(base, base))


def assemble_stiffness(space, geo, problem):
    """K = sum over the levels of C_l^T K_l C_l, its upper triangle
    mirrored."""
    ct = sp.vstack([op.matrix for op in level_ops(space)], format="csr").T.tocsr()
    upper = _triangle(ct @ (blockdiag_stiffness(space, geo, problem) @ ct.T.tocsc()), 0)
    upper.sort_indices()
    return upper + _triangle(upper, 1).T


def point_tables(space, op, cells, pts, max_der):
    kv, p = space.mesh.knots(op.level), space.degree
    tx, ty = (tabulate_in_span(kv, pts[:, axis], cells[:, axis] + p, max_der) for axis in (0, 1))
    return tx, ty, level_positions(space.mesh, op.level, cells)


def side_batches(space, ops, geo, side):
    rule = _edge_rule(space.degree, side)
    for op in ops:
        at = np.flatnonzero(_on_side(space.mesh, op.level, op.cells, side))
        for sl, rows, wts, pts in level_rows(space, op.level, op.cells[at],
                                             _ASSEMBLY_COMBOS[:3], rule):
            dn, pts, wts = _edge_transform(geo, pts, side, wts, rows[(1, 0)], rows[(0, 1)],
                                           op.level, op.cells[at[sl]])
            yield op, at[sl], rows[(0, 0)], dn, pts, wts


def assemble_load(space, geo, problem):
    """b = sum over the levels of C_l^T b_l."""
    mesh, n1, ops = space.mesh, space.degree + 1, level_ops(space)
    gfun = _as_fn(problem.g)
    loads = problem.point_loads
    owners = np.array([locate(mesh, pt[0], pt[1]) for pt, _ in loads],
                      dtype=np.int64).reshape(-1, 3)
    b = {op.level: np.zeros(len(op.keys)) for op in ops}
    for side in SIDES:
        if _vanishes(problem.neumann_M.get(side), problem.neumann_Q.get(side)):
            continue
        for op, at, vals, dn, pts, wts in side_batches(space, ops, geo, side):
            _add_local(b[op.level], op.local[at],
                       _natural_terms(problem, side, op.level, vals, dn, pts, wts))
    rhs = np.zeros(space.num_dofs)
    for op in ops:
        groups = _side_groups(mesh, op.level, op.cells, problem.load_grading) if gfun else ()
        for key, at in groups:
            rule = _graded_rule(n1 - 1, key) if key else (_gauss01(n1 + 1),) * 2
            nx, ny = rule[0][0].size, rule[1][0].size
            for sl, tx, ty, wts, pts in level_chunks(mesh, op.level, op.cells[at], rule, 0,
                                                     3 * n1 * (nx + ny) + 8 * nx * ny):
                _, wts, pts = _transform_rows(geo, pts, {}, wts, op.level, op.cells[at[sl]])
                gv = _at_points(gfun, pts, "load g on level %d" % op.level)
                loc = tx[:, 0] @ (wts * gv).reshape(-1, nx, ny) @ ty[:, 0].swapaxes(1, 2)
                _add_local(b[op.level], op.local[at[sl]], loc.reshape(len(loc), -1))
        on = np.flatnonzero(owners[:, 0] == op.level)
        if on.size:
            tx, ty, at = point_tables(space, op, owners[on, 1:],
                                      np.array([loads[i][0] for i in on], dtype=float), 0)
            loc = tx[0].T[:, :, None] * ty[0].T[:, None, :]
            _add_local(b[op.level], op.local[at],
                       np.array([loads[i][1] for i in on])[:, None] * loc.reshape(len(on), -1))
        rhs += op.matrix.T @ b[op.level]
    return rhs


def _fit_block(op, at, rows, w):
    vals = (rows * w[:, None, :]).transpose(0, 2, 1)
    cols = np.broadcast_to(op.local[at][:, None, :], vals.shape)
    pos = np.broadcast_to(np.arange(vals[..., 0].size).reshape(vals.shape[:2])[..., None],
                          vals.shape)
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (pos[keep], cols[keep])),
                         shape=(vals[..., 0].size, len(op.keys)))


def trace_dofs(space, side, depth):
    """Dofs of the active functions in the first `depth` layers along a
    side, by one lookup of the layers' functions on every level."""
    out = []
    for k in range(space.mesh.num_levels):
        n = space.mesh.knots(k).num_basis
        near = np.arange(depth) if side in ("left", "bottom") else n - 1 - np.arange(depth)
        along = np.arange(n)
        ix, iy = (near[:, None], along) if side in ("left", "right") else (along[:, None], near)
        d = space.basis.level_dofs(k, ix, iy)
        out.append(d[d >= 0])
    return np.concatenate(out)


def fit_side(space, geo, side, kind, data, constraints):
    """One side's least-squares fit, W T_l C_l per level, stacked."""
    n, ops = space.num_dofs, level_ops(space)
    trace = np.zeros(n, dtype=bool)
    trace[trace_dofs(space, side, 1 if kind == "deflection" else 2)] = True
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
    for op, at, vals, dn, pts, wts in side_batches(space, ops, geo, side):
        rows = vals if kind == "deflection" else -dn
        target = _at_points(_as_fn(data), pts,
                            "%s data on side %r, level %d" % (kind, side, op.level))
        target = target - np.einsum("elq,el->eq", rows, (op.matrix @ given)[op.local[at]])
        w = np.sqrt(wts)
        chunks.append((op, at, rows, w, (target * w).ravel()))
    b = np.concatenate([c[4] for c in chunks])
    scale = np.abs(b).max() if b.size else 0.0
    if scale <= 1e-14:
        values = np.zeros(unknowns.size)
    else:
        pick = sp.csr_matrix((np.ones(unknowns.size), (unknowns, np.arange(unknowns.size))),
                             shape=(n, unknowns.size))
        a = sp.vstack([_fit_block(op, at, rows, w) @ (op.matrix @ pick)
                       for op, at, rows, w, _ in chunks], format="csr")
        values = _least_squares(a, b, "%s fit on side %r" % (kind, side))
    constraints.update(zip(unknowns.tolist(), values.tolist()))


def dirichlet_constraints(space, geo, problem):
    """The constraints of every Dirichlet side, in the order of apply_dirichlet."""
    constraints = {}
    for kind, data in (("deflection", problem.dirichlet_w), ("rotation", problem.dirichlet_phi)):
        for side in SIDES:
            if side in data:
                fit_side(space, geo, side, kind, data[side], constraints)
    return constraints


def h2_seminorm_error(field, exact_hessian, space, geo):
    total = 0.0
    for op in level_ops(space):
        coeff = op.matrix @ field
        for sl, ders, wts, pts in field_chunks(space, op, coeff, _DERIVATIVES):
            ders, wts, pts = _transform_rows(geo, pts, ders, wts, op.level, op.cells[sl])
            exx, exy, eyy = _at_points(exact_hessian, pts, "exact Hessian on level %d" % op.level)
            total += float(np.sum(wts * ((ders[(2, 0)][:, 0] - exx) ** 2
                                         + 2.0 * (ders[(1, 1)][:, 0] - exy) ** 2
                                         + (ders[(0, 2)][:, 0] - eyy) ** 2)))
    return float(np.sqrt(total))


def evaluate(field, space, geo, points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    owners = np.array([locate(space.mesh, x, y) for x, y in pts.tolist()], dtype=np.int64)
    ders = np.empty((len(_ASSEMBLY_COMBOS), len(pts)))
    for op in level_ops(space):
        at = np.flatnonzero(owners[:, 0] == op.level)
        if at.size:
            cells = owners[at, 1:]
            tx, ty, pos = point_tables(space, op, cells, pts[at], 2)
            coef = (op.matrix @ field)[op.local[pos]].reshape(at.size, tx.shape[1], -1)
            d = {(dx, dy): np.einsum("ik,jk,kij->k", tx[dx], ty[dy], coef)
                 for dx, dy in _ASSEMBLY_COMBOS}
            d = _transform_rows(geo, pts[at, None], {k: v[:, None, None] for k, v in d.items()},
                                np.ones((at.size, 1)), op.level, cells)[0]
            ders[:, at] = [d[k][:, 0, 0] for k in _ASSEMBLY_COMBOS]
    return ders[0], ders[1:3].T, ders[3:].T


def bubble_rows(q, pairs, rule, h, combos):
    kv = bernstein_knots(q)
    max_der = max(max(c) for c in combos)
    tx, ty = (class_tables(kv, nodes, max_der)[0] for nodes, _ in rule)
    ii, jj = np.array(pairs).T
    return {(dx, dy): h ** (-(dx + dy)) * (tx[dx][ii][:, :, None] * ty[dy][jj][:, None, :])
            .reshape(1, len(pairs), -1) for dx, dy in combos}


def bubble_edge_terms(q, pairs, side, mesh, level, cells, problem, geo):
    rule = _edge_rule(q - 1, side)
    pts, w = rule_on_cells(mesh, level, cells, rule)
    e = len(cells)
    rows = {c: np.broadcast_to(r, (e,) + r.shape[1:])
            for c, r in bubble_rows(q, pairs, rule, mesh.h(level), _ASSEMBLY_COMBOS[:3]).items()}
    dn, pts, wts = _edge_transform(geo, pts, side, np.broadcast_to(w, (e, w.size)),
                                   rows[(1, 0)], rows[(0, 1)], level, cells)
    return _natural_terms(problem, side, level, rows[(0, 0)], dn, pts, wts)


def assemble_blocks(bubbles, u_h, space, geo, problem):
    """The bubble blocks from one sweep per level over the union of its
    groups' bubbles."""
    geo = geo or GeometryMap.identity()
    mesh, q, loads = space.mesh, space.degree + 1, problem.point_loads
    gfun = _as_fn(problem.g)
    d_const, nu = problem.stiffness, problem.poisson
    owners = np.array([locate(mesh, *pt) for pt, _ in loads], dtype=np.int64).reshape(-1, 3)
    interior = (_gauss01(space.degree + 2),) * 2
    blocks = [None] * len(bubbles)
    for op in level_ops(space):
        level, h = op.level, mesh.h(op.level)
        ks = [k for k, group in enumerate(bubbles) if group[0] == level]
        groups = [bubbles[k] for k in ks]
        union = list(dict.fromkeys(pair for _, _, pairs, _ in groups for pair in pairs))
        brows = bubble_rows(q, union, interior, h, _ASSEMBLY_COMBOS)
        mats, rhs = [], []
        for sl, ders, wts, pts in field_chunks(space, op, op.matrix @ u_h,
                                               _DERIVATIVES):
            chunk = op.cells[sl]
            local = None if geo.constant_jacobian else geo.derivatives(pts.reshape(-1, 2))
            if not mats or not geo.constant_jacobian:
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
        # the groups' cells among the level's own, numbered from 0
        first = sum(len(mesh.cells(k)) for k in range(level))
        at = [pos - first for *_, pos in groups]
        for side in SIDES:
            pos = [p for (_, touched, _, _), p in zip(groups, at) if side in touched]
            if pos and not _vanishes(problem.neumann_M.get(side), problem.neumann_Q.get(side)):
                pos = np.concatenate(pos)
                r[pos] += bubble_edge_terms(q, union, side, mesh, level, op.cells[pos],
                                            problem, geo)
        on = np.flatnonzero(owners[:, 0] == level)
        if on.size:
            corner = owners[on, 1:] * h
            bx, by = (tabulate_in_span(bernstein_knots(q), np.clip(t, 0.0, 1.0), q, 0)[0]
                      for t in ((np.array([loads[i][0] for i in on]) - corner) / h).T)
            ii, jj = np.array(union).T
            np.add.at(r, level_positions(mesh, level, owners[on, 1:]),
                      (np.array([loads[i][1] for i in on]) * bx[ii] * by[jj]).T)
        for k, (_, _, pairs, positions), pos in zip(ks, groups, at):
            sel = np.array([union.index(pair) for pair in pairs])
            m = mat if geo.constant_jacobian else mat[pos]
            blocks[k] = BubbleBlock(level=level, at=positions, indices=list(pairs),
                                    matrix=m[:, sel[:, None], sel], rhs=r[pos][:, sel])
    return blocks


@lru_cache(maxsize=None)
def edge_rule(p, side, part=(0, 1)):
    """The edge rule on part r of f equal parts of the edge, for part (r, f)."""
    end = (np.array([0.0 if side in ("left", "bottom") else 1.0]), np.ones(1))
    (r, f), (nodes, w1) = part, _gauss01(p + 2)
    along = ((r + nodes) / f, w1 / f)
    return (end, along) if side in ("left", "right") else (along, end)


def edge_neighbor_pieces(mesh, e, side):
    """Active elements across one edge, each with the piece of the edge the
    two share: part r of f equal parts of the edge of the coarser element
    (r = 0, f = 1 when both are on one level), as (element, (r, f)); []
    for edges on the domain boundary."""
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


def residual_estimator(u_h, space, problem):
    """The strong-residual indicators: the interior terms as in the
    estimator, the edge terms by :func:`jump_terms`."""
    mesh, view = space.mesh, space.active_cells
    coeffs = space.stacked_c @ u_h
    gfun = _as_fn(problem.g)
    d_const = problem.stiffness
    loads = [_gaussian_load(pt, magnitude, mesh.h(locate(mesh, *pt).level) / 4.0)
             for pt, magnitude in problem.point_loads]
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
    return np.sqrt(np.concatenate(interior) + jump_terms(space, coeffs))


def jump_terms(space, coeffs):
    """The edge terms of the strong-residual indicators, with every interior
    edge piece found from each of its two elements by
    :func:`edge_neighbor_pieces`, once per element and side, and evaluated
    from both elements, with the edge rule of each one's side restricted to
    the piece."""
    mesh, view = space.mesh, space.active_cells
    opposite = dict(zip(SIDES, SIDES[2:] + SIDES[:2]))
    batches, pieces = {}, []

    def at(pos, side, part):
        cells = batches.setdefault((side, part), [])
        cells.append(pos)
        return (side, part), len(cells) - 1

    for pos, e in enumerate(elements(mesh)):
        for side in SIDES:
            for nb, part in edge_neighbor_pieces(mesh, e, side):
                finer = nb.level >= e.level
                other = int(mesh.cell_index(nb.level, nb.ix, nb.iy))
                pieces.append((pos, mesh.h(max(e.level, nb.level)),
                               at(pos, side, part if finer else (0, 1)),
                               at(other, opposite[side], (0, 1) if finer else part)))
    traces, keys = {}, list(batches)
    cells = [np.array(batches[key]) for key in keys]
    pts = [_rule_on_cells(space, c, edge_rule(space.degree, side, part))[0]
           for c, (side, part) in zip(cells, keys)]
    if keys:
        d = _point_ders(space, np.concatenate([c.repeat(pt.shape[1]) for c, pt in zip(cells, pts)]),
                        np.concatenate([pt.reshape(-1, 2) for pt in pts]), coeffs,
                        ((2, 0), (0, 2), (3, 0), (1, 2), (0, 3), (2, 1)))
    start = 0
    for key, pt in zip(keys, pts):
        sl = slice(start, start + pt[..., 0].size)
        start = sl.stop
        across = ((3, 0), (1, 2)) if key[0] in ("left", "right") else ((0, 3), (2, 1))
        # rows (E, nq) of the Laplacian and of its derivative across the edge
        traces[key] = [(d[k1][sl] + d[k2][sl]).reshape(pt.shape[:2])
                       for k1, k2 in (((2, 0), (0, 2)), across)]
    w1 = _gauss01(space.degree + 2)[1]
    eta2 = np.zeros(len(view.cells))
    for pos, he, (own, i), (oth, j) in pieces:
        jl = traces[own][0][i] - traces[oth][0][j]
        jn = traces[own][1][i] - traces[oth][1][j]
        eta2[pos] += 0.5 * he * float(np.sum(w1 * he * jl**2))
        eta2[pos] += 0.5 * he**3 * float(np.sum(w1 * he * jn**2))
    return eta2
