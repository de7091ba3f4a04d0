"""Recursive reference for the admissible closure, which the tests compare
the program's one-sweep :func:`hbplate.hierarchy.refine` against: a working
copy of the mesh on Python sets, split one cell at a time, where every
split first splits the active cells of its support extension on the level
m - 1 coarser, recursively. The reference takes elements (level, ix, iy);
:func:`positions` names them as ``refine`` does. :func:`locate` is the
per-point reference for ``mesh.locate``, and :func:`neighbors` the
per-element reference for ``expand_marks``.

The program names cells and functions by their rows in
``mesh.active_elements()`` and ``basis.indices``; :func:`elements`,
:func:`functions` and :func:`cell_rect` turn those rows into the tuples and
rectangles that the oracles compare."""

import copy
from typing import NamedTuple

import numpy as np

from hbplate.hierarchy import RefinementLimitError
from hbplate.splines import dyadic_refine


class ElementId(NamedTuple):
    """An active cell, by its level and its index on that level."""

    level: int
    ix: int
    iy: int


class FunctionId(NamedTuple):
    """An active function, by its level and its tensor index on that level."""

    level: int
    ix: int
    iy: int


def elements(mesh):
    """The active cells in position order, one :class:`ElementId` each."""
    return [ElementId(*row) for row in mesh.active_elements().tolist()]


def functions(basis):
    """The active functions in dof order, one :class:`FunctionId` each."""
    return [FunctionId(*f) for f in zip(*(a.tolist() for a in basis.indices))]


def cell_rect(mesh, e):
    """The parametric rectangle (x0, y0, x1, y1) of the cell e."""
    h = mesh.h(e.level)
    return (e.ix * h, e.iy * h, (e.ix + 1) * h, (e.iy + 1) * h)


def neighbors(mesh, e):
    """Active same-level elements sharing an edge or a vertex with the
    active element e."""
    if mesh.cell_index(*e) < 0:
        raise ValueError("element %s is not active" % (e,))
    around = [(e.ix + dx, e.iy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    found = mesh.cell_index(e.level, *np.array(around).T) >= 0
    return {ElementId(e.level, i, j) for (i, j), f in zip(around, found) if f}


def positions(mesh, marked):
    """Positions in ``mesh.active_elements()`` of the active elements
    (level, ix, iy), the marks that ``refine`` takes: each cell's
    ``cell_index``."""
    out = []
    for e in map(ElementId._make, marked):
        k = int(mesh.cell_index(e.level, e.ix, e.iy))
        assert k >= 0, "element %s is not active" % (e,)
        out.append(k)
    return np.array(out, dtype=np.int64)


def locate(mesh, x, y):
    """The finest active element whose closed cell contains the point (x, y),
    to 1e-12, one point and one level at a time: of several on that level,
    the first of the cells that the truncated cell coordinates, then those
    of the point moved by -1e-12 and by +1e-12, name, x-major. The
    reference for the batched ``mesh.locate``."""
    tol = 1e-12
    if not (-tol <= x <= 1.0 + tol and -tol <= y <= 1.0 + tol):
        raise ValueError("point (%r, %r) outside the parametric domain" % (x, y))
    for l in range(mesh.num_levels - 1, -1, -1):
        h, nel = mesh.h(l), mesh.n_elements_1d(l)
        cx, cy = ([min(int((t + d) / h), nel - 1) for d in (0.0, -tol, tol)] for t in (x, y))
        for i in cx:
            for j in cy:
                if mesh.cell_index(l, i, j) >= 0:
                    return ElementId(l, i, j)
    raise ValueError("no active element contains (%r, %r)" % (x, y))


class _Draft:
    """Working copy of a mesh for :func:`refine_recursive`: its knot
    vectors and, per level, the set of active cell keys, which the closure
    updates one cell at a time."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.kvs = list(mesh._kvs)
        self.active = [set(keys.tolist()) for keys in mesh._keys]

    def is_active(self, e):
        return e.level < len(self.active) and (e.ix << 32) + e.iy in self.active[e.level]

    def finish(self):
        """The drafted mesh, with each level's keys sorted once."""
        out = copy.copy(self.mesh)
        out._kvs = self.kvs
        out._keys = [np.sort(np.fromiter(act, dtype=np.int64, count=len(act)))
                     for act in self.active]
        return out


def _closure_targets(work, e, coarse_level):
    """Active elements of level <= coarse_level overlapping the support
    extension of e (the union of supports of coarse-level functions that
    are nonzero on e)."""
    p = work.mesh.p
    shift = e.level - coarse_level
    ax, ay = e.ix >> shift, e.iy >> shift
    nel = work.mesh.n_elements_1d(coarse_level)
    bx0, bx1 = max(0, ax - p), min(nel - 1, ax + p)
    by0, by1 = max(0, ay - p), min(nel - 1, ay + p)
    targets = []
    for lc in range(coarse_level + 1):
        sh = coarse_level - lc
        act = work.active[lc]
        if not act:
            continue
        for cx in range(bx0 >> sh, (bx1 >> sh) + 1):
            for cy in range(by0 >> sh, (by1 >> sh) + 1):
                if (cx << 32) + cy in act:
                    targets.append(ElementId(lc, cx, cy))
    return targets


def _subdivide(work, e):
    if e.level + 1 > work.mesh.max_level:
        raise RefinementLimitError(
            "refining element %s would exceed maximum level %d"
            % (e, work.mesh.max_level))
    if e.level + 1 == len(work.active):
        work.kvs.append(dyadic_refine(work.kvs[-1]))
        work.active.append(set())
    work.active[e.level].remove((e.ix << 32) + e.iy)
    child = work.active[e.level + 1]
    for dx in (0, 1):
        for dy in (0, 1):
            child.add(((2 * e.ix + dx) << 32) + 2 * e.iy + dy)


def _refine_recursive(work, e, m):
    coarse = e.level - m + 1
    if coarse >= 0:
        while True:
            targets = _closure_targets(work, e, coarse)
            if not targets:
                break
            for t in sorted(targets):
                if work.is_active(t):
                    _refine_recursive(work, t, m)
    if work.is_active(e):
        _subdivide(work, e)


def refine_recursive(mesh, marked, m):
    """Subdivide the marked elements, closing the mesh to admissibility class m.

    Before an element of level l is split, every active element of level
    <= l - m + 1 inside its support extension is split first (recursively),
    so functions more than m levels coarser can never act on the children.
    """
    if m < 2:
        raise ValueError("admissibility class must be at least 2, got %d" % m)
    work = _Draft(mesh)
    marked = sorted(ElementId(*e) for e in marked)
    for e in marked:
        if not work.is_active(e):
            raise ValueError("marked element %s is not active" % (e,))
    for e in marked:
        if work.is_active(e):
            _refine_recursive(work, e, m)
    return work.finish()
