"""Hierarchical mesh and basis bookkeeping for dyadic spline refinement.

A mesh is a stack of tensor grids, one per level, where each level doubles
the resolution of the previous one. The active cells of all levels form a
disjoint partition of the parametric square. The active basis keeps, per
level, the tensor B-splines whose support meets active cells of that level
but no active cell of any coarser level.

Mesh and basis store their active cells and functions the same way: per
level, the sorted int64 keys ``ix << 32 | iy``. Every query goes through
one vectorized lookup, :func:`_find`, a ``searchsorted`` over the keys of
one level: whether cells or functions are active and where they sit in
the (level, ix, iy) order of cells and dofs, which cells surround a point,
which functions act on a cell, and which candidate functions meet a
coarser cell. Only :func:`refine` keeps Python sets, local to the call,
for its closure, which splits one cell at a time.
"""

from __future__ import annotations

import copy
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .splines import dyadic_refine, make_open_uniform

__all__ = [
    "ElementId",
    "FunctionId",
    "HierarchicalMesh",
    "HierarchicalBasis",
    "HierarchicalSpace",
    "RefinementLimitError",
    "init",
    "rebuild_basis",
    "refine",
    "check_admissible",
    "neighbors",
    "connectivity",
    "dump_mesh",
]


class RefinementLimitError(RuntimeError):
    """Raised when refinement would exceed the configured maximum level."""


class ElementId(NamedTuple):
    level: int
    ix: int
    iy: int


class FunctionId(NamedTuple):
    level: int
    ix: int
    iy: int


_LOW = (1 << 32) - 1


def _keys(ix, iy):
    """Keys ix << 32 | iy of broadcast index arrays. Indices one step
    outside a level's range give keys that no cell or function has."""
    return (np.asarray(ix, dtype=np.int64) << 32) + np.asarray(iy, dtype=np.int64)


def _find(keys, want, base=0):
    """Positions of the keys `want` (any shape) in the sorted array `keys`,
    plus `base`, and -1 where a key is absent."""
    if not keys.size:
        return np.full(np.shape(want), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return np.where(keys[pos] == want, base + pos, -1)


class HierarchicalMesh:
    """Multi-level dyadic mesh over a square parametric domain.

    Each level holds its knot vector and the sorted keys of its active
    cells; refinement never mutates a mesh in place, and refined meshes
    share the knot vectors (and so the basis tables cached on them) of the
    mesh they came from.
    """

    def __init__(self, n0, p, interval=(0.0, 1.0), max_level=20):
        if n0 < 1:
            raise ValueError("n0 must be at least 1, got %d" % n0)
        if p < 3:
            raise ValueError(
                "hierarchical plate spaces need degree >= 3, got %d" % p)
        self.n0 = int(n0)
        self.p = int(p)
        self.interval = (float(interval[0]), float(interval[1]))
        self.max_level = int(max_level)
        ix, iy = np.divmod(np.arange(self.n0 * self.n0), self.n0)
        self._kvs = [make_open_uniform(self.n0, self.p, self.interval)]
        self._keys = [_keys(ix, iy)]

    @property
    def num_levels(self):
        return len(self._keys)

    def knots(self, level):
        return self._kvs[level]

    def n_elements_1d(self, level):
        return self.n0 << level

    def h(self, level):
        a, b = self.interval
        return (b - a) / (self.n0 * 2**level)

    def cells(self, level):
        """Active cells of one level as an (E, 2) int64 array of (ix, iy),
        sorted by ix and then iy."""
        keys = self._keys[level]
        return np.stack([keys >> 32, keys & _LOW], axis=1)

    def cell_index(self, level, ix, iy):
        """Positions in :meth:`cells` of the level-`level` cells (ix, iy),
        elementwise over broadcast index arrays, and -1 where a cell is
        inactive."""
        return _find(self._keys[level], _keys(ix, iy))

    def is_active(self, e):
        return e.level < self.num_levels and bool(self.cell_index(e.level, e.ix, e.iy) >= 0)

    def active_elements(self):
        """All active elements, sorted by (level, ix, iy)."""
        return [ElementId(l, i, j) for l in range(self.num_levels)
                for i, j in self.cells(l).tolist()]

    @property
    def n_active(self):
        return sum(keys.size for keys in self._keys)

    def element_rect(self, e):
        a, _ = self.interval
        h = self.h(e.level)
        return (a + e.ix * h, a + e.iy * h, a + (e.ix + 1) * h, a + (e.iy + 1) * h)

    def h_max(self):
        for l, keys in enumerate(self._keys):
            if keys.size:
                return self.h(l)
        raise ValueError("mesh has no active elements")

    def area_covered(self):
        return sum(self.h(l) ** 2 * keys.size for l, keys in enumerate(self._keys))

    def locate(self, x, y):
        """Finest active element whose closed cell contains the point, to
        1e-12 of the interval; of several on that level, the cell that
        truncating the point's cell coordinates names comes first."""
        a, b = self.interval
        tol = 1e-12 * max(1.0, abs(a), abs(b))
        if not (a - tol <= x <= b + tol and a - tol <= y <= b + tol):
            raise ValueError("point (%r, %r) outside the parametric domain" % (x, y))
        for l in range(self.num_levels - 1, -1, -1):
            h, nel = self.h(l), self.n_elements_1d(l)
            cx, cy = ([min(int((t - a + d) / h), nel - 1) for d in (0.0, -tol, tol)]
                      for t in (x, y))
            hit = np.flatnonzero(self.cell_index(l, np.array(cx)[:, None], cy) >= 0)
            if hit.size:
                return ElementId(l, cx[hit[0] // 3], cy[hit[0] % 3])
        raise ValueError("no active element contains (%r, %r)" % (x, y))


class HierarchicalBasis:
    """Active functions of all levels with a fixed dof numbering, given by
    the sorted keys of the active functions of every level: dofs are
    numbered by (level, ix, iy), so within a level they follow the keys
    from the level's first dof on."""

    def __init__(self, level_keys):
        self._starts = np.cumsum([0] + [len(keys) for keys in level_keys])
        self._keys = np.concatenate(level_keys)

    @cached_property
    def active(self):
        """The active functions as one :class:`FunctionId` per dof."""
        levels = np.repeat(np.arange(len(self._starts) - 1), np.diff(self._starts))
        return tuple(map(FunctionId._make, zip(
            levels.tolist(), (self._keys >> 32).tolist(), (self._keys & _LOW).tolist())))

    @property
    def num_dofs(self):
        return int(self._starts[-1])

    def level_dofs(self, level, ix, iy):
        """Dof numbers of the level-`level` functions (ix, iy), elementwise
        over broadcast index arrays, and -1 where a function is inactive."""
        lo, hi = self._starts[level], self._starts[level + 1]
        return _find(self._keys[lo:hi], _keys(ix, iy), lo)


def init(n0, p, interval=(0.0, 1.0), max_level=20):
    """Fresh single-level space: all coarse elements and functions active."""
    mesh = HierarchicalMesh(n0, p, interval, max_level)
    return mesh, rebuild_basis(mesh)


def rebuild_basis(mesh):
    """Select the active functions of every level.

    A level-l function is active when its support overlaps at least one
    active level-l cell and no active cell of any coarser level. The
    candidates of a level, the functions nonzero on its active cells, are
    tested together: each support, shifted to a coarser level, is a box of
    at most w x w cells there, and all boxes are looked up at once.
    """
    loc = np.arange(mesh.p + 1)
    level_keys = []
    for l in range(mesh.num_levels):
        cells = mesh.cells(l)
        cand = np.unique(_keys(cells[:, 0, None, None] + loc[:, None],
                               cells[:, 1, None, None] + loc))
        # inclusive cell range of each candidate's support, per direction
        f = np.stack([cand >> 32, cand & _LOW])
        lo, hi = np.maximum(f - mesh.p, 0), np.minimum(f, mesh.n_elements_1d(l) - 1)
        free = np.ones(cand.size, dtype=bool)
        for lc in range(l):
            c0, c1 = lo >> (l - lc), hi >> (l - lc)
            # the box's cells, its last row and column repeated to width w
            off = np.arange(int((c1 - c0).max(initial=0)) + 1)
            cx = np.minimum(c0[0][:, None, None] + off[:, None], c1[0][:, None, None])
            cy = np.minimum(c0[1][:, None, None] + off, c1[1][:, None, None])
            free &= (mesh.cell_index(lc, cx, cy) < 0).all(axis=(1, 2))
        level_keys.append(cand[free])
    return HierarchicalBasis(level_keys)


class _Draft:
    """Working copy of a mesh for :func:`refine`: its knot vectors and, per
    level, the set of active cell keys, which the closure updates one cell
    at a time."""

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


def refine(mesh, marked, m):
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


def check_admissible(mesh, m, basis=None):
    """True iff every active function acting on an active level-l element
    has level >= l - m + 1."""
    if basis is None:
        basis = rebuild_basis(mesh)
    loc = np.arange(mesh.p + 1)
    for l in range(m, mesh.num_levels):
        for k in range(l - m + 1):
            ax, ay = (mesh.cells(l) >> (l - k)).T
            if (basis.level_dofs(k, ax[:, None, None] + loc[:, None],
                                 ay[:, None, None] + loc) >= 0).any():
                return False
    return True


def neighbors(mesh, e):
    """Active same-level elements sharing an edge or a vertex with e."""
    if not mesh.is_active(e):
        raise ValueError("element %s is not active" % (e,))
    around = [(e.ix + dx, e.iy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    found = mesh.cell_index(e.level, *np.array(around).T) >= 0
    return {ElementId(e.level, i, j) for (i, j), f in zip(around, found) if f}


def connectivity(mesh, basis, e):
    """Active functions (of any level up to e's) nonzero on element e,
    ordered by (level, ix, iy)."""
    if not mesh.is_active(e):
        raise ValueError("element %s is not active" % (e,))
    loc = np.arange(mesh.p + 1)
    dofs = np.concatenate([
        basis.level_dofs(k, (e.ix >> (e.level - k)) + loc[:, None],
                         (e.iy >> (e.level - k)) + loc).ravel()
        for k in range(e.level + 1)])
    return [basis.active[d] for d in dofs[dofs >= 0].tolist()]


def dump_mesh(mesh):
    """Plain-text dump: one active element per line, 'level x0 y0 x1 y1'."""
    lines = []
    for e in mesh.active_elements():
        x0, y0, x1, y1 = mesh.element_rect(e)
        lines.append("%d %.17g %.17g %.17g %.17g" % (e.level, x0, y0, x1, y1))
    return "\n".join(lines) + "\n"


class HierarchicalSpace:
    """A hierarchical mesh together with its active basis."""

    def __init__(self, mesh, basis=None):
        self.mesh = mesh
        self.basis = basis if basis is not None else rebuild_basis(mesh)

    @classmethod
    def create(cls, n0, p, interval=(0.0, 1.0), max_level=20):
        return cls(HierarchicalMesh(n0, p, interval, max_level))

    @property
    def degree(self):
        return self.mesh.p

    @property
    def num_dofs(self):
        return self.basis.num_dofs

    def refined(self, marked, m):
        return HierarchicalSpace(refine(self.mesh, marked, m))
