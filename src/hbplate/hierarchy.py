"""Hierarchical mesh and basis bookkeeping for dyadic spline refinement.

A mesh is a stack of tensor grids, one per level, where each level doubles
the resolution of the previous one. The active cells of all levels form a
disjoint partition of the parametric unit square, which only a geometry
map carries to the plate. The active basis keeps, per level, the tensor
B-splines whose support meets active cells of that level but no active
cell of any coarser level.

Mesh and basis store their active cells and functions the same way: per
level, the sorted int64 keys ``ix << 32 | iy``. Every query goes through
one vectorized lookup, :func:`_find`, a ``searchsorted`` over the keys of
one level: whether cells or functions are active and where they sit in
the (level, ix, iy) order of cells and dofs, which cells surround a point,
which functions act on a cell, and which candidate functions meet a
coarser cell. :func:`refine` closes the marked set to admissibility on
the same arrays, in one sweep from the finest level down.

On the active cells of one level every active function is a fixed sum of
that level's tensor B-splines (the dyadic two-scale relation);
:func:`two_scale` gives that sum as a sparse operator per level, and a
:class:`HierarchicalSpace` stacks them, once per space, for every
consumer: C = [C_l] and the active cells of all levels in one numbering.
"""

from __future__ import annotations

import copy
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .splines import (_check_integer, cell_classes, dyadic_refine, make_open_uniform,
                      refinement_matrix)

__all__ = [
    "HierarchicalMesh",
    "HierarchicalBasis",
    "HierarchicalSpace",
    "LevelOperator",
    "ActiveCells",
    "RefinementLimitError",
    "init",
    "rebuild_basis",
    "refine",
    "check_admissible",
    "connectivity",
    "two_scale",
    "dump_mesh",
]


class RefinementLimitError(RuntimeError):
    """Raised when refinement would exceed the configured maximum level."""


_LOW = (1 << 32) - 1
_NO_KEYS = np.empty(0, dtype=np.int64)


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
    """Multi-level dyadic mesh over the parametric unit square.

    Each level holds its knot vector and the sorted keys of its active
    cells; refinement never mutates a mesh in place, and refined meshes
    share the knot vectors (and so the basis tables cached on them) of the
    mesh they came from.
    """

    def __init__(self, n0, p, max_level=20):
        self.n0 = _check_integer(n0, 1, "n0 must be at least 1")
        self.p = _check_integer(p, 3, "hierarchical plate spaces need degree >= 3")
        self.max_level = _check_integer(max_level, 0, "max_level must be at least 0")
        ix, iy = np.divmod(np.arange(self.n0 * self.n0), self.n0)
        self._kvs = [make_open_uniform(self.n0, self.p)]
        self._keys = [_keys(ix, iy)]

    @property
    def num_levels(self):
        return len(self._keys)

    def knots(self, level):
        return self._kvs[level]

    def n_elements_1d(self, level):
        return self.n0 << level

    def h(self, level):
        return 1.0 / (self.n0 * 2**level)

    def cells(self, level):
        """Active cells of one level as an (E, 2) int64 array of (ix, iy),
        sorted by ix and then iy."""
        keys = self._keys[level]
        return np.stack([keys >> 32, keys & _LOW], axis=1)

    def cell_index(self, level, ix, iy):
        """Positions in :meth:`active_elements` of the level-`level` cells
        (ix, iy), elementwise over broadcast index arrays, and -1 where a
        cell is inactive or the level is outside [0, num_levels)."""
        if not 0 <= level < self.num_levels:
            return _find(_NO_KEYS, _keys(ix, iy))
        return _find(self._keys[level], _keys(ix, iy), sum(k.size for k in self._keys[:level]))

    def active_elements(self):
        """Active cells as an (E, 3) int64 array of rows (level, ix, iy),
        sorted: a cell's row here is its position in the indicators, the
        marks and :func:`refine`."""
        keys = np.concatenate(self._keys)
        level = np.repeat(np.arange(self.num_levels, dtype=np.int64), [k.size for k in self._keys])
        return np.stack([level, keys >> 32, keys & _LOW], axis=1)

    @property
    def n_active(self):
        return sum(keys.size for keys in self._keys)

    def h_max(self):
        for l, keys in enumerate(self._keys):
            if keys.size:
                return self.h(l)
        raise ValueError("mesh has no active elements")

    def area_covered(self):
        return sum(self.h(l) ** 2 * keys.size for l, keys in enumerate(self._keys))

    def locate(self, points):
        """Positions (n,) in :meth:`active_elements` of the finest active
        cells whose closed cells hold the points (n, 2), to 1e-12: of several
        on a level, the first that the truncated cell coordinates of the point,
        then of the point moved by -1e-12 and by +1e-12, name, x-major."""
        tol, pts = 1e-12, np.asarray(points, dtype=float)
        pts = pts.reshape(0, 2) if pts.shape == (0,) else pts
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be shaped (n, 2), got %s" % (pts.shape,))
        inside = ((pts >= -tol) & (pts <= 1.0 + tol)).all(axis=1)
        out = np.full(len(pts), -1, dtype=np.int64)
        for l in range(self.num_levels - 1, -1, -1):
            left = np.flatnonzero((out < 0) & inside)
            c = np.minimum(((pts[left, :, None] + [0.0, -tol, tol]) / self.h(l)).astype(np.int64),
                           self.n_elements_1d(l) - 1)
            # the first active candidate of each point, or -1 where none is
            found = self.cell_index(l, c[:, 0, :, None], c[:, 1, None, :]).reshape(-1, 9)
            out[left] = found[np.arange(len(left)), (found >= 0).argmax(axis=1)]
        if (out < 0).any():
            raise ValueError("point (%g, %g) outside the unit square" % tuple(pts[out < 0][0]))
        return out


class HierarchicalBasis:
    """Active functions of all levels with a fixed dof numbering, given by
    the sorted keys of the active functions of every level: dofs are
    numbered by (level, ix, iy), so within a level they follow the keys
    from the level's first dof on."""

    def __init__(self, level_keys):
        self._starts = np.cumsum([0] + [len(keys) for keys in level_keys])
        self._keys = np.concatenate(level_keys)

    @cached_property
    def indices(self):
        """The level, ix and iy of every dof, as three int64 arrays."""
        levels = np.repeat(np.arange(len(self._starts) - 1), np.diff(self._starts))
        return levels, self._keys >> 32, self._keys & _LOW

    @property
    def num_dofs(self):
        return int(self._starts[-1])

    def level_dofs(self, level, ix, iy):
        """Dof numbers of the level-`level` functions (ix, iy), elementwise
        over broadcast index arrays, and -1 where a function is inactive or
        the level is outside [0, num_levels)."""
        if not 0 <= level < len(self._starts) - 1:
            return _find(_NO_KEYS, _keys(ix, iy))
        lo, hi = self._starts[level], self._starts[level + 1]
        return _find(self._keys[lo:hi], _keys(ix, iy), lo)


def init(n0, p, max_level=20):
    """Fresh single-level space: all coarse elements and functions active."""
    mesh = HierarchicalMesh(n0, p, max_level)
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


def _coarsen(keys, shift=1):
    """Sorted keys of the cells `shift` levels coarser that contain the
    cells `keys`."""
    return np.unique(_keys((keys >> 32) >> shift, (keys & _LOW) >> shift))


def _positions(marked, n_active):
    """The positions `marked` as int64; ValueError for anything but a 1-D
    integer array, and for the first position outside [0, n_active)."""
    marked = np.asarray(marked)
    if marked.ndim != 1 or (marked.size and marked.dtype.kind not in "iu"):
        raise ValueError("marks must be 1-D integers, got %s %s" % (marked.dtype, marked.shape))
    bad = np.flatnonzero((marked < 0) | (marked >= n_active))
    if bad.size:
        raise ValueError("marked position %d is outside [0, %d)" % (marked[bad[0]], n_active))
    return marked.astype(np.int64)


def refine(mesh, marked, m):
    """Subdivide the marked elements, positions in ``mesh.active_elements()``
    (any order, repeats allowed), closing the mesh to admissibility class m.

    Splitting a level-l element requires every cell of level l - m + 1 in
    its support extension (the box of p cells on each side of its ancestor
    there) to be split, so functions more than m levels coarser can never
    act on the children. The smallest set of splits that holds the marks
    and this closure comes from one sweep over per-level key arrays, from
    the finest level down: the level-l cells to split are those already
    covered by finer cells, the marks, the parents of the splits one level
    finer and the boxes that finer new splits asked for. Only new splits
    ask, each for its box on level l - m + 1 < l, which the sweep has not
    reached yet.
    """
    _check_integer(m, 2, "admissibility class must be at least 2")
    marked = _positions(marked, mesh.n_active)
    marks = np.concatenate(mesh._keys)[marked]
    marks_level = np.searchsorted(np.cumsum([k.size for k in mesh._keys]), marked, side="right")
    levels = mesh.num_levels
    # covered[l]: the level-l cells that finer active cells already cover
    covered = [_NO_KEYS] * levels
    for l in range(levels - 2, -1, -1):
        covered[l] = _coarsen(np.concatenate([mesh._keys[l + 1], covered[l + 1]]))
    asked = [[] for _ in range(levels)]
    split = [_NO_KEYS] * (levels + 1)
    box = np.arange(-mesh.p, mesh.p + 1)
    for l in range(levels - 1, -1, -1):
        split[l] = np.unique(np.concatenate(
            [covered[l], marks[marks_level == l], _coarsen(split[l + 1]), *asked[l]]))
        new = split[l][_find(covered[l], split[l]) < 0]
        if new.size and l >= mesh.max_level:
            raise RefinementLimitError(
                "refining level-%d cell (%d, %d) would exceed maximum level %d"
                % (l, new[0] >> 32, new[0] & _LOW, mesh.max_level))
        c = l - m + 1
        if new.size and c >= 0:
            a, last = _coarsen(new, l - c), mesh.n_elements_1d(c) - 1
            asked[c].append(_keys(np.clip((a >> 32)[:, None, None] + box[:, None], 0, last),
                                  np.clip((a & _LOW)[:, None, None] + box, 0, last)).ravel())
    out = copy.copy(mesh)
    out._kvs = list(mesh._kvs)
    if split[levels - 1].size:
        out._kvs.append(dyadic_refine(out._kvs[-1]))
    cells, two = _keys(*np.divmod(np.arange(mesh.n0 * mesh.n0), mesh.n0)), np.arange(2)
    out._keys = []
    for l in range(len(out._kvs)):
        cells = np.sort(cells)
        out._keys.append(cells[_find(split[l], cells) < 0])
        # the next level's cells: the children of this level's splits
        ix, iy = split[l] >> 32, split[l] & _LOW
        cells = _keys(2 * ix[:, None, None] + two[:, None], 2 * iy[:, None, None] + two).ravel()
    return out


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


def connectivity(mesh, basis, cell):
    """Sorted int64 dofs of the active functions (of any level up to the
    cell's) nonzero on the active cell (level, ix, iy)."""
    level, ix, iy = map(int, cell)
    if not (0 <= level < mesh.num_levels and mesh.cell_index(level, ix, iy) >= 0):
        raise ValueError("cell (%d, %d, %d) is not active" % (level, ix, iy))
    loc = np.arange(mesh.p + 1)
    dofs = np.concatenate([
        basis.level_dofs(k, (ix >> (level - k)) + loc[:, None], (iy >> (level - k)) + loc).ravel()
        for k in range(level + 1)])
    return dofs[dofs >= 0]


class LevelOperator(NamedTuple):
    """The two-scale operator of one level with active cells: the level's
    active cells (E, 2), the sorted keys of its tensor B-splines on them,
    each cell's (p + 1)^2 functions among the keys (E, (p + 1)^2, x-major),
    and C (keys x dofs, CSR): the active functions are C^T times the
    level's B-splines on those cells."""

    level: int
    cells: np.ndarray
    keys: np.ndarray
    local: np.ndarray
    matrix: sp.csr_matrix


class ActiveCells(NamedTuple):
    """The active cells of all levels in ``mesh.active_elements()`` order
    (E, 2), the one numbering of every assembly pass, in which
    ``mesh.cell_index`` and ``mesh.locate`` answer, with their levels and
    sizes h (E,), the rows (E, 2) of their x and y classes
    (:func:`~hbplate.splines.cell_classes`) in those of all levels with
    cells, stacked, and their (p + 1)^2 functions among the keys of
    :attr:`HierarchicalSpace.stacked_ct`. tables keeps the stacked class
    tables the level kernel has used."""

    cells: np.ndarray
    level: np.ndarray
    h: np.ndarray
    classes: np.ndarray
    local: np.ndarray
    tables: dict


def two_scale(mesh, basis, level):
    """The :class:`LevelOperator` of one level with active cells. On its
    cells, C writes each active function as the sum of the level's
    B-splines: the function itself on its own level, by
    :func:`~hbplate.splines.refinement_matrix` in each direction on a
    coarser one, where terms outside keys vanish on those cells and are
    dropped.
    """
    cells, loc = mesh.cells(level), np.arange(mesh.p + 1)
    fine = _keys(cells[:, 0, None, None] + loc[:, None], cells[:, 1, None, None] + loc)
    keys, local = np.unique(fine, return_inverse=True)
    parts = []
    # the cells' ancestors on level k, found level by level downwards
    ancestors = cells
    for k in range(level, -1, -1):
        if k < level:
            up = np.unique(_keys(ancestors[:, 0] >> 1, ancestors[:, 1] >> 1))
            ancestors = np.stack([up >> 32, up & _LOW], axis=1)
        found = basis.level_dofs(k, ancestors[:, 0, None, None] + loc[:, None],
                                 ancestors[:, 1, None, None] + loc)
        acting = np.zeros(basis.num_dofs, dtype=bool)
        acting[found[found >= 0]] = True
        dofs = np.flatnonzero(acting)
        if not dofs.size:
            continue
        own = basis._keys[dofs]
        if k == level:
            parts.append((dofs, _find(keys, own), np.ones(dofs.size)))
            continue
        rows, values = refinement_matrix(mesh.knots(k), mesh.knots(level))
        rx, vx = rows[own >> 32], values[own >> 32]
        ry, vy = rows[own & _LOW], values[own & _LOW]
        at = _find(keys, _keys(rx[:, :, None], ry[:, None, :]))
        val = vx[:, :, None] * vy[:, None, :]
        keep = (at >= 0) & (val != 0.0)
        parts.append((np.broadcast_to(dofs[:, None, None], at.shape)[keep], at[keep], val[keep]))
    dofs, rows, values = map(np.concatenate, zip(*parts))
    return LevelOperator(level, cells, keys, local.reshape(len(cells), -1), sp.csr_matrix(
        (values, (rows, dofs)), shape=(len(keys), basis.num_dofs)))


def dump_mesh(mesh):
    """Plain-text dump: one active element per line, 'level x0 y0 x1 y1'."""
    lines = []
    for level, ix, iy in mesh.active_elements().tolist():
        h = mesh.h(level)
        lines.append("%d %.17g %.17g %.17g %.17g"
                     % (level, ix * h, iy * h, (ix + 1) * h, (iy + 1) * h))
    return "\n".join(lines) + "\n"


class HierarchicalSpace:
    """A hierarchical mesh together with its active basis."""

    def __init__(self, mesh):
        self.mesh = mesh

    @cached_property
    def basis(self):
        """The active basis of the mesh, built on first use."""
        return rebuild_basis(self.mesh)

    @classmethod
    def create(cls, n0, p, max_level=20):
        return cls(HierarchicalMesh(n0, p, max_level))

    @property
    def degree(self):
        return self.mesh.p

    @property
    def num_dofs(self):
        return self.basis.num_dofs

    @property
    def active_cells(self):
        """The :class:`ActiveCells` of this space."""
        return self._stacked[0]

    @property
    def stacked_ct(self):
        """C^T = [C_l^T] over the levels with active cells, in CSR, the
        columns of each C_l^T numbered after those of the levels before it."""
        return self._stacked[1]

    @property
    def stacked_c(self):
        """C = [C_l], the transpose of :attr:`stacked_ct`: a CSC view of it."""
        return self._stacked[2]

    @cached_property
    def _stacked(self):
        """:attr:`active_cells` and :attr:`stacked_ct` from :func:`two_scale`,
        built on first use and shared by every assembly on this space."""
        mesh = self.mesh
        ops = [two_scale(mesh, self.basis, l) for l in range(mesh.num_levels) if len(mesh.cells(l))]
        kvs = [mesh.knots(op.level) for op in ops]
        keys = np.cumsum([0] + [len(op.keys) for op in ops])
        classes = np.cumsum([0] + [min(kv.num_elements, 2 * mesh.p + 1) for kv in kvs])
        rows = mesh.active_elements()
        view = ActiveCells(
            rows[:, 1:], rows[:, 0],
            np.array([mesh.h(l) for l in range(mesh.num_levels)])[rows[:, 0]],
            np.concatenate([cell_classes(kv, op.cells) + c
                            for op, kv, c in zip(ops, kvs, classes)]),
            np.concatenate([op.local + k for op, k in zip(ops, keys)]), {})
        ct = sp.vstack([op.matrix for op in ops], format="csr").T.tocsr()
        return view, ct, ct.T

    def refined(self, marked, m):
        """The space on ``refine(self.mesh, marked, m)``, marked in :attr:`active_cells`."""
        return HierarchicalSpace(refine(self.mesh, marked, m))
