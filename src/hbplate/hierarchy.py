"""Hierarchical mesh and basis bookkeeping for dyadic spline refinement.

A mesh is a stack of tensor grids, one per level, where each level doubles
the resolution of the previous one. The active cells of all levels form a
disjoint partition of the parametric square. The active basis keeps, per
level, the tensor B-splines whose support meets active cells of that level
but no active cell of any coarser level.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .splines import KnotVector, dyadic_refine, make_open_uniform

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


class _Level:
    __slots__ = ("kv", "nel", "active")

    def __init__(self, kv, nel, active):
        self.kv = kv
        self.nel = nel
        self.active = active

    def copy(self):
        return _Level(self.kv, self.nel, set(self.active))


class HierarchicalMesh:
    """Multi-level dyadic mesh over a square parametric domain.

    Each level holds its knot vector and its set of active cells; refinement
    never mutates a mesh in place, and refined meshes share the knot vectors
    (and so the basis tables cached on them) of the mesh they came from.
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
        kv0 = make_open_uniform(self.n0, self.p, self.interval)
        active0 = {(i, j) for i in range(self.n0) for j in range(self.n0)}
        self._levels = [_Level(kv0, self.n0, active0)]

    @classmethod
    def _from_levels(cls, template, levels):
        mesh = cls.__new__(cls)
        mesh.n0 = template.n0
        mesh.p = template.p
        mesh.interval = template.interval
        mesh.max_level = template.max_level
        mesh._levels = levels
        return mesh

    def _copy(self):
        return HierarchicalMesh._from_levels(self, [lv.copy() for lv in self._levels])

    def _ensure_level(self, l):
        while len(self._levels) <= l:
            if len(self._levels) > self.max_level:
                raise RefinementLimitError(
                    "refinement beyond maximum level %d refused" % self.max_level)
            prev = self._levels[-1]
            self._levels.append(_Level(dyadic_refine(prev.kv), 2 * prev.nel, set()))

    @property
    def num_levels(self):
        return len(self._levels)

    def knots(self, level):
        return self._levels[level].kv

    def n_elements_1d(self, level):
        return self._levels[level].nel

    def h(self, level):
        a, b = self.interval
        return (b - a) / (self.n0 * 2**level)

    def active_level(self, level):
        return self._levels[level].active

    def is_active(self, e):
        return e.level < len(self._levels) and (e.ix, e.iy) in self._levels[e.level].active

    def active_elements(self):
        """All active elements, sorted by (level, ix, iy)."""
        out = []
        for l, lv in enumerate(self._levels):
            out.extend(ElementId(l, i, j) for (i, j) in sorted(lv.active))
        return out

    @property
    def n_active(self):
        return sum(len(lv.active) for lv in self._levels)

    def element_rect(self, e):
        a, _ = self.interval
        h = self.h(e.level)
        return (a + e.ix * h, a + e.iy * h, a + (e.ix + 1) * h, a + (e.iy + 1) * h)

    def h_max(self):
        for l, lv in enumerate(self._levels):
            if lv.active:
                return self.h(l)
        raise ValueError("mesh has no active elements")

    def area_covered(self):
        return sum(self.h(l) ** 2 * len(lv.active) for l, lv in enumerate(self._levels))

    def locate(self, x, y):
        """Finest active element whose closed cell contains the point."""
        a, b = self.interval
        tol = 1e-12 * max(1.0, abs(a), abs(b))
        if not (a - tol <= x <= b + tol and a - tol <= y <= b + tol):
            raise ValueError("point (%r, %r) outside the parametric domain" % (x, y))
        for l in range(len(self._levels) - 1, -1, -1):
            nel = self._levels[l].nel
            h = self.h(l)
            ix = min(int((x - a) / h), nel - 1)
            iy = min(int((y - a) / h), nel - 1)
            if (ix, iy) in self._levels[l].active:
                return ElementId(l, ix, iy)
        raise ValueError("no active element contains (%r, %r)" % (x, y))


class HierarchicalBasis:
    """Active functions of all levels with a fixed dof numbering."""

    def __init__(self, active, level_sets):
        self.active = tuple(active)
        self.level_sets = level_sets
        self.dof_index = {f: i for i, f in enumerate(self.active)}

    @property
    def num_dofs(self):
        return len(self.active)

    def is_active(self, f):
        return f.level < len(self.level_sets) and (f.ix, f.iy) in self.level_sets[f.level]


def init(n0, p, interval=(0.0, 1.0), max_level=20):
    """Fresh single-level space: all coarse elements and functions active."""
    mesh = HierarchicalMesh(n0, p, interval, max_level)
    return mesh, rebuild_basis(mesh)


def _support_range(ix, p, nel):
    """Inclusive cell-index range of the support of univariate function ix."""
    return max(0, ix - p), min(nel - 1, ix)


def _meets_coarser(mesh, level, x0, x1, y0, y1):
    """True if the cell rectangle [x0..x1]x[y0..y1] at `level` overlaps any
    active cell of a strictly coarser level."""
    for lc in range(level - 1, -1, -1):
        shift = level - lc
        act = mesh._levels[lc].active
        if not act:
            continue
        cx0, cx1 = x0 >> shift, x1 >> shift
        cy0, cy1 = y0 >> shift, y1 >> shift
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                if (cx, cy) in act:
                    return True
    return False


def rebuild_basis(mesh):
    """Select the active functions of every level.

    A level-l function is active when its support overlaps at least one
    active level-l cell and no active cell of any coarser level.
    """
    p = mesh.p
    active = []
    level_sets = []
    for l in range(mesh.num_levels):
        lv = mesh._levels[l]
        chosen = set()
        if lv.active:
            nel = lv.nel
            candidates = set()
            for (cx, cy) in lv.active:
                for i in range(cx, cx + p + 1):
                    for j in range(cy, cy + p + 1):
                        candidates.add((i, j))
            for (fx, fy) in candidates:
                sx0, sx1 = _support_range(fx, p, nel)
                sy0, sy1 = _support_range(fy, p, nel)
                if not _meets_coarser(mesh, l, sx0, sx1, sy0, sy1):
                    chosen.add((fx, fy))
        level_sets.append(chosen)
        active.extend(FunctionId(l, fx, fy) for (fx, fy) in sorted(chosen))
    return HierarchicalBasis(active, level_sets)


def _closure_targets(mesh, e, coarse_level):
    """Active elements of level <= coarse_level overlapping the support
    extension of e (the union of supports of coarse-level functions that
    are nonzero on e)."""
    p = mesh.p
    shift = e.level - coarse_level
    ax, ay = e.ix >> shift, e.iy >> shift
    nel = mesh._levels[coarse_level].nel if coarse_level < mesh.num_levels else None
    if nel is None:
        return []
    bx0, bx1 = max(0, ax - p), min(nel - 1, ax + p)
    by0, by1 = max(0, ay - p), min(nel - 1, ay + p)
    targets = []
    for lc in range(coarse_level + 1):
        sh = coarse_level - lc
        act = mesh._levels[lc].active
        if not act:
            continue
        for cx in range(bx0 >> sh, (bx1 >> sh) + 1):
            for cy in range(by0 >> sh, (by1 >> sh) + 1):
                if (cx, cy) in act:
                    targets.append(ElementId(lc, cx, cy))
    return targets


def _subdivide(mesh, e):
    if e.level + 1 > mesh.max_level:
        raise RefinementLimitError(
            "refining element %s would exceed maximum level %d"
            % (e, mesh.max_level))
    mesh._ensure_level(e.level + 1)
    lv = mesh._levels[e.level]
    lv.active.remove((e.ix, e.iy))
    child = mesh._levels[e.level + 1].active
    for dx in (0, 1):
        for dy in (0, 1):
            child.add((2 * e.ix + dx, 2 * e.iy + dy))


def _refine_recursive(mesh, e, m):
    coarse = e.level - m + 1
    if coarse >= 0:
        while True:
            targets = _closure_targets(mesh, e, coarse)
            if not targets:
                break
            for t in sorted(targets):
                if mesh.is_active(t):
                    _refine_recursive(mesh, t, m)
    if mesh.is_active(e):
        _subdivide(mesh, e)


def refine(mesh, marked, m):
    """Subdivide the marked elements, closing the mesh to admissibility class m.

    Before an element of level l is split, every active element of level
    <= l - m + 1 inside its support extension is split first (recursively),
    so functions more than m levels coarser can never act on the children.
    """
    if m < 2:
        raise ValueError("admissibility class must be at least 2, got %d" % m)
    marked = [ElementId(*e) for e in marked]
    for e in marked:
        if not mesh.is_active(e):
            raise ValueError("marked element %s is not active" % (e,))
    out = mesh._copy()
    for e in sorted(marked):
        if out.is_active(e):
            _refine_recursive(out, e, m)
    return out


def check_admissible(mesh, m, basis=None):
    """True iff every active function acting on an active level-l element
    has level >= l - m + 1."""
    if basis is None:
        basis = rebuild_basis(mesh)
    p = mesh.p
    for e in mesh.active_elements():
        for k in range(0, e.level - m + 1):
            fns = basis.level_sets[k] if k < len(basis.level_sets) else None
            if not fns:
                continue
            shift = e.level - k
            ax, ay = e.ix >> shift, e.iy >> shift
            for fx in range(ax, ax + p + 1):
                for fy in range(ay, ay + p + 1):
                    if (fx, fy) in fns:
                        return False
    return True


def neighbors(mesh, e):
    """Active same-level elements sharing an edge or a vertex with e."""
    if not mesh.is_active(e):
        raise ValueError("element %s is not active" % (e,))
    act = mesh._levels[e.level].active
    out = set()
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            c = (e.ix + dx, e.iy + dy)
            if c in act:
                out.add(ElementId(e.level, c[0], c[1]))
    return out


def connectivity(mesh, basis, e):
    """Active functions (of any level up to e's) nonzero on element e,
    ordered by (level, ix, iy)."""
    if not mesh.is_active(e):
        raise ValueError("element %s is not active" % (e,))
    p = mesh.p
    out = []
    for k in range(e.level + 1):
        fns = basis.level_sets[k] if k < len(basis.level_sets) else None
        if not fns:
            continue
        shift = e.level - k
        ax, ay = e.ix >> shift, e.iy >> shift
        for fx in range(ax, ax + p + 1):
            for fy in range(ay, ay + p + 1):
                if (fx, fy) in fns:
                    out.append(FunctionId(k, fx, fy))
    return out


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
