import numpy as np
import pytest

from hbplate.hierarchy import (
    ElementId,
    FunctionId,
    HierarchicalSpace,
    RefinementLimitError,
    check_admissible,
    connectivity,
    dump_mesh,
    init,
    neighbors,
    rebuild_basis,
    refine,
)
from hbplate.splines import eval_ders


def overlap_area(a, b):
    """Area of the intersection of two rectangles (x0, y0, x1, y1)."""
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    return max(w, 0.0) * max(h, 0.0)


def brute_force_active_functions(mesh):
    """Geometric oracle for the basis selection.

    Works directly on floating-point rectangles: a level-l function is
    active iff its support overlaps (with positive area) the union of
    active level-l cells and no active cell of a coarser level.
    """
    cells = {l: [] for l in range(mesh.num_levels)}
    for e in mesh.active_elements():
        cells[e.level].append(mesh.element_rect(e))
    expected = set()
    for l in range(mesh.num_levels):
        kv = mesh.knots(l)
        n = kv.num_basis
        for fx in range(n):
            for fy in range(n):
                sup = (kv.knots[fx], kv.knots[fy],
                       kv.knots[fx + kv.degree + 1], kv.knots[fy + kv.degree + 1])
                own = any(overlap_area(sup, c) > 1e-14 for c in cells[l])
                coarser = any(
                    overlap_area(sup, c) > 1e-14
                    for lc in range(l) for c in cells[lc])
                if own and not coarser:
                    expected.add(FunctionId(l, fx, fy))
    return expected


class TestInit:
    @pytest.mark.parametrize("n0,p,nel,dofs", [(4, 3, 16, 49), (1, 4, 1, 25), (8, 5, 64, 169)])
    def test_counts(self, n0, p, nel, dofs):
        mesh, basis = init(n0, p)
        assert mesh.n_active == nel
        assert basis.num_dofs == dofs

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            init(4, 2)
        with pytest.raises(ValueError):
            init(0, 3)


class TestRebuildBasis:
    def test_unrefined_all_level0(self):
        mesh, basis = init(4, 3)
        assert all(f.level == 0 for f in basis.active)
        assert basis.num_dofs == 49

    def test_global_refinement_degenerates_to_fine_tensor_basis(self):
        mesh, basis = init(4, 3)
        fine = refine(mesh, mesh.active_elements(), m=2)
        fb = rebuild_basis(fine)
        n1 = 2 * 4 + 3
        expected = {FunctionId(1, i, j) for i in range(n1) for j in range(n1)}
        assert set(fb.active) == expected

    def test_corner_block_refinement_against_brute_force(self):
        mesh, _ = init(4, 3)
        marked = [ElementId(0, 0, 0), ElementId(0, 1, 0), ElementId(0, 0, 1), ElementId(0, 1, 1)]
        fine = refine(mesh, marked, m=2)
        basis = rebuild_basis(fine)
        assert set(basis.active) == brute_force_active_functions(fine)
        # frozen counts from the oracle: 4 coarse corner functions deactivate,
        # 16 fine functions fit inside the refined block
        by_level = {}
        for f in basis.active:
            by_level[f.level] = by_level.get(f.level, 0) + 1
        assert by_level == {0: 45, 1: 16}

    def test_random_meshes_against_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            mesh, _ = init(3, 3)
            for _ in range(3):
                active = mesh.active_elements()
                k = rng.integers(1, max(2, len(active) // 4))
                picks = rng.choice(len(active), size=k, replace=False)
                mesh = refine(mesh, [active[i] for i in picks], m=2)
            basis = rebuild_basis(mesh)
            assert set(basis.active) == brute_force_active_functions(mesh)

    def test_dof_numbering_is_dense_and_ordered(self):
        mesh, _ = init(4, 3)
        fine = refine(mesh, [ElementId(0, 2, 2)], m=2)
        basis = rebuild_basis(fine)
        assert [int(basis.level_dofs(*f)) for f in basis.active] == list(range(basis.num_dofs))
        assert list(basis.active) == sorted(basis.active)

    def test_linear_independence_on_fine_sample_grid(self):
        mesh, _ = init(2, 3)
        mesh = refine(mesh, [ElementId(0, 0, 0)], m=2)
        mesh = refine(mesh, [ElementId(1, 0, 0)], m=2)
        basis = rebuild_basis(mesh)
        xs = np.linspace(0.0, 1.0, 40)
        cols = np.zeros((40 * 40, basis.num_dofs))
        for f in basis.active:
            kv = mesh.knots(f.level)
            vx = np.zeros(40)
            vy = np.zeros(40)
            for r, x in enumerate(xs):
                ev = eval_ders(kv, x)
                if ev.first_index <= f.ix <= ev.first_index + 3:
                    vx[r] = ev.values[f.ix - ev.first_index]
                if ev.first_index <= f.iy <= ev.first_index + 3:
                    vy[r] = ev.values[f.iy - ev.first_index]
            cols[:, basis.level_dofs(*f)] = np.outer(vx, vy).ravel()
        rank = np.linalg.matrix_rank(cols, tol=1e-10)
        assert rank == basis.num_dofs


class TestRefine:
    def test_mark_all_quadruples_element_count(self):
        mesh, _ = init(4, 3)
        fine = refine(mesh, mesh.active_elements(), m=2)
        assert fine.n_active == 64

    def test_single_interior_mark_no_closure(self):
        mesh, _ = init(4, 3)
        fine = refine(mesh, [ElementId(0, 1, 1)], m=2)
        assert fine.n_active == 15 + 4
        assert not fine.is_active(ElementId(0, 1, 1))
        for dx in (0, 1):
            for dy in (0, 1):
                assert fine.is_active(ElementId(1, 2 + dx, 2 + dy))

    def test_repeated_corner_marking_stays_admissible(self):
        mesh, _ = init(4, 3)
        for _ in range(4):
            corner = min(e for e in mesh.active_elements()
                         if e.level == max(q.level for q in mesh.active_elements()))
            mesh = refine(mesh, [corner], m=2)
            assert check_admissible(mesh, 2)

    def test_partition_of_area_preserved(self):
        rng = np.random.default_rng(0)
        mesh, _ = init(4, 3)
        for _ in range(6):
            active = mesh.active_elements()
            picks = rng.choice(len(active), size=3, replace=False)
            mesh = refine(mesh, [active[i] for i in picks], m=3)
            assert abs(mesh.area_covered() - 1.0) <= 1e-12

    def test_refine_validates_marked(self):
        mesh, _ = init(4, 3)
        with pytest.raises(ValueError):
            refine(mesh, [ElementId(1, 0, 0)], m=2)
        with pytest.raises(ValueError):
            refine(mesh, [ElementId(0, 0, 0)], m=1)

    def test_level_cap_refused_with_diagnostic(self):
        mesh, _ = init(1, 3, max_level=2)
        for _ in range(2):
            deepest = max(mesh.active_elements(), key=lambda e: e.level)
            mesh = refine(mesh, [deepest], m=2)
        deepest = max(mesh.active_elements(), key=lambda e: e.level)
        assert deepest.level == 2
        with pytest.raises(RefinementLimitError):
            refine(mesh, [deepest], m=2)

    def test_spanned_space_nestedness(self):
        # any coarse-space field is reproduced on the refined space
        rng = np.random.default_rng(9)
        mesh, basis = init(3, 3)
        mesh2 = refine(mesh, [ElementId(0, 0, 0), ElementId(0, 2, 2)], m=2)
        basis2 = rebuild_basis(mesh2)
        xs = np.linspace(0, 1, 50)
        def sample_matrix(msh, bas):
            cols = np.zeros((50 * 50, bas.num_dofs))
            kv = {l: msh.knots(l) for l in range(msh.num_levels)}
            for f in bas.active:
                vals_x = np.zeros(50)
                vals_y = np.zeros(50)
                for r, x in enumerate(xs):
                    ex = eval_ders(kv[f.level], x)
                    if ex.first_index <= f.ix <= ex.first_index + 3:
                        vals_x[r] = ex.values[f.ix - ex.first_index]
                    ey = eval_ders(kv[f.level], x)
                    if ey.first_index <= f.iy <= ey.first_index + 3:
                        vals_y[r] = ey.values[f.iy - ey.first_index]
                cols[:, bas.level_dofs(*f)] = np.outer(vals_x, vals_y).ravel()
            return cols
        A_coarse = sample_matrix(mesh, basis)
        A_fine = sample_matrix(mesh2, basis2)
        coeffs = rng.standard_normal(basis.num_dofs)
        target = A_coarse @ coeffs
        sol, *_ = np.linalg.lstsq(A_fine, target, rcond=None)
        assert np.linalg.norm(A_fine @ sol - target) <= 1e-9


class TestAdmissibility:
    def test_single_level_always_admissible(self):
        mesh, _ = init(4, 3)
        for m in (2, 3, 5):
            assert check_admissible(mesh, m)

    def test_two_level_single_refined_element(self):
        mesh, _ = init(4, 3)
        fine = refine(mesh, [ElementId(0, 1, 1)], m=2)
        assert check_admissible(fine, 2)

    def test_adversarial_mesh_detected(self):
        # bypass the closure: manually refine one cell down three levels
        mesh, _ = init(4, 3)
        from hbplate.hierarchy import _Draft, _subdivide
        work = _Draft(mesh)
        e = ElementId(0, 0, 0)
        for l in range(3):
            _subdivide(work, e)
            e = ElementId(l + 1, 0, 0)
        assert not check_admissible(work.finish(), 2)

    def test_random_marking_sequences_stay_admissible(self):
        rng = np.random.default_rng(123)
        for trial in range(100):
            m = int(rng.integers(2, 4))
            mesh, _ = init(int(rng.integers(2, 4)), 3)
            for _ in range(int(rng.integers(1, 4))):
                active = mesh.active_elements()
                k = int(rng.integers(1, min(4, len(active)) + 1))
                picks = rng.choice(len(active), size=k, replace=False)
                mesh = refine(mesh, [active[i] for i in picks], m=m)
            assert check_admissible(mesh, m)
            assert abs(mesh.area_covered() - 1.0) <= 1e-12


class TestNeighbors:
    def test_interior_element_has_eight(self):
        mesh, _ = init(4, 3)
        assert len(neighbors(mesh, ElementId(0, 1, 1))) == 8

    def test_corner_element_has_three(self):
        mesh, _ = init(4, 3)
        assert len(neighbors(mesh, ElementId(0, 0, 0))) == 3

    def test_refined_away_neighbors_not_listed(self):
        mesh, _ = init(4, 3)
        fine = refine(mesh, [ElementId(0, 1, 1)], m=2)
        nb = neighbors(fine, ElementId(0, 2, 2))
        assert ElementId(0, 1, 1) not in nb
        assert nb == {e for e in nb if fine.is_active(e) and e.level == 0}
        assert len(nb) == 7


class TestConnectivity:
    def test_single_level_interior_element(self):
        mesh, basis = init(4, 3)
        funcs = connectivity(mesh, basis, ElementId(0, 1, 1))
        assert len(funcs) == 16

    def test_admissible_bound_on_function_count(self):
        rng = np.random.default_rng(17)
        m = 2
        mesh, _ = init(4, 3)
        for _ in range(4):
            active = mesh.active_elements()
            picks = rng.choice(len(active), size=2, replace=False)
            mesh = refine(mesh, [active[i] for i in picks], m=m)
        basis = rebuild_basis(mesh)
        p = mesh.p
        for e in mesh.active_elements():
            funcs = connectivity(mesh, basis, e)
            assert len(funcs) <= m * (p + 1) ** 2
            assert all(e.level - m + 1 <= f.level <= e.level for f in funcs)


class TestDump:
    def test_format_and_partition(self):
        mesh, _ = init(2, 3)
        mesh = refine(mesh, [ElementId(0, 0, 0)], m=2)
        text = dump_mesh(mesh)
        lines = text.strip().split("\n")
        assert len(lines) == mesh.n_active
        total = 0.0
        for line in lines:
            parts = line.split()
            assert len(parts) == 5
            level = int(parts[0])
            x0, y0, x1, y1 = map(float, parts[1:])
            assert x1 > x0 and y1 > y0
            assert level >= 0
            total += (x1 - x0) * (y1 - y0)
        assert abs(total - 1.0) <= 1e-12


class TestSpace:
    def test_space_bundles_mesh_and_basis(self):
        space = HierarchicalSpace.create(4, 3)
        assert space.num_dofs == 49
        refined = space.refined([ElementId(0, 0, 0)], m=2)
        assert refined.num_dofs > 49
        assert space.num_dofs == 49  # original untouched


# ---------------------------------------------------------------------------
# the key lookups against geometric oracles

SIDE_NAMES = ("left", "bottom", "right", "top")
TOL = 1e-12


def random_admissible_meshes(p, m, count=3):
    """Seeded random meshes of admissibility class m, closed by refine."""
    rng = np.random.default_rng(100 * p + m)
    for _ in range(count):
        mesh, _ = init(int(rng.integers(2, 4)), p)
        for _ in range(4):
            active = mesh.active_elements()
            k = int(rng.integers(1, max(2, len(active) // 3)))
            picks = rng.choice(len(active), size=k, replace=False)
            mesh = refine(mesh, [active[i] for i in picks], m=m)
        yield mesh


def touches(a, b):
    """Closed rectangles a and b meet (in an edge, a vertex or more)."""
    return (max(a[0], b[0]) <= min(a[2], b[2]) + TOL
            and max(a[1], b[1]) <= min(a[3], b[3]) + TOL)


def contains(rect, x, y):
    return rect[0] - TOL <= x <= rect[2] + TOL and rect[1] - TOL <= y <= rect[3] + TOL


def on_domain_side(mesh, rect, side):
    a, b = mesh.interval
    coord, end = {"left": (rect[0], a), "right": (rect[2], b),
                  "bottom": (rect[1], a), "top": (rect[3], b)}[side]
    return abs(coord - end) <= TOL


def edge_segment(rect, side):
    """(line position, lo, hi) of one side of a rectangle."""
    x0, y0, x1, y1 = rect
    return {"left": (x0, y0, y1), "right": (x1, y0, y1),
            "bottom": (y0, x0, x1), "top": (y1, x0, x1)}[side]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", [3, 4, 5])
class TestQueriesAgainstGeometry:
    def test_cells_partition_the_square_and_side_masks_follow_the_rects(self, p, m):
        from hbplate.assembly import _boundary_cells, _on_side
        rng = np.random.default_rng(p + m)
        for mesh in random_admissible_meshes(p, m):
            rects = []
            for l in range(mesh.num_levels):
                cells = mesh.cells(l)
                assert cells.dtype == np.int64 and cells.shape == (len(cells), 2)
                as_tuples = [tuple(c) for c in cells.tolist()]
                assert as_tuples == sorted(set(as_tuples))
                for ix, iy in as_tuples:
                    rect = mesh.element_rect(ElementId(l, ix, iy))
                    assert rect[2] - rect[0] == pytest.approx(mesh.h(l), rel=1e-12)
                    rects.append(rect)
                for side in SIDE_NAMES:
                    want = [on_domain_side(mesh, mesh.element_rect(ElementId(l, *c)), side)
                            for c in as_tuples]
                    np.testing.assert_array_equal(_on_side(mesh, l, cells, side), want)
            assert sum((r[2] - r[0]) * (r[3] - r[1]) for r in rects) == pytest.approx(1.0)
            for x, y in rng.uniform(0.0, 1.0, size=(200, 2)):
                assert sum(r[0] < x < r[2] and r[1] < y < r[3] for r in rects) == 1
            for side in SIDE_NAMES:
                got = [ElementId(l, *c) for l, cells in _boundary_cells(mesh, side)
                       for c in cells.tolist()]
                assert got == [e for e in mesh.active_elements()
                               if on_domain_side(mesh, mesh.element_rect(e), side)]

    def test_basis_and_admissibility(self, p, m):
        for mesh in random_admissible_meshes(p, m):
            basis = rebuild_basis(mesh)
            assert set(basis.active) == brute_force_active_functions(mesh)
            assert list(basis.active) == sorted(basis.active)
            assert check_admissible(mesh, m, basis)

    def test_neighbors(self, p, m):
        for mesh in random_admissible_meshes(p, m):
            active = mesh.active_elements()
            for e in active:
                rect = mesh.element_rect(e)
                want = {f for f in active if f.level == e.level and f != e
                        and touches(rect, mesh.element_rect(f))}
                assert neighbors(mesh, e) == want

    def test_connectivity(self, p, m):
        for mesh in random_admissible_meshes(p, m):
            basis = rebuild_basis(mesh)
            for e in mesh.active_elements():
                rect = mesh.element_rect(e)
                want = []
                for f in basis.active:
                    t = mesh.knots(f.level).knots
                    sup = (t[f.ix], t[f.iy], t[f.ix + p + 1], t[f.iy + p + 1])
                    if f.level <= e.level and overlap_area(sup, rect) > 1e-14:
                        want.append(f)
                assert connectivity(mesh, basis, e) == want

    def test_edge_neighbor_pieces_tile_each_interior_edge(self, p, m):
        from hbplate.estimators import _edge_neighbor_pieces
        opposite = dict(zip(SIDE_NAMES, SIDE_NAMES[2:] + SIDE_NAMES[:2]))
        for mesh in random_admissible_meshes(p, m):
            active = mesh.active_elements()
            for e in active:
                rect = mesh.element_rect(e)
                for side in SIDE_NAMES:
                    pieces = _edge_neighbor_pieces(mesh, e, side)
                    if on_domain_side(mesh, rect, side):
                        assert pieces == []
                        continue
                    line, lo, hi = edge_segment(rect, side)
                    want = set()
                    for f in active:
                        fline, flo, fhi = edge_segment(mesh.element_rect(f), opposite[side])
                        if abs(fline - line) <= TOL and min(hi, fhi) - max(lo, flo) > TOL:
                            want.add(f)
                    assert {nb for nb, _ in pieces} == want
                    total = 0.0
                    for nb, (r, f) in pieces:
                        _, nlo, nhi = edge_segment(mesh.element_rect(nb), opposite[side])
                        clo, chi = (lo, hi) if e.level <= nb.level else (nlo, nhi)
                        length = (chi - clo) / f
                        piece = (clo + r * length, clo + (r + 1) * length)
                        assert piece[0] == pytest.approx(max(lo, nlo), abs=TOL)
                        assert piece[1] == pytest.approx(min(hi, nhi), abs=TOL)
                        total += length
                    assert total == pytest.approx(hi - lo, rel=1e-12)

    def test_locate_finds_the_finest_element_at_corners_and_edge_midpoints(self, p, m):
        for mesh in random_admissible_meshes(p, m):
            active = mesh.active_elements()
            rects = {e: mesh.element_rect(e) for e in active}
            for e in active:
                x0, y0, x1, y1 = rects[e]
                xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
                for x, y in ((x0, y0), (x1, y0), (x0, y1), (x1, y1),
                             (xm, y0), (xm, y1), (x0, ym), (x1, ym)):
                    finest = max(f.level for f in active if contains(rects[f], x, y))
                    got = mesh.locate(x, y)
                    assert got.level == finest and contains(rects[got], x, y)
