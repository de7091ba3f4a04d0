import numpy as np
import pytest

from hbplate.hierarchy import (
    HierarchicalSpace,
    RefinementLimitError,
    check_admissible,
    connectivity,
    dump_mesh,
    init,
    rebuild_basis,
    refine,
    two_scale,
)
from hbplate.splines import eval_ders, find_span, tabulate_in_span

from closure_oracle import ElementId, FunctionId, cell_rect, elements, functions
from closure_oracle import locate as oracle_locate
from closure_oracle import neighbors, positions, refine_recursive


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
    for e in elements(mesh):
        cells[e.level].append(cell_rect(mesh, e))
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
    @pytest.mark.parametrize("n0,p,nel,dofs", [(4, 3, 16, 49), (1, 4, 1, 25), (8, 5, 64, 169),
                                               (np.int64(2), np.int32(3), 4, 25)])
    def test_counts(self, n0, p, nel, dofs):
        mesh, basis = init(n0, p, np.int64(20))
        assert mesh.n_active == nel
        assert basis.num_dofs == dofs
        assert all(type(v) is int for v in (mesh.n0, mesh.p, mesh.max_level))

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            init(4, 2)
        with pytest.raises(ValueError):
            init(0, 3)

    @pytest.mark.parametrize("args,message", [
        ((2.5, 3), "n0 must be at least 1, got non-integer 2.5"),
        ((0, 3), "n0 must be at least 1, got 0"),
        ((2, 2.5), "need degree >= 3, got non-integer 2.5"),
        ((2, 3.5), "need degree >= 3, got non-integer 3.5"),
        ((2, 2), "need degree >= 3, got 2"),
        ((2, 3, 2.5), "max_level must be at least 0, got non-integer 2.5"),
        ((2, 3, -1), "max_level must be at least 0, got -1"),
        ((2, 3, float("nan")), "max_level must be at least 0, got non-integer nan"),
    ])
    def test_sizes_must_be_integers_naming_the_value(self, args, message):
        # fractional sizes were truncated: create(2, 3.5) built a cubic space
        with pytest.raises(ValueError, match=message):
            HierarchicalSpace.create(*args)


class TestRebuildBasis:
    def test_unrefined_all_level0(self):
        mesh, basis = init(4, 3)
        assert (basis.indices[0] == 0).all()
        assert basis.num_dofs == 49

    def test_global_refinement_degenerates_to_fine_tensor_basis(self):
        mesh, basis = init(4, 3)
        fine = refine(mesh, np.arange(mesh.n_active), m=2)
        fb = rebuild_basis(fine)
        n1 = 2 * 4 + 3
        expected = {FunctionId(1, i, j) for i in range(n1) for j in range(n1)}
        assert set(functions(fb)) == expected

    def test_corner_block_refinement_against_brute_force(self):
        mesh, _ = init(4, 3)
        marked = [ElementId(0, 0, 0), ElementId(0, 1, 0), ElementId(0, 0, 1), ElementId(0, 1, 1)]
        fine = refine(mesh, positions(mesh, marked), m=2)
        basis = rebuild_basis(fine)
        assert set(functions(basis)) == brute_force_active_functions(fine)
        # frozen counts from the oracle: 4 coarse corner functions deactivate,
        # 16 fine functions fit inside the refined block
        by_level = {}
        for f in functions(basis):
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
                mesh = refine(mesh, picks, m=2)
            basis = rebuild_basis(mesh)
            assert set(functions(basis)) == brute_force_active_functions(mesh)

    def test_dof_numbering_is_dense_and_ordered(self):
        mesh, _ = init(4, 3)
        fine = refine(mesh, positions(mesh, [ElementId(0, 2, 2)]), m=2)
        basis = rebuild_basis(fine)
        funcs = functions(basis)
        assert [int(basis.level_dofs(*f)) for f in funcs] == list(range(basis.num_dofs))
        assert funcs == sorted(funcs)

    def test_linear_independence_on_fine_sample_grid(self):
        mesh, _ = init(2, 3)
        mesh = refine(mesh, positions(mesh, [ElementId(0, 0, 0)]), m=2)
        mesh = refine(mesh, positions(mesh, [ElementId(1, 0, 0)]), m=2)
        basis = rebuild_basis(mesh)
        xs = np.linspace(0.0, 1.0, 40)
        cols = np.zeros((40 * 40, basis.num_dofs))
        for f in functions(basis):
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
        fine = refine(mesh, np.arange(mesh.n_active), m=2)
        assert fine.n_active == 64

    def test_single_interior_mark_no_closure(self):
        mesh, _ = init(4, 3)
        fine = refine(mesh, positions(mesh, [ElementId(0, 1, 1)]), m=2)
        assert fine.n_active == 15 + 4
        assert fine.cell_index(0, 1, 1) < 0
        for dx in (0, 1):
            for dy in (0, 1):
                assert fine.cell_index(1, 2 + dx, 2 + dy) >= 0

    @pytest.mark.parametrize("level", [-2, -1, 2])
    def test_levels_outside_the_mesh_have_no_cells_or_functions(self, level):
        # a negative level is not an index from the end, and the level past
        # the finest is empty rather than out of range
        mesh = refine(init(2, 3)[0], [0], 2)
        basis = rebuild_basis(mesh)
        assert mesh.num_levels == 2
        ix, iy = np.arange(3)[:, None], np.arange(2)
        assert mesh.cell_index(level, 0, 0) == -1 and basis.level_dofs(level, 0, 0) == -1
        np.testing.assert_array_equal(mesh.cell_index(level, ix, iy), np.full((3, 2), -1))
        np.testing.assert_array_equal(basis.level_dofs(level, ix, iy), np.full((3, 2), -1))

    def test_repeated_corner_marking_stays_admissible(self):
        mesh, _ = init(4, 3)
        for _ in range(4):
            every = elements(mesh)
            corner = min(e for e in every if e.level == max(q.level for q in every))
            mesh = refine(mesh, positions(mesh, [corner]), m=2)
            assert check_admissible(mesh, 2)

    def test_partition_of_area_preserved(self):
        rng = np.random.default_rng(0)
        mesh, _ = init(4, 3)
        for _ in range(6):
            active = mesh.active_elements()
            picks = rng.choice(len(active), size=3, replace=False)
            mesh = refine(mesh, picks, m=3)
            assert abs(mesh.area_covered() - 1.0) <= 1e-12

    def test_refine_validates_marked(self):
        mesh, _ = init(4, 3)
        fine = refine(mesh, np.array([5]), m=2)
        # negative and past-the-end positions: the first of them is named
        for n, coarse in ((16, mesh), (19, fine)):
            for bad, named in (([3, -1], -1), ([n], n), ([0, n + 4, -2], n + 4)):
                with pytest.raises(ValueError, match=r"marked position %d is outside \[0, %d\)"
                                   % (named, n)):
                    refine(coarse, np.array(bad), m=2)
        assert refine(fine, np.array([18]), m=2).n_active > 19
        for bad in (np.array([1.0, 2.0]), np.array([[0, 1, 1]]), np.array([True])):
            with pytest.raises(ValueError, match="marks must be 1-D integers"):
                refine(mesh, bad, m=2)
        with pytest.raises(ValueError):
            refine(mesh, np.array([0]), m=1)
        # a fractional class passed on a one-level mesh, and failed a level deeper
        with pytest.raises(ValueError, match="at least 2, got non-integer 2.5"):
            refine(mesh, np.array([0]), m=2.5)
        assert refine(mesh, np.array([0]), m=np.int64(2)).n_active == 19

    def test_level_cap_refused_with_diagnostic(self):
        mesh, _ = init(1, 3, max_level=2)
        for _ in range(2):
            deepest = max(elements(mesh), key=lambda e: e.level)
            mesh = refine(mesh, positions(mesh, [deepest]), m=2)
        deepest = max(elements(mesh), key=lambda e: e.level)
        assert deepest.level == 2
        with pytest.raises(RefinementLimitError):
            refine(mesh, positions(mesh, [deepest]), m=2)

    def test_spanned_space_nestedness(self):
        # any coarse-space field is reproduced on the refined space
        rng = np.random.default_rng(9)
        mesh, basis = init(3, 3)
        mesh2 = refine(mesh, positions(mesh, [ElementId(0, 0, 0), ElementId(0, 2, 2)]), m=2)
        basis2 = rebuild_basis(mesh2)
        xs = np.linspace(0, 1, 50)
        def sample_matrix(msh, bas):
            cols = np.zeros((50 * 50, bas.num_dofs))
            kv = {l: msh.knots(l) for l in range(msh.num_levels)}
            for f in functions(bas):
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


def same_mesh(a, b):
    return (len(a._kvs) == len(b._kvs) == len(a._keys) == len(b._keys)
            and all(np.array_equal(x, y) for x, y in zip(a._keys, b._keys)))


def random_marks(rng, mesh, most=6):
    return rng.choice(mesh.n_active, size=int(rng.integers(1, min(most, mesh.n_active) + 1)),
                      replace=False)


def elements_at(mesh, marked):
    """The elements at the positions `marked`, as the recursion takes them."""
    active = elements(mesh)
    return [active[k] for k in marked]


class TestClosureOracle:
    """The one-sweep closure of refine against the recursive one of
    tests/closure_oracle.py."""

    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("m", [2, 3, 4, "mixed"])
    def test_same_meshes_in_chained_refinements(self, p, m):
        rng = np.random.default_rng(10 * p + (0 if m == "mixed" else m))
        for _ in range(20):
            mesh, _ = init(int(rng.integers(1, 5)), p)
            for _ in range(int(rng.integers(2, 7))):
                step_m = int(rng.integers(2, 6)) if m == "mixed" else m
                marked = random_marks(rng, mesh)
                want = refine_recursive(mesh, elements_at(mesh, marked), step_m)
                mesh = refine(mesh, marked, step_m)
                assert same_mesh(mesh, want)

    def test_class_5_corner_then_class_3(self):
        # class 5 leaves the corner unclosed down to level 4; the class-3
        # closure of a level-4 mark then needs level-2 cells inside active
        # level-1 cells, which only the parents of the finer splits split
        mesh, _ = init(4, 3)
        for l in range(4):
            mesh = refine(mesh, positions(mesh, [ElementId(l, 0, 0)]), m=5)
        fine = refine(mesh, positions(mesh, [ElementId(4, 0, 0)]), m=3)
        assert same_mesh(fine, refine_recursive(mesh, [ElementId(4, 0, 0)], 3))
        assert abs(fine.area_covered() - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_level_cap_as_the_recursion(self, p):
        rng = np.random.default_rng(70 + p)
        for m in (2, 3, 4):
            mesh, _ = init(2, p, max_level=3)
            for _ in range(6):
                deepest = [k for k, e in enumerate(elements(mesh))
                           if e.level == mesh.num_levels - 1]
                marked = np.append(random_marks(rng, mesh),
                                   deepest[int(rng.integers(len(deepest)))])
                try:
                    want = refine_recursive(mesh, elements_at(mesh, marked), m)
                except RefinementLimitError:
                    with pytest.raises(RefinementLimitError, match="maximum level 3"):
                        refine(mesh, marked, m)
                    break
                mesh = refine(mesh, marked, m)
                assert same_mesh(mesh, want)
            else:
                pytest.fail("the level cap was never reached")

    def test_marks_in_any_order_and_repeated_as_the_recursion(self):
        rng = np.random.default_rng(5)
        mesh, _ = init(8, 3)
        mesh = refine(mesh, positions(mesh, [ElementId(0, 4, 4)]), m=2)
        mesh = refine(mesh, positions(mesh, [ElementId(1, 8, 8)]), m=2)
        marked = rng.choice(mesh.n_active, size=6, replace=False)
        want = refine_recursive(mesh, elements_at(mesh, marked), 2)
        for order in (marked, marked[::-1], np.concatenate([marked, marked[:2]]),
                      rng.permutation(np.repeat(marked, 2))):
            assert same_mesh(refine(mesh, order, 2), want)

    def test_active_elements_at_positions(self):
        mesh, _ = init(2, 3)
        mesh = refine(mesh, positions(mesh, [ElementId(0, 1, 1), ElementId(0, 0, 0)]), m=2)
        mesh = refine(mesh, positions(mesh, [ElementId(1, 2, 2)]), m=2)
        rows = mesh.active_elements()
        assert rows.dtype == np.int64 and rows.shape == (mesh.n_active, 3)
        every = elements(mesh)
        assert every == sorted(every)
        assert np.array_equal(positions(mesh, every), np.arange(mesh.n_active))
        # the mark k splits the element at position k
        for k in (0, 1, len(every) - 5, len(every) - 1):
            assert refine(mesh, [k], m=2).cell_index(*every[k]) < 0


class TestAdmissibility:
    def test_single_level_always_admissible(self):
        mesh, _ = init(4, 3)
        for m in (2, 3, 5):
            assert check_admissible(mesh, m)

    def test_two_level_single_refined_element(self):
        mesh, _ = init(4, 3)
        fine = refine(mesh, positions(mesh, [ElementId(0, 1, 1)]), m=2)
        assert check_admissible(fine, 2)

    def test_adversarial_mesh_detected(self):
        # class 4 closes nothing below level 3: one cell split down three
        # levels, with no closure, is not of class 2
        mesh, _ = init(4, 3)
        for l in range(3):
            mesh = refine(mesh, positions(mesh, [ElementId(l, 0, 0)]), m=4)
        assert mesh.num_levels == 4 and mesh.n_active == 16 + 3 * 3
        assert not check_admissible(mesh, 2)

    def test_random_marking_sequences_stay_admissible(self):
        rng = np.random.default_rng(123)
        for trial in range(100):
            m = int(rng.integers(2, 4))
            mesh, _ = init(int(rng.integers(2, 4)), 3)
            for _ in range(int(rng.integers(1, 4))):
                active = mesh.active_elements()
                k = int(rng.integers(1, min(4, len(active)) + 1))
                picks = rng.choice(len(active), size=k, replace=False)
                mesh = refine(mesh, picks, m=m)
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
        fine = refine(mesh, positions(mesh, [ElementId(0, 1, 1)]), m=2)
        nb = neighbors(fine, ElementId(0, 2, 2))
        assert ElementId(0, 1, 1) not in nb
        assert nb == {e for e in nb if fine.cell_index(*e) >= 0 and e.level == 0}
        assert len(nb) == 7


class TestConnectivity:
    def test_single_level_interior_element(self):
        mesh, basis = init(4, 3)
        dofs = connectivity(mesh, basis, ElementId(0, 1, 1))
        assert dofs.dtype == np.int64 and len(dofs) == 16
        assert dofs.tolist() == sorted(dofs.tolist())
        fine = refine(mesh, positions(mesh, [ElementId(0, 1, 1)]), m=2)
        for inactive in ((0, 1, 1), (2, 0, 0), (0, 4, 0), (-1, 0, 0)):
            with pytest.raises(ValueError, match=r"cell \(%d, %d, %d\) is not active" % inactive):
                connectivity(fine, rebuild_basis(fine), inactive)

    def test_admissible_bound_on_function_count(self):
        rng = np.random.default_rng(17)
        m = 2
        mesh, _ = init(4, 3)
        for _ in range(4):
            active = mesh.active_elements()
            picks = rng.choice(len(active), size=2, replace=False)
            mesh = refine(mesh, picks, m=m)
        basis = rebuild_basis(mesh)
        p = mesh.p
        for cell in mesh.active_elements():
            levels = basis.indices[0][connectivity(mesh, basis, cell)]
            assert len(levels) <= m * (p + 1) ** 2
            assert ((cell[0] - m + 1 <= levels) & (levels <= cell[0])).all()


class TestDump:
    def test_format_and_partition(self):
        mesh, _ = init(2, 3)
        mesh = refine(mesh, positions(mesh, [ElementId(0, 0, 0)]), m=2)
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

    def test_lines_from_levels_and_indices(self):
        # every number of a three-level dump, against the cell's level and
        # index times h = 1 / (n0 2^l)
        mesh, _ = init(3, 3)
        mesh = refine(mesh, positions(mesh, [ElementId(0, 1, 1)]), m=2)
        mesh = refine(mesh, positions(mesh, [ElementId(1, 2, 2)]), m=2)
        assert mesh.num_levels == 3
        want = []
        for l in range(mesh.num_levels):
            h = 1.0 / (3 * 2**l)
            for ix, iy in mesh.cells(l).tolist():
                want.append("%d %.17g %.17g %.17g %.17g"
                            % (l, ix * h, iy * h, (ix + 1) * h, (iy + 1) * h))
        assert dump_mesh(mesh) == "\n".join(want) + "\n"


class TestSpace:
    def test_space_bundles_mesh_and_basis(self):
        space = HierarchicalSpace.create(4, 3)
        assert space.num_dofs == 49
        refined = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), m=2)
        assert refined.num_dofs > 49
        assert space.num_dofs == 49  # original untouched

    def test_basis_is_built_on_first_use(self, monkeypatch):
        import hbplate.hierarchy
        calls = []
        build = hbplate.hierarchy.rebuild_basis
        monkeypatch.setattr(hbplate.hierarchy, "rebuild_basis",
                            lambda mesh: calls.append(mesh) or build(mesh))
        space = HierarchicalSpace.create(4, 3)
        refined = space.refined(positions(space.mesh, [ElementId(0, 0, 0)]), m=2)
        assert calls == []
        assert space.num_dofs == 49 and space.basis is space.basis
        assert calls == [space.mesh]
        assert len(refined.active_cells.cells) == refined.mesh.n_active
        assert calls == [space.mesh, refined.mesh]


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
            mesh = refine(mesh, picks, m=m)
        yield mesh


def touches(a, b):
    """Closed rectangles a and b meet (in an edge, a vertex or more)."""
    return (max(a[0], b[0]) <= min(a[2], b[2]) + TOL
            and max(a[1], b[1]) <= min(a[3], b[3]) + TOL)


def contains(rect, x, y):
    return rect[0] - TOL <= x <= rect[2] + TOL and rect[1] - TOL <= y <= rect[3] + TOL


def on_domain_side(mesh, rect, side):
    coord, end = {"left": (rect[0], 0.0), "right": (rect[2], 1.0),
                  "bottom": (rect[1], 0.0), "top": (rect[3], 1.0)}[side]
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
        from hbplate.assembly import GeometryMap, _on_side, _side_batches
        rng = np.random.default_rng(p + m)
        for mesh in random_admissible_meshes(p, m):
            rects = []
            for l in range(mesh.num_levels):
                cells = mesh.cells(l)
                assert cells.dtype == np.int64 and cells.shape == (len(cells), 2)
                as_tuples = [tuple(c) for c in cells.tolist()]
                assert as_tuples == sorted(set(as_tuples))
                for ix, iy in as_tuples:
                    rect = cell_rect(mesh, ElementId(l, ix, iy))
                    assert rect[2] - rect[0] == pytest.approx(mesh.h(l), rel=1e-12)
                    rects.append(rect)
                for side in SIDE_NAMES:
                    want = [on_domain_side(mesh, cell_rect(mesh, ElementId(l, *c)), side)
                            for c in as_tuples]
                    np.testing.assert_array_equal(_on_side(mesh, l, cells, side), want)
            assert sum((r[2] - r[0]) * (r[3] - r[1]) for r in rects) == pytest.approx(1.0)
            for x, y in rng.uniform(0.0, 1.0, size=(200, 2)):
                assert sum(r[0] < x < r[2] and r[1] < y < r[3] for r in rects) == 1
            space = HierarchicalSpace(mesh)
            view = space.active_cells
            for side in SIDE_NAMES:
                got = [ElementId(int(view.level[k]), *view.cells[k].tolist())
                       for at, *_ in _side_batches(space, GeometryMap.identity(), side)
                       for k in at.tolist()]
                assert got == [e for e in elements(mesh)
                               if on_domain_side(mesh, cell_rect(mesh, e), side)]

    def test_basis_and_admissibility(self, p, m):
        for mesh in random_admissible_meshes(p, m):
            basis = rebuild_basis(mesh)
            funcs = functions(basis)
            assert set(funcs) == brute_force_active_functions(mesh)
            assert funcs == sorted(funcs)
            assert check_admissible(mesh, m, basis)

    def test_neighbors(self, p, m):
        for mesh in random_admissible_meshes(p, m):
            active = elements(mesh)
            for e in active:
                rect = cell_rect(mesh, e)
                want = {f for f in active if f.level == e.level and f != e
                        and touches(rect, cell_rect(mesh, f))}
                assert neighbors(mesh, e) == want

    def test_connectivity(self, p, m):
        for mesh in random_admissible_meshes(p, m):
            basis = rebuild_basis(mesh)
            for e in elements(mesh):
                rect = cell_rect(mesh, e)
                want = []
                for d, f in enumerate(functions(basis)):
                    t = mesh.knots(f.level).knots
                    sup = (t[f.ix], t[f.iy], t[f.ix + p + 1], t[f.iy + p + 1])
                    if f.level <= e.level and overlap_area(sup, rect) > 1e-14:
                        want.append(d)
                got = connectivity(mesh, basis, e)
                assert got.dtype == np.int64 and got.tolist() == want

    def test_edge_neighbor_pieces_tile_each_interior_edge(self, p, m):
        # each piece (f, c) is f's whole edge, lying on c's edge across it; an
        # element's edge is tiled by the piece it finds itself or by the
        # pieces the finer elements across it find, and by nothing on the
        # domain boundary
        from hbplate.estimators import _edge_pieces
        opposite = dict(zip(SIDE_NAMES, SIDE_NAMES[2:] + SIDE_NAMES[:2]))
        for mesh in random_admissible_meshes(p, m):
            space = HierarchicalSpace(mesh)
            active = elements(mesh)
            rects = [cell_rect(mesh, e) for e in active]
            pieces = {side: [pair.tolist() for pair in _edge_pieces(space, side)]
                      for side in SIDE_NAMES}
            for side in SIDE_NAMES:
                for f, c in zip(*pieces[side]):
                    assert active[f].level >= active[c].level
                    line, lo, hi = edge_segment(rects[f], side)
                    cline, clo, chi = edge_segment(rects[c], opposite[side])
                    assert abs(line - cline) <= TOL and clo - TOL <= lo and hi <= chi + TOL
                for k, e in enumerate(active):
                    line, lo, hi = edge_segment(rects[k], side)
                    across = [c for f, c in zip(*pieces[side]) if f == k]
                    finer = [f for f, c in zip(*pieces[opposite[side]])
                             if c == k and active[f].level > e.level]
                    if on_domain_side(mesh, rects[k], side):
                        assert across == finer == []
                        continue
                    want = set()
                    for j, f in enumerate(active):
                        fline, flo, fhi = edge_segment(rects[j], opposite[side])
                        if abs(fline - line) <= TOL and min(hi, fhi) - max(lo, flo) > TOL:
                            want.add(j)
                    assert len(across) <= 1 and not (across and finer)
                    assert set(across + finer) == want
                    segments = sorted([(lo, hi)] if across else
                                      [edge_segment(rects[f], opposite[side])[1:] for f in finer])
                    assert segments[0][0] == pytest.approx(lo, abs=TOL)
                    assert segments[-1][1] == pytest.approx(hi, abs=TOL)
                    for (_, a), (b, _) in zip(segments, segments[1:]):
                        assert a == pytest.approx(b, abs=TOL)

    def test_locate_finds_the_finest_element_at_corners_and_edge_midpoints(self, p, m):
        # one batched call per mesh; the per-point reference pins which of
        # several finest cells a corner or edge point goes to
        for mesh in random_admissible_meshes(p, m):
            active = elements(mesh)
            rects = {e: cell_rect(mesh, e) for e in active}
            pts = []
            for e in active:
                x0, y0, x1, y1 = rects[e]
                xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
                pts += [(x0, y0), (x1, y0), (x0, y1), (x1, y1),
                        (xm, y0), (xm, y1), (x0, ym), (x1, ym)]
            got = mesh.locate(pts)
            assert got.dtype == np.int64 and got.shape == (len(pts),)
            for (x, y), k in zip(pts, got.tolist()):
                finest = max(f.level for f in active if contains(rects[f], x, y))
                e = active[k]
                assert e.level == finest and contains(rects[e], x, y)
                assert e == oracle_locate(mesh, x, y)


def test_locate_rejects_bad_points():
    mesh = refine(init(2, 3)[0], [0], m=2)
    assert mesh.locate([]).dtype == np.int64 and mesh.locate([]).shape == (0,)
    for pts, match in (([(0.1, 0.2, 0.3)], r"shaped \(n, 2\), got \(1, 3\)"),
                       ([0.1, 0.2], r"shaped \(n, 2\), got \(2,\)"),
                       (np.zeros((2, 2, 2)), r"got \(2, 2, 2\)"),
                       ([(0.5, 0.5), (0.2, float("nan"))], r"\(0.2, nan\)"),
                       ([(0.5, 0.5), (0.2, float("inf"))], r"\(0.2, inf\)"),
                       ([(0.5, 0.5), (1.1, 0.3), (-0.1, 0.3)], r"\(1.1, 0.3\) outside")):
        with pytest.raises(ValueError, match=match):
            mesh.locate(pts)


def all_ders(kv, xs, der):
    """The der-th derivative of every basis function of kv at xs: (len(xs), n)."""
    out = np.zeros((len(xs), kv.num_basis))
    spans = find_span(kv, xs)
    tab = tabulate_in_span(kv, xs, spans, 2)
    for q, s in enumerate(spans):
        out[q, s - kv.degree:s + 1] = tab[der, :, q]
    return out


class TestTwoScale:
    @pytest.mark.parametrize("p, m", [(3, 2), (4, 3), (5, 2)])
    def test_reproduces_every_active_function_on_each_level(self, p, m):
        rng = np.random.default_rng(p)
        for mesh in random_admissible_meshes(p, m, count=2):
            basis = rebuild_basis(mesh)
            funcs = functions(basis)
            for level in range(mesh.num_levels):
                cells = mesh.cells(level)
                if not len(cells):
                    continue
                op = two_scale(mesh, basis, level)
                assert op.level == level and np.array_equal(op.cells, cells)
                keys, local = op.keys, op.local
                fx, fy = keys >> 32, keys & ((1 << 32) - 1)
                # each cell's (p + 1)^2 functions, x-major, sit at local
                loc = np.arange(p + 1)
                want = (((cells[:, 0, None, None] + loc[:, None]) << 32)
                        + cells[:, 1, None, None] + loc).reshape(len(cells), -1)
                np.testing.assert_array_equal(keys[local], want)
                c = op.matrix.toarray()
                # one random point inside each active cell of the level
                h = mesh.h(level)
                pts = (cells + rng.uniform(0.05, 0.95, cells.shape)) * h
                tab = {(k, axis, der): all_ders(mesh.knots(k), pts[:, axis], der)
                       for k in range(level + 1) for axis in (0, 1) for der in (0, 1, 2)}
                for dx, dy in ((0, 0), (2, 0), (1, 1), (0, 2)):
                    fine = tab[level, 0, dx][:, fx] * tab[level, 1, dy][:, fy]
                    exact = np.zeros((len(cells), len(funcs)))
                    for d, (k, i, j) in enumerate(funcs):
                        if k <= level:
                            exact[:, d] = tab[k, 0, dx][:, i] * tab[k, 1, dy][:, j]
                    got = fine @ c
                    assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()
