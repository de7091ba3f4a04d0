import math
from fractions import Fraction

import numpy as np
import pytest

from hbplate.splines import (
    KnotVector,
    bernstein_knots,
    cell_classes,
    cell_grams,
    class_tables,
    dyadic_refine,
    eval_bernstein_ders,
    eval_ders,
    eval_ders_in_span,
    find_span,
    make_open_uniform,
    refinement_matrix,
    tabulate_in_span,
)


def bernstein_direct(q, i, t):
    """Independent oracle: C(q,i) t^i (1-t)^(q-i), and 0 for i outside 0..q."""
    if not 0 <= i <= q:
        return 0.0
    return math.comb(q, i) * t**i * (1.0 - t) ** (q - i)


def bernstein_direct_ders(q, i, t):
    """Value, first and second derivative of B_{i,q} at t from the direct
    formula and the degree-lowering identity
    B'_{i,q} = q (B_{i-1,q-1} - B_{i,q-1})."""
    d1 = q * (bernstein_direct(q - 1, i - 1, t) - bernstein_direct(q - 1, i, t))
    d2 = q * (q - 1) * (bernstein_direct(q - 2, i - 2, t) - 2.0 * bernstein_direct(q - 2, i - 1, t)
                        + bernstein_direct(q - 2, i, t))
    return bernstein_direct(q, i, t), d1, d2


class TestMakeOpenUniform:
    def test_single_cubic_element_is_bernstein_knots(self):
        kv = make_open_uniform(1, 3)
        np.testing.assert_array_equal(kv.knots, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_function_count(self):
        kv = make_open_uniform(4, 3)
        assert kv.num_basis == 7
        assert kv.num_elements == 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_open_uniform(0, 3)
        with pytest.raises(ValueError):
            make_open_uniform(2, 1)


class TestEvalDers:
    def test_left_endpoint_interpolation(self):
        kv = make_open_uniform(1, 3)
        ev = eval_ders(kv, 0.0)
        np.testing.assert_allclose(ev.values, [1, 0, 0, 0], atol=1e-15)

    def test_cubic_bernstein_midpoint(self):
        # direct Bernstein formula at t = 0.5
        kv = make_open_uniform(1, 3)
        ev = eval_ders(kv, 0.5)
        expected = [bernstein_direct(3, i, 0.5) for i in range(4)]
        np.testing.assert_allclose(ev.values, expected, rtol=1e-14)
        np.testing.assert_allclose(expected, [0.125, 0.375, 0.375, 0.125])

    def test_partition_of_unity_and_derivative_sums(self):
        rng = np.random.default_rng(7)
        for n_el, p in [(1, 3), (4, 3), (5, 4), (3, 5), (8, 2)]:
            kv = make_open_uniform(n_el, p)
            for x in rng.uniform(0.0, 1.0, size=100):
                ev = eval_ders(kv, x)
                assert abs(ev.values.sum() - 1.0) < 1e-12
                assert abs(ev.d1.sum()) < 1e-10
                assert abs(ev.d2.sum()) < 1e-10

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(3)
        kv = make_open_uniform(5, 4)
        h = 1e-5
        for x in rng.uniform(0.05, 0.95, size=20):
            lo = eval_ders(kv, x - h)
            hi = eval_ders(kv, x + h)
            mid = eval_ders(kv, x)
            if not (lo.first_index == hi.first_index == mid.first_index):
                continue  # straddles a knot; FD not applicable
            d1_fd = (hi.values - lo.values) / (2 * h)
            d2_fd = (hi.values - 2 * mid.values + lo.values) / h**2
            scale1 = max(1.0, np.abs(mid.d1).max())
            scale2 = max(1.0, np.abs(mid.d2).max())
            assert np.abs(d1_fd - mid.d1).max() / scale1 < 1e-5
            assert np.abs(d2_fd - mid.d2).max() / scale2 < 1e-5

    def test_right_endpoint_owned_by_last_span(self):
        kv = make_open_uniform(4, 3)
        ev = eval_ders(kv, 1.0)
        assert ev.first_index == kv.num_basis - kv.degree - 1
        np.testing.assert_allclose(ev.values[-1], 1.0)

    def test_out_of_domain_raises(self):
        kv = make_open_uniform(2, 3)
        with pytest.raises(ValueError):
            eval_ders(kv, 1.5)
        with pytest.raises(ValueError):
            eval_ders(kv, -0.1)

    def test_higher_order_derivatives_zero_beyond_degree(self):
        kv = make_open_uniform(3, 3)
        ev = eval_ders(kv, 0.4, max_der=4)
        assert ev.ders.shape == (5, 4)
        np.testing.assert_array_equal(ev.ders[4], 0.0)

    def test_forced_span_gives_one_sided_limit(self):
        kv = make_open_uniform(2, 3)
        left = eval_ders_in_span(kv, 0.5, kv.degree, max_der=3)
        right = eval_ders_in_span(kv, 0.5, kv.degree + 1, max_der=3)
        # C^2 continuity: values through second derivative agree
        lv = np.zeros(kv.num_basis)
        rv = np.zeros(kv.num_basis)
        for k in range(3):
            lv[:] = 0.0
            rv[:] = 0.0
            lv[left.first_index:left.first_index + 4] = left.ders[k]
            rv[right.first_index:right.first_index + 4] = right.ders[k]
            np.testing.assert_allclose(lv, rv, atol=1e-10)
        # third derivatives of a cubic jump across the knot
        lv = np.zeros(kv.num_basis)
        rv = np.zeros(kv.num_basis)
        lv[left.first_index:left.first_index + 4] = left.ders[3]
        rv[right.first_index:right.first_index + 4] = right.ders[3]
        assert np.abs(lv - rv).max() > 1.0


def scalar_cox_de_boor(knots, p, span, x, nders):
    """Reference loop: Cox-de Boor values and derivatives at one point
    (Piegl & Tiller, The NURBS Book, A2.3), one scalar at a time."""
    ndu = np.empty((p + 1, p + 1))
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    ders = np.zeros((nders + 1, p + 1))
    ders[0, :] = ndu[:, p]
    a = np.empty((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, min(nders, p) + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    fac = float(p)
    for k in range(1, min(nders, p) + 1):
        ders[k, :] *= fac
        fac *= p - k
    return ders


class TestFindSpan:
    def test_array_agrees_with_scalar_calls_and_a_linear_scan(self):
        kv = dyadic_refine(make_open_uniform(3, 3))
        p, n = kv.degree, kv.num_basis
        rng = np.random.default_rng(2)
        xs = np.concatenate([rng.uniform(0.0, 1.0, 20), kv.breakpoints,
                             [0.0, 1.0, -1e-13, 1.0 + 1e-13]])
        # the last span whose left knot is at or below the point clamped onto
        # [0, 1], among the nonempty spans p..n-1
        scan = [max(s for s in range(p, n) if kv.knots[s] <= min(max(x, 0.0), 1.0)) for x in xs]
        spans = find_span(kv, xs)
        assert spans.shape == xs.shape
        assert spans.tolist() == scan == [find_span(kv, float(x)) for x in xs]
        assert isinstance(find_span(kv, 0.5), int)
        # the last span owns the right end, the first the points just outside
        assert spans[-4:].tolist() == [p, n - 1, p, n - 1]
        assert find_span(kv, xs[:20].reshape(4, 5)).tolist() == spans[:20].reshape(4, 5).tolist()

    def test_points_outside_raise_naming_the_first(self):
        kv = make_open_uniform(4, 3)
        with pytest.raises(ValueError, match="point 1.25 outside"):
            find_span(kv, np.array([0.5, 1.25, -0.5]))
        with pytest.raises(ValueError, match="point -1e-09 outside"):
            find_span(kv, -1e-9)
        with pytest.raises(ValueError, match="point nan outside"):
            find_span(kv, np.array([0.5, np.nan]))


class TestTabulationKernel:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_batch_equals_one_point_bit_for_bit(self, p):
        # every span of 4 dyadic levels; both span ends, Gauss and random points
        rng = np.random.default_rng(p)
        gauss = 0.5 * (np.polynomial.legendre.leggauss(p + 2)[0] + 1.0)
        kv = make_open_uniform(1, p)
        checked = 0
        for _ in range(4):
            for span in range(p, kv.num_basis):
                a, b = kv.knots[span], kv.knots[span + 1]
                xs = np.concatenate([[a, b], a + (b - a) * gauss,
                                     a + (b - a) * rng.uniform(size=5)])
                for max_der in (2, 3, 4):
                    tab = tabulate_in_span(kv, xs, span, max_der)
                    assert tab.shape == (max_der + 1, p + 1, xs.size)
                    for q, x in enumerate(xs):
                        one = eval_ders_in_span(kv, x, span, max_der).ders
                        ref = scalar_cox_de_boor(kv.knots, p, span, float(x), max_der)
                        got = np.ascontiguousarray(tab[:, :, q])
                        assert got.tobytes() == one.tobytes() == ref.tobytes()
                        checked += 1
            kv = dyadic_refine(kv)
        assert checked == 3 * xs.size * (1 + 2 + 4 + 8)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_span_per_point_equals_per_span_calls_bit_for_bit(self, p):
        kv = dyadic_refine(dyadic_refine(make_open_uniform(3, p)))
        rng = np.random.default_rng(p)
        xs = np.concatenate([rng.uniform(0.0, 1.0, 40), kv.breakpoints])
        spans = find_span(kv, xs)
        tab = tabulate_in_span(kv, xs, spans, 3)
        for span in np.unique(spans):
            sel = spans == span
            assert np.ascontiguousarray(tab[:, :, sel]).tobytes() == \
                tabulate_in_span(kv, xs[sel], span, 3).tobytes()

    def test_table_is_cached_read_only_and_per_knot_vector(self):
        kv = make_open_uniform(4, 3)
        xs = np.array([0.3, 0.4, 0.45])
        assert kv.num_tables == 0
        tab = class_tables(kv, xs, 1)
        assert kv.num_tables == 1
        assert class_tables(kv, xs.copy(), 2) is tab  # derivative orders below 2 share
        assert not tab.flags.writeable
        cells = np.arange(4)
        want = tabulate_in_span(kv, ((cells[:, None] + xs) / 4).ravel(), np.repeat(cells + 3, 3), 2)
        np.testing.assert_array_equal(tab, want.reshape(3, 4, 4, 3).transpose(2, 0, 1, 3))
        class_tables(kv, xs[:2], 2)
        class_tables(kv, xs, 4)
        assert kv.num_tables == 3
        tabulate_in_span(kv, xs, 4, 2)
        assert kv.num_tables == 3
        assert make_open_uniform(4, 3).num_tables == 0


class TestClassTables:
    @staticmethod
    def node_sets(p):
        from hbplate.assembly import _edge_rule, _gauss01, _graded_rule
        graded = [_graded_rule(p, frozenset({side}))[0][0] for side in ("left", "right")]
        ends = [_edge_rule(p, side)[0][0] for side in ("left", "right")]
        return [_gauss01(p + 2)[0]] + graded + ends

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_against_per_cell_tables_up_to_level_11(self, p):
        # every cell's table against tabulate_in_span at its own nodes, for
        # the Gauss, graded and edge nodes, on 2 to 4,096 cells
        kv = make_open_uniform(2, p)
        for level in range(12):
            n = kv.num_elements
            cells = np.arange(n)
            for nodes in self.node_sets(p):
                for max_der in (2, 4) if nodes.size > 1 else (2,):
                    got = class_tables(kv, nodes, max_der)[cell_classes(kv, cells)]
                    want = tabulate_in_span(kv, ((cells[:, None] + nodes) * (1.0 / n)).ravel(),
                                            np.repeat(cells + p, nodes.size), max_der)
                    want = want.reshape(max_der + 1, p + 1, n, nodes.size).transpose(2, 0, 1, 3)
                    if level == 0:
                        np.testing.assert_array_equal(got, want)
                    for k in range(max_der + 1):
                        scale = np.abs(want[:, k]).max()
                        assert np.abs(got[:, k] - want[:, k]).max() <= 1e-12 * scale, (level, k)
            kv = dyadic_refine(kv)

    def test_at_most_2p_plus_1_classes(self):
        for n, p in ((3, 3), (6, 3), (7, 3), (40, 4)):
            tab = class_tables(make_open_uniform(n, p), np.array([0.0, 0.5, 1.0]))
            assert tab.shape == (min(n, 2 * p + 1), 3, p + 1, 3)


class TestBernstein:
    def test_endpoint_values_and_derivatives(self):
        ev = eval_bernstein_ders(4, 0.0)
        np.testing.assert_allclose(ev.values, [1, 0, 0, 0, 0], atol=1e-15)
        assert ev.d1[0] == pytest.approx(-4.0)
        assert ev.d1[1] == pytest.approx(4.0)

    def test_symmetry_at_one(self):
        left = eval_bernstein_ders(4, 0.0)
        right = eval_bernstein_ders(4, 1.0)
        np.testing.assert_allclose(right.values, left.values[::-1], atol=1e-15)

    def test_partition_of_unity(self):
        ev = eval_bernstein_ders(5, 0.3)
        assert abs(ev.values.sum() - 1.0) < 1e-14

    def test_against_direct_formula(self):
        rng = np.random.default_rng(11)
        for q in (3, 4, 5, 6):
            for t in rng.uniform(0, 1, size=10):
                ev = eval_bernstein_ders(q, t)
                expected = [bernstein_direct(q, i, t) for i in range(q + 1)]
                np.testing.assert_allclose(ev.values, expected, rtol=1e-13)

    def test_values_and_derivatives_against_direct_formula(self):
        rng = np.random.default_rng(5)
        for q in (2, 3, 4, 5):
            for t in np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=25)]):
                bern = eval_bernstein_ders(q, t, max_der=2)
                expected = np.array([bernstein_direct_ders(q, i, t) for i in range(q + 1)]).T
                np.testing.assert_allclose(bern.ders[:3], expected, rtol=0.0, atol=1e-12)

    def test_is_the_one_span_knot_vector(self):
        assert bernstein_knots(4) is bernstein_knots(4)
        np.testing.assert_array_equal(bernstein_knots(4).knots, [0] * 5 + [1] * 5)
        ev = eval_bernstein_ders(4, 0.3, 3)
        assert ev.first_index == 0
        tab = tabulate_in_span(bernstein_knots(4), [0.3], 4, 3)
        assert ev.ders.tobytes() == tab[:, :, 0].tobytes()
        with pytest.raises(ValueError, match="degree must be at least 2"):
            eval_bernstein_ders(1, 0.3)

    def test_derivative_against_finite_differences(self):
        h = 1e-6
        for q in (4, 5):
            for t in (0.2, 0.55, 0.81):
                ev = eval_bernstein_ders(q, t, max_der=2)
                vp = eval_bernstein_ders(q, t + h).values
                vm = eval_bernstein_ders(q, t - h).values
                np.testing.assert_allclose(ev.d1, (vp - vm) / (2 * h), atol=1e-5)

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            eval_bernstein_ders(4, 1.2)


class TestDyadicRefine:
    def test_single_element_cubic(self):
        kv = dyadic_refine(make_open_uniform(1, 3))
        np.testing.assert_array_equal(kv.knots, [0, 0, 0, 0, 0.5, 1, 1, 1, 1])

    def test_twice_refined_counts(self):
        kv = dyadic_refine(dyadic_refine(make_open_uniform(1, 3)))
        assert kv.num_elements == 4
        assert kv.num_basis == 7

    def test_function_count_growth(self):
        kv = make_open_uniform(5, 4)
        fine = dyadic_refine(kv)
        assert fine.num_basis == kv.num_basis + kv.num_elements

    def test_nestedness_by_sampled_least_squares(self):
        # every coarse function must be representable on the refined vector
        kv = make_open_uniform(3, 3)
        fine = dyadic_refine(kv)
        xs = np.linspace(0.0, 1.0, 50)
        coarse_vals = np.zeros((50, kv.num_basis))
        fine_vals = np.zeros((50, fine.num_basis))
        for r, x in enumerate(xs):
            ev = eval_ders(kv, x)
            coarse_vals[r, ev.first_index:ev.first_index + kv.degree + 1] = ev.values
            ef = eval_ders(fine, x)
            fine_vals[r, ef.first_index:ef.first_index + fine.degree + 1] = ef.values
        for j in range(kv.num_basis):
            coeff, res, *_ = np.linalg.lstsq(fine_vals, coarse_vals[:, j], rcond=None)
            resid = np.linalg.norm(fine_vals @ coeff - coarse_vals[:, j])
            assert resid <= 1e-10


def oslo_exact(ncells, p, d):
    """Rational two-scale matrix (fine function, coarse function) of the
    open uniform knot vector of ncells cells and its d-fold dyadic
    refinement, by the Oslo recurrence for discrete B-splines, in units of
    the fine knot spacing, one row at a time."""
    r = 2 ** d
    tau = [0] * p + [r * i for i in range(ncells + 1)] + [r * ncells] * p
    t = [0] * p + list(range(r * ncells + 1)) + [r * ncells] * p
    n, nf = len(tau) - p - 1, len(t) - p - 1
    out = [[Fraction(0)] * n for _ in range(nf)]
    for j in range(nf):
        mu = max(i for i in range(p, n) if tau[i] <= t[j])
        alpha = {mu: Fraction(1)}
        for k in range(1, p + 1):
            x = t[j + k]
            nxt = {}
            for i in range(mu - k, mu + 1):
                v = Fraction(0)
                if i in alpha and tau[i + k] != tau[i]:
                    v += Fraction(x - tau[i], tau[i + k] - tau[i]) * alpha[i]
                if i + 1 in alpha and tau[i + 1 + k] != tau[i + 1]:
                    v += Fraction(tau[i + 1 + k] - x, tau[i + 1 + k] - tau[i + 1]) * alpha[i + 1]
                nxt[i] = v
            alpha = nxt
        for i, v in alpha.items():
            out[j][i] = v
    return out


def dense_refinement(coarse, fine):
    rows, values = refinement_matrix(coarse, fine)
    out = np.zeros((fine.num_basis, coarse.num_basis))
    np.add.at(out, (rows, np.arange(coarse.num_basis)[:, None]), values)
    return out


def full_values(kv, xs, der=0):
    """Every basis function's der-th derivative at the points xs: (len(xs), n)."""
    out = np.zeros((len(xs), kv.num_basis))
    spans = find_span(kv, xs)
    tab = tabulate_in_span(kv, xs, spans, der)
    for q, s in enumerate(spans):
        out[q, s - kv.degree:s + 1] = tab[der, :, q]
    return out


class TestRefinementMatrix:
    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("ncells", [1, 3, 11])
    def test_coarse_functions_are_the_refined_sums(self, p, d, ncells):
        coarse = make_open_uniform(ncells, p)
        fine = coarse
        for _ in range(d):
            fine = dyadic_refine(fine)
        r = dense_refinement(coarse, fine)
        xs = np.random.default_rng(p + 10 * d).uniform(0.0, 1.0, 60)
        for der in (0, 2):
            want = full_values(coarse, xs, der)
            got = full_values(fine, xs, der) @ r
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_rational_knot_insertion(self, p, d):
        ncells = 2 * p + 3
        fine = coarse = make_open_uniform(ncells, p)
        for _ in range(d):
            fine = dyadic_refine(fine)
        got = dense_refinement(coarse, fine)
        exact = oslo_exact(ncells, p, d)
        # columns with simple knots are exact; the end columns to rounding
        inner = slice(p, coarse.num_basis - p)
        np.testing.assert_array_equal(got[:, inner], np.array(exact, dtype=float)[:, inner])
        err = max(abs(Fraction(float(g)) - e) for gr, er in zip(got, exact) for g, e in zip(gr, er))
        assert err <= 2.0 ** -52

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_interior_columns_are_the_binomial_rule(self, p):
        coarse = make_open_uniform(3 * p, p)
        rows, values = refinement_matrix(coarse, dyadic_refine(coarse))
        rule = [math.comb(p + 1, j) / 2.0 ** p for j in range(p + 2)]
        for i in range(p, coarse.num_basis - p):
            np.testing.assert_array_equal(values[i], rule)
            np.testing.assert_array_equal(rows[i], 2 * i - p + np.arange(p + 2))

    def test_cached_on_the_coarse_knot_vector(self):
        coarse = make_open_uniform(4, 3)
        fine = dyadic_refine(dyadic_refine(coarse))
        assert refinement_matrix(coarse, fine) is refinement_matrix(coarse, fine)
        assert coarse.num_tables == 1 and fine.num_tables == 0

    def test_rejects_a_knot_vector_that_is_not_a_refinement(self):
        coarse = make_open_uniform(4, 3)
        for other in (coarse, make_open_uniform(6, 3), make_open_uniform(8, 4)):
            with pytest.raises(ValueError):
                refinement_matrix(coarse, other)


class TestCellGrams:
    @pytest.mark.parametrize("ncells", [2, 5, 12])
    def test_every_cell_against_its_own_quadrature(self, ncells):
        p = 3
        kv = make_open_uniform(ncells, p)
        grams = cell_grams(kv)[cell_classes(kv, np.arange(ncells))]
        nodes, weights = np.polynomial.legendre.leggauss(p + 2)
        bp = kv.breakpoints
        for c in range(ncells):
            h = bp[c + 1] - bp[c]
            tab = tabulate_in_span(kv, bp[c] + h * 0.5 * (nodes + 1.0), c + p, 2)
            want = np.einsum("aiq,q,bjq->abij", tab, 0.5 * h * weights, tab)
            assert np.abs(grams[c] - want).max() <= 1e-12 * np.abs(want).max()

    def test_classes_of_a_long_knot_vector(self):
        kv = make_open_uniform(20, 4)
        np.testing.assert_array_equal(cell_classes(kv, np.arange(20)),
                                      [0, 1, 2, 3] + [4] * 12 + [5, 6, 7, 8])
        assert cell_grams(kv).shape == (9, 3, 3, 5, 5)

    def test_rejects_unequal_spans(self):
        kv = KnotVector([0, 0, 0, 0, 0.3, 1, 1, 1, 1], 3)
        with pytest.raises(ValueError):
            cell_grams(kv)
        with pytest.raises(ValueError):
            refinement_matrix(kv, dyadic_refine(kv))

    def test_deep_refinement_of_thirds(self):
        # the spans of 3 * 2^14 cells differ by the breakpoints' rounding,
        # 1e-11 of a span, and still count as equal
        kv = make_open_uniform(3, 3)
        for _ in range(14):
            kv = dyadic_refine(kv)
        steps = np.diff(kv.breakpoints)
        assert np.ptp(steps) > 1e-12 * steps.max()
        c = kv.num_elements // 2 + 1
        grams = cell_grams(kv)[cell_classes(kv, c)]
        nodes, weights = np.polynomial.legendre.leggauss(5)
        h = 1.0 / kv.num_elements
        tab = tabulate_in_span(kv, (c + 0.5 * (nodes + 1.0)) * h, c + 3, 2)
        want = np.einsum("aiq,q,bjq->abij", tab, 0.5 * h * weights, tab)
        assert np.abs(grams - want).max() <= 1e-9 * np.abs(want).max()
        rows, values = refinement_matrix(kv, dyadic_refine(kv))
        assert rows.shape == (kv.num_basis, 5)


class TestKnotVectorValidation:
    def test_rejects_non_open(self):
        with pytest.raises(ValueError, match="must be open"):
            KnotVector([0, 0, 0, 0.5, 0.6, 1, 1, 1], 3)

    @pytest.mark.parametrize("ends", [(0.0, 2.0), (0.0, 0.5), (-1.0, 1.0)])
    def test_rejects_ends_other_than_0_and_1_naming_both(self, ends):
        # every knot vector lives on [0, 1]: the mesh levels, the Bernstein
        # bubbles and the spline geometry map
        a, b = ends
        with pytest.raises(ValueError, match=r"open on \[0, 1\].*got ends %r and %r" % (a, b)):
            KnotVector([a] * 4 + [0.5 * (a + b)] + [b] * 4, 3)

    def test_rejects_a_fractional_degree_naming_it(self):
        # int(3.7) used to build a cubic
        with pytest.raises(ValueError, match="degree must be at least 2, got non-integer 3.7"):
            KnotVector([0] * 4 + [1] * 4, 3.7)
        assert KnotVector([0] * 4 + [1] * 4, np.int64(3)).degree == 3

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            KnotVector([0, 0, 0, 0, 0.6, 0.4, 1, 1, 1, 1], 3)
        with pytest.raises(ValueError, match="nondecreasing"):
            KnotVector([0, 0, 0, 0, math.nan, 1, 1, 1, 1], 3)

    def test_rejects_repeated_interior(self):
        with pytest.raises(ValueError):
            KnotVector([0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1], 3)
