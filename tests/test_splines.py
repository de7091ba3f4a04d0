import math

import numpy as np
import pytest

from hbplate.splines import (
    KnotVector,
    dyadic_refine,
    eval_bernstein_ders,
    eval_ders,
    eval_ders_in_span,
    make_open_uniform,
    tabulate_in_span,
)


def bernstein_direct(q, i, t):
    """Independent oracle: C(q,i) t^i (1-t)^(q-i)."""
    return math.comb(q, i) * t**i * (1.0 - t) ** (q - i)


class TestMakeOpenUniform:
    def test_single_cubic_element_is_bernstein_knots(self):
        kv = make_open_uniform(1, 3)
        np.testing.assert_array_equal(kv.knots, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_function_count(self):
        kv = make_open_uniform(4, 3)
        assert kv.num_basis == 7
        assert kv.num_elements == 4

    def test_general_interval(self):
        kv = make_open_uniform(2, 4, (0.0, 2.0))
        assert kv.num_basis == 6
        np.testing.assert_allclose(kv.breakpoints, [0.0, 1.0, 2.0])

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
            kv = make_open_uniform(n_el, p, (0.0, 2.5))
            for x in rng.uniform(0.0, 2.5, size=100):
                ev = eval_ders(kv, x)
                assert abs(ev.values.sum() - 1.0) < 1e-12
                assert abs(ev.d1.sum()) < 1e-10
                assert abs(ev.d2.sum()) < 1e-10

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(3)
        kv = make_open_uniform(5, 4, (0.0, 1.0))
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

    def test_table_is_cached_read_only_and_per_knot_vector(self):
        kv = make_open_uniform(4, 3)
        xs = np.array([0.3, 0.4, 0.45])
        assert kv.num_tables == 0
        tab = kv.table(xs, 4, 1)
        assert kv.num_tables == 1
        assert kv.table(xs.copy(), 4, 2) is tab  # derivative orders below 2 share
        assert not tab.flags.writeable
        np.testing.assert_array_equal(tab, tabulate_in_span(kv, xs, 4, 2))
        kv.table(xs, 5, 2)
        kv.table(xs, 4, 4)
        assert kv.num_tables == 3
        tabulate_in_span(kv, xs, 4, 2)
        assert kv.num_tables == 3
        assert make_open_uniform(4, 3).num_tables == 0


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

    def test_matches_single_element_knot_vector(self):
        rng = np.random.default_rng(5)
        for q in (3, 4, 5):
            kv = make_open_uniform(1, q)
            for t in rng.uniform(0, 1, size=25):
                bern = eval_bernstein_ders(q, t, max_der=2)
                spline = eval_ders(kv, t, max_der=2)
                np.testing.assert_allclose(bern.ders[:3], spline.ders[:3], atol=1e-12)

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
        kv = make_open_uniform(3, 3, (0.0, 1.0))
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


class TestKnotVectorValidation:
    def test_rejects_non_open(self):
        with pytest.raises(ValueError):
            KnotVector([0, 0, 0, 1, 2, 2, 2], 3)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            KnotVector([0, 0, 0, 0, 0.6, 0.4, 1, 1, 1, 1], 3)

    def test_rejects_repeated_interior(self):
        with pytest.raises(ValueError):
            KnotVector([0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1], 3)
