"""Univariate B-spline evaluation with derivatives.

Only open knot vectors of maximum smoothness (single interior knots) on
[0, 1] are supported; this is all the dyadic hierarchical construction
needs. Every mesh level, the Bernstein bubbles and the spline geometry map
live on [0, 1], and :class:`KnotVector` rejects knots with other ends.
Basis values and derivatives follow the standard Cox-de Boor recurrence,
in one tabulation kernel, :func:`tabulate_in_span`, which evaluates many
points at once, each in its own span or all in one; derivative orders
beyond the polynomial degree evaluate to zero.

The Bernstein polynomials of degree q on [0, 1] are the B-splines of the
one-span open knot vector :func:`bernstein_knots`, so they go through the
same kernel and the same table cache as every other basis.

The two-scale assembly works on each level's own B-splines, whose cells
a uniform knot vector has in at most 2p + 1 classes (:func:`cell_classes`):
the cells at each end and the translates between them. Three univariate
operators serve it, all cached on the knot vector: the basis tables at
reference nodes per class of :func:`class_tables`, the cell Gram matrices
of :func:`cell_grams`, and the exact two-scale relation to a dyadic
refinement, :func:`refinement_matrix`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "KnotVector",
    "BasisEval",
    "make_open_uniform",
    "bernstein_knots",
    "dyadic_refine",
    "find_span",
    "eval_ders",
    "eval_ders_in_span",
    "tabulate_in_span",
    "eval_bernstein_ders",
    "cell_classes",
    "class_tables",
    "cell_grams",
    "refinement_matrix",
]


def _check_integer(value, low, text):
    """value as an int, for an integer (numpy's too) of at least low;
    ValueError "text, got ..." naming the value otherwise."""
    if not isinstance(value, numbers.Integral):
        raise ValueError("%s, got non-integer %r" % (text, value))
    if value < low:
        raise ValueError("%s, got %d" % (text, value))
    return int(value)


class KnotVector:
    """Open knot vector of a given degree with single interior knots.

    The first knot, 0, and the last, 1, are repeated ``degree + 1`` times
    and interior knots are strictly increasing, so the spline space has
    maximum smoothness C^{p-1} everywhere inside [0, 1].

    A knot vector keeps the basis tables of :func:`class_tables` computed
    on it, and its cell Gram and refinement matrices, so every mesh that
    shares it (the refinements of one mesh do) reuses them; a new knot
    vector starts with none.
    """

    __slots__ = ("knots", "degree", "_tables")

    def __init__(self, knots, degree):
        knots = np.ascontiguousarray(knots, dtype=float)
        p = _check_integer(degree, 2, "degree must be at least 2")
        if knots.ndim != 1:
            raise ValueError("knots must be a one-dimensional sequence")
        if not np.all(np.diff(knots) >= 0.0):
            raise ValueError("knots must be nondecreasing")
        n = knots.size - p - 1
        if n < p + 1:
            raise ValueError("need at least %d knots for degree %d" % (2 * p + 2, p))
        if not (np.all(knots[: p + 1] == 0.0) and np.all(knots[-(p + 1):] == 1.0)):
            raise ValueError("knot vector must be open on [0, 1] (0 and 1 repeated degree+1 "
                             "times), got ends %r and %r" % (float(knots[0]), float(knots[-1])))
        bp = knots[p: n + 1]
        if not np.all(np.diff(bp) > 0.0):
            raise ValueError("interior knots must be single (maximum smoothness)")
        knots.setflags(write=False)
        self.knots = knots
        self.degree = p
        self._tables = {}

    @property
    def num_basis(self):
        """Number of basis functions n = len(knots) - degree - 1."""
        return self.knots.size - self.degree - 1

    @property
    def num_elements(self):
        """Number of nonempty knot spans."""
        return self.num_basis - self.degree

    @property
    def breakpoints(self):
        """Distinct knot values, 0 and 1 included."""
        return self.knots[self.degree: self.num_basis + 1]

    @property
    def num_tables(self):
        """Number of arrays cached on this knot vector."""
        return len(self._tables)

    def cached(self, key, build):
        """What build() returns, computed once per key and kept on this
        knot vector."""
        out = self._tables.get(key)
        if out is None:
            out = self._tables[key] = build()
        return out

    def __repr__(self):
        return "KnotVector(degree=%d, elements=%d)" % (self.degree, self.num_elements)


@dataclass
class BasisEval:
    """Nonzero basis functions at a point with their derivatives.

    ``ders[k, j]`` is the k-th derivative of basis function
    ``first_index + j``; row 0 holds the values.
    """

    first_index: int
    ders: np.ndarray

    @property
    def values(self):
        return self.ders[0]

    @property
    def d1(self):
        return self.ders[1]

    @property
    def d2(self):
        return self.ders[2]


def _open(breakpoints, p):
    """The open knot vector of degree p on the breakpoints 0, ..., 1."""
    return KnotVector(np.concatenate([np.zeros(p), breakpoints, np.ones(p)]), p)


def make_open_uniform(n_elements, p):
    """Open uniform knot vector with `n_elements` equal spans on [0, 1]."""
    return _open(np.linspace(0.0, 1.0, n_elements + 1), p)


@lru_cache(maxsize=None)
def bernstein_knots(q):
    """The one-span open knot vector of degree q on [0, 1], whose B-splines
    are the Bernstein polynomials of degree q; one per degree, so that its
    tables are shared."""
    return make_open_uniform(1, q)


def dyadic_refine(kv):
    """Bisect every nonempty span of an open knot vector."""
    bp = kv.breakpoints
    mids = 0.5 * (bp[:-1] + bp[1:])
    return _open(np.sort(np.concatenate([bp, mids])), kv.degree)


def find_span(kv, x):
    """Index of the nonempty span containing x (the last span owns 1): an
    int for a number, an integer array of the same shape for an array.

    Points within 1e-12 outside [0, 1] are clamped onto it; any other
    point, NaN included, raises ValueError naming the first one.
    """
    xs = np.asarray(x, dtype=float)
    outside = ~((xs >= -1e-12) & (xs <= 1.0 + 1e-12))
    if outside.any():
        first = xs.reshape(-1)[outside.reshape(-1).argmax()]
        raise ValueError("point %r outside the knot vector's domain [0, 1]" % float(first))
    span = np.searchsorted(kv.knots, np.clip(xs, 0.0, 1.0), side="right") - 1
    span = np.clip(span, kv.degree, kv.num_basis - 1)
    return int(span) if span.ndim == 0 else span


def _ders_basis(knots, p, span, xs, nders):
    """Cox-de Boor values/derivatives of the p+1 functions on a span, at
    every point of the 1d array xs at once; span is one index, or an array
    of one index per point.

    Returns an array of shape (nders+1, p+1, len(xs)); rows beyond degree p
    are zero. Each point goes through the same floating-point operations in
    the same order whatever the other points and their spans are, so a
    table does not depend on how its points were batched.
    """
    ndu = [[None] * (p + 1) for _ in range(p + 1)]
    left = [None] * (p + 1)
    right = [None] * (p + 1)
    ndu[0][0] = np.ones_like(xs)
    for j in range(1, p + 1):
        left[j] = xs - knots[span + 1 - j]
        right[j] = knots[span + j] - xs
        saved = 0.0
        for r in range(j):
            ndu[j][r] = right[r + 1] + left[j - r]
            temp = ndu[r][j - 1] / ndu[j][r]
            ndu[r][j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j][j] = saved

    ders = np.zeros((nders + 1, p + 1, xs.size))
    a = [[None] * (p + 1), [None] * (p + 1)]
    for r in range(p + 1):
        ders[0, r] = ndu[r][p]
        s1, s2 = 0, 1
        a[0][0] = 1.0
        for k in range(1, min(nders, p) + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2][0] = a[s1][0] / ndu[pk + 1][rk]
                d = a[s2][0] * ndu[rk][pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2][j] = (a[s1][j] - a[s1][j - 1]) / ndu[pk + 1][rk + j]
                d += a[s2][j] * ndu[rk + j][pk]
            if r <= pk:
                a[s2][k] = -a[s1][k - 1] / ndu[pk + 1][r]
                d += a[s2][k] * ndu[r][pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, min(nders, p) + 1):
        ders[k] *= fac
        fac *= p - k
    return ders


def eval_ders(kv, x, max_der=2):
    """Nonzero basis values and derivatives at x.

    Derivatives are always computed at least up to second order so that the
    returned :class:`BasisEval` exposes ``values``, ``d1`` and ``d2``.
    """
    span = find_span(kv, x)
    return eval_ders_in_span(kv, x, span, max_der)


def eval_ders_in_span(kv, x, span, max_der=2):
    """Like :func:`eval_ders` but with the span forced by the caller.

    Useful for one-sided limits at knots: the recurrence evaluates the
    polynomial piece of the requested span even when x sits on its boundary.
    This is the one-point case of :func:`tabulate_in_span`.
    """
    ders = tabulate_in_span(kv, [float(x)], span, max_der)[:, :, 0]
    return BasisEval(first_index=span - kv.degree, ders=ders)


def tabulate_in_span(kv, xs, span, max_der=2):
    """Basis table at many points: ``ders[k, j, q]`` is the k-th derivative
    of basis function ``span - degree + j`` at ``xs[q]``, where span is one
    index for all points or an array of one index per point (as
    :func:`find_span` gives).

    Derivatives are computed at least up to second order, as in
    :func:`eval_ders`. The span is forced by the caller, so points on its
    ends give one-sided limits. Nothing is cached; see :func:`class_tables`.
    """
    xs = np.ascontiguousarray(xs, dtype=float).reshape(-1)
    span = np.asarray(span, dtype=np.intp)
    return _ders_basis(kv.knots, kv.degree, span, xs, max(int(max_der), 2))


def eval_bernstein_ders(q, t, max_der=2):
    """Bernstein basis of degree q >= 2 on [0, 1]: values and derivatives at
    t, the one-point case of :func:`eval_ders_in_span` on
    :func:`bernstein_knots`. Points within 1e-12 outside [0, 1] are clamped
    onto it.

    Derivatives are taken in the reference coordinate; callers apply the
    element scaling.
    """
    if not -1e-12 <= t <= 1.0 + 1e-12:
        raise ValueError("point %r outside the reference cell [0, 1]" % t)
    t = min(max(float(t), 0.0), 1.0)
    return eval_ders_in_span(bernstein_knots(q), t, q, max_der)


def _check_uniform(kv):
    """ValueError unless the breakpoints of kv are equally spaced, up to
    rounding: within 1e-12, since deep dyadic refinements of thirds have
    spans that differ by their breakpoints' rounding, a large part of a
    tiny span."""
    if np.ptp(np.diff(kv.breakpoints)) > 1e-12:
        raise ValueError("%r does not have equally spaced breakpoints" % (kv,))


def cell_classes(kv, cells):
    """Class of each cell index of a uniform knot vector in
    :func:`cell_grams`: the p cells at each end have a class each, and the
    cells between them, translates of one another, share class p; with at
    most 2p cells every cell is its own class."""
    n, p = kv.num_elements, kv.degree
    cells = np.asarray(cells)
    if n <= 2 * p:
        return cells
    return np.minimum(cells, p) + np.maximum(cells - (n - p - 1), 0)


def class_tables(kv, nodes, max_der=2):
    """Basis tables of a uniform open knot vector at reference nodes on
    [0, 1], one per class of :func:`cell_classes`: ``tab[g, k, j, q]`` is
    the k-th derivative of B_{c+j} at (c + nodes[q]) / n on a cell c of
    class g of the n cells, as one-sided limits on the cell at
    nodes 0 and 1. All classes come from one :func:`tabulate_in_span`
    call on a representative cell each. Derivatives go at least to second
    order; cached on the knot vector per (nodes, order) and read-only."""
    nodes = np.ascontiguousarray(nodes, dtype=float).reshape(-1)
    max_der = max(int(max_der), 2)

    def build():
        _check_uniform(kv)
        n, p = kv.num_elements, kv.degree
        reps = np.arange(n) if n <= 2 * p else np.r_[0:p + 1, n - p:n]
        xs = (reps[:, None] + nodes) * (1.0 / n)
        tab = tabulate_in_span(kv, xs.ravel(), np.repeat(reps + p, nodes.size), max_der)
        tab = np.ascontiguousarray(
            tab.reshape(max_der + 1, p + 1, len(reps), nodes.size).transpose(2, 0, 1, 3))
        tab.setflags(write=False)
        return tab
    return kv.cached(("classes", max_der, nodes.tobytes()), build)


def cell_grams(kv):
    """Univariate cell Gram matrices of a uniform open knot vector, one per
    class of :func:`cell_classes`: ``grams[g, a, b, i, j]`` is the integral
    over a cell c of class g of the product of the a-th derivative of
    B_{c+i} and the b-th derivative of B_{c+j}, for a, b <= 2, by the Gauss
    rule of p + 2 points, exact for these polynomials, from the
    :func:`class_tables` at its nodes. Cached on the knot vector and
    read-only."""
    def build():
        p = kv.degree
        nodes, weights = np.polynomial.legendre.leggauss(p + 2)
        tab = class_tables(kv, 0.5 * (nodes + 1.0), 2)
        w = 0.5 / kv.num_elements * weights
        grams = np.einsum("gaiq,q,gbjq->gabij", tab, w, tab)
        grams.setflags(write=False)
        return grams
    return kv.cached(("grams",), build)


def refinement_matrix(coarse, fine):
    """Two-scale relation between a uniform open knot vector and its d-fold
    dyadic refinement (d >= 1, as by repeated :func:`dyadic_refine`):
    ``(rows, values)``, each (coarse.num_basis, w), such that coarse B_i is
    the sum over c of ``values[i, c]`` times fine B_{rows[i, c]}; a column
    with fewer than w terms is padded with value 0 at row 0.

    The columns whose knots are all simple are translates of the d-fold
    subdivision mask, the binomial rule 2^-p C(p + 1, j) refined d - 1 times
    by itself; its entries are dyadic and exact in floating point. The p
    columns at each end come from knot insertion by the Oslo algorithm, in
    units of the fine knot spacing, to within rounding (for p >= 4 some of
    them are not dyadic). Cached on the coarse knot vector per d and
    read-only.
    """
    p = coarse.degree
    ratio = fine.num_elements // coarse.num_elements
    d = ratio.bit_length() - 1
    if (fine.degree != p or ratio < 2 or ratio != 1 << d
            or fine.num_elements != ratio * coarse.num_elements):
        raise ValueError("%r is not a dyadic refinement of %r" % (fine, coarse))
    return coarse.cached(("refine", d), lambda: _refinement_arrays(coarse, fine, d))


def _refinement_arrays(coarse, fine, d):
    """The arrays of :func:`refinement_matrix`."""
    _check_uniform(coarse)
    _check_uniform(fine)
    p, r = coarse.degree, 1 << d
    nc, n, nf = coarse.num_elements, coarse.num_basis, fine.num_basis
    one = np.array([math.comb(p + 1, j) for j in range(p + 2)]) / 2.0 ** p
    mask = one
    for _ in range(d - 1):
        up = np.zeros(2 * mask.size - 1)
        up[::2] = mask
        mask = np.convolve(up, one)
    # the end columns by Oslo: row j of R on the coarse functions mu - p..mu
    # of the coarse span holding fine knot j, built up degree by degree
    tau = np.r_[np.zeros(p), r * np.arange(nc + 1), np.full(p, r * nc)].astype(float)
    t = np.r_[np.zeros(p), np.arange(r * nc + 1), np.full(p, r * nc)].astype(float)
    js = np.unique(np.r_[np.arange(min(r * p, nf)), np.arange(max(nf - r * p, 0), nf)])
    mu = np.clip(np.searchsorted(tau, t[js], side="right") - 1, p, n - 1)
    b = np.ones((js.size, 1))
    for k in range(1, p + 1):
        x = t[js + k][:, None]
        i = mu[:, None] - k + np.arange(k + 1)
        prev = np.zeros((js.size, k + 2))
        prev[:, 1:k + 1] = b
        d1, d2 = tau[i + k] - tau[i], tau[i + k + 1] - tau[i + 1]
        w1 = np.divide(x - tau[i], d1, out=np.zeros_like(d1), where=d1 > 0)
        w2 = np.divide(tau[i + k + 1] - x, d2, out=np.zeros_like(d2), where=d2 > 0)
        b = w1 * prev[:, :k + 1] + w2 * prev[:, 1:]
    col = mu[:, None] - p + np.arange(p + 1)
    row = np.broadcast_to(js[:, None], col.shape)
    keep = ((col < p) | (col >= n - p)) & (b != 0.0)
    order = np.lexsort((row[keep], col[keep]))
    col, row, val = col[keep][order], row[keep][order], b[keep][order]
    pos = np.arange(col.size) - np.searchsorted(col, col)
    inner = np.arange(p, n - p)
    width = max(mask.size, int(pos.max(initial=-1)) + 1)
    rows = np.zeros((n, width), dtype=np.int64)
    values = np.zeros((n, width))
    rows[inner, :mask.size] = r * (inner[:, None] - p) + p + np.arange(mask.size)
    values[inner, :mask.size] = mask
    rows[col, pos], values[col, pos] = row, val
    rows.setflags(write=False)
    values.setflags(write=False)
    return rows, values
