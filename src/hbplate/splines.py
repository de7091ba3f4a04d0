"""Univariate B-spline and Bernstein evaluation with derivatives.

Only open knot vectors of maximum smoothness (single interior knots) are
supported; this is all the dyadic hierarchical construction needs. Basis
values and derivatives follow the standard Cox-de Boor recurrence;
derivative orders beyond the polynomial degree evaluate to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KnotVector",
    "BasisEval",
    "make_open_uniform",
    "dyadic_refine",
    "find_span",
    "eval_ders",
    "eval_ders_in_span",
    "tabulate_in_span",
    "eval_bernstein_ders",
]


class KnotVector:
    """Open knot vector of a given degree with single interior knots.

    The first and last knot are repeated ``degree + 1`` times and interior
    knots are strictly increasing, so the spline space has maximum
    smoothness C^{p-1} everywhere inside the domain.

    A knot vector keeps the basis tables that :meth:`table` computed on it,
    so every mesh that shares it (the refinements of one mesh do) reuses
    them; a new knot vector starts with none.
    """

    __slots__ = ("knots", "degree", "_tables")

    def __init__(self, knots, degree):
        knots = np.ascontiguousarray(knots, dtype=float)
        p = int(degree)
        if p < 2:
            raise ValueError("degree must be at least 2, got %d" % p)
        if knots.ndim != 1:
            raise ValueError("knots must be a one-dimensional sequence")
        if np.any(np.diff(knots) < 0.0):
            raise ValueError("knots must be nondecreasing")
        n = knots.size - p - 1
        if n < p + 1:
            raise ValueError("need at least %d knots for degree %d" % (2 * p + 2, p))
        if not (np.all(knots[: p + 1] == knots[0]) and np.all(knots[-(p + 1):] == knots[-1])):
            raise ValueError("knot vector must be open (end knots repeated degree+1 times)")
        bp = knots[p: n + 1]
        if np.any(np.diff(bp) <= 0.0):
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
        """Distinct knot values including the domain endpoints."""
        return self.knots[self.degree: self.num_basis + 1]

    @property
    def domain(self):
        return float(self.knots[0]), float(self.knots[-1])

    @property
    def num_tables(self):
        """Number of tables :meth:`table` has cached on this knot vector."""
        return len(self._tables)

    def table(self, xs, span, max_der=2):
        """:func:`tabulate_in_span` at the points xs, cached by (span,
        derivative order, points); the returned array is read-only.

        Meant for quadrature points, which repeat across elements, phases
        and iterations; one-off points go to :func:`tabulate_in_span`.
        """
        xs = np.ascontiguousarray(xs, dtype=float).reshape(-1)
        key = (span, max(int(max_der), 2), xs.tobytes())
        tab = self._tables.get(key)
        if tab is None:
            tab = tabulate_in_span(self, xs, span, max_der)
            tab.setflags(write=False)
            self._tables[key] = tab
        return tab

    def __eq__(self, other):
        if not isinstance(other, KnotVector):
            return NotImplemented
        return self.degree == other.degree and np.array_equal(self.knots, other.knots)

    def __hash__(self):
        return hash((self.degree, self.knots.tobytes()))

    def __repr__(self):
        return "KnotVector(degree=%d, elements=%d, domain=%s)" % (
            self.degree, self.num_elements, self.domain)


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


def make_open_uniform(n_elements, p, interval=(0.0, 1.0)):
    """Open uniform knot vector with `n_elements` equal spans on `interval`."""
    if n_elements < 1:
        raise ValueError("n_elements must be at least 1, got %d" % n_elements)
    if p < 2:
        raise ValueError("degree must be at least 2, got %d" % p)
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("interval must have positive length")
    bp = np.linspace(a, b, n_elements + 1)
    knots = np.concatenate([np.full(p, a), bp, np.full(p, b)])
    return KnotVector(knots, p)


def dyadic_refine(kv):
    """Bisect every nonempty span of an open knot vector."""
    bp = kv.breakpoints
    mids = 0.5 * (bp[:-1] + bp[1:])
    new_bp = np.sort(np.concatenate([bp, mids]))
    p = kv.degree
    knots = np.concatenate([np.full(p, new_bp[0]), new_bp, np.full(p, new_bp[-1])])
    return KnotVector(knots, p)


def find_span(kv, x):
    """Index of the nonempty span containing x (the last span owns b)."""
    a, b = kv.domain
    tol = 1e-12 * max(1.0, abs(a), abs(b))
    if x < a - tol or x > b + tol:
        raise ValueError("point %r outside knot vector domain [%r, %r]" % (x, a, b))
    x = min(max(x, a), b)
    span = int(np.searchsorted(kv.knots, x, side="right")) - 1
    return min(max(span, kv.degree), kv.num_basis - 1)


def _ders_basis(knots, p, span, xs, nders):
    """Cox-de Boor values/derivatives of the p+1 functions on a span, at
    every point of the 1d array xs at once.

    Returns an array of shape (nders+1, p+1, len(xs)); rows beyond degree p
    are zero. Each point goes through the same floating-point operations in
    the same order whatever the other points are, so a table does not
    depend on how its points were batched.
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
    """Basis table of one span at many points: ``ders[k, j, q]`` is the k-th
    derivative of basis function ``span - degree + j`` at ``xs[q]``.

    Derivatives are computed at least up to second order, as in
    :func:`eval_ders`. The span is forced by the caller, so points on its
    ends give one-sided limits. Nothing is cached; see :meth:`KnotVector.table`.
    """
    xs = np.ascontiguousarray(xs, dtype=float).reshape(-1)
    return _ders_basis(kv.knots, kv.degree, span, xs, max(int(max_der), 2))


def _bernstein_values(q, t):
    """All q+1 Bernstein values of degree q at t, by the degree recurrence."""
    vals = np.zeros(q + 1)
    vals[0] = 1.0
    s = 1.0 - t
    for d in range(1, q + 1):
        vals[d] = t * vals[d - 1]
        for i in range(d - 1, 0, -1):
            vals[i] = t * vals[i - 1] + s * vals[i]
        vals[0] = s * vals[0]
    return vals


def eval_bernstein_ders(q, t, max_der=2):
    """Bernstein basis of degree q on [0, 1]: values and derivatives at t.

    Derivatives are taken in the reference coordinate; callers apply the
    element scaling. The k-th derivative row combines degree q-k values
    with alternating binomial weights.
    """
    if q < 1:
        raise ValueError("Bernstein degree must be at least 1, got %d" % q)
    if t < -1e-12 or t > 1.0 + 1e-12:
        raise ValueError("point %r outside the reference interval [0, 1]" % t)
    t = min(max(float(t), 0.0), 1.0)
    nders = max(int(max_der), 2)
    ders = np.zeros((nders + 1, q + 1))
    ders[0] = _bernstein_values(q, t)
    for k in range(1, min(nders, q) + 1):
        low = _bernstein_values(q - k, t)
        fac = math.factorial(q) / math.factorial(q - k)
        for i in range(q + 1):
            acc = 0.0
            for j in range(k + 1):
                idx = i - j
                if 0 <= idx <= q - k:
                    acc += (-1.0) ** (k - j) * math.comb(k, j) * low[idx]
            ders[k, i] = fac * acc
    return BasisEval(first_index=0, ders=ders)

