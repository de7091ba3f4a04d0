"""The spline geometry map end to end: a plate on a quadrilateral with
straight sides, given by a bicubic control net, refined uniformly, reaches
the smooth-solution rate through the whole loop (load, Dirichlet fits of
deflection and rotation, moment sides, solve, estimator and error norm)."""

import math

import numpy as np
import pytest

from hbplate.adaptivity import LoopConfig, run, slopes
from hbplate.assembly import GeometryMap, PlateProblem
from hbplate.hierarchy import HierarchicalSpace
from hbplate.splines import make_open_uniform

# the bilinear map x = xi + 0.3 xi eta, y = eta + 0.2 xi (1 - eta), a
# quadrilateral with straight sides and a Jacobian that varies over it;
# control points at the Greville abscissae reproduce it exactly
CORNERS = {"left": ((0.0, 0.0), (0.0, 1.0)), "bottom": ((0.0, 0.0), (1.0, 0.2)),
           "right": ((1.0, 0.2), (1.3, 1.0)), "top": ((0.0, 1.0), (1.3, 1.0))}


def bilinear(xi, eta):
    return xi + 0.3 * xi * eta, eta + 0.2 * xi * (1.0 - eta)


def spline_map():
    kv = make_open_uniform(1, 3)
    grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
    xi, eta = np.meshgrid(grev, grev, indexing="ij")
    return GeometryMap.spline(kv, np.stack(bilinear(xi, eta), axis=-1))


def outward_normal(side):
    """The unit normal of the mapped side, pointing out of the domain: the
    side's direction turned clockwise, or counter-clockwise on the left
    and top sides, whose corners run the other way round the domain."""
    (x0, y0), (x1, y1) = CORNERS[side]
    n = np.array([y1 - y0, x0 - x1]) / math.hypot(x1 - x0, y1 - y0)
    return -n if side in ("left", "top") else n


def mapped_problem():
    """u = sin(2x + 1) cos(1.5y) on the mapped quadrilateral: clamped on
    the left and bottom sides, simply supported with the exact moment on
    the right and top, Poisson 0.3. Returns (problem, exact Hessian)."""
    a, b, nu = 2.0, 1.5, 0.3

    def value(x, y):
        return np.sin(a * x + 1.0) * np.cos(b * y)

    def hessian(x, y):
        u = value(x, y)
        return (-a * a * u, -a * b * np.cos(a * x + 1.0) * np.sin(b * y), -b * b * u)

    def rotation(side):
        # rotation data are minus the outward normal derivative
        nx, ny = outward_normal(side)
        return lambda x, y: -(a * np.cos(a * x + 1.0) * np.cos(b * y) * nx
                              - b * np.sin(a * x + 1.0) * np.sin(b * y) * ny)

    def moment(side):
        nx, ny = outward_normal(side)

        def fn(x, y):
            hxx, hxy, hyy = hessian(x, y)
            return (1.0 - nu) * (nx * nx * hxx + 2.0 * nx * ny * hxy + ny * ny * hyy) \
                + nu * (hxx + hyy)
        return fn

    problem = PlateProblem(
        g=lambda x, y: (a * a + b * b) ** 2 * value(x, y), poisson=nu,
        dirichlet_w={side: value for side in CORNERS},
        dirichlet_phi={side: rotation(side) for side in ("left", "bottom")},
        neumann_M={side: moment(side) for side in ("right", "top")})
    return problem, hessian


def test_the_control_net_maps_the_sides_straight():
    assert outward_normal("left") == pytest.approx((-1.0, 0.0))
    assert outward_normal("top") == pytest.approx((0.0, 1.0))
    geo = spline_map()
    t = np.linspace(0.0, 1.0, 11)
    for side, param in (("left", np.c_[0 * t, t]), ("bottom", np.c_[t, 0 * t]),
                        ("right", np.c_[1 + 0 * t, t]), ("top", np.c_[t, 1 + 0 * t])):
        got = geo.map_points(param)
        np.testing.assert_allclose(got, np.stack(bilinear(*param.T), axis=-1), atol=1e-14)
        (x0, y0), (x1, y1) = CORNERS[side]
        # every mapped point lies on the segment between the side's corners
        cross = (x1 - x0) * (got[:, 1] - y0) - (y1 - y0) * (got[:, 0] - x0)
        assert np.abs(cross).max() <= 1e-14
    jac = geo.derivatives(np.c_[t, t[::-1]])[1]
    assert np.ptp(np.linalg.det(jac)) > 0.05


@pytest.mark.parametrize("p", [3, 4])
def test_spline_uniform_rate(p):
    """Uniform refinement of the plate on the spline map reaches the
    smooth-solution rate: the H^2 error falls like h^(p - 1)."""
    problem, hessian = mapped_problem()
    records = run(problem, HierarchicalSpace.create(2, p),
                  LoopConfig(max_iterations=4, mode="uniform"), geo=spline_map(),
                  exact_hessian=hessian)
    assert [r.h_max for r in records] == [0.5, 0.25, 0.125, 0.0625]
    assert all(np.isfinite(r.eta_total) and r.eta_total > 0.0 for r in records)
    assert slopes(records, "h") == pytest.approx(p - 1, abs=0.25)
