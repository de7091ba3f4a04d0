"""Free edges end to end: shear and moment data on three free sides, and
the corner forces where two free sides meet.

The plate is clamped on the left side and free on the other three. The
exact solution is u = sin(2x + 0.3) cos(1.5y + 0.2) on the unit square,
with M = D[(1 - nu) H(u) + nu lap(u) I]. On a free side with outward
normal n and tangent t, counterclockwise, the moment datum is M_nn and the
shear datum is -(D d_n lap(u) + d_t M_nt), minus the Kirchhoff effective
shear. A free corner carries the point load of the jump of M_nt there,
arriving minus leaving: +2 M_xy at (1, 1) and -2 M_xy at (1, 0).
"""

import numpy as np
import pytest

from hbplate.adaptivity import LoopConfig, run, slopes
from hbplate.assembly import PlateProblem
from hbplate.hierarchy import HierarchicalSpace

A, B = 2.0, 1.5  # u = sin(A x + 0.3) cos(B y + 0.2)
K2 = A * A + B * B  # lap(u) = -K2 u


def free_edge_problem(stiffness, poisson, corner_forces):
    """(problem, exact Hessian) of the clamped-left, free-elsewhere plate."""
    D, nu = stiffness, poisson

    def value(x, y):
        return np.sin(A * x + 0.3) * np.cos(B * y + 0.2)

    def u_x(x, y):
        return A * np.cos(A * x + 0.3) * np.cos(B * y + 0.2)

    def u_y(x, y):
        return -B * np.sin(A * x + 0.3) * np.sin(B * y + 0.2)

    def hessian(x, y):
        u = value(x, y)
        return -A * A * u, -A * B * np.cos(A * x + 0.3) * np.sin(B * y + 0.2), -B * B * u

    def m_xx(x, y):
        return D * ((1.0 - nu) * hessian(x, y)[0] - nu * K2 * value(x, y))

    def m_yy(x, y):
        return D * ((1.0 - nu) * hessian(x, y)[2] - nu * K2 * value(x, y))

    def m_xy(x, y):
        return D * (1.0 - nu) * hessian(x, y)[1]

    def m_xy_x(x, y):
        return D * (1.0 - nu) * A * A * B * np.sin(A * x + 0.3) * np.sin(B * y + 0.2)

    def m_xy_y(x, y):
        return -D * (1.0 - nu) * A * B * B * np.cos(A * x + 0.3) * np.cos(B * y + 0.2)

    # -(D d_n lap(u) + d_t M_nt): right n = (1, 0), t = (0, 1); bottom
    # n = (0, -1), t = (1, 0), M_nt = -M_xy; top n = (0, 1), t = (-1, 0),
    # M_nt = -M_xy
    shear = {"right": lambda x, y: D * K2 * u_x(x, y) - m_xy_y(x, y),
             "bottom": lambda x, y: -D * K2 * u_y(x, y) + m_xy_x(x, y),
             "top": lambda x, y: D * K2 * u_y(x, y) - m_xy_x(x, y)}
    corners = [((1.0, 1.0), 2.0 * m_xy(1.0, 1.0)), ((1.0, 0.0), -2.0 * m_xy(1.0, 0.0))]
    problem = PlateProblem(
        g=lambda x, y: D * K2 * K2 * value(x, y), stiffness=D, poisson=nu,
        # rotation data are minus the outward normal derivative, here -(-u_x)
        dirichlet_w={"left": value}, dirichlet_phi={"left": u_x},
        neumann_M={"right": m_xx, "bottom": m_yy, "top": m_yy}, neumann_Q=shear,
        point_loads=[(pt, float(f)) for pt, f in corners] if corner_forces else [])
    return problem, hessian


def uniform_study(p, stiffness, poisson, corner_forces):
    problem, hessian = free_edge_problem(stiffness, poisson, corner_forces)
    records = run(problem, HierarchicalSpace.create(2, p),
                  LoopConfig(max_iterations=5, mode="uniform"), exact_hessian=hessian)
    assert [r.h_max for r in records] == [0.5, 0.25, 0.125, 0.0625, 0.03125]
    return records


@pytest.mark.parametrize("stiffness,poisson", [(1.0, 0.0), (2.5, 0.3)])
@pytest.mark.parametrize("p", [3, 4])
def test_corner_forces_give_the_smooth_rate(p, stiffness, poisson):
    records = uniform_study(p, stiffness, poisson, corner_forces=True)
    assert slopes(records, "h", k=2) == pytest.approx(p - 1, abs=0.15)


@pytest.mark.parametrize("stiffness,poisson", [(1.0, 0.0), (2.5, 0.3)])
@pytest.mark.parametrize("p", [3, 4])
def test_without_corner_forces_the_error_stays(p, stiffness, poisson):
    # the shear and moment data alone solve another problem: the H^2 error
    # against u does not fall
    errors = [r.error_h2 for r in uniform_study(p, stiffness, poisson, corner_forces=False)]
    assert all(abs(e - errors[0]) <= 0.1 * errors[0] for e in errors)
