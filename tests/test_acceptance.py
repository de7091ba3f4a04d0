"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

These are end-to-end desk-scale convergence studies; expect a few minutes
of runtime for the whole module.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from hbplate.adaptivity import LoopConfig, MarkParams, mark_maximum, run, slopes
from hbplate.assembly import (
    GeometryMap,
    apply_dirichlet,
    assemble_system,
    h2_seminorm_error,
    solve,
    _DERIVATIVES,
    _transform_rows,
)
from hbplate.benchmarks import (
    benchmark_point_load,
    benchmark_singular,
    benchmark_smooth,
    benchmark_spline_exact,
)
from hbplate.cli import main as cli_main
from hbplate.estimators import (
    ElementEstimate,
    assemble_blocks,
    build_bubble_space,
    estimate,
    eta_elements,
    natural_boundary_sides,
    solve_blocks,
)
from hbplate.hierarchy import (
    ElementId,
    HierarchicalSpace,
    check_admissible,
    init,
    refine,
)
from hbplate.splines import eval_bernstein_ders, make_open_uniform

IDENTITY = GeometryMap.identity()


def report(criterion, passed, detail):
    print("ACCEPTANCE %-38s %s  [%s]" % (criterion, "PASS" if passed else "FAIL", detail))
    return passed


def solution_energy(space, problem, u):
    system = assemble_system(space, IDENTITY, problem)
    return math.sqrt(max(float(u.coefficients @ (system.matrix @ u.coefficients)), 0.0))


def test_criterion_1_smooth_uniform_rates():
    spec = benchmark_smooth()
    ok = True
    for p in (3, 4, 5):
        space = HierarchicalSpace.create(4, p)
        config = LoopConfig(max_iterations=6, mode="uniform")
        records = run(spec.problem, space, config, exact_hessian=spec.exact_hessian)
        s_err = slopes(records, "h")
        s_eta = slopes(records, "h", fieldname="eta_total")
        ok_err = abs(s_err - (p - 1)) <= 0.15
        ok_eta = abs(s_eta - (p - 1)) <= 0.2
        ok &= report("1 smooth uniform p=%d" % p, ok_err and ok_eta,
                     "slope_err=%.3f slope_eta=%.3f target=%d" % (s_err, s_eta, p - 1))
    assert ok


def test_criterion_2_estimator_effectivity_gap():
    spec = benchmark_smooth()
    thetas = {}
    for estimator in ("bubble", "residual"):
        space = HierarchicalSpace.create(4, 3)
        config = LoopConfig(max_iterations=7, max_dofs=4000, mode="adaptive",
                            estimator=estimator, gamma=0.5)
        records = run(spec.problem, space, config, exact_hessian=spec.exact_hessian)
        thetas[estimator] = records[-1].theta
    in_band = 1.0 <= thetas["bubble"] <= 10.0
    ratio = thetas["residual"] / thetas["bubble"]
    ok = report("2 effectivity bubble vs residual", in_band and ratio > 10.0,
                "theta_bubble=%.3f theta_residual=%.2f ratio=%.1f"
                % (thetas["bubble"], thetas["residual"], ratio))
    assert ok


# Exponent a of the edge-singular benchmark u = x^a y^a.
SINGULAR_EXPONENT = 2.8


def singular_adaptive_target(p):
    """Best error slope against sqrt(dofs) that isotropic adaptive refinement
    can reach on u = x^a y^a with degree-p splines: -min(p - 1, 2a - 3).

    p - 1 is the smooth-solution rate. Along the left and bottom edges the
    second derivatives behave like x^(a-2), which no polynomial matches, so
    on a first-column cell of size h the squared H^2 error is at least
    ~h^(2a-2). Summed over the ~1/h cells that cover an edge (a square cell
    is as tall as it is wide) the error is ~h^(a-3/2), while those cells
    alone cost ~1/h dofs: error >= c dofs^-(a-3/2), i.e. slope -(2a - 3)
    against sqrt(dofs).
    """
    return -min(p - 1, 2.0 * SINGULAR_EXPONENT - 3.0)


def _singular_adaptive_slope(p):
    spec = benchmark_singular(alpha=SINGULAR_EXPONENT, beta=SINGULAR_EXPONENT)
    problem = replace(spec.problem, load_grading=("left", "bottom"))
    space = HierarchicalSpace.create(4, p)
    config = LoopConfig(max_iterations=30, max_dofs=20000, mode="adaptive")
    records = run(problem, space, config, exact_hessian=spec.exact_hessian)
    return slopes(records, "sqrt_dofs"), records


def test_criterion_3_singular_adaptive_p3_and_uniform_plateau():
    ok = True
    slope3, _ = _singular_adaptive_slope(3)
    target3 = singular_adaptive_target(3)
    ok &= report("3 singular adaptive p=3", abs(slope3 - target3) <= 0.25,
                 "slope=%.3f target=%.2f+-0.25" % (slope3, target3))
    spec = benchmark_singular()
    problem = replace(spec.problem, load_grading=("left", "bottom"))
    for p in (3, 4):
        space = HierarchicalSpace.create(4, p)
        config = LoopConfig(max_iterations=6, mode="uniform", max_dofs=20000)
        records = run(problem, space, config, exact_hessian=spec.exact_hessian)
        s = slopes(records, "sqrt_dofs")
        ok &= report("3 singular uniform plateau p=%d" % p, abs(s - (-1.3)) <= 0.25,
                     "slope=%.3f target=-1.30+-0.25" % s)
    assert ok


def test_criterion_3_singular_adaptive_p4():
    # The smooth-solution rate p - 1 = 3 is out of reach on this benchmark:
    # its fourth derivatives are singular along whole edges, which caps any
    # isotropic mesh at slope -(2a - 3) against sqrt(dofs) (see
    # singular_adaptive_target). The run is held to that cap.
    slope4, records = _singular_adaptive_slope(4)
    target4 = singular_adaptive_target(4)
    tail = records[-5:]
    steps = (np.diff(np.log([r.error_h2 for r in tail]))
             / np.diff(np.log([math.sqrt(r.dofs) for r in tail])))
    detail = ("slope=%.3f target=%.2f+-0.25 = -min(p-1, 2a-3) with p=4, a=%g; "
              "step slopes of last %d records [%s]; final theta=%.3f"
              % (slope4, target4, SINGULAR_EXPONENT, len(tail),
                 ", ".join("%.2f" % s for s in steps), records[-1].theta))
    ok = report("3 singular adaptive p=4", abs(slope4 - target4) <= 0.25, detail)
    assert ok, "slope outside [%.2f, %.2f]: %s" % (target4 - 0.25, target4 + 0.25, detail)


def test_criterion_4_point_load_accuracy_and_gain():
    spec = benchmark_point_load()
    ref = spec.reference_qoi
    space = HierarchicalSpace.create(4, 3)
    config = LoopConfig(max_iterations=40, max_dofs=10000, mode="adaptive")
    arec = run(spec.problem, space, config, qoi_point=spec.qoi_point)
    final_err = abs(1.0 - arec[-1].qoi / ref)
    ok = report("4 point load adaptive accuracy", final_err <= 1e-3,
                "relerr=%.3e at %d dofs" % (final_err, arec[-1].dofs))

    space = HierarchicalSpace.create(4, 3)
    config = LoopConfig(max_iterations=6, mode="uniform", max_dofs=20000)
    urec = run(spec.problem, space, config, qoi_point=spec.qoi_point)
    matched = min(arec, key=lambda r: abs(math.log(r.dofs / 2500.0)))
    a_err = abs(1.0 - matched.qoi / ref)
    du = np.log([r.dofs for r in urec])
    eu = np.log([abs(1.0 - r.qoi / ref) for r in urec])
    u_err = math.exp(float(np.interp(math.log(matched.dofs), du, eu)))
    ok &= report("4 point load matched-dof gain", a_err <= u_err / 10.0,
                 "adaptive=%.3e uniform=%.3e at %d dofs (ratio %.0f)"
                 % (a_err, u_err, matched.dofs, u_err / max(a_err, 1e-300)))
    assert ok


def test_criterion_5_zero_estimator_property():
    spec = benchmark_spline_exact()
    ok = True
    for p in (3, 4, 5):
        space = HierarchicalSpace.create(3, p)
        system = apply_dirichlet(assemble_system(space, IDENTITY, spec.problem),
                                 space, spec.problem)
        u = solve(system)
        err = h2_seminorm_error(u, spec.exact_hessian, space, IDENTITY)
        energy = solution_energy(space, spec.problem, u)
        estimates, _ = estimate(u, space, spec.problem)
        eta_max = max(e.eta for e in estimates)
        good = eta_max <= 1e-8 * energy and err <= 1e-8
        ok &= report("5 zero estimator p=%d" % p, good,
                     "eta_max=%.2e energy=%.2e err=%.2e" % (eta_max, energy, err))
    assert ok


def test_criterion_6_structural_invariants():
    ok = True
    rng = np.random.default_rng(2024)

    # partition of area across 200 random refinements
    worst = 0.0
    ops = 0
    while ops < 200:
        mesh, _ = init(int(rng.integers(2, 5)), 3)
        for _ in range(int(rng.integers(4, 9))):
            if ops >= 200:
                break
            active = mesh.active_elements()
            k = int(rng.integers(1, min(4, len(active)) + 1))
            picks = rng.choice(len(active), size=k, replace=False)
            mesh = refine(mesh, [active[i] for i in picks], m=int(rng.integers(2, 4)))
            worst = max(worst, abs(mesh.area_covered() - 1.0))
            ops += 1
    ok &= report("6 area partition after 200 refines", worst <= 1e-12, "worst=%.2e" % worst)

    # admissibility preserved on every adaptive iteration (validate=True asserts)
    spec = benchmark_singular()
    space = HierarchicalSpace.create(4, 4)
    config = LoopConfig(max_iterations=5, mode="adaptive", validate=True)
    run(spec.problem, space, config, exact_hessian=spec.exact_hessian)
    smooth = benchmark_smooth()
    space = HierarchicalSpace.create(4, 3)
    config = LoopConfig(max_iterations=4, mode="adaptive", validate=True)
    run(smooth.problem, space, config, exact_hessian=smooth.exact_hessian)
    ok &= report("6 admissibility each iteration", True, "validated in-loop, m=p-1")

    # interior bubble traces vanish with their gradients
    worst_trace = 0.0
    ts = np.linspace(0.0, 1.0, 20)
    for p in (3, 4, 5):
        q = p + 1
        for i in range(2, q - 1):
            for t in (0.0, 1.0):
                ev = eval_bernstein_ders(q, t, 1)
                worst_trace = max(worst_trace, abs(ev.values[i]), abs(ev.d1[i]))
        for t in ts:  # along an edge: perpendicular factor kills value and slope
            evp = eval_bernstein_ders(q, 0.0, 1)
            evt = eval_bernstein_ders(q, t, 1)
            for i in range(2, q - 1):
                for j in range(2, q - 1):
                    worst_trace = max(
                        worst_trace,
                        abs(evp.values[i] * evt.values[j]),
                        abs(evp.d1[i] * evt.values[j]),
                        abs(evp.values[i] * evt.d1[j]))
    ok &= report("6 bubble trace vanishing", worst_trace <= 1e-12, "worst=%.2e" % worst_trace)

    # block solves equal the globally assembled enrichment system
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    space = HierarchicalSpace.create(3, 3)
    space = space.refined([ElementId(0, 0, 0), ElementId(0, 2, 2)], m=2)
    prob = smooth.problem
    system = apply_dirichlet(assemble_system(space, IDENTITY, prob), space, prob)
    u = solve(system)
    bubbles = build_bubble_space(space.mesh, 3, natural_boundary_sides(prob))
    blocks = solve_blocks(assemble_blocks(bubbles, u, space, IDENTITY, prob))
    total = sum(len(b.indices) for b in blocks)
    gmat = sp.lil_matrix((total, total))
    grhs = np.zeros(total)
    o = 0
    for blk in blocks:
        n = len(blk.indices)
        gmat[o:o + n, o:o + n] = blk.matrix
        grhs[o:o + n] = blk.rhs
        o += n
    gsol = spla.spsolve(gmat.tocsc(), grhs)
    packed = np.concatenate([b.coeffs for b in blocks])
    dev = np.abs(gsol - packed).max() / max(np.abs(gsol).max(), 1e-300)
    ok &= report("6 block-diagonal equivalence", dev <= 1e-12, "dev=%.2e" % dev)

    # marking is invariant under indicator rescaling
    ests = [ElementEstimate(ElementId(0, i, j), float(rng.uniform(0, 5)))
            for i in range(4) for j in range(4)]
    base = mark_maximum(ests, MarkParams(0.5))
    scale_ok = all(
        mark_maximum([ElementEstimate(e.element, c * e.eta) for e in ests],
                     MarkParams(0.5)) == base
        for c in (1e-9, 0.3, 4.0, 1e7))
    ok &= report("6 marking scale invariance", scale_ok, "4 scales tested")

    # indicator linearity in the calibration constant
    lin_ok = True
    for blk in blocks:
        e1 = eta_elements([blk], calibration=3.0)[0].eta
        e2 = eta_elements([blk], calibration=6.0)[0].eta
        lin_ok &= (e2 == 2.0 * e1)
    ok &= report("6 calibration linearity", lin_ok, "exact doubling")

    # physical Hessian pushforward against finite differences
    kv = make_open_uniform(2, 3)
    grev = np.array([np.mean(kv.knots[i + 1:i + 4]) for i in range(kv.num_basis)])
    control = np.zeros((kv.num_basis, kv.num_basis, 2))
    for i, gx in enumerate(grev):
        for j, gy in enumerate(grev):
            control[i, j] = (gx + 0.25 * gx * gy, gy + 0.15 * gx * (1.0 - gy))
    geo = GeometryMap.spline(kv, control)
    h = 1e-5
    worst_push = 0.0
    for xi in rng.uniform(0.2, 0.8, size=(5, 2)):
        def u_par(q):
            x, y = geo.map_points([q])[0]
            return x**3 * y + 2.0 * x * y**2
        gpar = np.array([(u_par(xi + [h, 0]) - u_par(xi - [h, 0])) / (2 * h),
                         (u_par(xi + [0, h]) - u_par(xi - [0, h])) / (2 * h)])
        hpar = np.empty((2, 2))
        hpar[0, 0] = (u_par(xi + [h, 0]) - 2 * u_par(xi) + u_par(xi - [h, 0])) / h**2
        hpar[1, 1] = (u_par(xi + [0, h]) - 2 * u_par(xi) + u_par(xi - [0, h])) / h**2
        hpar[0, 1] = hpar[1, 0] = (
            u_par(xi + [h, h]) - u_par(xi + [h, -h])
            - u_par(xi + [-h, h]) + u_par(xi + [-h, -h])) / (4 * h**2)
        # the program's pushforward, on one point of one cell
        rows = {k: np.full((1, 1, 1), v) for k, v in zip(
            _DERIVATIVES, (gpar[0], gpar[1], hpar[0, 0], hpar[0, 1], hpar[1, 1]))}
        d, _, _ = _transform_rows(geo, xi.reshape(1, 1, 2), rows, np.ones((1, 1)), 0,
                                  np.zeros((1, 2), dtype=np.int64))
        hphys = np.array([[d[(2, 0)], d[(1, 1)]], [d[(1, 1)], d[(0, 2)]]]).reshape(2, 2)
        x, y = geo.map_points([xi])[0]
        exact = np.array([[6 * x * y, 3 * x**2 + 4 * y], [3 * x**2 + 4 * y, 4 * x]])
        worst_push = max(worst_push,
                         np.abs(hphys - exact).max() / np.abs(exact).max())
    ok &= report("6 Hessian pushforward vs FD", worst_push <= 1e-5, "worst=%.2e" % worst_push)
    assert ok


def test_criterion_7_reproducibility(tmp_path):
    argv = ["--benchmark", "smooth", "--degree", "3", "--refine", "uniform",
            "--n0", "4", "--max-iter", "6"]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert cli_main(argv + ["--out", str(out1)]) == 0
    assert cli_main(argv + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    ok = report("7 bit-identical sequential reruns", identical,
                "%d bytes" % len(out1.read_bytes()))
    assert ok
