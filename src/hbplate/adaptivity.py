"""Solve-estimate-mark-refine loop with maximum-strategy marking.

Marking uses a strict threshold against the largest indicator; marked sets
are expanded by same-level neighbors so refined regions grow by whole
support-sized patches, and every refinement preserves the admissibility
class of the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    GeometryMap,
    apply_dirichlet,
    assemble_system,
    evaluate,
    h2_seminorm_error,
    solve,
)
from .estimators import effectivity, estimate, residual_estimator
from .hierarchy import ElementId, check_admissible

__all__ = [
    "MarkParams",
    "LoopConfig",
    "IterationRecord",
    "StagnationError",
    "mark_maximum",
    "expand_marks",
    "run",
    "slopes",
]


class StagnationError(RuntimeError):
    """Refinement did not add degrees of freedom."""


@dataclass
class MarkParams:
    gamma: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1), got %r" % self.gamma)


@dataclass
class LoopConfig:
    max_iterations: int = 10
    max_dofs: int = 100_000
    mode: str = "adaptive"
    estimator: str = "bubble"
    admissibility: int = None
    gamma: float = 0.5
    calibration: float = 3.0
    validate: bool = False

    def __post_init__(self):
        if self.max_iterations < 1 or self.max_dofs < 1:
            raise ValueError("iteration and dof budgets must be positive")
        if self.mode not in ("uniform", "adaptive"):
            raise ValueError("mode must be 'uniform' or 'adaptive'")
        if self.estimator not in ("bubble", "residual"):
            raise ValueError("estimator must be 'bubble' or 'residual'")
        if self.admissibility is not None and self.admissibility < 2:
            raise ValueError("admissibility class must be at least 2")


@dataclass
class IterationRecord:
    iteration: int
    dofs: int
    n_elements: int
    h_max: float
    error_h2: float = math.nan
    eta_total: float = math.nan
    theta: float = math.nan
    qoi: float = math.nan


def mark_maximum(estimates, params):
    """Elements whose indicator exceeds gamma times the largest one."""
    if not estimates:
        raise ValueError("cannot mark from an empty estimate list")
    top = max(est.eta for est in estimates)
    return {est.element for est in estimates if est.eta > params.gamma * top}


_AROUND = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])  # (0, 0) at 4


def expand_marks(mesh, marked):
    """Marked set plus all active same-level neighbors of each element: one
    lookup per level of the cells around all marked elements of the level."""
    out = set(marked)
    by_level = {}
    for e in marked:
        by_level.setdefault(e.level, []).append(e[1:])
    for level, cells in by_level.items():
        near = np.array(cells)[:, None] + _AROUND
        found = (mesh.cell_index(level, near[..., 0], near[..., 1]) >= 0
                 if level < mesh.num_levels else np.zeros(near.shape[:2], dtype=bool))
        if not found[:, 4].all():
            raise ValueError("element %s is not active"
                             % (ElementId(level, *cells[found[:, 4].argmin()]),))
        out.update(ElementId(level, i, j) for i, j in near[found].tolist())
    return out


def run(problem, space, config, geo=None, exact_hessian=None, qoi_point=None,
        on_iteration=None):
    """Adaptive (or uniform) refinement study; one record per solve."""
    geo = geo or GeometryMap.identity()
    m = config.admissibility if config.admissibility is not None else space.degree - 1
    if m < 2:
        raise ValueError("admissibility class must be at least 2, got %d" % m)
    records = []
    for it in range(config.max_iterations):
        system = apply_dirichlet(assemble_system(space, geo, problem), space, problem, geo)
        u_h = solve(system)
        if config.estimator == "bubble":
            estimates, eta_total = estimate(
                u_h, space, problem, geo=geo, calibration=config.calibration)
        else:
            estimates = residual_estimator(u_h, space, problem, geo=geo)
            eta_total = math.sqrt(sum(est.eta**2 for est in estimates))
        err = math.nan
        theta = math.nan
        if exact_hessian is not None:
            err = h2_seminorm_error(u_h, exact_hessian, space, geo)
            if err > 0.0:
                theta = effectivity(eta_total, err).theta
        qoi = math.nan
        if qoi_point is not None:
            vals, _, _ = evaluate(u_h, space, geo, [qoi_point])
            qoi = float(vals[0])
        record = IterationRecord(
            iteration=it,
            dofs=space.num_dofs,
            n_elements=space.mesh.n_active,
            h_max=space.mesh.h_max(),
            error_h2=err,
            eta_total=eta_total,
            theta=theta,
            qoi=qoi,
        )
        records.append(record)
        if on_iteration is not None:
            on_iteration(space, u_h, record)
        if it + 1 >= config.max_iterations:
            break
        if config.mode == "uniform":
            marked = set(space.mesh.active_elements())
        else:
            energy = math.sqrt(max(float(
                u_h.coefficients @ (system.matrix @ u_h.coefficients)), 0.0))
            if eta_total <= 1e-12 * max(energy, 1e-30):
                break  # indicators vanish at solver precision: converged
            marked = mark_maximum(estimates, MarkParams(config.gamma))
            if not marked:
                break
            marked = expand_marks(space.mesh, marked)
        refined = space.refined(marked, m)
        if config.validate and not check_admissible(refined.mesh, m, refined.basis):
            raise AssertionError("refinement broke admissibility class %d" % m)
        if refined.num_dofs <= space.num_dofs:
            raise StagnationError(
                "refinement added no dofs (%d -> %d)" % (space.num_dofs, refined.num_dofs))
        if refined.num_dofs > config.max_dofs:
            break  # budget: never solve a space beyond max_dofs
        space = refined
    return records


def slopes(records, x_axis="h", k=3, fieldname="error_h2"):
    """Least-squares slope of log(field) against log(x) over the last k records."""
    xs, ys = [], []
    for rec in records:
        y = getattr(rec, fieldname)
        x = rec.h_max if x_axis == "h" else math.sqrt(rec.dofs)
        if np.isfinite(y) and y > 0.0 and x > 0.0:
            xs.append(x)
            ys.append(y)
    if len(xs) < 3:
        raise ValueError("need at least 3 usable records to fit a slope, have %d" % len(xs))
    xs = np.log(np.array(xs[-k:]))
    ys = np.log(np.array(ys[-k:]))
    return float(np.polyfit(xs, ys, 1)[0])
