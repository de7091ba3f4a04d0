"""Solve-estimate-mark-refine loop with maximum-strategy marking.

Marking uses a strict threshold against the largest indicator; marked sets
are expanded by same-level neighbors so refined regions grow by whole
support-sized patches, and every refinement preserves the admissibility
class of the mesh.
"""

from __future__ import annotations

import math
import numbers
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
from .estimators import estimate, residual_estimator
from .hierarchy import _positions, check_admissible
from .splines import _check_integer

__all__ = [
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


def _check_gamma(gamma):
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1), got %r" % (gamma,))


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
        for name in ("max_iterations", "max_dofs"):
            budget = getattr(self, name)
            if not (isinstance(budget, numbers.Integral) and budget >= 1):
                raise ValueError("iteration and dof budgets must be positive integers, got %s=%r"
                                 % (name, budget))
        if self.mode not in ("uniform", "adaptive"):
            raise ValueError("mode must be 'uniform' or 'adaptive', got %r" % (self.mode,))
        if self.estimator not in ("bubble", "residual"):
            raise ValueError("estimator must be 'bubble' or 'residual', got %r"
                             % (self.estimator,))
        if self.admissibility is not None:
            _check_integer(self.admissibility, 2, "admissibility class must be at least 2")
        _check_gamma(self.gamma)
        if not 0.0 < self.calibration < math.inf:
            raise ValueError("calibration must be finite and positive, got %r"
                             % (self.calibration,))


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


def mark_maximum(eta, gamma):
    """Sorted positions in the indicator array `eta` of the indicators that
    exceed gamma times the largest one, gamma in (0, 1); with the arrays of
    :func:`~hbplate.estimators.estimate`, positions in
    ``mesh.active_elements()``."""
    _check_gamma(gamma)
    eta = np.asarray(eta, dtype=float)
    if not eta.size:
        raise ValueError("cannot mark from an empty indicator array")
    bad = np.flatnonzero(~np.isfinite(eta))
    if bad.size:
        raise ValueError("indicator %d is not finite: %r" % (bad[0], float(eta[bad[0]])))
    return np.flatnonzero(eta > gamma * eta.max())


_AROUND = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])


def expand_marks(space, marked):
    """The marked cells, positions in ``space.active_cells``, and all their
    active same-level neighbors, as sorted int64 positions: one lookup per
    level of the cells around all marked cells of the level."""
    view = space.active_cells
    marked = _positions(marked, len(view.level))
    levels, out = view.level[marked], [marked]
    for level in np.unique(levels).tolist():
        near = view.cells[marked[levels == level]][:, None] + _AROUND
        found = space.mesh.cell_index(level, near[..., 0], near[..., 1])
        out.append(found[found >= 0])
    return np.unique(np.concatenate(out))


def run(problem, space, config, geo=None, exact_hessian=None, qoi_point=None,
        on_iteration=None):
    """Adaptive (or uniform) refinement study; one record per solve."""
    geo = geo or GeometryMap.identity()
    m = config.admissibility if config.admissibility is not None else space.degree - 1
    records = []
    for it in range(config.max_iterations):
        system = apply_dirichlet(assemble_system(space, geo, problem), space, problem, geo)
        u_h = solve(system)
        if config.estimator == "bubble":
            eta, eta_total = estimate(
                u_h, space, problem, geo=geo, calibration=config.calibration)
        else:
            eta = residual_estimator(u_h, space, problem, geo=geo)
            eta_total = math.sqrt(sum(v**2 for v in eta.tolist()))
        err = math.nan
        theta = math.nan
        if exact_hessian is not None:
            err = h2_seminorm_error(u_h, exact_hessian, space, geo)
            if err > 0.0:
                theta = eta_total / err
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
            marked = np.arange(space.mesh.n_active)
        else:
            energy = math.sqrt(max(float(u_h @ (system.matrix @ u_h)), 0.0))
            if eta_total <= 1e-12 * max(energy, 1e-30):
                break  # indicators vanish at solver precision: converged
            # eta_total > 0 above, so the largest indicator is marked
            marked = expand_marks(space, mark_maximum(eta, config.gamma))
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
    """Least-squares slope of log(field) against log(x) over the last k
    records, x the mesh size ("h") or the square root of the dofs
    ("sqrt_dofs")."""
    if x_axis not in ("h", "sqrt_dofs"):
        raise ValueError("x_axis must be 'h' or 'sqrt_dofs', got %r" % (x_axis,))
    if k < 2:
        raise ValueError("k must be at least 2 to fit a slope, got %r" % (k,))
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
