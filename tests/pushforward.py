"""Per-point reference for the geometry pushforward, which the tests compare
the program's batched transform against: the chain rule for gradients and
Hessians through the map at one parametric point."""

from dataclasses import dataclass

import numpy as np

from hbplate.assembly import GeometryError


@dataclass
class PushForward:
    """Transforms parametric gradients/Hessians at one point to physical ones."""

    jacobian: np.ndarray
    geometry_hessian: np.ndarray

    @property
    def jacobian_det(self):
        return float(np.linalg.det(self.jacobian))

    def apply(self, grad, hess):
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        jinv = np.linalg.inv(self.jacobian)
        grad_phys = jinv.T @ grad
        corr = hess - grad_phys[0] * self.geometry_hessian[0] \
            - grad_phys[1] * self.geometry_hessian[1]
        hess_phys = jinv.T @ corr @ jinv
        return grad_phys, hess_phys


def pushforward2(geo, xi):
    """Chain-rule transform of (gradient, Hessian) through the geometry at xi."""
    pt = np.asarray(xi, dtype=float).reshape(1, 2)
    jac = geo.jacobians(pt)[0]
    det = float(np.linalg.det(jac))
    if det <= 0.0 or not np.isfinite(det):
        raise GeometryError("singular geometry Jacobian at %s (det=%g)" % (tuple(xi), det))
    return PushForward(jacobian=jac, geometry_hessian=geo.hessians(pt)[0])
