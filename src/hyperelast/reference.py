"""Independent reference solutions and error metrics.

Homogeneous (affine) deformations satisfy the interior equilibrium
equations exactly, so they serve as manufactured verification cases for
the whole solver stack, replacing an external reference solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoBracket, ZeroReference
from .materials import eval_cauchy, eval_stress


@dataclass(frozen=True)
class AffineSolution:
    """Homogeneous deformation u(X) = (F0 - I) X of ``material``; its
    stresses P0 and S0 are constant and evaluated when read."""

    F0: np.ndarray
    material: object

    @property
    def P0(self):
        return eval_stress(self.material, self.F0)

    @property
    def S0(self):
        return eval_cauchy(self.material, self.F0)

    def displacement(self, X):
        X = np.asarray(X, dtype=np.float64)
        G = self.F0 - np.eye(3)
        return np.einsum("ij,...j->...i", G, X)


def l2_error(u_test, u_ref, weights):
    """Normalized L2 distance between two sampled vector fields.

    Both fields are (N, 3) samples at identical points with quadrature
    weights (N,).  Raises ZeroReference for a vanishing reference norm.
    """
    u_test = np.asarray(u_test, dtype=np.float64)
    u_ref = np.asarray(u_ref, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    ref_sq = float(np.sum(w * np.sum(u_ref * u_ref, axis=-1)))
    if ref_sq <= 0.0:
        raise ZeroReference("reference field has zero L2 norm")
    diff = u_ref - u_test
    diff_sq = float(np.sum(w * np.sum(diff * diff, axis=-1)))
    return float(np.sqrt(diff_sq / ref_sq))


def affine_solution(F0, material):
    F0 = np.asarray(F0, dtype=np.float64)
    if np.linalg.det(F0) <= 0.0:
        raise ValueError(f"det F0 = {np.linalg.det(F0):.3e} <= 0")
    return AffineSolution(F0, material)


def uniaxial_oracle(stretch, material, bracket=(0.2, 2.0), tol=1e-10):
    """Uniaxial stress state: find the transverse stretch that kills the
    lateral stress, then return the full affine solution.

    Bisection brings the root below 1e-4, a Newton polish (finite
    difference slope) finishes to |P22| <= tol.
    """
    if stretch <= 0.0:
        raise ValueError(f"stretch must be positive, got {stretch}")

    def lateral(lt):
        F = np.diag([float(stretch), lt, lt])
        return eval_stress(material, F)[1, 1]

    lo, hi = bracket
    f_lo, f_hi = lateral(lo), lateral(hi)
    if f_lo * f_hi > 0.0:
        raise NoBracket(
            f"P22 has no sign change for transverse stretch in [{lo}, {hi}]"
        )
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        f_mid = lateral(mid)
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    lt = 0.5 * (lo + hi)
    h = 1e-7
    for _ in range(50):
        r = lateral(lt)
        if abs(r) <= tol:
            break
        slope = (lateral(lt + h) - lateral(lt - h)) / (2.0 * h)
        lt -= r / slope
    else:
        raise ArithmeticError(f"lateral-stress root did not polish below {tol}")
    F0 = np.diag([float(stretch), lt, lt])
    return affine_solution(F0, material)

