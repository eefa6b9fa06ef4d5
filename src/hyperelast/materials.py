"""Hyperelastic constitutive models.

Implements the strain energy density psi(F) and the analytic first
Piola-Kirchhoff stress P(F) for two isotropic compressible models, plus
the Cauchy push-forward and von Mises post-processing.

The kinematic state holds batched first-order jets
(:class:`~hyperelast.autodiff.Jet`) of F (..., 3, 3), J and I1 (...,),
each with its gradient in the material coordinates from the closed
forms dJ = J grad ln J with (grad ln J)_k = F^{-T} : dF/dX_k and
dI1 = 2 F : dF, plus the values of F^{-T} and the row divergence div F.
Both stresses have the form P = a F + b F^{-T} with scalar fields a, b.
The strong form needs only div P, and the Piola identity
Div(J F^{-T}) = 0 gives div(b F^{-T}) = F^{-T} (grad b - b grad ln J),
so div P = a div F + F grad a + F^{-T} (grad b - b grad ln J) needs no
derivative of F^{-T}.  The identity holds because the rows of F are
gradients (dF is symmetric in its last two axes).  The energy density
is returned as values only.  A state without gradients (order 0) serves
plain numeric evaluation.

The stress formulas are hard-coded rather than produced by run-time
differentiation of psi; the consistency P = d psi / dF is pinned by
finite-difference tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DomainError

J_WARN = 0.05  # near-inversion threshold, logged per accepted iterate but not fatal


@dataclass(frozen=True)
class NeoHookean:
    """Compressible neo-Hookean material, parameters in Pa."""

    lam: float
    mu: float

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.lam < 0.0:
            raise ValueError(f"lambda must be non-negative, got {self.lam}")

    @property
    def stress_scale(self):
        return self.mu

    def psi(self, state):
        """psi = lam/2 (ln J)^2 - mu ln J + mu/2 (I1 - 3)."""
        lnJ = ad.log(state.J.val)
        return ad.add(
            ad.sub(ad.mul(ad.mul(lnJ, lnJ), 0.5 * self.lam), ad.mul(lnJ, self.mu)),
            ad.mul(ad.sub(state.I1.val, 3.0), 0.5 * self.mu),
        )

    def stress(self, state):
        """(P, div P) for P = mu F + (lam ln J - mu) F^{-T} (see :func:`_stress`)."""
        J = state.J
        coeff = _scalar_jet(
            ad.sub(ad.mul(ad.log(J.val), self.lam), self.mu), ad.div(self.lam, J.val), J.grad
        )
        return _stress(self.mu, coeff, state)


@dataclass(frozen=True)
class LopezPamies:
    """Two-invariant compressible model with one power-law term in I1 per
    (alpha, mu) pair.

    alphas are dimensionless exponents, mus and lam in Pa.
    """

    alphas: tuple = (1.0,)
    mus: tuple = (1.0,)
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "mus", tuple(float(m) for m in self.mus))
        if len(self.alphas) != len(self.mus) or not self.alphas:
            raise ValueError("alphas and mus must be non-empty and equal length")
        if any(a == 0.0 for a in self.alphas):
            raise DomainError("exponent alpha_r = 0 is outside the model domain")
        if sum(self.mus) <= 0.0:
            raise ValueError("sum of mus must be positive")

    @property
    def stress_scale(self):
        # ground-state shear modulus of the model
        return float(sum(self.mus))

    def psi(self, state):
        """Power-law sum over I1 plus volumetric ln J and (J-1)^2 terms."""
        if np.min(np.atleast_1d(state.I1.val.data)) <= 0.0:
            raise DomainError("I1 must be positive")
        alphas = np.array(self.alphas)
        coeffs = 3.0 ** (1.0 - alphas) / (2.0 * alphas) * np.array(self.mus)
        powers = ad.sub(
            ad.pow_(state.I1.val, _batched(alphas, state)), _batched(3.0**alphas, state)
        )
        total = ad.contract(coeffs, powers, (0,))
        J = state.J.val
        total = ad.sub(total, ad.mul(ad.log(J), sum(self.mus)))
        Jm1 = ad.sub(J, 1.0)
        return ad.add(total, ad.mul(ad.mul(Jm1, Jm1), 0.5 * self.lam))

    def stress(self, state):
        """(P, div P) for P = sum_r 3^{1-a_r} mu_r I1^{a_r-1} F - sum_r mu_r F^{-T}
        + lam (J^2 - J) F^{-T} (see :func:`_stress`)."""
        alphas = np.array(self.alphas)
        coeffs = 3.0 ** (1.0 - alphas) * np.array(self.mus)
        I1, J = state.I1, state.J
        powers = ad.pow_(I1.val, _batched(alphas - 1.0, state))
        scale = _scalar_jet(
            ad.contract(coeffs, powers, (0,)),
            # d/dI1 of sum_r c_r I1^(a_r - 1) = sum_r c_r (a_r - 1) I1^(a_r - 1) / I1
            ad.div(ad.contract(coeffs * (alphas - 1.0), powers, (0,)), I1.val),
            I1.grad,
        )
        J2mJ = ad.sub(ad.mul(J.val, J.val), J.val)
        coeff_iT = _scalar_jet(
            ad.sub(ad.mul(J2mJ, self.lam), sum(self.mus)),
            ad.sub(ad.mul(J.val, 2.0 * self.lam), self.lam),
            J.grad,
        )
        return _stress(scale, coeff_iT, state)


@dataclass
class DeformationState:
    """Deformation gradient and derived quantities.

    F = I + grad u, J = det F and I1 = trace(F^T F) = F : F are first-order
    jets; F_inv_T = F^{-T} is a value only.  With gradients, grad_lnJ
    (..., 3) is the gradient of ln J and div_F (..., 3) the row divergence
    of F; both are None at order 0.
    """

    F: ad.Jet
    J: ad.Jet
    I1: ad.Jet
    F_inv_T: ad.Var
    grad_lnJ: ad.Var = None
    div_F: ad.Var = None


def _scalar_times(s, M):
    """s M for a scalar jet (or float) s and M (..., *comp), values only."""
    return ad.scale(s.val, M) if isinstance(s, ad.Jet) else ad.mul(M, s)


def _stress(a, b, state):
    """P = a F + b F^{-T} and its row divergence, None at order 0.

    div P = a div F + F grad a + F^{-T} (grad b - b grad ln J) (Piola
    identity); the F grad a term drops when a is a constant.
    """
    P = ad.add(_scalar_times(a, state.F.val), _scalar_times(b, state.F_inv_T))
    if state.div_F is None:
        return P, None
    div = _scalar_times(a, state.div_F)
    if isinstance(a, ad.Jet):
        div = ad.add(div, ad.matvec(state.F.val, a.grad))
    piola = ad.matvec(state.F_inv_T, ad.sub(b.grad, ad.scale(b.val, state.grad_lnJ)))
    return P, ad.add(div, piola)


def _scalar_jet(val, d_val, d_arg):
    """Jet of f(arg) from the values f and f' and the gradient of arg."""
    if d_arg is None:
        return ad.Jet(val)
    return ad.Jet(val, ad.scale(d_val, d_arg))


def deformation_gradient(grad_u):
    """Build a DeformationState from the displacement-gradient jet.

    Raises InvertedState if det F falls at or below ``ad.DET_FLOOR``
    anywhere in the batch.
    """
    F = ad.add(grad_u.val, np.eye(3))
    dF = grad_u.grad
    J, FiT = ad.det_inv_t3(F)
    I1 = ad.inner(F, F, batch_ndim=F.data.ndim - 2)
    if dF is None:
        return DeformationState(ad.Jet(F), ad.Jet(J), ad.Jet(I1), FiT)
    nb = F.data.ndim - 2
    grad_lnJ = ad.vecmat(FiT, dF, nb)
    dI1 = ad.mul(ad.vecmat(F, dF, nb), 2.0)
    return DeformationState(
        F=ad.Jet(F, dF),
        J=ad.Jet(J, ad.scale(J, grad_lnJ)),
        I1=ad.Jet(I1, dI1),
        F_inv_T=FiT,
        grad_lnJ=grad_lnJ,
        div_F=ad.contract(np.eye(3), dF, (-2, -1)),
    )


def _batched(values, state):
    """Per-term constants shaped (M, 1, ...) to broadcast against I1."""
    return np.asarray(values, dtype=np.float64).reshape((-1,) + (1,) * state.I1.val.data.ndim)


def cauchy(P, F, J):
    """Cauchy stress S = (1/J) P F^T from arrays P, F (..., 3, 3) and J (...)."""
    return np.einsum("...ij,...kj->...ik", P, F) / np.asarray(J)[..., None, None]


def von_mises(S):
    """Von Mises intensity of a (numeric) Cauchy stress array (..., 3, 3).

    The input is symmetrized first; the deviator norm is scaled by
    sqrt(3/2).
    """
    S = np.asarray(S, dtype=np.float64)
    sym = 0.5 * (S + np.swapaxes(S, -1, -2))
    tr = np.trace(sym, axis1=-2, axis2=-1)
    dev = sym - tr[..., None, None] / 3.0 * np.eye(3)
    return np.sqrt(1.5 * np.einsum("...ij,...ij->...", dev, dev))


def state_from_array(F):
    """DeformationState from a plain ndarray F with shape (..., 3, 3).

    Convenience for tests and post-processing: the state carries values
    only (order 0).
    """
    F = np.asarray(F, dtype=np.float64)
    return deformation_gradient(ad.Jet(ad.constant(F - np.eye(3))))


def eval_psi(mat, F):
    """Numeric psi for an ndarray F (..., 3, 3)."""
    return np.asarray(mat.psi(state_from_array(F)).data)


def eval_stress(mat, F):
    """Numeric P for an ndarray F (..., 3, 3)."""
    return mat.stress(state_from_array(F))[0].data


def eval_cauchy(mat, F):
    """Numeric Cauchy stress for an ndarray F (..., 3, 3)."""
    state = state_from_array(F)
    return cauchy(mat.stress(state)[0].data, state.F.val.data, state.J.val.data)
