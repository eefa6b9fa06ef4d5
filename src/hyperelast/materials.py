"""Hyperelastic constitutive models.

Implements the strain energy density psi(F) and the analytic first
Piola-Kirchhoff stress P(F) for two isotropic compressible models, plus
the Cauchy push-forward and von Mises post-processing.

The kinematic state holds F (..., 3, 3) as a first-order batched jet
(:class:`~hyperelast.autodiff.Jet`), and J = det F, I1 = F : F and
F^{-T} as values; with gradients it adds grad ln J, (grad ln J)_k =
F^{-T} : dF/dX_k, and the row divergence div F.  Both stresses have the
form P = a(I1) F + b(J) F^{-T}.  The strong form needs only div P, and
the Piola identity Div(J F^{-T}) = 0 gives div(b F^{-T}) =
beta F^{-T} grad ln J with beta = J b'(J) - b, a closed form per
material, so div P = a div F + F grad a + beta F^{-T} grad ln J needs
no derivative of F^{-T} and no gradient of J.  The identity holds
because the rows of F are gradients (dF is symmetric in its last two
axes).  grad a = a'(I1) 2 F : dF is built only where a varies.  The
energy density is returned as values only.  A state without gradients
(order 0) serves plain numeric evaluation.

The stress formulas are hard-coded rather than produced by run-time
differentiation of psi; the consistency P = d psi / dF is pinned by
finite-difference tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DomainError

J_WARN = 0.05  # near-inversion threshold: warned once per stage, then counted; not fatal


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
        lnJ = state.lnJ
        return ad.add(
            ad.sub(ad.mul(ad.mul(lnJ, lnJ), 0.5 * self.lam), ad.mul(lnJ, self.mu)),
            ad.mul(ad.sub(state.I1.val, 3.0), 0.5 * self.mu),
        )

    def stress(self, state):
        """(P, div P) for P = mu F + b F^{-T} with b = lam ln J - mu, so
        beta = J b' - b = lam - b (see :func:`_stress`)."""
        b = ad.sub(ad.mul(state.lnJ, self.lam), self.mu)
        return _stress(self.mu, None, b, ad.sub(self.lam, b), state)


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
        total = ad.sub(total, ad.mul(state.lnJ, sum(self.mus)))
        Jm1 = ad.sub(J, 1.0)
        return ad.add(total, ad.mul(ad.mul(Jm1, Jm1), 0.5 * self.lam))

    def stress(self, state):
        """(P, div P) for P = a F + b F^{-T} with a = sum_r 3^{1-alpha_r}
        mu_r I1^{alpha_r-1} and b = lam (J^2 - J) - sum_r mu_r, so
        beta = J b' - b = lam J^2 + sum_r mu_r (see :func:`_stress`)."""
        alphas = np.array(self.alphas)
        coeffs = 3.0 ** (1.0 - alphas) * np.array(self.mus)
        I1, J = state.I1.val, state.J.val
        powers = ad.pow_(I1, _batched(alphas - 1.0, state))
        a = ad.contract(coeffs, powers, (0,))
        grad_a = None
        if state.div_F is not None:
            # grad a = a'(I1) grad I1 with grad I1 = 2 F : dF; the exact
            # factor 2 rides on the coefficients of
            # a'(I1) = sum_r c_r (alpha_r - 1) I1^(alpha_r - 1) / I1
            da = ad.div(ad.contract(2.0 * coeffs * (alphas - 1.0), powers, (0,)), I1)
            grad_a = ad.scale(da, ad.vecmat(state.F.val, state.F.grad, I1.data.ndim))
        J2 = ad.mul(J, J)
        b = ad.sub(ad.mul(ad.sub(J2, J), self.lam), sum(self.mus))
        return _stress(a, grad_a, b, ad.add(ad.mul(J2, self.lam), sum(self.mus)), state)


@dataclass
class DeformationState:
    """Deformation gradient and derived quantities.

    F = I + grad u is a first-order jet.  J = det F and I1 = F : F are
    jets holding a value only, read through ``.val`` like F's: no reader
    needs their gradients, since the stresses use grad ln J and build
    grad I1 only where a(I1) varies.  F_inv_T = F^{-T} and lnJ = ln J,
    recorded once for every reader, are values.  With gradients,
    grad_lnJ (..., 3) is the gradient of ln J and div_F (..., 3) the row
    divergence of F; both are None at order 0.
    """

    F: ad.Jet
    J: ad.Jet
    I1: ad.Jet
    F_inv_T: ad.Var
    lnJ: ad.Var
    grad_lnJ: ad.Var = None
    div_F: ad.Var = None


def _stress(a, grad_a, b, beta, state):
    """P = a F + b F^{-T} and its row divergence, None at order 0.

    div P = a div F + F grad a + beta F^{-T} grad ln J (Piola identity,
    beta = J b'(J) - b); the F grad a term drops when grad_a is None (a
    constant a).
    """
    P = ad.add(ad.scale(a, state.F.val), ad.scale(b, state.F_inv_T))
    if state.div_F is None:
        return P, None
    div = ad.scale(a, state.div_F)
    if grad_a is not None:
        div = ad.add(div, ad.matvec(state.F.val, grad_a))
    return P, ad.add(div, ad.matvec(state.F_inv_T, ad.scale(beta, state.grad_lnJ)))


def deformation_gradient(grad_u):
    """Build a DeformationState from the displacement-gradient jet.

    Raises InvertedState if det F falls at or below ``ad.DET_FLOOR``
    anywhere in the batch.
    """
    F = ad.add(grad_u.val, np.eye(3))
    dF = grad_u.grad
    J, FiT = ad.det_inv_t3(F)
    I1 = ad.inner(F, F, batch_ndim=F.data.ndim - 2)
    state = DeformationState(ad.Jet(F, dF), ad.Jet(J), ad.Jet(I1), FiT, ad.log(J))
    if dF is not None:
        state.grad_lnJ = ad.vecmat(FiT, dF, F.data.ndim - 2)
        state.div_F = ad.contract(np.eye(3), dF, (-2, -1))
    return state


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
