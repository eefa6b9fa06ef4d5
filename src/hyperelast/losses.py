"""Six-term physics loss and coefficient-of-variation weighting.

Term order everywhere: (energy, constitutive MSE, traction MSE from the
displacement branch, traction MSE from the stress head, interior
residual MSE from the displacement branch, interior residual MSE from
the stress head).  The two "branches" refer to stress computed from the
constitutive law applied to the displacement field versus stress read
directly off the network head.  Each branch is a stress value P (N, 3, 3)
and its row divergence (N, 3), the one derivative the strong-form
residual needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import LengthMismatch, NonFiniteLoss
from .materials import deformation_gradient
from .network import displacement_gradient

TERM_NAMES = (
    "energy",
    "mse_constitutive",
    "mse_traction_u",
    "mse_traction_net",
    "mse_interior_u",
    "mse_interior_net",
)

N_TERMS = len(TERM_NAMES)

# the loss terms each mask trains on
MASK_TERMS = {
    "full": (0, 1, 2, 3, 4, 5),
    "dem": (0,),
    "dcm": (2, 4),
}

ENERGY_SHIFT_EPS = 1e-8


@dataclass
class LossBreakdown:
    """The six tape scalars, and det F per point (plain values) for
    inversion diagnostics."""

    energy: ad.Var
    mse_constitutive: ad.Var
    mse_traction_u: ad.Var
    mse_traction_net: ad.Var
    mse_interior_u: ad.Var
    mse_interior_net: ad.Var
    det_F: np.ndarray

    def terms(self):
        return (
            self.energy,
            self.mse_constitutive,
            self.mse_traction_u,
            self.mse_traction_net,
            self.mse_interior_u,
            self.mse_interior_net,
        )

    def values(self):
        return np.array([float(t.data) for t in self.terms()])


def potential_energy(u, problem, points, state=None):
    """Total potential: internal strain energy minus external work.

    The strain energy integrates psi with the Simpson volume weights; the
    traction work is one contraction of u with the point sets' nodal
    load.  Returns (total, internal, external) tape scalars.
    """
    if state is None:
        state = deformation_gradient(displacement_gradient(u))
    psi = problem.material.psi(state)
    if psi.data.shape[0] != points.vol_weights.shape[0]:
        raise LengthMismatch("energy density not aligned with volume weights")
    internal = ad.inner(psi, points.vol_weights)
    load = points.load
    external = ad.inner(u.val, load) if np.any(load) else ad.constant(0.0)
    return ad.sub(internal, external), internal, external


def mse_constitutive(P_net, P_u):
    """Mean squared Frobenius mismatch between the two stress fields."""
    if P_net.data.shape != P_u.data.shape:
        raise LengthMismatch("stress fields sampled on different point sets")
    d = ad.sub(P_net, P_u)
    n_points = d.data.size // 9
    return ad.mul(ad.inner(d, d), 1.0 / n_points)


def mse_traction(P_u, P_net, points):
    """Traction residual mean ||P N - t||^2 for both stress branches.

    Every traction-face point contributes once per face it belongs to,
    with that face's outward normal and patch traction.  The residual is
    formed for every point and face at once and masked to face membership.
    """
    if not points.n_traction:
        z = ad.constant(0.0)
        return z, z
    sums = []
    for P in (P_u, P_net):
        PN = ad.contract(points.normals, P, (2,), dest=1)
        r = ad.mul(ad.sub(PN, points.tbar), points.member)
        sums.append(ad.mul(ad.inner(r, r), 1.0 / points.n_traction))
    return sums[0], sums[1]


def mse_interior(div_u, div_net, points):
    """Strong-form residual mean ||div P||^2 for both branches, from the
    row divergences (N, 3) at the interior points."""
    idx = points.interior_idx
    sums = []
    for div in (div_u, div_net):
        r = ad.take(div, idx, axis=0)
        sums.append(ad.mul(ad.inner(r, r), 1.0 / idx.size))
    return sums[0], sums[1]


def assemble(u, P_net, div_net, problem, points):
    """Evaluate all six loss terms from the displacement jet and the
    stress head's value and row divergence at the grid points."""
    state = deformation_gradient(displacement_gradient(u))
    P_u, div_u = problem.material.stress(state)
    energy, _, _ = potential_energy(u, problem, points, state=state)
    mse_P = mse_constitutive(P_net, P_u)
    mse_t_u, mse_t_net = mse_traction(P_u, P_net, points)
    mse_i_u, mse_i_net = mse_interior(div_u, div_net, points)
    return LossBreakdown(
        energy=energy,
        mse_constitutive=mse_P,
        mse_traction_u=mse_t_u,
        mse_traction_net=mse_t_net,
        mse_interior_u=mse_i_u,
        mse_interior_net=mse_i_net,
        det_F=state.J.val.data,
    )


class CoVState:
    """Streaming statistics behind the adaptive loss weights.

    Tracks, per term, the running mean of the raw loss, and mean/variance
    of the loss ratio (current value over previous running mean) via the
    one-pass recurrences.  Weights are coefficient-of-variation shares
    c_i / sum(c); degenerate histories (all spreads zero) fall back to
    uniform weights, which also covers the first iteration.
    """

    def __init__(self, n_terms):
        self.n = int(n_terms)
        self.t = 0
        self.mu_L = np.zeros(self.n)
        self.mu_l = np.zeros(self.n)
        self.M_l = np.zeros(self.n)

    def update(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n,):
            raise LengthMismatch(f"expected {self.n} loss values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise NonFiniteLoss(f"non-finite loss values {values}")
        self.t += 1
        t = self.t
        if t == 1:
            ratios = np.ones(self.n)
        else:
            ratios = np.where(self.mu_L > 0.0, values / np.where(self.mu_L > 0.0, self.mu_L, 1.0), 1.0)
        mu_l_prev = self.mu_l.copy()
        self.mu_L = (1.0 - 1.0 / t) * self.mu_L + values / t
        self.mu_l = (1.0 - 1.0 / t) * self.mu_l + ratios / t
        if t == 1:
            self.M_l = np.zeros(self.n)
        else:
            self.M_l = (1.0 - 1.0 / t) * self.M_l + (ratios - mu_l_prev) * (
                ratios - self.mu_l
            ) / t
        return self.weights()

    def weights(self):
        sigma = np.sqrt(np.maximum(self.M_l, 0.0))
        c = np.where(self.mu_l > 0.0, sigma / np.where(self.mu_l > 0.0, self.mu_l, 1.0), 0.0)
        z = c.sum()
        if z <= 0.0:
            return np.full(self.n, 1.0 / self.n)
        return c / z


class LossWeights:
    """The adaptive weights of the six loss terms under one mask.

    ``active`` lists the terms that take part: the mask's, less the two
    traction terms on a problem without traction faces (they would be
    identically zero and carry no weighting information).  ``values`` is
    the six-vector of weights, zero off ``active`` and uniform over it
    until the first update.

    The raw energy may be negative, so its weighting statistic is the
    distance to the lowest energy of the earlier updates,
    |E - E_min| + ENERGY_SHIFT_EPS (just the epsilon at the first); the
    floor is lowered after the statistic is taken, which keeps it from
    collapsing to the epsilon on every improving step.  The weighted sum
    applies the resulting weight to the raw energy.
    """

    def __init__(self, mask, has_traction):
        active = MASK_TERMS[mask]
        if not has_traction:
            active = tuple(i for i in active if i not in (2, 3))
        self.active = active
        self.cov = CoVState(len(active))
        self.values = np.zeros(N_TERMS)
        self.values[list(active)] = 1.0 / len(active)
        self.energy_floor = np.inf

    def update(self, term_values):
        """Refresh the weights from one accepted iterate's six term values."""
        stats = np.array(term_values, dtype=np.float64)
        energy = stats[0]
        if np.isfinite(self.energy_floor):
            stats[0] = abs(energy - self.energy_floor) + ENERGY_SHIFT_EPS
        else:
            stats[0] = ENERGY_SHIFT_EPS
        self.energy_floor = min(self.energy_floor, energy)
        self.values = np.zeros(N_TERMS)
        self.values[list(self.active)] = self.cov.update(stats[list(self.active)])

    def total(self, breakdown):
        """Weighted sum of the active terms on the tape; the weights enter
        as constants, so no gradient flows through the weighting."""
        terms = breakdown.terms()
        return ad.inner(ad.stack([terms[i] for i in self.active]), self.values[list(self.active)])
