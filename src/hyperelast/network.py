"""Coordinate network: random Fourier features, dense layers, hard BCs.

The network maps a material point X to 12 outputs (3 displacement, 9
stress components).  Inputs pass through a Gaussian random Fourier
feature map, then a tanh multilayer perceptron with a linear head.
Displacement outputs are composed with distance functions so essential
boundary conditions hold exactly; stress outputs pass through unchanged
up to a fixed conditioning scale.

Every layer is carried as one :class:`~hyperelast.autodiff.Jet` of the
whole batch: values (..., w), gradients (..., w, 3) and packed Hessians
(..., w, 6).  The head is split into the displacement jet u (..., 3) and
the stress jet P (..., 3, 3), one order lower, because only the divergence
of the stress is ever needed.  Training asks for u at order 2, sampling at
order 1, where every stage passes a None Hessian slot through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch

N_OUTPUTS = 12  # 3 displacement + 9 stress components
_U_ROWS = np.arange(3)
_P_ROWS = np.arange(3, N_OUTPUTS)


@dataclass(frozen=True)
class RFFMap:
    """Gaussian random Fourier features with unit coefficients.

    Frequencies are drawn from N(0, sigma^2), reproducibly from the seed.
    The feature vector interleaves cosine/sine pairs per frequency, so the
    output dimension is exactly 2m.
    """

    m: int
    sigma: float = 1.0
    seed: int = 0
    freq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one Fourier feature")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        rng = np.random.default_rng(self.seed)
        object.__setattr__(self, "freq", rng.normal(0.0, self.sigma, size=(self.m, 3)))

    @property
    def out_dim(self):
        return 2 * self.m

    def features(self, X, order=2):
        """Feature values and exact spatial derivatives at points X (..., 3).

        Returns plain arrays of shapes (..., 2m), (..., 2m, 3) and
        (..., 2m, 6) (packed Hessians, None at order 1); the map has no
        trainable parameters, so these are constants with respect to the
        network weights.
        """
        X = np.asarray(X, dtype=np.float64)
        W = 2.0 * np.pi * self.freq  # (m, 3)
        w = np.einsum("...d,md->...m", X, W, optimize=True)
        cw, sw = np.cos(w), np.sin(w)
        batch = X.shape[:-1]
        val = np.empty(batch + (2 * self.m,))
        grad = np.empty(batch + (2 * self.m, 3))
        val[..., 0::2] = cw
        val[..., 1::2] = sw
        grad[..., 0::2, :] = np.einsum("...m,md->...md", -sw, W, optimize=True)
        grad[..., 1::2, :] = np.einsum("...m,md->...md", cw, W, optimize=True)
        if order < 2:
            return val, grad, None
        hess = np.empty(batch + (2 * self.m, 6))  # packed symmetric
        WW = W[:, ad.PACK_A] * W[:, ad.PACK_B]  # (m, 6)
        hess[..., 0::2, :] = np.einsum("...m,mk->...mk", -cw, WW, optimize=True)
        hess[..., 1::2, :] = np.einsum("...m,mk->...mk", -sw, WW, optimize=True)
        return val, grad, hess


@dataclass(frozen=True)
class MLPSpec:
    """Layer widths of the perceptron, input first, output last (= 12).

    Hidden layers use tanh (smooth, so second spatial derivatives exist
    everywhere); the output layer is linear.
    """

    widths: tuple

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if self.widths[-1] != N_OUTPUTS:
            raise ValueError(f"output width must be {N_OUTPUTS}, got {self.widths[-1]}")

    @property
    def n_layers(self):
        return len(self.widths) - 1

    @property
    def n_params(self):
        return sum(
            fi * fo + fo for fi, fo in zip(self.widths[:-1], self.widths[1:])
        )

    def layer_slices(self):
        """(weight_slice, bias_slice, fan_in, fan_out) per layer, in order."""
        out = []
        offset = 0
        for fi, fo in zip(self.widths[:-1], self.widths[1:]):
            w = slice(offset, offset + fi * fo)
            offset += fi * fo
            b = slice(offset, offset + fo)
            offset += fo
            out.append((w, b, fi, fo))
        return out

    def init_params(self, rng, head_scale=0.01):
        """Glorot-uniform weights, zero biases.

        The output layer is shrunk by ``head_scale`` so the initial fields
        start near the boundary-condition lift; a full-scale random head
        can seed an inverted deformation state before the first update.
        """
        phi = np.zeros(self.n_params)
        slices = self.layer_slices()
        for li, (w, _b, fi, fo) in enumerate(slices):
            bound = np.sqrt(6.0 / (fi + fo))
            if li == len(slices) - 1:
                bound *= head_scale
            phi[w] = rng.uniform(-bound, bound, size=fi * fo)
        return phi


def _affine_layer(prev, W, b):
    val = ad.add(ad.einsum2("...i,oi->...o", prev.val, W), b)
    grad = ad.einsum2("...id,oi->...od", prev.grad, W)
    if prev.hess is None:
        return ad.Jet(val, grad)
    return ad.Jet(val, grad, ad.einsum2("...ik,oi->...ok", prev.hess, W))


def _packed_outer_back(s, G):
    """Adjoint with respect to G of the packed products G[A] * G[B].

    ``s`` is the adjoint of the six packed products; a diagonal product
    G_d G_d contributes twice to row d, an off-diagonal one once to each of
    its two rows.
    """
    g0, g1, g2 = G[..., 0], G[..., 1], G[..., 2]
    return np.stack(
        [
            2.0 * s[..., 0] * g0 + s[..., 1] * g1 + s[..., 2] * g2,
            s[..., 1] * g0 + 2.0 * s[..., 3] * g1 + s[..., 4] * g2,
            s[..., 2] * g0 + s[..., 4] * g1 + 2.0 * s[..., 5] * g2,
        ],
        axis=-1,
    )


def _tanh_layer(z):
    """tanh of every unit's jet, recorded as one node per jet slot.

    With t = tanh(z), t1 = 1 - t^2 = t' and t2 = -2 t t1 = t'':
    val = t, grad = t1 G and hess = t1 H + t2 G[A] G[B] (packed).  The
    vjps are closed forms in t1, t2 and t3 = t2' = t1 (6 t^2 - 2).  A
    None Hessian slot stays None.
    """
    t = np.tanh(z.val.data)
    t1 = 1.0 - t * t
    t2 = (-2.0 * t) * t1
    G = z.grad.data
    c1 = t1[..., None]
    val = ad.record("tanh_jet[val]", t, (z.val,), (lambda adj: adj * t1,))
    grad = ad.record(
        "tanh_jet[grad]",
        G * c1,
        (z.val, z.grad),
        (
            lambda adj: np.einsum("...d,...d->...", adj, G) * t2,
            lambda adj: adj * c1,
        ),
    )
    if z.hess is None:
        return ad.Jet(val, grad)
    t3 = t1 * (6.0 * t * t - 2.0)
    H = z.hess.data
    gg = G[..., ad.PACK_A] * G[..., ad.PACK_B]
    c2 = t2[..., None]
    hess = ad.record(
        "tanh_jet[hess]",
        H * c1 + gg * c2,
        (z.val, z.grad, z.hess),
        (
            lambda adj: np.einsum("...k,...k->...", adj, H) * t2
            + np.einsum("...k,...k->...", adj, gg) * t3,
            lambda adj: _packed_outer_back(adj * c2, G),
            lambda adj: adj * c1,
        ),
    )
    return ad.Jet(val, grad, hess)


def forward(spec, phi, features):
    """Propagate feature jets through the perceptron.

    ``phi`` is the flat parameter Var; ``features`` the (val, grad, hess)
    arrays from :meth:`RFFMap.features`.  Returns the 12-wide Jet, of the
    features' order.
    """
    if phi.data.shape != (spec.n_params,):
        raise ShapeMismatch(
            f"parameter vector has length {phi.data.size}, layout needs {spec.n_params}"
        )
    fval = features[0]
    if fval.shape[-1] != spec.widths[0]:
        raise ShapeMismatch(
            f"feature width {fval.shape[-1]} != input width {spec.widths[0]}"
        )
    y = ad.Jet(*(a if a is None else ad.constant(a) for a in features))
    slices = spec.layer_slices()
    for li, (ws, bs, fi, fo) in enumerate(slices):
        W = ad.reshape(ad.take(phi, np.arange(ws.start, ws.stop)), (fo, fi))
        b = ad.take(phi, np.arange(bs.start, bs.stop))
        y = _affine_layer(y, W, b)
        if li < len(slices) - 1:
            y = _tanh_layer(y)
    return y


# ---------------------------------------------------------------------------
# hard enforcement of essential boundary conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletFace:
    """One constrained box face: axis in {0,1,2}, side in {'lo','hi'},
    components = indices of the displacement components pinned there."""

    axis: int
    side: str
    components: tuple = (0, 1, 2)


@dataclass(frozen=True)
class BCEnforcer:
    """Distance-function composition u = A(X) + B(X) * y_u.

    ``lift_const``/``lift_lin`` define the affine lift A(X) = c + G X that
    matches the prescribed displacement on every constrained face.  The
    mask B vanishes (componentwise) exactly on the faces constraining that
    component and is a product of normalized face distances elsewhere.
    Stress outputs pass through untouched (traction conditions are handled
    softly in the loss).
    """

    origin: tuple
    lengths: tuple
    faces: tuple
    lift_const: tuple = (0.0, 0.0, 0.0)
    lift_lin: tuple = ((0.0,) * 3,) * 3

    def scaled(self, factor):
        """Scale the prescribed displacement data (load stepping)."""
        c = tuple(factor * v for v in self.lift_const)
        g = tuple(tuple(factor * v for v in row) for row in self.lift_lin)
        return BCEnforcer(self.origin, self.lengths, self.faces, c, g)

    def lift_jets(self, X):
        """A(X) = c + G X as a constant first-order jet (..., 3)."""
        X = np.asarray(X, dtype=np.float64)
        G = np.asarray(self.lift_lin)
        val = np.asarray(self.lift_const) + np.einsum("ij,...j->...i", G, X, optimize=True)
        grad = np.broadcast_to(G, X.shape[:-1] + (3, 3)).copy()
        return ad.Jet(ad.constant(val), ad.constant(grad))

    def mask_jets(self, X, order=2):
        """B(X) per component as a constant jet (..., 3) of order 2 or 1.

        Each factor is a normalized face distance, linear in one
        coordinate, so the product rule needs no Hessian of the factor.
        """
        X = np.asarray(X, dtype=np.float64)
        batch = X.shape[:-1]
        val = np.ones(batch + (3,))
        grad = np.zeros(batch + (3, 3))
        hess = np.zeros(batch + (3, 6)) if order == 2 else None
        for f in self.faces:
            inv_len = 1.0 / self.lengths[f.axis]
            xi = (X[..., f.axis] - self.origin[f.axis]) * inv_len
            dxi = np.zeros(3)
            dxi[f.axis] = inv_len
            if f.side == "hi":
                xi, dxi = 1.0 - xi, -dxi
            for i in f.components:
                if hess is not None:
                    hess[..., i, :] = (
                        hess[..., i, :] * xi[..., None]
                        + grad[..., i, ad.PACK_A] * dxi[ad.PACK_B]
                        + grad[..., i, ad.PACK_B] * dxi[ad.PACK_A]
                    )
                grad[..., i, :] = grad[..., i, :] * xi[..., None] + val[..., i, None] * dxi
                val[..., i] = val[..., i] * xi
        return ad.Jet(*(a if a is None else ad.constant(a) for a in (val, grad, hess)))

    def bc_jets(self, X, order=2):
        """Constant lift and mask jets, cacheable per point set.

        The third entry, cross (..., 3, 6, 3), holds the coefficient of
        d y_i / dX_d in packed entry k of grad B_i (x) grad y_i +
        grad y_i (x) grad B_i, so that this term of the product rule is
        one contraction.  At order 1 the mask has no Hessian and cross is
        None.
        """
        mask = self.mask_jets(X, order)
        if order < 2:
            return self.lift_jets(X), mask, None
        Bg = mask.grad.data
        cross = np.zeros(Bg.shape[:-1] + (6, 3))
        for k, (a, b) in enumerate(zip(ad.PACK_A, ad.PACK_B)):
            cross[..., k, b] += Bg[..., a]
            cross[..., k, a] += Bg[..., b]
        return self.lift_jets(X), mask, cross

    def apply(self, X, y_u, y_P, bc=None):
        """(u, P) from the raw output jets; stress is returned unchanged.

        u = A + B y by the product rule, with A of zero Hessian.  u has the
        order of y_u (2 or 1); ``bc`` must carry at least that order.
        """
        order = 1 if y_u.hess is None else 2
        lift, mask, cross = bc if bc is not None else self.bc_jets(X, order)
        Bv, Bg = mask.val.data, mask.grad.data
        val = ad.add(lift.val, ad.mul(y_u.val, Bv))
        grad = ad.add(
            lift.grad,
            ad.add(ad.mul(y_u.grad, Bv[..., None]), ad.einsum2("...i,...id->...id", y_u.val, Bg)),
        )
        if order < 2:
            return ad.Jet(val, grad), y_P
        Bh = mask.hess.data
        hess = ad.add(
            ad.add(ad.mul(y_u.hess, Bv[..., None]), ad.einsum2("...i,...ik->...ik", y_u.val, Bh)),
            ad.einsum2("...id,...ikd->...ik", y_u.grad, cross),
        )
        return ad.Jet(val, grad, hess), y_P


@dataclass(frozen=True)
class FieldNetwork:
    """Full predictor: features -> perceptron -> BC composition.

    ``stress_scale`` multiplies the raw stress outputs so both heads train
    on comparable magnitudes (default: shear modulus of the material).
    """

    rff: RFFMap
    mlp: MLPSpec
    enforcer: BCEnforcer
    stress_scale: float = 1.0

    @property
    def n_params(self):
        return self.mlp.n_params

    def init_params(self, seed=None):
        rng = np.random.default_rng(self.rff.seed if seed is None else seed)
        return self.mlp.init_params(rng)

    def raw_outputs(self, phi, X, features=None, order=2):
        """Head jets: displacement (..., 3) of ``order`` (2 or 1) and stress
        (..., 3, 3) one order lower; ``features`` carry at least ``order``."""
        if features is None:
            features = self.rff.features(X, order)
        out = forward(self.mlp, phi, features)
        batch = out.val.data.shape[:-1]
        y_u = ad.Jet(
            ad.take(out.val, _U_ROWS, axis=-1),
            ad.take(out.grad, _U_ROWS, axis=-2),
            ad.take(out.hess, _U_ROWS, axis=-2) if order == 2 else None,
        )
        y_P = ad.Jet(
            ad.reshape(ad.take(out.val, _P_ROWS, axis=-1), batch + (3, 3)),
            ad.reshape(ad.take(out.grad, _P_ROWS, axis=-2), batch + (3, 3, 3))
            if order == 2 else None,
        )
        return y_u, y_P

    def fields(self, phi, X, features=None, bc=None, order=2):
        """Displacement jet of ``order`` and scaled stress jet one order
        lower at points X (..., 3)."""
        y_u, y_P = self.raw_outputs(phi, X, features, order)
        u, y_P = self.enforcer.apply(X, y_u, y_P, bc=bc)
        s = self.stress_scale
        P = ad.Jet(ad.mul(y_P.val, s), None if y_P.grad is None else ad.mul(y_P.grad, s))
        return u, P


def displacement_gradient(u):
    """First-order jet of grad u (..., 3, 3) from the displacement jet.

    Entry (i, j) carries value du_i/dX_j and gradient d2u_i/dX_j dX, read
    off the packed Hessian of u_i (third spatial derivatives are out of
    scope).  Without a Hessian slot the jet is values only.
    """
    if u.hess is None:
        return ad.Jet(u.grad)
    hess = ad.take(u.hess, ad.UNPACK, axis=-1)
    return ad.Jet(u.grad, ad.reshape(hess, hess.data.shape[:-1] + (3, 3)))
