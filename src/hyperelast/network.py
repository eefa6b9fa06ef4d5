"""Coordinate network: random Fourier features, dense layers, hard BCs.

The network maps a material point X to 12 outputs (3 displacement, 9
stress components).  Inputs pass through a Gaussian random Fourier
feature map, then a tanh multilayer perceptron with a linear head.
Displacement outputs are composed with distance functions so essential
boundary conditions hold exactly; stress outputs pass through unchanged
up to a fixed conditioning scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch

N_OUTPUTS = 12  # 3 displacement + 9 stress components

# the layer pipeline stores symmetric Hessians packed as the 6 unique
# entries (00, 01, 02, 11, 12, 22); these index tables pack and unpack
_PACK_A = np.array([0, 0, 0, 1, 1, 2])
_PACK_B = np.array([0, 1, 2, 1, 2, 2])
_UNPACK = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


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

    def features(self, X):
        """Feature values and exact spatial derivatives at points X (..., 3).

        Returns plain arrays of shapes (..., 2m), (..., 2m, 3) and
        (..., 2m, 3, 3); the map has no trainable parameters, so these are
        constants with respect to the network weights.
        """
        X = np.asarray(X, dtype=np.float64)
        W = 2.0 * np.pi * self.freq  # (m, 3)
        w = np.einsum("...d,md->...m", X, W, optimize=True)
        cw, sw = np.cos(w), np.sin(w)
        batch = X.shape[:-1]
        val = np.empty(batch + (2 * self.m,))
        grad = np.empty(batch + (2 * self.m, 3))
        hess = np.empty(batch + (2 * self.m, 6))  # packed symmetric
        WW = W[:, _PACK_A] * W[:, _PACK_B]  # (m, 6)
        val[..., 0::2] = cw
        val[..., 1::2] = sw
        grad[..., 0::2, :] = np.einsum("...m,md->...md", -sw, W, optimize=True)
        grad[..., 1::2, :] = np.einsum("...m,md->...md", cw, W, optimize=True)
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


class LayerJets:
    """Jets of a whole layer: value (..., w), gradient (..., w, 3) and
    Hessian (..., w, 6) in packed symmetric storage."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess

    @property
    def width(self):
        return self.val.data.shape[-1]

    def component(self, j):
        """Extract one output as a SpatialJet (Hessian unpacked to 3x3)."""
        packed = ad.take(self.hess, j, axis=-2)
        flat = ad.take(packed, _UNPACK, axis=-1)
        batch = packed.data.shape[:-1]
        return ad.SpatialJet(
            ad.take(self.val, j, axis=-1),
            ad.take(self.grad, j, axis=-2),
            ad.reshape(flat, batch + (3, 3)),
        )


def _affine_layer(prev, W, b):
    val = ad.add(ad.einsum2("...i,oi->...o", prev.val, W), b)
    grad = ad.einsum2("...id,oi->...od", prev.grad, W)
    hess = ad.einsum2("...ik,oi->...ok", prev.hess, W)
    return LayerJets(val, grad, hess)


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
    vjps are closed forms in t1, t2 and t3 = t2' = t1 (6 t^2 - 2).
    """
    t = np.tanh(z.val.data)
    t1 = 1.0 - t * t
    t2 = (-2.0 * t) * t1
    t3 = t1 * (6.0 * t * t - 2.0)
    G, H = z.grad.data, z.hess.data
    gg = G[..., _PACK_A] * G[..., _PACK_B]
    c1, c2 = t1[..., None], t2[..., None]
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
    return LayerJets(val=val, grad=grad, hess=hess)


def forward(spec, phi, features):
    """Propagate feature jets through the perceptron.

    ``phi`` is the flat parameter Var; ``features`` the (val, grad, hess)
    arrays from :meth:`RFFMap.features`.  Returns the 12-wide LayerJets.
    """
    if phi.data.shape != (spec.n_params,):
        raise ShapeMismatch(
            f"parameter vector has length {phi.data.size}, layout needs {spec.n_params}"
        )
    fval, fgrad, fhess = features
    if fval.shape[-1] != spec.widths[0]:
        raise ShapeMismatch(
            f"feature width {fval.shape[-1]} != input width {spec.widths[0]}"
        )
    y = LayerJets(ad.constant(fval), ad.constant(fgrad), ad.constant(fhess))
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

    def lift_values(self, X):
        X = np.asarray(X, dtype=np.float64)
        G = np.asarray(self.lift_lin)
        return np.asarray(self.lift_const) + np.einsum("ij,...j->...i", G, X, optimize=True)

    def lift_jets(self, X):
        """A(X) as three constant jets (exact gradient = rows of G)."""
        X = np.asarray(X, dtype=np.float64)
        batch = X.shape[:-1]
        vals = self.lift_values(X)
        G = np.asarray(self.lift_lin)
        jets = []
        for i in range(3):
            grad = np.broadcast_to(G[i], batch + (3,)).copy()
            jets.append(
                ad.SpatialJet(
                    ad.constant(vals[..., i]),
                    ad.constant(grad),
                    ad.constant(np.zeros(batch + (3, 3))),
                )
            )
        return jets

    def mask_jets(self, X):
        """B(X) per component, as constant jets built by jet arithmetic."""
        X = np.asarray(X, dtype=np.float64)
        coords = ad.lift_point(X)
        masks = []
        for i in range(3):
            prod = None
            for f in self.faces:
                if i not in f.components:
                    continue
                xi = ad.jet_mul(
                    ad.jet_sub(coords[f.axis], self.origin[f.axis]),
                    1.0 / self.lengths[f.axis],
                )
                factor = ad.jet_sub(1.0, xi) if f.side == "hi" else xi
                prod = factor if prod is None else ad.jet_mul(prod, factor)
            if prod is None:
                prod = ad.jet_const(1.0, X.shape[:-1])
            masks.append(prod)
        return masks

    def bc_jets(self, X):
        """Constant (A, B) jets, cacheable per point set."""
        return self.lift_jets(X), self.mask_jets(X)

    def apply(self, X, y_u, y_P, bc=None):
        """(u, P) from raw outputs; stress is returned unchanged."""
        A, B = bc if bc is not None else self.bc_jets(X)
        u = [ad.jet_add(A[i], ad.jet_mul(B[i], y_u[i])) for i in range(3)]
        return u, y_P


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

    def raw_outputs(self, phi, X, features=None):
        if features is None:
            features = self.rff.features(X)
        out = forward(self.mlp, phi, features)
        y_u = [out.component(i) for i in range(3)]
        y_P = ad.jet_mat(
            [[out.component(3 + 3 * i + j) for j in range(3)] for i in range(3)]
        )
        return y_u, y_P

    def fields(self, phi, X, features=None, bc=None):
        """Displacement jets and scaled stress jets at points X (..., 3)."""
        y_u, y_P = self.raw_outputs(phi, X, features)
        u, y_P = self.enforcer.apply(X, y_u, y_P, bc=bc)
        P = ad.jet_mat(
            [[ad.jet_mul(y_P[i][j], self.stress_scale) for j in range(3)] for i in range(3)]
        )
        return u, P


def displacement_gradient(u):
    """3x3 first-order jets of grad u, rows from the displacement jets.

    Entry (i, j) carries value du_i/dX_j and gradient d2u_i/dX_j dX; the
    Hessian row of u_i supplies the gradient (third spatial derivatives are
    out of scope).
    """
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            row.append(
                ad.SpatialJet(
                    ad.take(u[i].grad, j, axis=-1),
                    ad.take(u[i].hess, j, axis=-2),
                )
            )
        rows.append(row)
    return ad.jet_mat(rows)
