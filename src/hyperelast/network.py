"""Coordinate network: random Fourier features, dense layers, hard BCs.

The network maps a material point X to 12 outputs (3 displacement, 9
stress components).  Inputs pass through a Gaussian random Fourier
feature map, then a tanh multilayer perceptron with a linear head.
Displacement outputs are composed with distance functions so essential
boundary conditions hold exactly; stress outputs pass through unchanged
up to a fixed conditioning scale.  The lift and mask of that composition
are plain arrays, laid out once per point set by
:meth:`BCEnforcer.bc_jets`; a load stage scales the two lift arrays.

The perceptron's input jets have C channels per point: channel 0 holds
the values, 1-3 the spatial gradient and 4-9 the packed Hessian (C = 10,
or 4 without a Hessian).  For Fourier features channel c is the values
times fixed frequency factors, on the gradient channels turned a quarter,
(cos, sin) -> (-sin, cos), so a :class:`FeatureStack` keeps the values
(n, w) only and stands for the dense (n, C, w) stack.  The turn is one
of the row pairs of layer 0's weights, so :meth:`FeatureStack.fold`
moves factors and turn into them and layer 0 is one product of the
values with the folded weights: neither the forward pass nor the vjp
builds input jets.  The whole perceptron is one tape node that runs its
forward pass and its vjp over blocks of ``BLOCK_POINTS`` points, so
every temporary stays cache-sized and is reused instead of being
allocated afresh.  Within a block the jets are (C, b, o): an affine
layer is one matrix product with the bias on channel 0, and the tanh
rules scale whole contiguous channels by per-unit factors.  For its vjp
a taped node keeps, per block and hidden layer, only the pre-activation
jet Z, with the unit values t = tanh(z) in place of z, which no tanh
rule reads: C channels, where Z and the tanh jet T would take 2C.  The
vjp rebuilds each T from it once per sweep, by the forward's own
elementwise rules, so the gradient is unchanged bit for bit.

The node's output (N, C, 12) is read by one head node with one output
per head field: the displacement jet u (N, 3) with gradient (N, 3, 3)
and packed Hessian (N, 3, 6), the stress P (N, 3, 3) and its row
divergence div P (N, 3), the only derivative of the stress the loss
reads, the stress scale folded into both.  Its vjp fills one (N, C, 12)
adjoint.  Training asks for u at order 2, sampling at order 1, where
every stage passes a None Hessian slot through and the head emits no
divergence; the head reads the order off the node's channel count.

Training feeds two stacks, order 2 on the interior rows [:n_interior]
and order 1 on the surface rows after them.  Contract: the Hessian
channels are nonzero on rows [:n_interior] only, so the displacement
branch's div P is a finite placeholder on the other rows.  Only the
strong-form residuals read the divergences, and their weights
``PointSets.interior_weights`` are zero off the interior rows, so the
skipped channels' adjoint is exactly zero and the gradient is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch

N_OUTPUTS = 12  # 3 displacement + 9 stress components
HEAD_SCALE = 0.01  # factor on the output layer's initial weight bound
# points per block of the perceptron node: a block's (10, 128, 64) jets
# take 0.66 MB, so a layer's temporaries fit in L2 and are reused from
# block to block; of 64 to 512 points, 128 ran the default cantilever fastest
BLOCK_POINTS = 128
# (j, k, p) = 1 where packed entry p holds the Hessian entry (j, k)
_UNPACK_ONE_HOT = np.eye(6)[ad.UNPACK].reshape(3, 3, 6)


def row_blocks(n, size):
    """(lo, hi) ranges of ``size`` rows, the remainder joining the last
    one: OpenBLAS rounds a product of few rows differently, so a sliver
    block would make a row's result depend on how rows are grouped.
    """
    starts = list(range(0, n - size + 1, size)) or [0]
    return list(zip(starts, starts[1:] + [n]))


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
        """Feature values and exact spatial derivatives at points X (n, 3),
        as the :class:`FeatureStack` of ``order`` (2 or 1) that stands for
        the channel-major stack (n, C, 2m): values, the three gradient
        channels and, at order 2, the six packed Hessian channels (C = 10,
        or 4 at order 1).  The map has no trainable parameters, so these
        are constants with respect to the network weights.
        """
        if order not in (1, 2):
            raise ValueError(f"feature order must be 1 or 2, got {order!r}")
        X = np.asarray(X, dtype=np.float64)
        W = 2.0 * np.pi * self.freq  # (m, 3)
        w = np.einsum("...d,md->...m", X, W, optimize=True)
        values = np.empty((len(X), 2 * self.m))
        values[:, 0::2] = np.cos(w)
        values[:, 1::2] = np.sin(w)
        factors = [np.ones((1, self.m)), W.T]
        if order == 2:
            factors.append(-(W[:, ad.PACK_A] * W[:, ad.PACK_B]).T)
        return FeatureStack(values, np.repeat(np.concatenate(factors), 2, axis=-1))


@dataclass(frozen=True, eq=False)
class FeatureStack:
    """Fourier features of n points: ``values`` (n, w), the cos/sin pairs
    interleaved, and ``factors`` (C, w), a row of ones, the three gradient
    factors and, at order 2, the six negated packed-Hessian factors, each
    repeated per pair.  Channel c of the dense stack (n, C, w) is the
    values times ``factors[c]``, on channels 1-3 turned a quarter, (cos,
    sin) -> (-sin, cos).  ``shape`` and ``len`` are the dense stack's,
    which is never built: :meth:`fold` moves factors and turn into W.
    """

    values: np.ndarray
    factors: np.ndarray

    @property
    def shape(self):
        return (len(self.values), len(self.factors), self.values.shape[-1])

    def __len__(self):
        return len(self.values)

    def fold(self, W):
        """The weights M (C, w, o) with ``values @ M[c]`` channel c of the
        dense stack times W.T, for W (o, w): the factors times W.T, whose
        row pairs turn a quarter on channels 1-3 as the features would."""
        M = self.factors[:, :, None] * W.T
        pairs = M[1:4].reshape(3, -1, 2, len(W))
        pairs[...] = pairs[:, :, ::-1] * [[1.0], [-1.0]]  # (a, b) -> (b, -a)
        return M

    def unfold(self, dM):
        """The adjoint (o, w) of W under :meth:`fold` from that of M,
        (C, w, o), which it overwrites."""
        pairs = dM[1:4].reshape(3, -1, 2, dM.shape[-1])
        pairs[...] = pairs[:, :, ::-1] * [[-1.0], [1.0]]
        return np.multiply(dM, self.factors[:, :, None], out=dM).sum(axis=0).T


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
        if min(self.widths) < 1:
            raise ValueError(f"layer widths must be >= 1, got {self.widths}")
        if self.widths[-1] != N_OUTPUTS:
            raise ValueError(f"output width must be {N_OUTPUTS}, got {self.widths[-1]}")

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

    def init_params(self, rng):
        """Glorot-uniform weights, zero biases.

        The output layer is shrunk by ``HEAD_SCALE`` so the initial fields
        start near the boundary-condition lift; a full-scale random head
        can seed an inverted deformation state before the first update.
        """
        phi = np.zeros(self.n_params)
        slices = self.layer_slices()
        for li, (w, _b, fi, fo) in enumerate(slices):
            bound = np.sqrt(6.0 / (fi + fo))
            if li == len(slices) - 1:
                bound *= HEAD_SCALE
            phi[w] = rng.uniform(-bound, bound, size=fi * fo)
        return phi


def _packed_square(G):
    """Packed products G[A] * G[B] (6, b, o) of gradient channels (3, b, o)."""
    gg = np.empty((6,) + G.shape[1:])
    np.multiply(G[:1], G, out=gg[0:3])
    np.multiply(G[1:2], G[1:], out=gg[3:5])
    np.multiply(G[2:], G[2:], out=gg[5:])
    return gg


def _tanh_jet(Z, t, T):
    """Fill the derivative channels of T (C, b, o), the tanh of every
    unit's jet Z, whose value channel T[0] already holds t = tanh(Z[0]).

    With t1 = 1 - t^2 = t' and t2 = -2 t t1 = t'': gradient t1 G and
    Hessian t2 G[A] G[B] + t1 H (packed).  Returns the factors (t1, t2,
    G[A] G[B]) that :func:`_tanh_jet_back` reads as well, the last None
    without Hessian channels.  The forward pass and the vjp's rebuild of
    T both run through here, so they agree bit for bit.
    """
    t1 = 1.0 - t * t
    t2 = (-2.0 * t) * t1
    np.multiply(Z[1:4], t1, out=T[1:4])
    gg = None
    if Z.shape[0] > 4:
        gg = _packed_square(Z[1:4])
        np.multiply(gg, t2, out=T[4:])
        T[4:] += Z[4:] * t1
    return t1, t2, gg


def _tanh_jet_back(Z, factors, dT):
    """Adjoint of the tanh jet's input Z from that of its output, given
    the ``factors`` of :func:`_tanh_jet`, whose packed square it
    overwrites.  Z's value channel holds t = tanh(z), not z, which no
    rule reads.

    Closed forms in t1, t2 and t3 = t2' = t1 (6 t^2 - 2); the adjoint of
    the packed products G[A] G[B] is written into the gradient channels,
    where a diagonal product G_d G_d counts twice in row d and an
    off-diagonal one once in each of its two rows.
    """
    t1, t2, prod = factors
    t, G, dG = Z[0], Z[1:4], dT[1:4]
    A = np.empty_like(Z)
    dz = (dG * G).sum(axis=0) * t2
    if Z.shape[0] > 4:
        t3 = t1 * (6.0 * t * t - 2.0)
        dH = dT[4:]
        prod *= dH
        hz = prod.sum(axis=0) * t3
        np.multiply(dH, Z[4:], out=prod)
        dz = (prod.sum(axis=0) * t2 + hz) + dz
        s = np.multiply(dH, t2, out=A[4:])  # scratch until the last line
        g0, g1, g2 = G
        A[1] = 2.0 * s[0] * g0 + s[1] * g1 + s[2] * g2
        A[2] = s[1] * g0 + 2.0 * s[3] * g1 + s[4] * g2
        A[3] = s[2] * g0 + s[4] * g1 + 2.0 * s[5] * g2
        np.multiply(dH, t1, out=A[4:])
        A[1:4] += dG * t1
    else:
        np.multiply(dG, t1, out=A[1:4])
    A[0] = dz + dT[0] * t1
    return A


def _block_forward(layers, Z, out, rows, keep):
    """One block's layer-0 pre-activation jet Z (C, b, o) through every
    further layer into the slice ``rows`` of ``out`` (N, >= C, 12).

    With ``keep``, returns per hidden layer its pre-activation jet Z, all
    the vjp needs, with t = tanh(z) in place of its value channel z,
    which no tanh rule reads; the tanh jet T itself feeds the next
    layer's product and is dropped.  Without, keeps nothing.
    """
    hidden = []
    for W, bias in layers[1:]:
        S = np.empty_like(Z)
        t = np.tanh(Z[0], out=S[0])
        _tanh_jet(Z, t, S)
        if keep:
            Z[0] = t
            hidden.append(Z)
        Z = np.matmul(S, W.T)
        Z[0] += bias
    out[rows, :Z.shape[0]] = Z.transpose(1, 0, 2)
    return hidden


def _block_backward(layers, hidden, dY, grads):
    """Add one block's adjoints of the parameters past layer 0 into
    ``grads`` ((dW, db) views), given the ``hidden`` jets Z of
    :func:`_block_forward` and the adjoint dY (b, C, 12) of its output;
    returns the adjoint (C, b, o) of layer 0's pre-activation.

    Each hidden layer's tanh jet is rebuilt once, as the input of the next
    layer's weight adjoint, and its factors serve the layer's tanh rule.
    Nothing saved is written to, so the tape can be swept again.
    """
    A = dY.transpose(1, 0, 2)
    for li in range(len(hidden), 0, -1):
        W = layers[li][0]
        Z = hidden[li - 1]
        S = np.empty_like(Z)
        S[0] = Z[0]
        factors = _tanh_jet(Z, S[0], S)
        A2 = A.reshape(-1, W.shape[0])
        dW, db = grads[li]
        dW += A2.T @ S.reshape(-1, W.shape[1])
        db += A[0].sum(axis=0)
        A = _tanh_jet_back(Z, factors, (A2 @ W).reshape(S.shape))
    return A


def forward(spec, phi, stacks):
    """Propagate feature stacks through the perceptron as one tape node.

    ``phi`` is the flat parameter Var; ``stacks`` a tuple of
    :class:`FeatureStack` (n_k, C_k, w) from :meth:`RFFMap.features`,
    which cover the output rows end to end, in order.  Returns the node,
    a Var (N, C, 12) with C the largest C_k, whose Hessian channels are
    zero on the rows of an order-1 stack.  Each stack runs its own blocks
    of ``BLOCK_POINTS`` points at its order, forward and in the vjp, each
    block reading and writing a slice of rows.  Layer 0 of a block is one
    product of its feature values with the stack's folded weights
    (:meth:`FeatureStack.fold`); the vjp sums each stack's folded weight
    adjoint over its blocks and unfolds it once, and the other parameter
    adjoints are summed in block order.  Only a taped ``phi`` keeps what
    its vjp needs: per block and hidden layer, the pre-activation jet
    with the tanh values in its value channel; a constant ``phi`` (the
    export) keeps nothing.  When every stack spans a block, a row equals
    bit for bit that of an all-rows order-2 pass, and a loss reading
    Hessians of order-2 rows only has the same gradient.
    """
    if phi.data.shape != (spec.n_params,):
        raise ShapeMismatch(
            f"parameter vector has length {phi.data.size}, layout needs {spec.n_params}"
        )
    if any(stack.shape[-1] != spec.widths[0] for stack in stacks):
        widths = [stack.shape[-1] for stack in stacks]
        raise ShapeMismatch(f"feature widths {widths} != input width {spec.widths[0]}")
    n_channels = max(stack.shape[1] for stack in stacks)
    out = np.zeros((sum(len(stack) for stack in stacks), n_channels, N_OUTPUTS))
    slices = spec.layer_slices()
    layers = [(phi.data[ws].reshape(fo, fi), phi.data[bs]) for ws, bs, fi, fo in slices]
    keep = phi.node is not None
    saved = []  # (stack, first output row, (lo, hi, hidden Z) per block) per stack
    start = 0
    for stack in stacks:
        M = stack.fold(layers[0][0])
        blocks = []
        for lo, hi in row_blocks(len(stack), BLOCK_POINTS):
            Z = np.matmul(stack.values[lo:hi], M)
            Z[0] += layers[0][1]
            hidden = _block_forward(layers, Z, out, slice(start + lo, start + hi), keep)
            blocks.append((lo, hi, hidden))
        if keep:
            saved.append((stack, start, blocks))
        start += len(stack)

    def back(adj):
        grad = np.zeros(spec.n_params)
        grads = [(grad[ws].reshape(fo, fi), grad[bs]) for ws, bs, fi, fo in slices]
        dW, db = grads[0]
        for stack, start, blocks in saved:
            dM = 0.0  # the folded layer-0 weight adjoint, summed over blocks
            for lo, hi, hidden in blocks:
                dY = adj[start + lo:start + hi, :stack.shape[1]]
                A = _block_backward(layers, hidden, dY, grads)
                dM += stack.values[lo:hi].T @ A
                db += A[0].sum(axis=0)
            dW += stack.unfold(dM)
        return grad

    op = "mlp[val,grad,hess]" if n_channels > 4 else "mlp[val,grad]"
    return ad.record(op, out, (phi,), (back,))


def _head(y, scale):
    """Head fields off the perceptron node y (N, C, 12) as one tape node:
    the displacement jet y_u (N, 3), of order 2 when y carries the Hessian
    channels (C = 10) and of order 1 when it does not (C = 4), the stress
    P (N, 3, 3) and, at C = 10, its row divergence (N, 3) (else None),
    both times ``scale``.

    Each jet slot and P are their output columns at their channels,
    channels last; dP_ij/dX_j is channel 1 + j of column 3 + 3i + j, so
    div P sums three strided column sets.  The vjp writes the adjoints of
    the outputs read into one (N, C, 12) buffer and captures shapes only,
    so the tape does not keep y alive.
    """
    full = y.data.shape
    u = slice(0, 3)
    # (channels, columns, shape past N, factor) of u.val, u.grad, u.hess and P
    slots = [
        (slice(0, 1), u, (3,), 1.0),
        (slice(1, 4), u, (3, 3), 1.0),
        (slice(4, 10), u, (3, 6), 1.0),
        (slice(0, 1), slice(3, N_OUTPUTS), (3, 3), scale),
    ]
    first_order = full[1] == 4
    if first_order:
        del slots[2]
    div_cols = [(1 + j, slice(3 + j, N_OUTPUTS, 3)) for j in range(3)]

    def back(adjs):
        out = np.zeros(full)
        for (ch, cols, _, s), adj in zip(slots, adjs):
            if adj is not None:
                part = np.moveaxis(out[:, ch, cols], 1, -1)
                part[...] = adj.reshape(part.shape) * s
        if not first_order and adjs[-1] is not None:
            d = adjs[-1] * scale
            for ch, cols in div_cols:
                out[:, ch, cols] = d
        return out

    data = [
        np.multiply(np.moveaxis(y.data[:, ch, cols], 1, -1), s, order="C").reshape(full[:1] + shape)
        for ch, cols, shape, s in slots
    ]
    if not first_order:
        data.append(sum(y.data[:, ch, cols] for ch, cols in div_cols) * scale)
    heads = ad.record("mlp_head", tuple(data), (y,), (back,))
    if first_order:
        heads = heads[:2] + (None,) + heads[2:] + (None,)
    return ad.Jet(*heads[:3]), heads[3], heads[4]


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

    def __post_init__(self):
        if self.axis not in (0, 1, 2) or self.side not in ("lo", "hi") or any(
            i not in (0, 1, 2) for i in self.components
        ):
            raise ValueError(f"no such face or components: {self!r}")


@dataclass(frozen=True)
class BCEnforcer:
    """Distance-function composition u = A(X) + B(X) * y_u on the box
    [0, L1] x [0, L2] x [0, L3] of ``lengths``.

    ``lift_lin`` is the matrix G of the linear lift A(X) = G X, which
    matches the prescribed displacement on every constrained face.  The
    mask B vanishes (componentwise) exactly on the faces constraining that
    component and is a product of normalized face distances elsewhere.
    Only the displacement is composed; traction conditions on the stress
    are handled softly in the loss.

    :meth:`bc_jets` lays A and B out at a point set once, as plain arrays
    (constants with respect to the network weights), and :meth:`apply`
    composes a raw displacement jet with them.  A load stage scales the
    prescribed displacement by scaling the two lift arrays.
    """

    lengths: tuple
    faces: tuple
    lift_lin: tuple = ((0.0,) * 3,) * 3

    def bc_jets(self, X, order=2):
        """The composition data at points X (..., 3), cacheable per point
        set: the tuple ``(lift, lift_grad, mask, mask_grad, mask_hess,
        cross)`` of plain arrays.

        lift (..., 3) is A and lift_grad (3, 3) its gradient G; mask
        (..., 3), mask_grad (..., 3, 3) and the packed mask_hess (..., 3, 6)
        are B per component.  Each factor of B is a normalized face
        distance, linear in one coordinate, so the product rule needs no
        Hessian of the factor.  cross (..., 3, 6, 3) holds the coefficient
        of d y_i / dX_d in packed entry k of grad B_i (x) grad y_i +
        grad y_i (x) grad B_i, so that this term of the product rule is
        one contraction.  At order 1 mask_hess and cross are None.
        """
        X = np.asarray(X, dtype=np.float64)
        batch = X.shape[:-1]
        G = np.asarray(self.lift_lin, dtype=np.float64)
        lift = np.einsum("ij,...j->...i", G, X, optimize=True)
        val = np.ones(batch + (3,))
        grad = np.zeros(batch + (3, 3))
        hess = np.zeros(batch + (3, 6)) if order == 2 else None
        for f in self.faces:
            inv_len = 1.0 / self.lengths[f.axis]
            xi = X[..., f.axis] * inv_len
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
        if hess is None:
            return lift, G, val, grad, None, None
        cross = np.zeros(batch + (3, 6, 3))
        for k, (a, b) in enumerate(zip(ad.PACK_A, ad.PACK_B)):
            cross[..., k, b] += grad[..., a]
            cross[..., k, a] += grad[..., b]
        return lift, G, val, grad, hess, cross

    def apply(self, y_u, bc):
        """Displacement jet u = A + B y_u from the raw displacement jet and
        the arrays ``bc`` of :meth:`bc_jets`.

        Product rule, with A of zero Hessian; the lift gradient G (3, 3)
        broadcasts over the points.  u has the order of y_u (2 or 1);
        ``bc`` must carry at least that order.
        """
        lift, lift_grad, Bv, Bg, Bh, cross = bc
        val = ad.add(lift, ad.mul(y_u.val, Bv))
        grad = ad.add(
            lift_grad,
            ad.add(ad.mul(y_u.grad, Bv[..., None]), ad.scale(y_u.val, Bg)),
        )
        if y_u.hess is None:
            return ad.Jet(val, grad)
        hess = ad.add(
            ad.add(ad.mul(y_u.hess, Bv[..., None]), ad.scale(y_u.val, Bh)),
            ad.matvec(cross, y_u.grad),
        )
        return ad.Jet(val, grad, hess)


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
        """Head fields: the displacement jet y_u (N, 3), the scaled stress P
        (N, 3, 3) and, with a Hessian, its row divergence div P (N, 3)
        (else None), one head node off the perceptron node.

        ``features`` is the tuple of feature stacks for :func:`forward`,
        covering the rows of X in order; by default the features of X at
        ``order`` (2 or 1).  y_u is of order 2 when some stack carries a
        Hessian, else of order 1.
        """
        stacks = (self.rff.features(X, order),) if features is None else features
        return _head(forward(self.mlp, phi, stacks), self.stress_scale)

    def fields(self, phi, X, features=None, bc=None, order=2):
        """Displacement jet of ``order``, scaled stress P and its row
        divergence (None at order 1) at points X (N, 3).

        ``bc`` is the composition data of :meth:`BCEnforcer.bc_jets` at X;
        by default the network's enforcer lays it out at the order of y_u.
        With an order-2 stack followed by an order-1 one, u's Hessian is
        computed on the order-2 rows only and is zero on the rest.
        """
        y_u, P, div_P = self.raw_outputs(phi, X, features, order)
        if bc is None:
            bc = self.enforcer.bc_jets(X, 1 if y_u.hess is None else 2)
        return self.enforcer.apply(y_u, bc), P, div_P


def displacement_gradient(u):
    """First-order jet of grad u (..., 3, 3) from the displacement jet.

    Entry (i, j) carries value du_i/dX_j and gradient d2u_i/dX_j dX, read
    off the packed Hessian of u_i by one contraction with a one-hot array
    (third spatial derivatives are out of scope).  Without a Hessian slot
    the jet is values only.
    """
    if u.hess is None:
        return ad.Jet(u.grad)
    hess = ad.contract(_UNPACK_ONE_HOT, u.hess, (-1,), dest=u.hess.data.ndim - 1)
    return ad.Jet(u.grad, hess)
