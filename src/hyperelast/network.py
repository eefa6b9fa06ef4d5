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
or 4 without a Hessian).  For Fourier features every derivative channel
is the value row or its quarter turn (-sin, cos) times fixed frequency
factors, so :meth:`RFFMap.features` keeps only those two rows per point,
a :class:`FeatureStack` (n, 2, w) standing for the dense (n, C, w) stack.
The whole perceptron is one tape node that runs its forward pass and its
vjp over blocks of ``BLOCK_POINTS`` points, so every temporary stays
cache-sized and is reused instead of being allocated afresh.  Within a
block the jets are (C, b, w), built from the stack per block: an affine
layer is one matrix product with the bias on channel 0, and the tanh
rules scale whole contiguous channels by per-unit factors.  For its vjp
a taped node keeps, per block and hidden layer, only the pre-activation
jet Z and the unit values t = tanh(Z[0]): C + 1 channels, where Z and
the tanh jet T would take 2C.  The vjp rebuilds each T from them once
per sweep, by the forward's own elementwise rules, and a block's input
jets once more when it reaches layer 0, so the gradient is unchanged
bit for bit.

The node's output (N, C, 12) is read by one head node with one output
per head field: the displacement jet u (N, 3) with gradient (N, 3, 3)
and packed Hessian (N, 3, 6), the stress P (N, 3, 3) and its row
divergence div P (N, 3), the only derivative of the stress the loss
reads, the stress scale folded into both.  Its vjp fills one (N, C, 12)
adjoint.  Training asks for u at order 2, sampling at order 1, where
every stage passes a None Hessian slot through and the head emits no
divergence; the head reads the order off the node's channel count.

Training feeds two stacks, order 2 at the interior points and order 1
elsewhere.  Contract: u's Hessian is computed at interior rows only and
is zero elsewhere, so the displacement branch's div P is meaningless at
the other rows.  Only the strong-form residuals read the divergences,
through the interior ``take`` in ``losses.mse_interior``, so the skipped
channels' adjoint is exactly zero and the gradient is unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch

N_OUTPUTS = 12  # 3 displacement + 9 stress components
HEAD_SCALE = 0.01  # factor on the output layer's initial weight bound
# points per block of the perceptron node: a block's (10, 128, 64) jets
# take 0.66 MB, so a layer's temporaries fit in L2 and are reused from
# block to block.  One default-cantilever evaluation (25x9x9 points,
# (64, 64, 64) network, one core) took 157 / 149 / 170 / 188 ms with
# blocks of 64 / 128 / 256 / 512 points.
BLOCK_POINTS = 128


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
        c, s = np.cos(w), np.sin(w)
        # the value row and its quarter turn (-sin, cos), interleaved once
        rows = np.empty((len(X), 2, 2 * self.m))
        val, turn = rows[:, 0], rows[:, 1]
        val[:, 0::2] = c
        val[:, 1::2] = s
        np.negative(s, out=turn[:, 0::2])
        turn[:, 1::2] = c
        hess = None
        if order == 2:
            hess = np.repeat((W[:, ad.PACK_A] * W[:, ad.PACK_B]).T, 2, axis=-1)  # (6, 2m)
        return FeatureStack(rows, np.repeat(W.T, 2, axis=-1), hess)


@dataclass(frozen=True, eq=False)
class FeatureStack:
    """Fourier features of n points, kept as the rows that every channel
    is a multiple of.

    ``rows`` (n, 2, w) holds per point the value row and its quarter turn;
    the gradient channel d is the turn times ``grad[d]`` and the packed
    Hessian channel k minus the values times ``hess[k]``, the frequency
    factors (3, w) and (6, w) repeated per cos/sin pair (``hess`` is None
    at order 1).  ``shape`` and ``len`` are those of the dense stack
    (n, C, w) it stands for; :meth:`jets` builds a block of it.
    """

    rows: np.ndarray
    grad: np.ndarray
    hess: np.ndarray = None

    @property
    def shape(self):
        return (len(self.rows), 4 if self.hess is None else 10, self.rows.shape[-1])

    def __len__(self):
        return len(self.rows)

    def jets(self, lo=0, hi=None, buf=None):
        """The channel-major jets (C, b, w) of rows lo:hi, each channel
        block one product of a row with its factors; written to the front
        of the flat array ``buf`` when one is given."""
        val, turn = self.rows[lo:hi, 0], self.rows[lo:hi, 1]
        shape = (self.shape[1],) + val.shape
        S = np.empty(shape) if buf is None else buf[:np.prod(shape)].reshape(shape)
        S[0] = val
        np.multiply(turn, self.grad[:, None, :], out=S[1:4])
        if self.hess is not None:
            np.multiply(np.negative(val), self.hess[:, None, :], out=S[4:])
        return S


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


def _tanh_jet_back(Z, t, factors, dT):
    """Adjoint of the tanh jet's input Z from that of its output, given
    t = tanh(Z[0]) and the ``factors`` of :func:`_tanh_jet`, whose packed
    square it overwrites.

    Closed forms in t1, t2 and t3 = t2' = t1 (6 t^2 - 2); the adjoint of
    the packed products G[A] G[B] is written into the gradient channels,
    where a diagonal product G_d G_d counts twice in row d and an
    off-diagonal one once in each of its two rows.
    """
    t1, t2, prod = factors
    G, dG = Z[1:4], dT[1:4]
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


def _block_forward(layers, S, out, rows, keep):
    """One block of channel-major input jets S (C, b, i) through every
    layer into rows ``rows`` (a slice or an index array) of ``out``
    (N, >= C, 12).

    With ``keep``, returns per hidden layer its pre-activation jet Z and
    t = tanh(Z[0]) (b, o), all the vjp needs besides the block's input;
    the tanh jet T itself feeds the next layer's product and is dropped.
    Without, keeps nothing.
    """
    hidden = []
    for W, bias in layers[:-1]:
        Z = np.matmul(S, W.T)
        Z[0] += bias
        S = np.empty_like(Z)
        t = np.tanh(Z[0], out=S[0])
        _tanh_jet(Z, t, S)
        if keep:
            hidden.append((Z, t.copy()))
    W, bias = layers[-1]
    Y = np.matmul(S, W.T)
    Y[0] += bias
    out[rows, :Y.shape[0]] = Y.transpose(1, 0, 2)
    return hidden


def _block_backward(layers, inputs, hidden, dY, grads):
    """Add one block's parameter adjoints into ``grads`` ((dW, db) views),
    given ``inputs``, which builds the block's input jets (C, b, i) when
    called, the ``hidden`` (Z, t) pairs of :func:`_block_forward` and the
    adjoint dY (b, C, 12) of its output.

    Each hidden layer's tanh jet is rebuilt once, as the input of the next
    layer's weight adjoint, and its factors serve the layer's tanh rule;
    the input jets are built only for layer 0's weight adjoint.  Nothing
    saved is written to, so the tape can be swept again.
    """
    dY = dY.transpose(1, 0, 2)
    factors = None
    for li in range(len(layers) - 1, -1, -1):
        W = layers[li][0]
        A = dY if li == len(hidden) else _tanh_jet_back(*hidden[li], factors, dY)
        if li > 0:
            Z, t = hidden[li - 1]
            S = np.empty_like(Z)
            S[0] = t
            factors = _tanh_jet(Z, t, S)
        else:
            S = inputs()
        A2 = A.reshape(-1, W.shape[0])
        dW, db = grads[li]
        dW += A2.T @ S.reshape(-1, W.shape[1])
        db += A[0].sum(axis=0)
        if li > 0:  # the features are constants
            dY = (A2 @ W).reshape(S.shape)


def forward(spec, phi, stacks, rows=None):
    """Propagate feature stacks through the perceptron as one tape node.

    ``phi`` is the flat parameter Var; ``stacks`` a tuple of
    :class:`FeatureStack` (n_k, C_k, w) from :meth:`RFFMap.features` and
    ``rows`` the output row indices of each; by default one stack covers
    every row in order.  Returns the node, a Var (N, C, 12) with C the
    largest C_k, whose Hessian channels are zero on the rows of an order-1
    stack.  Each stack runs its own blocks of ``BLOCK_POINTS`` points at
    its order, forward and in the vjp, and the blocks' parameter adjoints
    are summed in block order.  A block's channel-major input jets are
    built from its stack in the forward pass, into one buffer per stack,
    and again when the vjp reaches layer 0.  Only a taped ``phi`` keeps what its vjp needs: per
    block and hidden layer, the pre-activation jet and the tanh values; a
    constant ``phi`` (the export) keeps nothing.  When every stack spans a
    block, a row equals bit for bit that of an all-rows order-2 pass, and
    a loss reading Hessians of order-2 rows only has the same gradient.
    """
    if phi.data.shape != (spec.n_params,):
        raise ShapeMismatch(
            f"parameter vector has length {phi.data.size}, layout needs {spec.n_params}"
        )
    rows = (None,) if rows is None else rows
    if len(rows) != len(stacks):
        raise ShapeMismatch(f"{len(stacks)} feature stacks for {len(rows)} row sets")
    if any(stack.shape[-1] != spec.widths[0] for stack in stacks):
        widths = [stack.shape[-1] for stack in stacks]
        raise ShapeMismatch(f"feature widths {widths} != input width {spec.widths[0]}")
    n_channels = max(stack.shape[1] for stack in stacks)
    out = np.zeros((sum(len(stack) for stack in stacks), n_channels, N_OUTPUTS))
    slices = spec.layer_slices()
    layers = [(phi.data[ws].reshape(fo, fi), phi.data[bs]) for ws, bs, fi, fo in slices]
    keep = phi.node is not None
    saved = []  # (output rows, channels, input builder, hidden (Z, t)) per block
    for set_rows, stack in zip(rows, stacks):
        C = stack.shape[1]
        blocks = row_blocks(len(stack), BLOCK_POINTS)
        # one buffer for the input jets of every block of the stack: a
        # fresh array per block is often page-faulted in afresh (a seed-0
        # lp_curriculum_export solve, one BLAS thread: 112k minor faults,
        # 87k with the buffer)
        buf = np.empty(C * max(hi - lo for lo, hi in blocks) * stack.shape[2])
        for lo, hi in blocks:
            sel = slice(lo, hi) if set_rows is None else set_rows[lo:hi]
            hidden = _block_forward(layers, stack.jets(lo, hi, buf), out, sel, keep)
            if keep:
                saved.append((sel, C, functools.partial(stack.jets, lo, hi), hidden))

    def back(adj):
        grad = np.zeros(spec.n_params)
        grads = [(grad[ws].reshape(fo, fi), grad[bs]) for ws, bs, fi, fo in slices]
        for sel, C, inputs, hidden in saved:
            _block_backward(layers, inputs, hidden, adj[sel, :C], grads)
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

        ``features`` is a (stacks, rows) pair for :func:`forward`; by
        default the features of X at ``order`` (2 or 1).  y_u is of order 2
        when some stack carries a Hessian, else of order 1.
        """
        stacks, rows = ((self.rff.features(X, order),), None) if features is None else features
        return _head(forward(self.mlp, phi, stacks, rows), self.stress_scale)

    def fields(self, phi, X, features=None, bc=None, order=2):
        """Displacement jet of ``order``, scaled stress P and its row
        divergence (None at order 1) at points X (N, 3).

        ``bc`` is the composition data of :meth:`BCEnforcer.bc_jets` at X;
        by default the network's enforcer lays it out at the order of y_u.
        With features whose stacks are of order 2 on some rows and order 1
        on the rest, u's Hessian is computed on the order-2 rows only and
        is zero elsewhere.
        """
        y_u, P, div_P = self.raw_outputs(phi, X, features, order)
        if bc is None:
            bc = self.enforcer.bc_jets(X, 1 if y_u.hess is None else 2)
        return self.enforcer.apply(y_u, bc), P, div_P


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
