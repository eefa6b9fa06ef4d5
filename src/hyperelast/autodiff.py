"""Nested automatic differentiation engine.

Two layers cooperate here:

* a reverse-mode tape over numpy arrays (:class:`Tape`, :class:`Var`),
  which makes any scalar built from recorded operations differentiable
  with respect to the flat parameter vector, and
* forward-propagated spatial jets (:class:`Jet`), which carry the value,
  gradient and packed Hessian of a whole batched field (every point and
  every component at once) with respect to the three material
  coordinates.

Jet slots are tape variables and every propagation rule is built from
tape primitives, so spatial derivatives of network outputs remain
differentiable in the network parameters (forward over reverse).

Batching convention: all arrays may carry an arbitrary leading batch
shape (usually the collocation points); the spatial axes of a jet are
trailing.  Reductions use numpy's fixed summation order, so repeated
evaluations are bitwise reproducible.

Memory invariant: a vjp closure captures arrays and shapes, never a
:class:`Var`.  A Var references its tape, so a closure holding one would
make the tape cyclic and keep it (and every forward array it pins) alive
until Python's cyclic collector runs; without such cycles a tape is freed
by reference counting as soon as its evaluation ends.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EmptyTape, InvertedState

DET_FLOOR = 1e-12  # det F at or below this raises InvertedState


class Node:
    """One recorded operation: identifier and backward rules.

    ``edges`` holds (node id, output index, callable producing the adjoint
    contribution) per differentiable parent; constant parents carry no
    edge.  ``outputs`` is the number of outputs of a node recorded with a
    tuple, None for a single-array node (output index None).
    """

    __slots__ = ("op", "edges", "outputs")

    def __init__(self, op, edges, outputs=None):
        self.op = op
        self.edges = edges
        self.outputs = outputs


class Tape:
    """Append-only DAG of operations in topological (creation) order."""

    def __init__(self):
        self.nodes = []

    def __len__(self):
        return len(self.nodes)

    def input(self, data):
        """Register a differentiation root (e.g. the flat parameter vector)."""
        data = np.asarray(data, dtype=np.float64)
        var = Var(self, data, len(self.nodes))
        self.nodes.append(Node("input", ()))
        return var


class Var:
    """Array-valued variable, optionally tracked on a tape.

    ``node`` is None for constants; operations whose operands are all
    constant produce constants and leave the tape untouched.  ``out`` is
    the output index within a node with several outputs, else None.
    """

    __slots__ = ("tape", "data", "node", "out")

    def __init__(self, tape, data, node=None, out=None):
        self.tape = tape
        self.data = np.asarray(data, dtype=np.float64)
        self.node = node
        self.out = out

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = "const" if self.node is None else f"node {self.node}"
        return f"Var({tag}, shape={self.data.shape})"


def constant(value):
    if isinstance(value, Var):
        return value
    return Var(None, np.asarray(value, dtype=np.float64))


def _coerce(a, b):
    return constant(a), constant(b)


def record(op, out_data, operands, vjps):
    """Record ``op`` unless every operand is constant.

    ``vjps`` maps operand position -> callable(adjoint) -> contribution;
    only edges to differentiable parents are kept.  The callables must not
    capture a Var (see the module docstring).  Given a tuple of arrays,
    ``out_data`` makes one node with one output Var per array, returned as
    a tuple; its callables then take the tuple of the outputs' adjoints,
    None for an output nothing read.
    """
    several = isinstance(out_data, tuple)
    tape = next((v.tape for v in operands if v.node is not None), None)
    if tape is None:
        return tuple(Var(None, d) for d in out_data) if several else Var(None, out_data)
    edges = tuple(
        (v.node, v.out, vjps[i]) for i, v in enumerate(operands) if v.node is not None
    )
    nid = len(tape.nodes)
    tape.nodes.append(Node(op, edges, len(out_data) if several else None))
    if several:
        return tuple(Var(tape, d, nid, k) for k, d in enumerate(out_data))
    return Var(tape, out_data, nid)


def _unbroadcast(adj, shape):
    """Sum an adjoint back down to the shape of a broadcast operand."""
    if adj.shape == shape:
        return adj
    extra = adj.ndim - len(shape)
    if extra > 0:
        adj = adj.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and adj.shape[i] != 1)
    if axes:
        adj = adj.sum(axis=axes, keepdims=True)
    return adj


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def add(a, b):
    a, b = _coerce(a, b)
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape
    return record(
        "add",
        out,
        (a, b),
        (lambda adj: _unbroadcast(adj, sa), lambda adj: _unbroadcast(adj, sb)),
    )


def sub(a, b):
    a, b = _coerce(a, b)
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape
    return record(
        "sub",
        out,
        (a, b),
        (lambda adj: _unbroadcast(adj, sa), lambda adj: _unbroadcast(-adj, sb)),
    )


def mul(a, b):
    a, b = _coerce(a, b)
    out = a.data * b.data
    ad, bd = a.data, b.data
    return record(
        "mul",
        out,
        (a, b),
        (
            lambda adj: _unbroadcast(adj * bd, ad.shape),
            lambda adj: _unbroadcast(adj * ad, bd.shape),
        ),
    )


def div(a, b):
    a, b = _coerce(a, b)
    out = a.data / b.data
    ad, bd = a.data, b.data
    return record(
        "div",
        out,
        (a, b),
        (
            lambda adj: _unbroadcast(adj / bd, ad.shape),
            lambda adj: _unbroadcast(-adj * ad / (bd * bd), bd.shape),
        ),
    )


def tanh(a):
    a = constant(a)
    t = np.tanh(a.data)
    return record("tanh", t, (a,), (lambda adj: adj * (1.0 - t * t),))


def log(a):
    a = constant(a)
    if np.min(a.data) <= 0.0:
        raise DomainError(f"log of non-positive value (min = {np.min(a.data):g})")
    ad = a.data
    return record("log", np.log(ad), (a,), (lambda adj: adj / ad,))


def reshape(a, shape):
    a = constant(a)
    old = a.data.shape
    return record("reshape", a.data.reshape(shape), (a,), (lambda adj: adj.reshape(old),))


def take(a, indices, axis=0):
    """Select along one axis by a 1-D index array.

    Duplicate-free indices scatter directly in the backward pass;
    duplicated ones (unpacking a symmetric Hessian) contract with a
    one-hot matrix.
    """
    a = constant(a)
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ValueError("take needs a 1-D index array")
    out = np.take(a.data, idx, axis=axis)
    shape = a.data.shape
    ax = axis % a.data.ndim
    if idx.size == np.unique(idx).size:

        def back(adj):
            full = np.zeros(shape)
            np.moveaxis(full, ax, 0)[idx] = np.moveaxis(adj, ax, 0)
            return full

    else:
        onehot = np.zeros((idx.size, shape[ax]))
        onehot[np.arange(idx.size), idx] = 1.0

        def back(adj):
            return np.moveaxis(np.tensordot(adj, onehot, axes=([ax], [0])), -1, ax)

    return record("take", out, (a,), (back,))


# ---------------------------------------------------------------------------
# contraction kernels
# ---------------------------------------------------------------------------
#
# Every contraction of the evaluation path is one of the kernels below.
# Each forward pass and vjp is one np.matmul or np.multiply on views whose
# shapes follow from the operands; leading batch axes are fused into one.
# The layouts are those numpy's einsum (2.4, optimize=True) builds for the
# contraction quoted in each docstring -- the second operand on the left of
# the matmul, the same axes fused and copied -- so the results equal it bit
# for bit without parsing a subscript string on every call.


def _contraction(op, a, b, out, back_a, back_b):
    """Record a two-operand kernel; back_x(adj, other operand's array)."""
    ad_, bd = a.data, b.data
    return record(
        op, out, (a, b), (lambda adj: back_a(adj, bd), lambda adj: back_b(adj, ad_))
    )


def scale(s, m):
    """s times m, with s broadcast over the trailing axes of m
    ('...,...ij->...ij')."""
    s, m = _coerce(s, m)
    sd = s.data
    s_b = sd.reshape(sd.shape + (1,) * (m.data.ndim - sd.ndim))
    k = math.prod(m.data.shape[sd.ndim:])
    return _contraction(
        "scale", s, m, np.multiply(m.data, s_b),
        lambda adj, md: np.matmul(md.reshape(-1, 1, k), adj.reshape(-1, k, 1)).reshape(sd.shape),
        lambda adj, _: np.multiply(s_b, adj),
    )


def outer(m, v):
    """Per-point outer product, v's last axis appended to m's axes
    ('...ij,...k->...ijk')."""
    m, v = _coerce(m, v)
    md, vd = m.data, v.data
    nb, q = vd.ndim - 1, vd.shape[-1]
    k = math.prod(md.shape[nb:])
    out = np.multiply(vd.reshape(vd.shape[:-1] + (1,) * (md.ndim - nb) + (q,)), md[..., None])
    return _contraction(
        "outer", m, v, out,
        lambda adj, vd: np.matmul(
            vd.reshape(-1, 1, q), np.moveaxis(adj, -1, nb).reshape(-1, q, k)
        ).reshape(md.shape),
        lambda adj, md: np.matmul(md.reshape(-1, 1, k), adj.reshape(-1, k, q)).reshape(vd.shape),
    )


def inner(a, b, batch_ndim=0):
    """Sum of a * b over every axis past the first ``batch_ndim``
    ('...ij,...ij->...'; 'n,n->' at batch_ndim 0)."""
    a, b = _coerce(a, b)
    ad_, bd = a.data, b.data
    batch = ad_.shape[:batch_ndim]
    lead = (-1,) if batch_ndim else ()
    k = math.prod(ad_.shape[batch_ndim:])
    out = np.matmul(bd.reshape(lead + (1, k)), ad_.reshape(lead + (k, 1))).reshape(batch)
    spread = batch + (1,) * (ad_.ndim - batch_ndim)
    return _contraction(
        "inner", a, b, out,
        lambda adj, bd: np.multiply(bd, adj.reshape(spread)),
        lambda adj, ad_: np.multiply(ad_, adj.reshape(spread)),
    )


def matvec(m, v):
    """Per-point matrix-vector product m v ('...kd,...d->...k')."""
    m, v = _coerce(m, v)
    md, vd = m.data, v.data
    batch, (k, d) = vd.shape[:-1], md.shape[-2:]
    out = np.matmul(md.reshape(-1, k, d), vd.reshape(-1, d, 1)).reshape(batch + (k,))
    return _contraction(
        "matvec", m, v, out,
        lambda adj, vd: np.multiply(vd.reshape(batch + (1, d)), adj.reshape(batch + (k, 1))),
        lambda adj, md: np.matmul(
            np.swapaxes(md, -1, -2).reshape(-1, d, k), adj.reshape(-1, k, 1)
        ).reshape(vd.shape),
    )


def vecmat(v, m, batch_ndim):
    """Per-point product of v's axes past ``batch_ndim`` with the leading
    non-batch axes of m ('...ij,...ijk->...k')."""
    v, m = _coerce(v, m)
    vd, md = v.data, m.data
    batch, q = vd.shape[:batch_ndim], md.shape[-1]
    k = math.prod(vd.shape[batch_ndim:])
    out = np.matmul(
        np.moveaxis(md, -1, batch_ndim).reshape(-1, q, k), vd.reshape(-1, k, 1)
    ).reshape(batch + (q,))
    spread = batch + (1,) * (vd.ndim - batch_ndim) + (q,)
    return _contraction(
        "vecmat", v, m, out,
        lambda adj, md: np.matmul(md.reshape(-1, k, q), adj.reshape(-1, q, 1)).reshape(vd.shape),
        lambda adj, vd: np.multiply(vd[..., None], adj.reshape(spread)),
    )


def contract(w, a, axes, dest=0):
    """Contract ``axes`` of a (increasing) with the trailing axes of w.

    The output holds a's remaining axes in order, with w's leading axes
    inserted at position ``dest``: 'nij,fj->nfi' is
    contract(normals, P, (2,), dest=1) and 'r...,r->...' is
    contract(coeffs, powers, (0,)).
    """
    w, a = _coerce(w, a)
    wd, ad_ = w.data, a.data
    axes = tuple(ax % ad_.ndim for ax in axes)
    if wd.shape[wd.ndim - len(axes):] != tuple(ad_.shape[ax] for ax in axes):
        raise ValueError(f"contract: w {wd.shape} does not match axes {axes} of {ad_.shape}")
    rest = tuple(i for i in range(ad_.ndim) if i not in axes)
    perm = axes + rest
    k = math.prod(wd.shape[wd.ndim - len(axes):])
    free = wd.shape[: wd.ndim - len(axes)]
    lands = tuple(range(dest, dest + len(free)))
    rest_shape = tuple(ad_.shape[i] for i in rest)
    a_mat = ad_.transpose(perm).reshape(k, -1)
    out = np.matmul(wd.reshape(-1, k), a_mat).reshape(free + rest_shape)
    out = np.moveaxis(out, tuple(range(len(free))), lands)

    def adj_rows(adj):
        return np.moveaxis(adj, lands, tuple(range(len(free)))).reshape(-1, a_mat.shape[1])

    if free:
        def back_a(adj, wd):
            return np.matmul(wd.reshape(-1, k).T, adj_rows(adj)).reshape(
                tuple(ad_.shape[i] for i in perm)
            ).transpose(np.argsort(perm))
    else:
        a_spread = tuple(1 if i in axes else n for i, n in enumerate(ad_.shape))
        w_spread = tuple(n if i in axes else 1 for i, n in enumerate(ad_.shape))

        def back_a(adj, wd):
            return np.multiply(wd.reshape(w_spread), adj.reshape(a_spread))

    return _contraction(
        "contract", w, a, out,
        lambda adj, _: np.matmul(adj_rows(adj), a_mat.T).reshape(wd.shape),
        back_a,
    )


def pow_(a, p):
    """Power with a constant exponent array ``p``, broadcast against ``a``.

    Non-integer exponents require a positive base.
    """
    a = constant(a)
    p = np.asarray(p, dtype=np.float64)
    if np.any(p != np.round(p)) and np.min(a.data) <= 0.0:
        raise DomainError(
            f"non-integer power of non-positive base (min = {np.min(a.data):g})"
        )
    ad_ = a.data
    return record(
        "pow",
        np.power(ad_, p),
        (a,),
        (lambda adj: _unbroadcast(adj * p * np.power(ad_, p - 1.0), ad_.shape),),
    )


def stack(operands):
    """Stack equally-shaped operands along a new leading axis."""
    operands = [constant(v) for v in operands]
    out = np.stack([v.data for v in operands])
    vjps = tuple((lambda adj, i=i: adj[i]) for i in range(len(operands)))
    return record("stack", out, tuple(operands), vjps)


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _cofactor3(m):
    """Cofactor matrices of a batch of 3x3 matrices (..., 3, 3): row i is
    the cross product of rows i+1 and i+2, a_j b_k - a_k b_j (cyclic
    j, k after i), all three rows at once; C-ordered like m."""
    a, b = m[..., _NEXT, :], m[..., _PREV, :]
    return np.subtract(
        a[..., _NEXT] * b[..., _PREV], a[..., _PREV] * b[..., _NEXT], out=np.empty(m.shape)
    )


def _det3(m, cof):
    # expansion along the first row
    row, c = m[..., 0, :], cof[..., 0, :]
    return (row[..., 0] * c[..., 0] + row[..., 1] * c[..., 1]) + row[..., 2] * c[..., 2]


def det_inv_t3(a):
    """Determinant J and inverse transpose A^{-T} = cof(A) / J of 3x3
    matrices (..., 3, 3), from one cofactor pass.

    Raises InvertedState where J is at or below ``DET_FLOOR``, naming the
    index of the smallest J.  J and A^{-T} are two nodes, recorded in that
    order (d det / dA = cof(A); the vjp of A^{-T} is -A^{-T} adj^T A^{-T}),
    so A's adjoint receives their contributions one addition at a time.
    """
    a = constant(a)
    cof = _cofactor3(a.data)
    det = _det3(a.data, cof)
    flat = np.atleast_1d(det)
    if np.min(flat) <= DET_FLOOR:
        idx = int(np.argmin(flat))
        raise InvertedState(f"det F = {flat[idx]:.3e} <= {DET_FLOOR:g}", point_index=idx)
    inv_t = cof * (1.0 / flat).reshape(np.shape(a.data)[:-2] + (1, 1))
    J = record("det3", det, (a,), (lambda adj: adj[..., None, None] * cof,))
    return J, record(
        "inv_t3", inv_t, (a,), (lambda adj: -(inv_t @ np.swapaxes(adj, -1, -2) @ inv_t),)
    )


def inv_t3_grad(g, dA):
    """Spatial gradient of A^{-T} from G = A^{-T} (..., 3, 3) and the
    gradient dA (..., 3, 3, 3), derivative axis last: -G_cb dA_cdk G_ad,
    as the two contractions '...cdk,...ad->...cak' and
    '...cak,...cb->...abk' (two tape nodes, the sign folded into the
    second)."""
    g, dA = _coerce(g, dA)
    gd, shape = g.data, dA.data.shape

    def times(m, x_rows):  # m (..., 3, 3) @ x_rows (..., 3, 9) as (..., 3, 3, 3)
        return np.matmul(m.reshape(-1, 3, 3), x_rows).reshape(shape)

    def rows(x):  # (..., c, d, k) -> (..., d, ck)
        return np.swapaxes(x, -3, -2).reshape(-1, 3, 9)

    def cols(x):  # (..., c, a, k) -> (..., ck, a)
        return np.swapaxes(x, -1, -2).reshape(-1, 9, 3)

    gt = np.swapaxes(gd, -1, -2)
    dA_rows = rows(dA.data)
    t = np.swapaxes(times(gd, dA_rows), -3, -2)
    t_rows = t.reshape(-1, 3, 9)
    half = _contraction(
        "inv_t3_grad", dA, g, t,
        lambda adj, _: np.swapaxes(times(gt, rows(adj)), -3, -2),
        lambda adj, _: np.swapaxes(np.matmul(dA_rows, cols(adj)), -1, -2).reshape(gd.shape),
    )
    return _contraction(
        "inv_t3_grad", half, g, np.negative(np.swapaxes(times(gt, t_rows), -3, -2)),
        lambda adj, _: times(gd, rows(np.negative(adj))),
        lambda adj, _: np.matmul(t_rows, cols(np.negative(adj))).reshape(gd.shape),
    )


# ---------------------------------------------------------------------------
# reverse sweep
# ---------------------------------------------------------------------------


def reverse_gradient(loss, wrt):
    """Gradient of a recorded scalar with respect to an input Var.

    Nodes are visited from ``loss`` back to ``wrt``; each node's adjoint is
    released as soon as its vjps have consumed it, so at most the adjoints
    of the nodes still waiting for contributions are alive at once.  The
    tape is read-only during the sweep; calling this twice gives
    bitwise-identical results.
    """
    if wrt.tape is None or wrt.node is None:
        raise ValueError("wrt must be a tape input")
    tape = wrt.tape
    if len(tape.nodes) == 0:
        raise EmptyTape("no operations recorded")
    if loss.node is None:
        # scalar constant: no dependence on any input
        return np.zeros_like(wrt.data)
    if np.ndim(loss.data) != 0:
        raise ValueError("loss must be scalar")

    if wrt.node > loss.node:
        return np.zeros_like(wrt.data)
    # adjoint arrays are never mutated in place, so contributions may be
    # stored by reference on first touch; a node with several outputs
    # holds a list of per-output adjoints
    adjoints = [None] * (loss.node + 1)
    nodes = tape.nodes

    def accumulate(node, out, contrib):
        held, i = adjoints, node
        if out is not None:
            held, i = adjoints[node] or [None] * nodes[node].outputs, out
            adjoints[node] = held
        held[i] = contrib if held[i] is None else held[i] + contrib

    accumulate(loss.node, loss.out, np.ones(()))
    # nodes recorded before wrt cannot contribute to its adjoint
    for nid in range(loss.node, wrt.node, -1):
        adj = adjoints[nid]
        if adj is None:
            continue
        adjoints[nid] = None
        if nodes[nid].outputs is not None:
            adj = tuple(adj)
        for parent, out, vjp in nodes[nid].edges:
            accumulate(parent, out, vjp(adj))
    grad = adjoints[wrt.node]
    if grad is None:
        return np.zeros_like(wrt.data)
    return np.broadcast_to(grad, wrt.data.shape).astype(np.float64)


# ---------------------------------------------------------------------------
# spatial jets
# ---------------------------------------------------------------------------

# symmetric Hessians are stored packed as their six unique entries
# (00, 01, 02, 11, 12, 22); PACK_A/PACK_B give the two axes of each entry
# and UNPACK maps the row-major 3x3 entries back to the packed ones
PACK_A = np.array([0, 0, 0, 1, 1, 2])
PACK_B = np.array([0, 1, 2, 1, 2, 2])
UNPACK = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


class Jet:
    """Value, spatial gradient and packed spatial Hessian of a field.

    ``val`` has shape (..., *comp), ``grad`` (..., *comp, 3) and ``hess``
    (..., *comp, 6), derivatives being taken with respect to the three
    material coordinates.  ``hess`` (or both) may be None, truncating the
    jet at that order.  Every slot is a Var, so the jet stays
    differentiable in the network parameters.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad=None, hess=None):
        self.val = val
        self.grad = grad
        self.hess = hess

# ---------------------------------------------------------------------------
# finite-difference verification harness
# ---------------------------------------------------------------------------


def fd_check(f, x, analytic, h=1e-6, floor=1e-12):
    """Max relative deviation of an analytic gradient from central differences.

    ``f`` maps an array to a float; ``analytic`` is the gradient array at
    ``x`` (or a callable producing it).  Each component error is scaled by
    max(|analytic component|, floor).
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(analytic(x) if callable(analytic) else analytic, dtype=np.float64)
    if g.shape != x.shape:
        raise ValueError(f"gradient shape {g.shape} != point shape {x.shape}")
    worst = 0.0
    flat_x = x.ravel()
    flat_g = g.ravel()
    for i in range(flat_x.size):
        xp = flat_x.copy()
        xm = flat_x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * h)
        err = abs(flat_g[i] - fd) / max(abs(flat_g[i]), floor)
        worst = max(worst, err)
    return worst
