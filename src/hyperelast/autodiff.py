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

Memory invariant: a vjp closure captures only the arrays its rule reads,
plus shapes, and never a :class:`Var`.  For a product or an elementwise
op that is the other operand's array, never the operand's own (only the
divisor's rule of ``div`` reads both), so a taped array times a constant
is freed as soon as nothing else holds it.  A Var references its tape, so
a closure holding one would make the tape cyclic and keep it (and every
forward array it pins) alive until Python's cyclic collector runs;
without such cycles a tape is freed by reference counting as soon as its
evaluation ends.
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


def _elementwise(op, a, b, out, back_a, back_b):
    """Record a broadcast elementwise op; back_x(adj) is x's adjoint
    before it is summed back down to x's shape."""
    sa, sb = a.data.shape, b.data.shape
    return record(
        op, out, (a, b),
        (lambda adj: _unbroadcast(back_a(adj), sa), lambda adj: _unbroadcast(back_b(adj), sb)),
    )


def _same(adj):
    return adj


def add(a, b):
    a, b = _coerce(a, b)
    return _elementwise("add", a, b, a.data + b.data, _same, _same)


def sub(a, b):
    a, b = _coerce(a, b)
    return _elementwise("sub", a, b, a.data - b.data, _same, np.negative)


def mul(a, b):
    a, b = _coerce(a, b)
    ad_, bd = a.data, b.data
    return _elementwise("mul", a, b, ad_ * bd, lambda adj: adj * bd, lambda adj: adj * ad_)


def div(a, b):
    a, b = _coerce(a, b)
    ad_, bd = a.data, b.data
    return _elementwise(
        "div", a, b, ad_ / bd, lambda adj: adj / bd, lambda adj: -adj * ad_ / (bd * bd)
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
    """Select along one axis by a 1-D index array; the vjp adds each
    selected entry's adjoint back in, so duplicated indices sum theirs.
    No evaluation records it: it is the gather that the tests' reference
    networks are built from."""
    a = constant(a)
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ValueError("take needs a 1-D index array")
    shape = a.data.shape
    ax = axis % a.data.ndim

    def back(adj):
        full = np.zeros(shape)
        np.add.at(np.moveaxis(full, ax, 0), idx, np.moveaxis(adj, ax, 0))
        return full

    return record("take", np.take(a.data, idx, axis=axis), (a,), (back,))


# ---------------------------------------------------------------------------
# contraction kernels
# ---------------------------------------------------------------------------
#
# Every contraction of the evaluation path is one of the kernels below,
# and each is one batched matrix product C = A B of views of its operands
# (leading batch axes fused into one), recorded by _matmul with the
# product rule's vjps A-bar = C-bar B^T and B-bar = A^T C-bar.


def _product(x, y):
    """x @ y; with an inner dimension of 1 (an outer product) the
    broadcast multiply, which forms each entry by the same one product."""
    return np.multiply(x, y) if x.shape[-1] == 1 else np.matmul(x, y)


def _matmul(op, a, b, A, B, shape, out=None, b_back=None):
    """Record op(a, b) = A @ B reshaped to ``shape``, A and B being
    matrix views of a's and b's arrays.

    ``out`` = (source, destination) moves the product's leading axes;
    ``b_back`` maps b's matrix adjoint A^T adj back to b's axis order.
    """
    prod = _product(A, B)
    pshape, res = prod.shape, prod.reshape(shape)
    res = res if out is None else np.moveaxis(res, *out)
    sa, sb = a.data.shape, b.data.shape
    At, Bt = np.swapaxes(A, -1, -2), np.swapaxes(B, -1, -2)

    def unmove(adj):
        return (adj if out is None else np.moveaxis(adj, out[1], out[0])).reshape(pshape)

    def back_b(adj):
        g = _product(At, unmove(adj))
        return (g if b_back is None else b_back(g)).reshape(sb)

    return record(op, res, (a, b), (lambda adj: _product(unmove(adj), Bt).reshape(sa), back_b))


def scale(s, m):
    """s times m, with s broadcast over the trailing axes of m
    ('...,...ij->...ij')."""
    s, m = _coerce(s, m)
    k = math.prod(m.data.shape[s.data.ndim:])
    return _matmul(
        "scale", m, s, m.data.reshape(-1, k, 1), s.data.reshape(-1, 1, 1), m.data.shape
    )


def inner(a, b, batch_ndim=0):
    """Sum of a * b over every axis past the first ``batch_ndim``
    ('...ij,...ij->...'; 'n,n->' at batch_ndim 0)."""
    a, b = _coerce(a, b)
    lead = (-1,) if batch_ndim else ()
    k = math.prod(a.data.shape[batch_ndim:])
    return _matmul(
        "inner", b, a, b.data.reshape(lead + (1, k)), a.data.reshape(lead + (k, 1)),
        a.data.shape[:batch_ndim],
    )


def matvec(m, v):
    """Per-point matrix-vector product m v ('...kd,...d->...k')."""
    m, v = _coerce(m, v)
    k, d = m.data.shape[-2:]
    return _matmul(
        "matvec", m, v, m.data.reshape(-1, k, d), v.data.reshape(-1, d, 1),
        v.data.shape[:-1] + (k,),
    )


def vecmat(v, m, batch_ndim):
    """Per-point product of v's axes past ``batch_ndim`` with the leading
    non-batch axes of m ('...ij,...ijk->...k')."""
    v, m = _coerce(v, m)
    q = m.data.shape[-1]
    k = math.prod(v.data.shape[batch_ndim:])
    return _matmul(
        "vecmat", v, m, v.data.reshape(-1, 1, k), m.data.reshape(-1, k, q),
        v.data.shape[:batch_ndim] + (q,),
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
    perm = axes + tuple(i for i in range(ad_.ndim) if i not in axes)
    moved = tuple(ad_.shape[i] for i in perm)
    nf = wd.ndim - len(axes)  # w's free (leading) axes
    if wd.shape[nf:] != moved[: len(axes)]:
        raise ValueError(f"contract: w {wd.shape} does not match axes {axes} of {ad_.shape}")
    k, lead = math.prod(wd.shape[nf:]), tuple(range(nf))
    return _matmul(
        "contract", w, a, wd.reshape(-1, k), ad_.transpose(perm).reshape(k, -1),
        wd.shape[:nf] + moved[len(axes):], out=(lead, tuple(i + dest for i in lead)),
        b_back=lambda g: g.reshape(moved).transpose(np.argsort(perm)),
    )


def pow_(a, p):
    """Power with a constant exponent array ``p``, broadcast against ``a``.

    Non-integer exponents require a positive base.
    """
    a = constant(a)
    p = np.asarray(p, dtype=np.float64)
    if np.any(p != np.round(p)) and np.min(a.data) <= 0.0:
        raise DomainError(f"non-integer power of non-positive base (min = {np.min(a.data):g})")
    ad_ = a.data
    return record(
        "pow", np.power(ad_, p), (a,),
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
