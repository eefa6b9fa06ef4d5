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

import numpy as np

from .errors import DomainError, EmptyTape, SingularMatrix

DET_FLOOR = 1e-12  # |det| at or below this raises SingularMatrix


class Node:
    """One recorded operation: identifier, parent node ids, backward rules.

    ``edges`` pairs each differentiable parent's node id with the callable
    producing its adjoint contribution; constant parents carry no edge.
    """

    __slots__ = ("op", "parents", "edges")

    def __init__(self, op, parents, edges):
        self.op = op
        self.parents = parents
        self.edges = edges


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
        self.nodes.append(Node("input", (), ()))
        return var

    def _record(self, op, out_data, parents, edges):
        var = Var(self, out_data, len(self.nodes))
        self.nodes.append(Node(op, parents, edges))
        return var


class Var:
    """Array-valued variable, optionally tracked on a tape.

    ``node`` is None for constants; operations whose operands are all
    constant produce constants and leave the tape untouched.
    """

    __slots__ = ("tape", "data", "node")

    def __init__(self, tape, data, node=None):
        self.tape = tape
        self.data = np.asarray(data, dtype=np.float64)
        self.node = node

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = "const" if self.node is None else f"node {self.node}"
        return f"Var({tag}, shape={self.data.shape})"


def constant(value, tape=None):
    if isinstance(value, Var):
        return value
    return Var(tape, np.asarray(value, dtype=np.float64))


def _coerce(a, b):
    a = constant(a)
    b = constant(b)
    return a, b


def _tape_of(*vars_):
    for v in vars_:
        if v.tape is not None and v.node is not None:
            return v.tape
    return None


def record(op, out_data, operands, vjps):
    """Record ``op`` unless every operand is constant.

    ``vjps`` maps operand position -> callable(adjoint) -> contribution;
    only edges to differentiable parents are kept.  The callables must not
    capture a Var (see the module docstring).
    """
    tape = _tape_of(*operands)
    if tape is None:
        return Var(None, out_data)
    parents = tuple(v.node for v in operands)
    edges = tuple(
        (node, vjps[i]) for i, node in enumerate(parents) if node is not None
    )
    return tape._record(op, out_data, parents, edges)


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


def neg(a):
    a = constant(a)
    return record("neg", -a.data, (a,), (lambda adj: -adj,))


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


def _name_batch_axes(spec, ndim, letters):
    """Replace the ellipsis of ``spec`` by the last of ``letters`` it covers."""
    if "..." not in spec:
        return spec
    n = ndim - (len(spec) - 3)
    return spec.replace("...", letters[len(letters) - n:])


def _einsum_back(out_spec, other_spec, target_spec, adj, other):
    """Adjoint of one einsum operand by swapping its spec with the output's.

    When the target spec carries no ellipsis (a weight shared by the whole
    batch), the batch axes are named explicitly, right-aligned as
    broadcasting aligns them, so that a single contraction sums them out
    instead of materialising the per-point products first.
    """
    if "..." in target_spec:
        return np.einsum(f"{out_spec},{other_spec}->{target_spec}", adj, other, optimize=True)
    used = set(out_spec + other_spec + target_spec)
    n_batch = adj.ndim - (len(out_spec) - 3) if "..." in out_spec else 0
    letters = "".join(c for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ" if c not in used)[:n_batch]
    spec = (
        f"{_name_batch_axes(out_spec, adj.ndim, letters)},"
        f"{_name_batch_axes(other_spec, other.ndim, letters)}->{target_spec}"
    )
    return np.einsum(spec, adj, other, optimize=True)


def einsum2(spec, a, b):
    """Two-operand einsum with contraction-style specs (no diagonals).

    The backward rule swaps the output subscript with the operand's, which
    is valid because every index of an operand appears either in the output
    or in the other operand for the patterns used in this package.
    """
    a, b = _coerce(a, b)
    ins, out_spec = spec.split("->")
    sa, sb = ins.split(",")
    out = np.einsum(spec, a.data, b.data, optimize=True)
    ad, bd = a.data, b.data
    return record(
        f"einsum[{spec}]",
        out,
        (a, b),
        (
            lambda adj: _einsum_back(out_spec, sb, sa, adj, bd),
            lambda adj: _einsum_back(out_spec, sa, sb, adj, ad),
        ),
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


def _cofactor3(m):
    """Cofactor matrices of a batch of 3x3 matrices (..., 3, 3)."""
    r0, r1, r2 = m[..., 0, :], m[..., 1, :], m[..., 2, :]
    return np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-2)


def _det3(m, cof):
    # expansion along the first row
    row, c = m[..., 0, :], cof[..., 0, :]
    return (row[..., 0] * c[..., 0] + row[..., 1] * c[..., 1]) + row[..., 2] * c[..., 2]


def det3(a):
    """Determinant of 3x3 matrices (..., 3, 3); d det / dA = cof(A)."""
    a = constant(a)
    cof = _cofactor3(a.data)
    return record("det3", _det3(a.data, cof), (a,), (lambda adj: adj[..., None, None] * cof,))


def inv_t3(a):
    """Inverse transpose A^{-T} of 3x3 matrices (..., 3, 3): cofactor
    over determinant.

    Raises SingularMatrix where |det| is at or below ``DET_FLOOR``.  The
    vjp is -A^{-T} adj^T A^{-T}.
    """
    a = constant(a)
    cof = _cofactor3(a.data)
    det = np.atleast_1d(_det3(a.data, cof))
    if np.min(np.abs(det)) <= DET_FLOOR:
        idx = int(np.argmin(np.abs(det)))
        raise SingularMatrix(f"|det| at or below {DET_FLOOR:g} (first offender: index {idx})")
    inv_t = cof * (1.0 / det).reshape(np.shape(a.data)[:-2] + (1, 1))
    return record(
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
    # stored by reference on first touch
    adjoints = [None] * (loss.node + 1)
    adjoints[loss.node] = np.ones(())
    nodes = tape.nodes
    # nodes recorded before wrt cannot contribute to its adjoint
    for nid in range(loss.node, wrt.node, -1):
        adj = adjoints[nid]
        if adj is None:
            continue
        adjoints[nid] = None
        for parent, vjp in nodes[nid].edges:
            contrib = vjp(adj)
            if adjoints[parent] is None:
                adjoints[parent] = contrib
            else:
                adjoints[parent] = adjoints[parent] + contrib
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
