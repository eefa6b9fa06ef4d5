"""Nested automatic differentiation engine.

Two layers cooperate here:

* a reverse-mode tape over numpy arrays (:class:`Tape`, :class:`Var`),
  which makes any scalar built from recorded operations differentiable
  with respect to the flat parameter vector, and
* forward-propagated second-order spatial jets (:class:`SpatialJet`),
  which carry value, gradient and Hessian of a field component with
  respect to the three material coordinates.

Every jet propagation rule is expressed in terms of tape primitives, so
spatial derivatives of network outputs remain differentiable in the
network parameters without any extra machinery (forward over reverse).

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

    # arithmetic sugar; scalars/arrays are coerced to constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(constant(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(constant(other), self)

    def __neg__(self):
        return neg(self)


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


def sin(a):
    a = constant(a)
    c = np.cos(a.data)
    return record("sin", np.sin(a.data), (a,), (lambda adj: adj * c,))


def cos(a):
    a = constant(a)
    s = np.sin(a.data)
    return record("cos", np.cos(a.data), (a,), (lambda adj: -adj * s,))


def log(a):
    a = constant(a)
    if np.min(a.data) <= 0.0:
        raise DomainError(f"log of non-positive value (min = {np.min(a.data):g})")
    ad = a.data
    return record("log", np.log(ad), (a,), (lambda adj: adj / ad,))


def exp(a):
    a = constant(a)
    e = np.exp(a.data)
    return record("exp", e, (a,), (lambda adj: adj * e,))


def sum_(a, axis=None):
    a = constant(a)
    out = a.data.sum(axis=axis)
    shape = a.data.shape

    def back(adj):
        if axis is None:
            return np.broadcast_to(adj, shape).copy()
        return np.broadcast_to(np.expand_dims(adj, axis), shape).copy()

    return record("sum", out, (a,), (back,))


def mean(a, axis=None):
    a = constant(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis), 1.0 / n)


def expand_dims(a, axis):
    a = constant(a)
    out = np.expand_dims(a.data, axis)
    return record("expand_dims", out, (a,), (lambda adj: np.squeeze(adj, axis=axis),))


def reshape(a, shape):
    a = constant(a)
    old = a.data.shape
    return record("reshape", a.data.reshape(shape), (a,), (lambda adj: adj.reshape(old),))


def take(a, indices, axis=0):
    """Select along one axis; integer index drops the axis, array keeps it.

    Duplicate-free array indices scatter directly in the backward pass;
    duplicated indices over a short axis fall back to a one-hot
    contraction, anything else to ufunc.at.
    """
    a = constant(a)
    out = np.take(a.data, indices, axis=axis)
    shape = a.data.shape
    ax = axis % a.data.ndim
    scalar_idx = np.isscalar(indices) or np.ndim(indices) == 0

    if scalar_idx:
        sl = [slice(None)] * len(shape)
        sl[ax] = indices

        def back(adj):
            full = np.zeros(shape)
            full[tuple(sl)] = adj
            return full

    else:
        idx = np.asarray(indices)
        if idx.size == np.unique(idx).size:

            def back(adj):
                full = np.zeros(shape)
                np.moveaxis(full, ax, 0)[idx] = np.moveaxis(adj, ax, 0)
                return full

        elif shape[ax] <= 32:
            onehot = np.zeros((idx.size, shape[ax]))
            onehot[np.arange(idx.size), idx] = 1.0

            def back(adj):
                return np.moveaxis(
                    np.tensordot(adj, onehot, axes=([ax], [0])), -1, ax
                )

        else:

            def back(adj):
                full = np.zeros(shape)
                np.add.at(np.moveaxis(full, ax, 0), idx, np.moveaxis(adj, ax, 0))
                return full

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


def powi(a, p):
    """Integer power by repeated multiplication (any-sign base)."""
    a = constant(a)
    if p == 0:
        return constant(np.ones_like(a.data), a.tape)
    if p < 0:
        return div(1.0, powi(a, -p))
    result = a
    for _ in range(p - 1):
        result = mul(result, a)
    return result


def pow_(a, p):
    """Power with constant exponent.

    Non-integer exponents require a positive base and route through
    exp(p*log a); small integer exponents stay exact via multiplication.
    """
    a = constant(a)
    if float(p) == int(p) and abs(int(p)) <= 8:
        return powi(a, int(p))
    if np.min(a.data) <= 0.0:
        raise DomainError(
            f"non-integer power {p} of non-positive base (min = {np.min(a.data):g})"
        )
    return exp(mul(log(a), float(p)))


def dot(a, b):
    """Full contraction of two equally-shaped arrays to a scalar."""
    return sum_(mul(a, b))


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


def _outer(g1, g2):
    # broadcasted product; cheaper than an einsum for these small axes
    return mul(expand_dims(g1, -1), expand_dims(g2, -2))


def _gcol(v):
    # (...,) -> (..., 1) for broadcasting against a gradient
    return expand_dims(v, -1)


def _hcol(v):
    # (...,) -> (..., 1, 1) for broadcasting against a Hessian
    return expand_dims(expand_dims(v, -1), -1)


class SpatialJet:
    """Value, spatial gradient and spatial Hessian of one field component.

    ``grad``/``hess`` hold derivatives with respect to the three material
    coordinates with shapes (..., 3) and (..., 3, 3); either may be None,
    in which case the jet is truncated at that order.  All three slots are
    tape variables, so the jet is differentiable in network parameters.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad=None, hess=None):
        self.val = val
        self.grad = grad
        self.hess = hess

    @property
    def order(self):
        if self.hess is not None:
            return 2
        return 1 if self.grad is not None else 0

    def __add__(self, other):
        return jet_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return jet_sub(self, other)

    def __rsub__(self, other):
        return jet_sub(jet_const_like(other, self), self)

    def __mul__(self, other):
        return jet_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return jet_div(self, other)

    def __rtruediv__(self, other):
        return jet_div(jet_const_like(other, self), self)

    def __neg__(self):
        return SpatialJet(
            neg(self.val),
            None if self.grad is None else neg(self.grad),
            None if self.hess is None else neg(self.hess),
        )


def jet_const(value, batch_shape=()):
    """Spatially constant jet (zero gradient and Hessian)."""
    val = np.broadcast_to(np.asarray(value, dtype=np.float64), batch_shape)
    return SpatialJet(
        constant(val),
        constant(np.zeros(batch_shape + (3,))),
        constant(np.zeros(batch_shape + (3, 3))),
    )


def jet_const_like(value, template):
    return jet_const(value, np.shape(template.val.data))


def lift_coordinate(X, k):
    """Seed the jet of coordinate k of points X with shape (..., 3).

    value = X_k, gradient = e_k, Hessian = 0.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"axis index must be 0, 1 or 2, got {k}")
    X = np.asarray(X, dtype=np.float64)
    batch = X.shape[:-1]
    grad = np.zeros(batch + (3,))
    grad[..., k] = 1.0
    return SpatialJet(
        constant(X[..., k].copy()),
        constant(grad),
        constant(np.zeros(batch + (3, 3))),
    )


def lift_point(X):
    """Lift all three coordinates at once."""
    return tuple(lift_coordinate(X, k) for k in range(3))


def _min_order(a, b):
    return min(a.order, b.order)


def _coerce_jet_pair(a, b):
    """Allow a plain scalar/array in the first slot of binary jet ops."""
    if not isinstance(a, SpatialJet):
        if isinstance(b, SpatialJet):
            return jet_const_like(a, b), b
        raise TypeError("at least one operand must be a SpatialJet")
    return a, b


def jet_add(a, b):
    a, b = _coerce_jet_pair(a, b)
    if not isinstance(b, SpatialJet):
        return SpatialJet(
            add(a.val, b),
            a.grad,
            a.hess,
        )
    order = _min_order(a, b)
    return SpatialJet(
        add(a.val, b.val),
        add(a.grad, b.grad) if order >= 1 else None,
        add(a.hess, b.hess) if order >= 2 else None,
    )


def jet_sub(a, b):
    a, b = _coerce_jet_pair(a, b)
    if not isinstance(b, SpatialJet):
        return SpatialJet(sub(a.val, b), a.grad, a.hess)
    order = _min_order(a, b)
    return SpatialJet(
        sub(a.val, b.val),
        sub(a.grad, b.grad) if order >= 1 else None,
        sub(a.hess, b.hess) if order >= 2 else None,
    )


def jet_mul(a, b):
    if not isinstance(a, SpatialJet):
        a, b = b, a  # scalar factors commute
    if not isinstance(b, SpatialJet):
        # scalar/array constant factor
        return SpatialJet(
            mul(a.val, b),
            None if a.grad is None else mul(a.grad, b),
            None if a.hess is None else mul(a.hess, b),
        )
    order = _min_order(a, b)
    val = mul(a.val, b.val)
    grad = hess = None
    if order >= 1:
        grad = add(mul(a.grad, _gcol(b.val)), mul(b.grad, _gcol(a.val)))
    if order >= 2:
        cross = add(_outer(a.grad, b.grad), _outer(b.grad, a.grad))
        hess = add(
            add(mul(a.hess, _hcol(b.val)), mul(b.hess, _hcol(a.val))),
            cross,
        )
    return SpatialJet(val, grad, hess)


def jet_chain(a, f0, f1, f2):
    """Unary chain rule: f applied to jet ``a``.

    ``f0``/``f1``/``f2`` map the value Var to f, f' and f'' Vars.
    """
    val = f0(a.val)
    if a.grad is None:
        return SpatialJet(val)
    d1 = f1(a.val)
    grad = mul(a.grad, _gcol(d1))
    if a.hess is None:
        return SpatialJet(val, grad)
    d2 = f2(a.val)
    hess = add(mul(a.hess, _hcol(d1)), mul(_outer(a.grad, a.grad), _hcol(d2)))
    return SpatialJet(val, grad, hess)


def jet_tanh(a):
    t = tanh(a.val)
    one_minus_t2 = sub(1.0, mul(t, t))
    return jet_chain(
        a,
        lambda v: t,
        lambda v: one_minus_t2,
        lambda v: mul(mul(-2.0, t), one_minus_t2),
    )


def jet_sin(a):
    return jet_chain(a, sin, cos, lambda v: neg(sin(v)))


def jet_cos(a):
    return jet_chain(a, cos, lambda v: neg(sin(v)), lambda v: neg(cos(v)))


def jet_log(a):
    return jet_chain(
        a,
        log,
        lambda v: div(1.0, v),
        lambda v: div(-1.0, mul(v, v)),
    )


def jet_pow(a, p):
    """Jet power with constant exponent (see :func:`pow_` for domain rules)."""
    if float(p) == int(p) and abs(int(p)) <= 8:
        p = int(p)
        if p == 0:
            return jet_const(1.0, np.shape(a.val.data))
        if p < 0:
            return jet_div(jet_const(1.0, np.shape(a.val.data)), jet_pow(a, -p))
        out = a
        for _ in range(p - 1):
            out = jet_mul(out, a)
        return out
    return jet_chain(
        a,
        lambda v: pow_(v, p),
        lambda v: mul(pow_(v, p - 1.0), float(p)),
        lambda v: mul(pow_(v, p - 2.0), float(p * (p - 1.0))),
    )


def jet_reciprocal(a):
    return jet_chain(
        a,
        lambda v: div(1.0, v),
        lambda v: div(-1.0, mul(v, v)),
        lambda v: div(2.0, mul(mul(v, v), v)),
    )


def jet_div(a, b):
    if not isinstance(b, SpatialJet):
        return jet_mul(a, 1.0 / np.asarray(b, dtype=np.float64))
    return jet_mul(a, jet_reciprocal(b))


# ---------------------------------------------------------------------------
# 3x3 jet matrices (nested tuples of SpatialJet, row major)
# ---------------------------------------------------------------------------


def jet_mat(entries):
    return tuple(tuple(entries[i][j] for j in range(3)) for i in range(3))


def jet_identity(batch_shape=()):
    return jet_mat(
        [[jet_const(1.0 if i == j else 0.0, batch_shape) for j in range(3)] for i in range(3)]
    )


def jet_transpose(A):
    return tuple(tuple(A[j][i] for j in range(3)) for i in range(3))


def jet_trace(A):
    return jet_add(jet_add(A[0][0], A[1][1]), A[2][2])


def jet_matmul(A, B):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            s = jet_mul(A[i][0], B[0][j])
            s = jet_add(s, jet_mul(A[i][1], B[1][j]))
            s = jet_add(s, jet_mul(A[i][2], B[2][j]))
            row.append(s)
        out.append(row)
    return jet_mat(out)


def jet_det3(A):
    def two_by_two(a, b, c, d):
        return jet_sub(jet_mul(a, d), jet_mul(b, c))

    m0 = two_by_two(A[1][1], A[1][2], A[2][1], A[2][2])
    m1 = two_by_two(A[1][0], A[1][2], A[2][0], A[2][2])
    m2 = two_by_two(A[1][0], A[1][1], A[2][0], A[2][1])
    return jet_add(
        jet_sub(jet_mul(A[0][0], m0), jet_mul(A[0][1], m1)),
        jet_mul(A[0][2], m2),
    )


def jet_inv3(A, det=None):
    """Inverse by adjugate over determinant; raises below the det floor."""
    if det is None:
        det = jet_det3(A)
    if np.min(np.abs(det.val.data)) <= DET_FLOOR:
        idx = int(np.argmin(np.abs(np.atleast_1d(det.val.data))))
        raise SingularMatrix(f"|det| at or below {DET_FLOOR:g} (first offender: index {idx})")
    inv_det = jet_reciprocal(det)

    def cof(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        minor = jet_sub(
            jet_mul(A[rows[0]][cols[0]], A[rows[1]][cols[1]]),
            jet_mul(A[rows[0]][cols[1]], A[rows[1]][cols[0]]),
        )
        return jet_mul(minor, -1.0) if (i + j) % 2 else minor

    # inverse = adj(A)^T / det, adj_ij = cofactor_ji
    return jet_mat([[jet_mul(cof(j, i), inv_det) for j in range(3)] for i in range(3)])


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
