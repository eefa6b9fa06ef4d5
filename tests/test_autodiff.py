"""Tape, tape primitive and spatial-jet tests."""

import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hyperelast.autodiff as ad
from hyperelast.errors import DomainError, EmptyTape, InvertedState


class DenseJets:
    """Hand-made input jets (n, C, w) in the form network.forward takes."""

    def __init__(self, stack):
        self.stack = stack
        self.shape = stack.shape

    def __len__(self):
        return len(self.stack)

    def jets(self, lo=0, hi=None, buf=None):
        return np.ascontiguousarray(self.stack[lo:hi].transpose(1, 0, 2))


class TestJetPrimitives:
    def test_tanh_at_zero(self):
        # one tanh unit per feature at z = 0 under identity weights:
        # value 0, gradient G and Hessian t1 H + t2 G[A] G[B] = 0
        from hyperelast.network import MLPSpec, forward

        spec = MLPSpec(widths=(3, 3, 12))
        phi = np.zeros(spec.n_params)
        phi[:9] = np.eye(3).ravel()
        phi[12:48] = np.eye(12, 3).ravel()
        stack = np.zeros((1, 10, 3))  # value 0, gradient I, Hessian 0
        stack[0, 1:4] = np.eye(3)
        j = forward(spec, ad.constant(phi), (DenseJets(stack),)).data
        assert np.all(j[0, 0] == 0.0)
        assert_allclose(j[0, 1:4, :3], np.eye(3))
        assert np.all(j[0, 4:] == 0.0)

    def test_det_of_constant_identity(self):
        d, inv_t = ad.det_inv_t3(ad.constant(np.eye(3)))
        assert d.data == 1.0 and d.node is None and inv_t.node is None
        tape = ad.Tape()
        A = tape.input(np.eye(3))
        d, _ = ad.det_inv_t3(A)
        assert [node.op for node in tape.nodes] == ["input", "det3", "inv_t3"]
        assert np.array_equal(ad.reverse_gradient(d, A), np.eye(3))

    def test_log_det_rank_one_update(self):
        # d/dX1 ln det(I + X1 e1 x e1) = 1/(1 + X1) = 1 at X1 = 0, and the
        # log-det vjp A^{-T} against central differences at a general A
        def log_det(A):
            tape = ad.Tape()
            a = tape.input(A)
            out = ad.log(ad.det_inv_t3(a)[0])
            return float(out.data), ad.reverse_gradient(out, a)

        _, g = log_det(np.eye(3))
        assert_allclose(g[0, 0], 1.0, rtol=1e-12)
        A = np.eye(3) + 0.3 * np.random.default_rng(2).standard_normal((3, 3))
        _, g = log_det(A)
        assert_allclose(g, np.linalg.inv(A).T, rtol=1e-12)
        assert ad.fd_check(lambda x: log_det(x)[0], A, g, h=1e-6) <= 1e-6

    def test_inverse_vjp_matches_fd(self):
        rng = np.random.default_rng(5)
        A = np.eye(3) + 0.3 * rng.standard_normal((4, 3, 3))
        C = rng.standard_normal((4, 3, 3))

        def loss(x):
            tape = ad.Tape()
            a = tape.input(x)
            out = ad.inner(ad.det_inv_t3(a)[1], C)
            return float(out.data), ad.reverse_gradient(out, a)

        _, g = loss(A)
        assert ad.fd_check(lambda x: loss(x)[0], A, g, h=1e-6) <= 1e-6

    def test_cofactor_rows_are_cross_products(self):
        # the one-pass cofactor equals np.cross of the other two rows, bit
        # for bit (both round a_j b_k and a_k b_j, then subtract)
        A = np.random.default_rng(6).standard_normal((50, 3, 3))
        r0, r1, r2 = A[..., 0, :], A[..., 1, :], A[..., 2, :]
        want = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-2)
        assert np.array_equal(ad._cofactor3(A), want)
        assert ad._cofactor3(A).flags.c_contiguous

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            ad.log(ad.constant(-1.0))

    def test_noninteger_pow_domain_error(self):
        with pytest.raises(DomainError):
            ad.pow_(ad.constant(-2.0), 0.5)

    def test_inverted_state_at_zero_and_negative_det(self):
        # the floor is on the signed determinant: singular and reflected
        # matrices both raise before anything is recorded, naming the
        # index of the smallest determinant
        A = np.stack([np.eye(3), np.zeros((3, 3)), np.diag([1.0, 1.0, -1.0])])
        for bad in (1, 2):
            tape = ad.Tape()
            with pytest.raises(InvertedState) as info:
                ad.det_inv_t3(tape.input(A[[0, bad]]))
            assert info.value.point_index == 1
            assert str(info.value).startswith(f"det F = {np.linalg.det(A[bad]):.3e} <= 1e-12")
            assert len(tape) == 1

    def test_mul_hess_symmetric_bitwise(self):
        # the Hessian of the product u = A + B y, unpacked into the
        # gradient of grad u, is symmetric bit for bit
        from hyperelast.bvp import preset
        from hyperelast.network import displacement_gradient
        from hyperelast.solver import build_network

        problem = preset("lp_cantilever_displacement", grid=(5, 3, 3))
        net = build_network(problem, hidden=(8,), fourier_features=3, seed=7)
        rng = np.random.default_rng(7)
        X = rng.uniform(0.1, 0.9, size=(11, 3))
        u, _, _ = net.fields(ad.constant(rng.standard_normal(net.n_params)), X)
        H = displacement_gradient(u).grad.data
        assert np.any(H != 0.0)
        assert np.array_equal(H, np.swapaxes(H, -1, -2))

    @pytest.mark.parametrize("axis, idx", [(-1, ad.UNPACK), (1, np.array([2, 0, 2]))])
    def test_take_vjp_sums_duplicated_indices(self, axis, idx):
        # an entry selected twice (the Hessian unpacking) gets the sum of
        # both adjoints, one selected never gets zero
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 3, 6))
        tape = ad.Tape()
        x = tape.input(a)
        out = ad.take(x, idx, axis=axis)
        weights = rng.standard_normal(out.data.shape)
        got = ad.reverse_gradient(ad.inner(out, weights), x)
        want = np.zeros_like(a)
        for k, i in enumerate(idx):
            np.moveaxis(want, axis, 0)[i] += np.moveaxis(weights, axis, 0)[k]
        assert np.array_equal(got, want)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        A = np.eye(3) + 0.3 * rng.standard_normal((20, 3, 3))
        _, inv_t = ad.det_inv_t3(ad.constant(A))
        assert_allclose(inv_t.data, np.swapaxes(np.linalg.inv(A), -1, -2), atol=1e-12)
        assert_allclose(ad.det_inv_t3(inv_t)[1].data, A, atol=1e-12)

    def test_matmul_trace(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        prod = ad.contract(A, ad.constant(B), (0,))
        assert_allclose(prod.data, A @ B, rtol=1e-14)
        trace = ad.inner(ad.constant(A), np.eye(3))
        assert_allclose(trace.data, np.trace(A), rtol=1e-14)



def _strided(rng, shape):
    """Random array of ``shape`` presented as a non-contiguous view."""
    return np.swapaxes(rng.standard_normal(shape[:-2] + shape[:-3:-1]), -1, -2)


# kernel, its einsum subscripts, operand shapes, and the call; 'nb' names a
# batch of two points (the kernels fuse leading batch axes)
KERNEL_CASES = [
    ("scale", "...,...ij->...ij", [(5,), (5, 3, 3)], lambda s, m: ad.scale(s, m)),
    ("scale_bc", "...i,...id->...id", [(5, 3), (5, 3, 6)], lambda s, m: ad.scale(s, m)),
    ("inner_batched", "...ij,...ij->...", [(5, 3, 3), (5, 3, 3)],
     lambda a, b: ad.inner(a, b, batch_ndim=1)),
    ("inner_full", "nfi,nfi->", [(5, 2, 3), (5, 2, 3)], lambda a, b: ad.inner(a, b)),
    ("matvec", "...kd,...d->...k", [(5, 3, 6, 3), (5, 3, 3)], lambda m, v: ad.matvec(m, v)),
    ("vecmat", "...ij,...ijk->...k", [(5, 3, 3), (5, 3, 3, 3)],
     lambda v, m: ad.vecmat(v, m, batch_ndim=1)),
    ("contract_sum", "r...,r->...", [(2, 5), (2,)], lambda a, w: ad.contract(w, a, (0,))),
    ("contract_trace", "nijk,jk->ni", [(5, 3, 3, 3), (3, 3)],
     lambda a, w: ad.contract(w, a, (2, 3))),
    ("contract_normals", "nij,fj->nfi", [(5, 3, 3), (2, 3)],
     lambda a, w: ad.contract(w, a, (2,), dest=1)),
    ("contract_matrix", "ni,oi->no", [(5, 4), (3, 4)], lambda a, w: ad.contract(w, a, (1,), dest=1)),
]


def _operands(rng, shapes, strided):
    if not strided:
        return [rng.standard_normal(s) for s in shapes]
    return [_strided(rng, s) if len(s) >= 2 else rng.standard_normal(s) for s in shapes]


# a taped first operand times a constant second one, then the roles
# swapped; the divisor of div is left out, as its rule reads it
MEMORY_CASES = [
    ("mul", [(4, 3), (4, 3)], ad.mul, (0, 1)),
    ("div", [(4, 3), (4, 3)], ad.div, (0,)),
    ("scale", [(4,), (4, 3, 3)], ad.scale, (0, 1)),
    ("inner", [(4, 3), (4, 3)], lambda a, b: ad.inner(a, b, batch_ndim=1), (0, 1)),
    ("matvec", [(4, 3, 2), (4, 2)], ad.matvec, (0, 1)),
    ("vecmat", [(4, 3), (4, 3, 2)], lambda v, m: ad.vecmat(v, m, 1), (0, 1)),
    ("contract", [(2, 3), (4, 3)], lambda w, a: ad.contract(w, a, (1,), dest=1), (0, 1)),
]


class TestContractionKernels:
    """Each kernel against np.einsum on the same operands (forward pass)
    and against central differences (every vjp)."""

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    @pytest.mark.parametrize("strided", [False, True])
    def test_forward_matches_einsum(self, case, strided):
        _, spec, shapes, kernel = case
        rng = np.random.default_rng(41)
        ops = _operands(rng, shapes, strided)
        got = kernel(*(ad.constant(x) for x in ops)).data
        want = np.einsum(spec, *ops, optimize=True)
        # a few ulps of the sum of |terms|, so the test pins no summation order
        scale = np.einsum(spec, *(np.abs(x) for x in ops), optimize=True)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("case, strided", [
        pytest.param(c, s, id=c[0] + ("-strided" if s else ""))
        for s in (False, True) for c in KERNEL_CASES
    ])
    def test_vjps_match_fd(self, case, strided):
        _, _, shapes, kernel = case
        rng = np.random.default_rng(42)
        ops = _operands(rng, shapes, strided)
        weights = rng.standard_normal(kernel(*ops).shape)
        for i in range(len(ops)):
            def loss(x, i=i):
                tape = ad.Tape()
                var = tape.input(x)
                args = [var if j == i else ad.constant(y) for j, y in enumerate(ops)]
                out = ad.inner(kernel(*args), weights)
                return float(out.data), ad.reverse_gradient(out, var)

            _, g = loss(ops[i])
            assert ad.fd_check(lambda x: loss(x)[0], ops[i], g, h=1e-4) <= 1e-6

    def test_contract_rejects_mismatched_axes(self):
        with pytest.raises(ValueError):
            ad.contract(np.eye(3), ad.constant(np.zeros((2, 3, 4))), (1, 2))


@pytest.mark.parametrize("case", MEMORY_CASES, ids=[c[0] for c in MEMORY_CASES])
def test_vjp_frees_the_taped_operand(case):
    # a vjp holds the other operand's array, never its own: once the
    # taped operand's Var is gone its array is freed, while the result
    # and the tape are still alive
    _, shapes, kernel, taped = case
    rng = np.random.default_rng(43)
    ops = [1.0 + rng.uniform(size=s) for s in shapes]
    for i in taped:
        tape = ad.Tape()
        x = tape.input(ops[i])
        y = ad.add(x, 1.0)
        held = weakref.ref(y.data)
        out = kernel(*(y if j == i else ad.constant(z) for j, z in enumerate(ops)))
        del y
        gc.collect()
        assert held() is None, f"operand {i}"
        grad = ad.reverse_gradient(ad.inner(out, np.ones(out.shape)), x)
        assert np.all(np.isfinite(grad))


def _field_jets(X):
    """Displacement jet, stress and its divergence of a small random
    network with hard BCs."""
    from hyperelast.bvp import preset
    from hyperelast.solver import build_network

    problem = preset("lp_cantilever_displacement", grid=(5, 3, 3))
    net = build_network(problem, hidden=(10, 10), fourier_features=4, seed=11)
    phi = 0.5 * np.random.default_rng(11).standard_normal(net.n_params)
    return net.fields(ad.constant(phi), X)


class TestSpatialDerivatives:
    # the network's feature -> tanh layers -> head -> BC composition chain,
    # against central differences at 100 random points
    @staticmethod
    def points():
        rng = np.random.default_rng(12)
        return rng.uniform([0.2, 0.1, 0.1], [3.8, 0.9, 0.9], size=(100, 3))

    def test_gradient_matches_fd(self):
        # u's gradient, and the stress divergence as the sum of the
        # central differences of P's columns
        X = self.points()
        u, _, div_P = _field_jets(X)
        h = 1e-5
        div_fd = 0.0
        for k in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, k] += h
            Xm[:, k] -= h
            (up, Pp, _), (um, Pm, _) = _field_jets(Xp), _field_jets(Xm)
            fd = (up.val.data - um.val.data) / (2 * h)
            err = np.abs(u.grad.data[..., k] - fd) / np.abs(u.grad.data).max()
            assert err.max() <= 1e-6
            div_fd = div_fd + (Pp.data[..., k] - Pm.data[..., k]) / (2 * h)
        assert np.abs(div_P.data - div_fd).max() / np.abs(div_P.data).max() <= 1e-6

    def test_hessian_matches_fd_of_gradient(self):
        # second derivatives against central differences of first
        # derivatives, step 1e-4
        X = self.points()
        u, _, _ = _field_jets(X)
        hess = u.hess.data[..., ad.UNPACK].reshape(u.hess.data.shape[:-1] + (3, 3))
        h = 1e-4
        scale = np.abs(hess).max()
        for k in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, k] += h
            Xm[:, k] -= h
            fd = (_field_jets(Xp)[0].grad.data - _field_jets(Xm)[0].grad.data) / (2 * h)
            err = np.abs(hess[..., k, :] - fd) / scale
            assert err.max() <= 1e-4


def _two_layer_loss(phi, x, shapes):
    (i1, o1), (i2, o2) = shapes
    tape = ad.Tape()
    p = tape.input(phi)
    n1 = i1 * o1
    W1 = ad.reshape(ad.take(p, np.arange(n1)), (o1, i1))
    W2 = ad.reshape(ad.take(p, np.arange(n1, n1 + i2 * o2)), (o2, i2))
    hidden = ad.tanh(ad.contract(W1, ad.constant(x), (0,)))
    out = ad.contract(W2, hidden, (0,))
    loss = ad.inner(out, np.full(o2, 1.0 / o2))
    return loss, p


class TestReverseGradient:
    def test_quadratic(self):
        tape = ad.Tape()
        phi = tape.input(np.array([1.0, 2.0]))
        loss = ad.inner(phi, phi)
        assert_allclose(ad.reverse_gradient(loss, phi), [2.0, 4.0], rtol=1e-15)

    def test_constant_loss_gives_zeros(self):
        tape = ad.Tape()
        phi = tape.input(np.array([1.0, 2.0, 3.0]))
        loss = ad.constant(5.0)
        assert_allclose(ad.reverse_gradient(loss, phi), np.zeros(3))

    def test_empty_tape(self):
        tape = ad.Tape()
        fake = ad.Var(tape, np.zeros(2), node=0)
        tape2 = ad.Tape()
        phi = tape2.input(np.zeros(2))
        tape2.nodes.clear()
        with pytest.raises(EmptyTape):
            ad.reverse_gradient(ad.constant(1.0), phi)
        del fake

    def test_network_gradient_matches_fd(self):
        rng = np.random.default_rng(21)
        shapes = ((4, 6), (6, 3))
        n_params = sum(i * o for i, o in shapes)
        phi0 = rng.standard_normal(n_params)
        x = rng.standard_normal(4)
        loss, p = _two_layer_loss(phi0, x, shapes)
        g = ad.reverse_gradient(loss, p)
        err = ad.fd_check(lambda q: float(_two_layer_loss(q, x, shapes)[0].data), phi0, g, h=1e-6)
        assert err <= 1e-5

    def test_repeat_calls_identical(self):
        rng = np.random.default_rng(22)
        phi0 = rng.standard_normal(42)
        x = rng.standard_normal(4)
        loss, p = _two_layer_loss(phi0, x, ((4, 6), (6, 3)))
        g1 = ad.reverse_gradient(loss, p)
        g2 = ad.reverse_gradient(loss, p)
        assert np.array_equal(g1, g2)

    def test_two_forward_passes_bitwise_identical(self):
        rng = np.random.default_rng(23)
        phi0 = rng.standard_normal(42)
        x = rng.standard_normal(4)
        l1, p1 = _two_layer_loss(phi0, x, ((4, 6), (6, 3)))
        l2, p2 = _two_layer_loss(phi0, x, ((4, 6), (6, 3)))
        assert float(l1.data) == float(l2.data)
        assert np.array_equal(ad.reverse_gradient(l1, p1), ad.reverse_gradient(l2, p2))


def _square_and_triple(a, seen=None):
    """One node with the outputs a^2 and 3a; ``seen`` collects the adjoint
    tuples its vjp receives."""
    x = a.data

    def back(adjs):
        if seen is not None:
            seen.append(adjs)
        sq, lin = adjs
        out = np.zeros(x.shape)
        if sq is not None:
            out = out + 2.0 * x * sq
        if lin is not None:
            out = out + 3.0 * lin
        return out

    return ad.record("square_and_triple", (x * x, 3.0 * x), (a,), (back,))


class TestMultiOutputNodes:
    rng = np.random.default_rng(26)
    x, w, v = rng.standard_normal((3, 5))

    def test_equals_two_single_output_nodes(self):
        tape = ad.Tape()
        a = tape.input(self.x)
        sq, lin = _square_and_triple(a)
        assert len(tape) == 2 and (sq.node, sq.out, lin.node, lin.out) == (1, 0, 1, 1)
        loss = ad.add(ad.inner(sq, self.w), ad.inner(lin, self.v))
        got = ad.reverse_gradient(loss, a)

        tape = ad.Tape()
        b = tape.input(self.x)
        x = self.x
        sq1 = ad.record("square", x * x, (b,), (lambda adj: 2.0 * x * adj,))
        lin1 = ad.record("triple", 3.0 * x, (b,), (lambda adj: 3.0 * adj,))
        assert np.array_equal(sq.data, sq1.data) and np.array_equal(lin.data, lin1.data)
        want = ad.reverse_gradient(ad.add(ad.inner(sq1, self.w), ad.inner(lin1, self.v)), b)
        assert np.array_equal(got, want)
        assert_allclose(got, 2.0 * self.x * self.w + 3.0 * self.v, rtol=1e-15)

    def test_unread_output_gets_none(self):
        seen = []
        tape = ad.Tape()
        a = tape.input(self.x)
        _, lin = _square_and_triple(a, seen)
        got = ad.reverse_gradient(ad.inner(lin, self.v), a)
        assert len(seen) == 1 and seen[0][0] is None
        assert np.array_equal(seen[0][1], self.v)
        assert np.array_equal(got, 3.0 * self.v)

    def test_output_read_twice_accumulates(self):
        seen = []
        tape = ad.Tape()
        a = tape.input(self.x)
        sq, _ = _square_and_triple(a, seen)
        got = ad.reverse_gradient(ad.add(ad.inner(sq, self.w), ad.inner(sq, self.v)), a)
        assert len(seen) == 1 and seen[0][1] is None
        assert np.array_equal(seen[0][0], self.w + self.v)
        assert np.array_equal(got, 2.0 * self.x * (self.w + self.v))

    def test_constant_operands_record_nothing(self):
        tape = ad.Tape()
        tape.input(self.x)
        outs = _square_and_triple(ad.constant(self.x))
        assert len(tape) == 1
        assert isinstance(outs, tuple) and len(outs) == 2
        assert all(v.node is None and v.tape is None for v in outs)
        assert np.array_equal(outs[1].data, 3.0 * self.x)

    def test_tape_dead_after_the_sweep(self):
        # the outputs share one node and their vjp captures arrays only,
        # so reference counting frees the tape once the loss is dropped
        enabled = gc.isenabled()
        gc.disable()
        try:
            tape = ad.Tape()
            a = tape.input(self.x)
            sq, lin = _square_and_triple(a)
            loss = ad.add(ad.inner(sq, self.w), ad.inner(lin, self.v))
            ad.reverse_gradient(loss, a)
            ref = weakref.ref(tape)
            del tape, a, sq, lin, loss
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestTapeRelease:
    """With the cyclic collector off, reference counting alone must keep
    at most one evaluation tape alive: the objective holds only its last
    finite probe's tape, and none once an iteration start has returned."""

    @pytest.fixture
    def tapes(self, monkeypatch):
        made = []

        class TrackedTape(ad.Tape):
            def __init__(self):
                assert all(ref() is None for ref in made), "an earlier tape is still alive"
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", TrackedTape)
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield made
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def problem():
        from hyperelast.bvp import preset
        from hyperelast.solver import build_network

        problem = preset("nh_cantilever_traction", grid=(3, 3, 3))
        return problem, build_network(problem, hidden=(6,), fourier_features=2, seed=1)

    def objective(self):
        from hyperelast.solver import TrainingObjective

        problem, net = self.problem()
        phi = net.init_params()
        step = 1e-3 * np.random.default_rng(25).standard_normal(phi.shape)
        return TrainingObjective(problem, net), phi, step

    @staticmethod
    def alive(tapes):
        return [i for i, ref in enumerate(tapes) if ref() is not None]

    def test_iteration_start_and_probe(self, tapes):
        objective, phi, step = self.objective()
        objective.begin_iteration(phi)
        assert len(tapes) == 1 and self.alive(tapes) == []
        f, _ = objective(phi + step)
        assert np.isfinite(f)
        assert len(tapes) == 2 and self.alive(tapes) == [1]  # the held probe
        # the iteration start at the probed point sweeps the held tape again
        objective.begin_iteration(phi + step)
        assert len(tapes) == 2 and self.alive(tapes) == []

    def test_iteration_start_elsewhere(self, tapes):
        objective, phi, step = self.objective()
        objective(phi + step)
        assert self.alive(tapes) == [0]
        objective.begin_iteration(phi)  # the tracked Tape checks tape 0 is gone
        assert len(tapes) == 2 and self.alive(tapes) == []

    def test_inverted_probe(self, tapes):
        objective, phi, _ = self.objective()
        objective(phi)
        assert self.alive(tapes) == [0]
        bad = np.random.default_rng(24).standard_normal(phi.shape)
        f, _ = objective(bad)
        assert f == np.inf  # the probe stopped at InvertedState
        assert len(tapes) == 2 and self.alive(tapes) == []

    def test_curriculum_frees_each_finished_stage(self, tapes):
        # the tracked Tape checks at every evaluation, the second stage's
        # first included, that no earlier tape is alive
        from hyperelast.optim import CurriculumSchedule
        from hyperelast.solver import train

        problem, net = self.problem()
        schedule = CurriculumSchedule(fractions=(0.5, 1.0), stage_iters=(2, 2))
        _, history = train(problem, net, schedule=schedule)
        assert [row.stage for row in history.rows] == [0, 0, 1, 1]
        assert len(tapes) >= 4 and self.alive(tapes) == []


class TestFdCheck:
    def test_square(self):
        err = ad.fd_check(lambda x: float(x[0] ** 2), np.array([3.0]), np.array([6.0]), h=1e-5)
        assert err <= 1e-9

    def test_linear_exact(self):
        err = ad.fd_check(
            lambda x: float(2.0 * x[0] - x[1]), np.array([3.0, 1.0]),
            np.array([2.0, -1.0]), h=0.5,
        )
        assert err <= 1e-12

    def test_neo_hookean_energy_gradient(self):
        from hyperelast.materials import NeoHookean, eval_psi, eval_stress

        mat = NeoHookean(lam=577.0, mu=385.0)
        rng = np.random.default_rng(31)
        F = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        grad = eval_stress(mat, F).ravel()
        err = ad.fd_check(lambda f: float(eval_psi(mat, f.reshape(3, 3))), F.ravel(), grad, h=1e-6)
        assert err <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.fd_check(lambda x: float(x[0]), np.zeros(2), np.zeros(3))
