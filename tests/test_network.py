"""Coordinate-network tests: features, forward pass, hard BCs."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hyperelast.autodiff as ad
import hyperelast.network as network
from hyperelast.bvp import BoxDomain, build_point_sets, preset
from hyperelast.errors import ShapeMismatch
from hyperelast.network import (
    BCEnforcer,
    DirichletFace,
    FieldNetwork,
    MLPSpec,
    BLOCK_POINTS,
    RFFMap,
    forward,
    row_blocks,
)


def dense(stack):
    """The (n, C, w) channel stack a FeatureStack stands for."""
    return stack.jets().transpose(1, 0, 2)


def dense_features(rff, X, order):
    """Reference: the dense stack (n, C, 2m) filled in one pass from the
    value rows and their quarter turns, with the products the blocks of a
    FeatureStack are built with."""
    W = 2.0 * np.pi * rff.freq
    w = np.einsum("...d,md->...m", X, W, optimize=True)
    c, s = np.cos(w), np.sin(w)
    stack = np.empty(X.shape[:-1] + (10 if order == 2 else 4, 2 * rff.m))
    val = stack[..., 0, :]
    val[..., 0::2] = c
    val[..., 1::2] = s
    turn = np.empty_like(val)
    np.negative(s, out=turn[..., 0::2])
    turn[..., 1::2] = c
    np.multiply(turn[..., None, :], np.repeat(W.T, 2, axis=-1), out=stack[..., 1:4, :])
    if order == 2:
        WW = (W[:, ad.PACK_A] * W[:, ad.PACK_B]).T
        np.multiply(
            np.negative(val)[..., None, :], np.repeat(WW, 2, axis=-1), out=stack[..., 4:, :]
        )
    return stack


class TestRFFMap:
    def test_origin_features(self):
        rff = RFFMap(m=5, sigma=2.0, seed=3)
        stack = rff.features(np.zeros((1, 3)))
        assert stack.shape == (1, 10, 10) and len(stack) == 1
        val = dense(stack)[:, 0]
        assert_allclose(val[0, 0::2], 1.0)  # cosines
        assert_allclose(val[0, 1::2], 0.0)  # sines

    def test_quarter_period(self):
        rff = RFFMap(m=1, sigma=1.0, seed=0)
        object.__setattr__(rff, "freq", np.array([[1.0, 0.0, 0.0]]))
        val = dense(rff.features(np.array([[0.25, 0.0, 0.0]])))[0, 0]
        assert_allclose(val, [np.cos(np.pi / 2), np.sin(np.pi / 2)], atol=1e-12)

    def test_sin_feature_gradient(self):
        rff = RFFMap(m=4, sigma=1.5, seed=1)
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(6, 3))
        grad = np.swapaxes(dense(rff.features(X))[:, 1:4], -1, -2)  # (n, 2m, 3)
        W = 2.0 * np.pi * rff.freq
        w = X @ W.T
        analytic = np.einsum("nm,md->nmd", np.cos(w), W)
        assert_allclose(grad[:, 1::2, :], analytic, rtol=1e-12)
        # and against finite differences
        h = 1e-6
        for k in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, k] += h
            Xm[:, k] -= h
            fd = (dense(rff.features(Xp))[:, 0] - dense(rff.features(Xm))[:, 0]) / (2 * h)
            err = np.abs(grad[..., k] - fd) / np.maximum(np.abs(grad[..., k]), 1e-8)
            assert err.max() <= 1e-6

    @pytest.mark.parametrize("order", [1, 2])
    def test_equal_to_stride_two_interleave(self, order):
        # the channel blocks are written contiguously from interleaved
        # pairs; every entry must equal the plain stride-2 interleave
        rff = RFFMap(m=7, sigma=1.3, seed=4)
        X = np.random.default_rng(8).uniform(-1, 1, size=(20, 3))
        W = 2.0 * np.pi * rff.freq
        w = np.einsum("...d,md->...m", X, W, optimize=True)
        cw, sw = np.cos(w)[..., None, :], np.sin(w)[..., None, :]
        want = np.empty(X.shape[:-1] + (10 if order == 2 else 4, 2 * rff.m))
        want[..., :1, 0::2] = cw
        want[..., :1, 1::2] = sw
        want[..., 1:4, 0::2] = -sw * W.T
        want[..., 1:4, 1::2] = cw * W.T
        if order == 2:
            WW = (W[:, ad.PACK_A] * W[:, ad.PACK_B]).T
            want[..., 4:, 0::2] = -cw * WW
            want[..., 4:, 1::2] = -sw * WW
        assert np.array_equal(dense(rff.features(X, order)), want)

    @pytest.mark.parametrize("order", [1, 2])
    def test_block_jets_equal_to_dense_stack(self, order):
        # a block's channel-major jets are bit for bit the rows of the dense
        # stack, for every block of the perceptron (the last one with a
        # merged sliver) and for arbitrary row ranges
        rff = RFFMap(m=16, sigma=1.0, seed=12)
        n = 2 * BLOCK_POINTS + 5
        X = np.random.default_rng(13).uniform(-1, 1, size=(n, 3))
        stack = rff.features(X, order)
        want = dense_features(rff, X, order)
        assert stack.shape == want.shape and len(stack) == n
        blocks = row_blocks(n, BLOCK_POINTS)
        assert blocks[-1] == (BLOCK_POINTS, n)
        buf = np.full(want.size, np.nan)
        for lo, hi in blocks + [(0, n), (3, 17), (n - 1, n)]:
            for jets in (stack.jets(lo, hi), stack.jets(lo, hi, buf)):
                assert jets.flags.c_contiguous
                assert np.array_equal(jets, want[lo:hi].transpose(1, 0, 2))
        assert np.shares_memory(stack.jets(0, 1, buf), buf)

    @pytest.mark.parametrize("order", [0, 3])
    def test_rejects_other_orders(self, order):
        with pytest.raises(ValueError, match="order"):
            RFFMap(m=2, sigma=1.0, seed=0).features(np.zeros((2, 3)), order)

    def test_unit_norm_sum(self):
        rff = RFFMap(m=13, sigma=0.7, seed=5)
        X = np.random.default_rng(6).uniform(-2, 2, size=(50, 3))
        val = dense(rff.features(X))[:, 0]
        norms = (val**2).sum(axis=-1)
        assert np.abs(norms - 13.0).max() <= 1e-12

    def test_reproducible_from_seed(self):
        assert np.array_equal(RFFMap(m=8, sigma=1.0, seed=9).freq,
                              RFFMap(m=8, sigma=1.0, seed=9).freq)

    def test_output_dim(self):
        assert RFFMap(m=7, sigma=1.0, seed=0).out_dim == 14


class TestMLPSpec:
    def test_param_count(self):
        spec = MLPSpec(widths=(8, 6, 12))
        assert spec.n_params == 8 * 6 + 6 + 6 * 12 + 12

    def test_output_width_enforced(self):
        with pytest.raises(ValueError):
            MLPSpec(widths=(8, 6, 7))

    def test_glorot_bounds(self):
        spec = MLPSpec(widths=(10, 20, 12))
        phi = spec.init_params(np.random.default_rng(0))
        w1 = phi[: 10 * 20]
        bound = np.sqrt(6.0 / 30.0)
        assert np.abs(w1).max() <= bound
        # biases start at zero
        b1 = phi[10 * 20: 10 * 20 + 20]
        assert np.all(b1 == 0.0)


def _node_loss(out, coeffs):
    """Fixed linear functional of every channel of the perceptron node."""
    return ad.inner(out, coeffs)


class TestForward:
    def test_zero_weights_constant_output(self):
        rff = RFFMap(m=3, sigma=1.0, seed=2)
        spec = MLPSpec(widths=(6, 4, 12))
        phi = np.zeros(spec.n_params)
        X = np.random.default_rng(3).uniform(-1, 1, size=(9, 3))
        tape = ad.Tape()
        out = forward(spec, tape.input(phi), (rff.features(X),))
        assert out.data.shape == (9, 10, 12)
        assert np.all(out.data[:, :4] == 0.0)

    def test_hand_composed_two_neuron_net(self):
        rff = RFFMap(m=1, sigma=1.0, seed=4)
        spec = MLPSpec(widths=(2, 2, 12))
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(spec.n_params)
        X = rng.uniform(-1, 1, size=(4, 3))
        tape = ad.Tape()
        out = forward(spec, tape.input(phi), (rff.features(X),))

        # independent composition with plain numpy
        W1 = phi[0:4].reshape(2, 2)
        b1 = phi[4:6]
        W2 = phi[6:30].reshape(12, 2)
        b2 = phi[30:42]
        w = 2.0 * np.pi * (X @ rff.freq.T).ravel()
        feats = np.stack([np.cos(w), np.sin(w)], axis=-1)
        hidden = np.tanh(feats @ W1.T + b1)
        expected = hidden @ W2.T + b2
        assert_allclose(out.data[:, 0], expected, rtol=1e-13)

    def test_bitwise_deterministic(self):
        rff = RFFMap(m=4, sigma=1.0, seed=6)
        spec = MLPSpec(widths=(8, 5, 12))
        phi = np.random.default_rng(7).standard_normal(spec.n_params)
        X = np.random.default_rng(8).uniform(-1, 1, size=(11, 3))
        o1 = forward(spec, ad.Tape().input(phi), (rff.features(X),))
        o2 = forward(spec, ad.Tape().input(phi), (rff.features(X),))
        assert np.array_equal(o1.data, o2.data)

    def test_shape_mismatch(self):
        rff = RFFMap(m=4, sigma=1.0, seed=6)
        spec = MLPSpec(widths=(8, 5, 12))
        with pytest.raises(ShapeMismatch):
            forward(spec, ad.Tape().input(np.zeros(3)), (rff.features(np.zeros((2, 3))),))

    def test_c2_continuity_of_hessians(self):
        # smooth activation: Hessians vary continuously between nearby points
        rff = RFFMap(m=4, sigma=1.0, seed=9)
        spec = MLPSpec(widths=(8, 6, 12))
        phi = ad.constant(0.3 * np.random.default_rng(10).standard_normal(spec.n_params))
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(20, 3))
        delta = 1e-3
        out = forward(spec, phi, (rff.features(X),))
        out2 = forward(spec, phi, (rff.features(X + delta),))
        gap = np.abs(out.data[:, 4:] - out2.data[:, 4:]).max()
        scale = max(np.abs(out.data[:, 4:]).max(), 1.0)
        assert gap <= 50.0 * delta * scale


    def test_order_one_matches_order_two_without_hessian_nodes(self):
        rff = RFFMap(m=3, sigma=1.0, seed=14)
        spec = MLPSpec(widths=(6, 5, 4, 12))
        rng = np.random.default_rng(15)
        phi = 0.5 * rng.standard_normal(spec.n_params)
        X = rng.uniform(-1, 1, size=(7, 3))
        f1 = rff.features(X, order=1)
        # the order-1 pass carries no Hessian channel through any layer
        assert f1.shape == (7, 4, 6)
        tape1, tape2 = ad.Tape(), ad.Tape()
        o1 = forward(spec, tape1.input(phi), (f1,))
        o2 = forward(spec, tape2.input(phi), (rff.features(X),))
        assert o1.data.shape == (7, 4, 12)
        assert np.array_equal(o1.data, o2.data[:, :4])
        ops1 = {n.op for n in tape1.nodes}
        ops2 = {n.op for n in tape2.nodes}
        assert "mlp[val,grad]" in ops1 and "mlp[val,grad,hess]" in ops2
        assert not any("hess" in op for op in ops1)

    def test_matches_generic_chain_rule_across_blocks(self):
        # reference: the same perceptron composed from generic tape
        # primitives, with t' = 1 - t^2 and t'' = -2 t t', on a batch of
        # three full blocks and a ragged one
        rff = RFFMap(m=3, sigma=1.0, seed=41)
        spec = MLPSpec(widths=(6, 5, 4, 12))
        rng = np.random.default_rng(42)
        x = 0.5 * rng.standard_normal(spec.n_params)
        n = 3 * BLOCK_POINTS + 17
        stack = rff.features(rng.uniform(-1, 1, size=(n, 3)))
        coeffs = rng.standard_normal((n, 10, 12))

        tape = ad.Tape()
        phi = tape.input(x)
        fused = forward(spec, phi, (stack,))
        g_fused = ad.reverse_gradient(_node_loss(fused, coeffs), phi)

        def slots(a):  # (value, gradient, packed Hessian), channels last
            return a[:, 0], np.moveaxis(a[:, 1:4], 1, -1), np.moveaxis(a[:, 4:], 1, -1)

        tape = ad.Tape()
        phi = tape.input(x)
        y = ad.Jet(*(ad.constant(a) for a in slots(dense(stack))))
        slices = spec.layer_slices()
        for li, (ws, bs, fi, fo) in enumerate(slices):
            W = ad.reshape(ad.take(phi, np.arange(ws.start, ws.stop)), (fo, fi))
            b = ad.take(phi, np.arange(bs.start, bs.stop))
            z = ad.Jet(
                ad.add(ad.contract(W, y.val, (1,), dest=1), b),
                ad.contract(W, y.grad, (1,), dest=1),
                ad.contract(W, y.hess, (1,), dest=1),
            )
            y = z
            if li == len(slices) - 1:
                continue
            t = ad.tanh(z.val)
            t1 = ad.sub(1.0, ad.mul(t, t))
            t2 = ad.mul(ad.mul(-2.0, t), t1)
            col1, col2 = ad.reshape(t1, (n, fo, 1)), ad.reshape(t2, (n, fo, 1))
            gg = ad.mul(ad.take(z.grad, ad.PACK_A, axis=-1), ad.take(z.grad, ad.PACK_B, axis=-1))
            y = ad.Jet(t, ad.mul(z.grad, col1), ad.add(ad.mul(z.hess, col1), ad.mul(gg, col2)))
        for got, want in zip(slots(fused.data), (y.val, y.grad, y.hess)):
            assert_allclose(got, want.data, rtol=1e-14)
        c_val, c_grad, c_hess = slots(coeffs)
        ref_loss = ad.add(
            ad.add(ad.inner(y.val, c_val), ad.inner(y.grad, c_grad)),
            ad.inner(y.hess, c_hess),
        )
        g_ref = ad.reverse_gradient(ref_loss, phi)
        assert_allclose(g_fused, g_ref, rtol=1e-12, atol=1e-13 * np.abs(g_ref).max())

    def test_split_rows_match_all_rows_order_two(self):
        # interior rows at order 2, boundary rows at order 1, each set
        # several blocks long with a ragged remainder (539 and 514 rows)
        ps = build_point_sets(BoxDomain(lengths=(2.0, 1.0, 1.0), counts=(13, 9, 9)))
        inner, rest = ps.interior_idx, ps.boundary_idx
        assert min(inner.size, rest.size) > 2 * BLOCK_POINTS
        rff = RFFMap(m=16, sigma=1.0, seed=43)
        spec = MLPSpec(widths=(32, 32, 32, 12))
        rng = np.random.default_rng(44)
        x = 0.5 * rng.standard_normal(spec.n_params)
        n = ps.n_points
        coeffs = rng.standard_normal((n, 10, 12))
        coeffs[rest, 4:] = 0.0  # Hessians are read on the order-2 rows only

        X = ps.points
        outs, grads, tapes = [], [], []
        for stacks, rows in (((rff.features(X),), None),
                             ((rff.features(X[inner]), rff.features(X[rest], 1)), (inner, rest))):
            tape = ad.Tape()
            phi = tape.input(x)
            outs.append(forward(spec, phi, stacks, rows))
            grads.append(ad.reverse_gradient(_node_loss(outs[-1], coeffs), phi))
            tapes.append([node.op for node in tape.nodes])
        full, split = (out.data for out in outs)
        assert np.array_equal(split[:, :4], full[:, :4])
        assert np.array_equal(split[inner], full[inner])
        assert np.all(split[rest, 4:] == 0.0)
        assert tapes[0] == tapes[1]
        assert np.abs(grads[1] - grads[0]).max() <= 1e-12 * np.abs(grads[0]).max()


class TestPerceptronMemory:
    """What the perceptron node keeps for its vjp: per block and hidden
    layer, the pre-activation jet Z (C, b, o) and t = tanh(Z[0]) (b, o)."""

    HIDDEN = 64

    @pytest.fixture(scope="class")
    def case(self):
        # an order-2 stack of three blocks and 17 rows and an order-1 stack
        # of two blocks and 5 rows, scattered over interleaved output rows
        rff = RFFMap(m=16, sigma=1.0, seed=51)
        spec = MLPSpec(widths=(32, self.HIDDEN, self.HIDDEN, 12))
        rng = np.random.default_rng(52)
        n2, n1 = 3 * BLOCK_POINTS + 17, 2 * BLOCK_POINTS + 5
        perm = rng.permutation(n2 + n1)
        X = rng.uniform(-1, 1, size=(n2 + n1, 3))
        rows = (np.sort(perm[:n2]), np.sort(perm[n2:]))
        stacks = (rff.features(X[rows[0]]), rff.features(X[rows[1]], 1))
        x = 0.5 * rng.standard_normal(spec.n_params)
        return spec, x, stacks, rows

    @staticmethod
    def _held(run):
        """Bytes still allocated after ``run()`` returns, with its result."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return result, held

    def test_taped_forward_keeps_z_and_t_per_hidden_layer(self, case):
        spec, x, stacks, rows = case
        phi = ad.Tape().input(x)
        out, held = self._held(lambda: forward(spec, phi, stacks, rows))
        n_hidden = len(spec.widths) - 2
        saved = sum(
            (stack.shape[1] + 1) * len(stack) * self.HIDDEN * 8 * n_hidden for stack in stacks
        )
        # Z and the whole tanh jet T would be 2C channels instead of C + 1
        assert out.data.nbytes + saved <= held <= out.data.nbytes + 1.02 * saved

    def test_vjp_sweeps_twice_bit_for_bit(self, case):
        spec, x, stacks, rows = case
        tape = ad.Tape()
        out = forward(spec, tape.input(x), stacks, rows)
        (_, _, vjp), = tape.nodes[out.node].edges
        adj = np.random.default_rng(53).standard_normal(out.data.shape)
        first = vjp(adj)
        assert np.array_equal(vjp(adj), first)
        # the sweep matches the one of a fresh forward pass
        tape = ad.Tape()
        again = forward(spec, tape.input(x), stacks, rows)
        assert np.array_equal(tape.nodes[again.node].edges[0][2](adj), first)

    def test_constant_forward_keeps_nothing_and_copies_no_t(self, case, monkeypatch):
        spec, x, stacks, rows = case
        fills = []

        def spy(Z, t, T):
            fills.append(np.shares_memory(t, T))
            return tanh_jet(Z, t, T)

        tanh_jet = network._tanh_jet
        monkeypatch.setattr(network, "_tanh_jet", spy)
        out, held = self._held(lambda: forward(spec, ad.constant(x), stacks, rows))
        assert out.node is None
        assert out.data.nbytes <= held <= out.data.nbytes + 16384
        # every block's tanh values were written straight into its jet
        assert len(fills) == 2 * (3 + 2) and all(fills)


def cantilever_net(seed=0, m=3, hidden=(6,)):
    problem = preset("nh_cantilever_traction", grid=(5, 5, 5))
    rff = RFFMap(m=m, sigma=1.0, seed=seed)
    spec = MLPSpec(widths=(2 * m,) + hidden + (12,))
    net = FieldNetwork(rff=rff, mlp=spec, enforcer=problem.enforcer, stress_scale=385.0)
    return problem, net


class TestHardBC:
    def test_fixed_face_exact_for_random_parameters(self):
        problem, net = cantilever_net()
        rng = np.random.default_rng(12)
        Y, Z = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        face = np.stack([np.zeros(25), Y.ravel(), Z.ravel()], axis=-1)
        worst = 0.0
        feats = ((net.rff.features(face),), None)
        bc = net.enforcer.bc_jets(face)
        for _ in range(1000):
            phi = ad.constant(rng.standard_normal(net.n_params))
            u, _, _ = net.fields(phi, face, features=feats, bc=bc)
            worst = max(worst, np.abs(u.val.data).max())
        assert worst == 0.0

    def test_prescribed_displacement_face_exact(self):
        problem = preset("lp_cantilever_displacement", grid=(5, 5, 5))
        rff = RFFMap(m=3, sigma=1.0, seed=1)
        spec = MLPSpec(widths=(6, 6, 12))
        net = FieldNetwork(rff=rff, mlp=spec, enforcer=problem.enforcer, stress_scale=150.0)
        Y, Z = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        face = np.stack([np.full(25, 4.0), Y.ravel(), Z.ravel()]).reshape(3, -1).T
        phi = ad.constant(np.random.default_rng(13).standard_normal(net.n_params))
        u, _, _ = net.fields(phi, face)
        assert np.all(u.val.data[:, 1] == -1.0)
        assert np.all(u.val.data[:, 0] == 0.0)
        assert np.all(u.val.data[:, 2] == 0.0)

    def test_product_rule_in_gradient(self):
        # interior points: du/dX carries B' y + B y' terms; check against FD
        problem, net = cantilever_net(seed=2, hidden=(8,))
        rng = np.random.default_rng(14)
        phi = ad.constant(rng.standard_normal(net.n_params))
        X = rng.uniform(0.2, 0.8, size=(7, 3))
        X[:, 0] = rng.uniform(0.5, 3.5, size=7)
        u, _, _ = net.fields(phi, X)
        h = 1e-6
        for k in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, k] += h
            Xm[:, k] -= h
            up, _, _ = net.fields(phi, Xp)
            um, _, _ = net.fields(phi, Xm)
            fd = (up.val.data - um.val.data) / (2 * h)
            err = np.abs(u.grad.data[..., k] - fd) / np.maximum(np.abs(fd), 1e-8)
            assert err.max() <= 1e-6

    def test_stress_passthrough_scaled(self):
        problem, net = cantilever_net(seed=3)
        rng = np.random.default_rng(15)
        phi_arr = rng.standard_normal(net.n_params)
        X = rng.uniform(0.1, 0.9, size=(5, 3))
        y = forward(net.mlp, ad.constant(phi_arr), (net.rff.features(X),)).data
        _, P, div_P = net.fields(ad.constant(phi_arr), X)
        assert_allclose(P.data, 385.0 * y[:, 0, 3:].reshape(5, 3, 3), rtol=1e-15)
        raw_grad = np.moveaxis(y[:, 1:4, 3:], 1, -1).reshape(5, 3, 3, 3)
        assert_allclose(div_P.data, 385.0 * np.trace(raw_grad, axis1=-2, axis2=-1), rtol=1e-15)
        assert net.fields(ad.constant(phi_arr), X, order=1)[2] is None

    def test_apply_accepts_first_order_jets(self):
        problem, net = cantilever_net(seed=4)
        rng = np.random.default_rng(16)
        phi = ad.constant(rng.standard_normal(net.n_params))
        X = rng.uniform(0.1, 0.9, size=(6, 3))
        y_u, _, _ = net.raw_outputs(phi, X)
        u2 = net.enforcer.apply(y_u, net.enforcer.bc_jets(X))
        y1 = ad.Jet(y_u.val, y_u.grad)
        for bc in (net.enforcer.bc_jets(X), net.enforcer.bc_jets(X, order=1)):
            u1 = net.enforcer.apply(y1, bc)
            assert u1.hess is None
            assert np.array_equal(u1.val.data, u2.val.data)
            assert np.array_equal(u1.grad.data, u2.grad.data)

    def test_head_fields_read_straight_off_the_perceptron_node(self):
        # one head node reads the perceptron node, its five outputs u's
        # value, gradient and Hessian and the scaled P and its divergence;
        # past it the tape holds only the BC composition of u
        problem, net = cantilever_net(seed=5)
        X = np.random.default_rng(17).uniform(0.1, 0.9, size=(6, 3))
        tape = ad.Tape()
        u, P, div_P = net.fields(tape.input(np.zeros(net.n_params)), X)
        ops = [node.op for node in tape.nodes]
        (mlp,) = [i for i, op in enumerate(ops) if op.startswith("mlp[")]
        readers = [i for i, node in enumerate(tape.nodes) if mlp in [e[0] for e in node.edges]]
        assert readers == [mlp + 1] and ops[mlp + 1] == "mlp_head"
        assert tape.nodes[mlp + 1].outputs == 5
        assert [(v.node, v.out) for v in (P, div_P)] == [(mlp + 1, 3), (mlp + 1, 4)]
        assert {op.split("[")[0] for op in ops[mlp + 2:]} == {"add", "mul", "scale", "matvec"}
        assert u.hess.node == len(ops) - 1

    def test_mask_vanishes_only_on_dirichlet_faces(self):
        problem = preset("lp_cantilever_displacement", grid=(5, 5, 5))
        enforcer = problem.enforcer
        X = np.array([[0.0, 0.5, 0.5], [4.0, 0.5, 0.5], [2.0, 0.0, 0.5]])
        _, _, vals, _, _, _ = enforcer.bc_jets(X)
        for i in range(3):
            assert vals[0, i] == 0.0 and vals[1, i] == 0.0
            assert vals[2, i] > 0.0
