"""Tape and spatial-jet engine tests."""

import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hyperelast.autodiff as ad
from hyperelast.errors import DomainError, EmptyTape, SingularMatrix


def lifted(X):
    return ad.lift_point(np.asarray(X, dtype=np.float64))


class TestLiftCoordinate:
    def test_origin_axis0(self):
        j = ad.lift_coordinate(np.zeros(3), 0)
        assert j.val.data == 0.0
        assert_allclose(j.grad.data, [1.0, 0.0, 0.0])
        assert np.all(j.hess.data == 0.0)

    def test_point_axis2(self):
        j = ad.lift_coordinate(np.array([1.0, 2.0, 3.0]), 2)
        assert j.val.data == 3.0
        assert_allclose(j.grad.data, [0.0, 0.0, 1.0])

    def test_unit_self_derivative(self):
        j = ad.lift_coordinate(np.array([0.7, -0.1, 0.4]), 1)
        assert j.grad.data[1] == 1.0

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            ad.lift_coordinate(np.zeros(3), 3)


class TestJetPrimitives:
    def test_tanh_at_zero(self):
        j = ad.jet_tanh(ad.lift_coordinate(np.zeros(3), 0))
        assert j.val.data == 0.0
        assert_allclose(j.grad.data, [1.0, 0.0, 0.0])
        assert np.all(j.hess.data == 0.0)

    def test_det_of_constant_identity(self):
        eye = ad.jet_identity()
        d = ad.jet_det3(eye)
        assert d.val.data == 1.0
        assert np.all(d.grad.data == 0.0)

    def test_log_det_rank_one_update(self):
        # d/dX1 ln det(I + X1 e1 x e1) = 1/(1 + X1) = 1 at X1 = 0
        def make(X):
            x0, _, _ = lifted(X)
            eye = ad.jet_identity(())
            F = [[ad.jet_add(eye[0][0], x0) if (i, j) == (0, 0) else eye[i][j]
                  for j in range(3)] for i in range(3)]
            return ad.jet_log(ad.jet_det3(ad.jet_mat(F)))

        j = make(np.zeros(3))
        assert_allclose(j.grad.data[0], 1.0, rtol=1e-12)
        h = 1e-5
        fd = (make(np.array([h, 0, 0])).val.data - make(np.array([-h, 0, 0])).val.data) / (2 * h)
        assert abs(j.grad.data[0] - fd) / abs(fd) <= 1e-6

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            ad.jet_log(ad.jet_const(-1.0))

    def test_noninteger_pow_domain_error(self):
        with pytest.raises(DomainError):
            ad.jet_pow(ad.jet_const(-2.0), 0.5)

    def test_singular_matrix(self):
        zero = ad.jet_mat([[ad.jet_const(0.0)] * 3 for _ in range(3)])
        with pytest.raises(SingularMatrix):
            ad.jet_inv3(zero)

    def test_mul_hess_symmetric_bitwise(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((11, 3))
        x0, x1, x2 = lifted(X)
        prod = ad.jet_mul(ad.jet_sin(x0), ad.jet_mul(x1, ad.jet_cos(x2)))
        H = prod.hess.data
        assert np.array_equal(H, np.swapaxes(H, -1, -2))

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
            jm = ad.jet_mat([[ad.jet_const(A[i, j]) for j in range(3)] for i in range(3)])
            back = ad.jet_inv3(ad.jet_inv3(jm))
            for i in range(3):
                for j in range(3):
                    assert_allclose(back[i][j].val.data, A[i, j], atol=1e-12)

    def test_matmul_trace_transpose(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        ja = ad.jet_mat([[ad.jet_const(A[i, j]) for j in range(3)] for i in range(3)])
        jb = ad.jet_mat([[ad.jet_const(B[i, j]) for j in range(3)] for i in range(3)])
        prod = ad.jet_matmul(ja, ad.jet_transpose(jb))
        expected = A @ B.T
        for i in range(3):
            for j in range(3):
                assert_allclose(prod[i][j].val.data, expected[i, j], rtol=1e-14)
        assert_allclose(ad.jet_trace(ja).val.data, np.trace(A), rtol=1e-14)


def _rich_composition(X):
    """Exercise every primitive in one scalar expression."""
    x0, x1, x2 = lifted(X)
    a = ad.jet_mul(ad.jet_sin(x0), ad.jet_cos(x1))
    b = ad.jet_div(ad.jet_tanh(x2), ad.jet_add(ad.jet_const(2.0, X.shape[:-1]), ad.jet_mul(x1, x1)))
    c = ad.jet_log(ad.jet_add(ad.jet_pow(x0, 2), 1.5))
    d = ad.jet_pow(ad.jet_add(ad.jet_mul(x2, x2), 1.2), 0.75)
    return ad.jet_add(ad.jet_add(a, b), ad.jet_sub(c, d))


class TestSpatialDerivatives:
    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1.0, 1.0, size=(100, 3))
        jet = _rich_composition(X)
        h = 1e-5
        for k in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, k] += h
            Xm[:, k] -= h
            fd = (_rich_composition(Xp).val.data - _rich_composition(Xm).val.data) / (2 * h)
            err = np.abs(jet.grad.data[:, k] - fd) / np.maximum(np.abs(fd), 1e-8)
            assert err.max() <= 1e-6

    def test_hessian_matches_fd_of_gradient(self):
        # second derivatives against central differences of first
        # derivatives, 100 random points, step 1e-4
        rng = np.random.default_rng(12)
        X = rng.uniform(-1.0, 1.0, size=(100, 3))
        jet = _rich_composition(X)
        h = 1e-4
        scale = np.abs(jet.hess.data).max()
        for k in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, k] += h
            Xm[:, k] -= h
            fd = (_rich_composition(Xp).grad.data - _rich_composition(Xm).grad.data) / (2 * h)
            err = np.abs(jet.hess.data[:, k, :] - fd) / scale
            assert err.max() <= 1e-4


def _two_layer_loss(phi, x, shapes):
    (i1, o1), (i2, o2) = shapes
    tape = ad.Tape()
    p = tape.input(phi)
    n1 = i1 * o1
    W1 = ad.reshape(ad.take(p, np.arange(n1)), (o1, i1))
    W2 = ad.reshape(ad.take(p, np.arange(n1, n1 + i2 * o2)), (o2, i2))
    hidden = ad.tanh(ad.einsum2("i,oi->o", ad.constant(x), W1))
    out = ad.einsum2("i,oi->o", hidden, W2)
    loss = ad.mean(out)
    return loss, p


class TestReverseGradient:
    def test_quadratic(self):
        tape = ad.Tape()
        phi = tape.input(np.array([1.0, 2.0]))
        loss = ad.sum_(ad.mul(phi, phi))
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
    def objective():
        from hyperelast.bvp import preset
        from hyperelast.solver import TrainingObjective, build_network

        problem = preset("nh_cantilever_traction", grid=(3, 3, 3))
        net = build_network(problem, hidden=(6,), fourier_features=2, seed=1)
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
