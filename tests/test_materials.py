"""Constitutive model tests.

Expected values for the worked examples were frozen from independent
scalar evaluations of the energy formulas (see the numbers inline).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import hyperelast.autodiff as ad
from hyperelast.errors import DomainError, InvertedState
from hyperelast.materials import (
    LopezPamies,
    NeoHookean,
    cauchy,
    deformation_gradient,
    eval_cauchy,
    eval_psi,
    eval_stress,
    state_from_array,
    von_mises,
)

NH = NeoHookean(lam=577.0, mu=385.0)
LP = LopezPamies(alphas=(1.0, -2.0), mus=(100.0, 50.0), lam=100.0)


def jet_grad_u(G):
    return ad.Jet(ad.constant(np.asarray(G, dtype=np.float64)))


def random_rotation(rng):
    A = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(A)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


class TestDeformationGradient:
    def test_undeformed(self):
        state = deformation_gradient(jet_grad_u(np.zeros((3, 3))))
        assert state.J.val.data == 1.0
        assert state.I1.val.data == 3.0

    def test_simple_shear(self):
        gamma = 0.37
        G = np.zeros((3, 3))
        G[0, 1] = gamma
        state = deformation_gradient(jet_grad_u(G))
        assert_allclose(state.J.val.data, 1.0, rtol=1e-15)
        assert_allclose(state.I1.val.data, 3.0 + gamma**2, rtol=1e-15)

    def test_inverted(self):
        with pytest.raises(InvertedState) as info:
            deformation_gradient(jet_grad_u(np.diag([-1.0, 0.0, 0.0])))
        assert info.value.point_index is not None


def wavy_field(X):
    """Smooth non-affine displacement u_i = 0.1 sin(w_i . X + c_i): its
    gradient (..., 3, 3) and its Hessian (..., 3, 3, 3)."""
    W = np.array([[1.3, -0.7, 0.4], [0.5, 1.1, -0.9], [-0.8, 0.6, 1.2]])
    c = np.array([0.3, -0.2, 0.5])
    arg = X @ W.T + c
    grad = 0.1 * np.cos(arg)[..., None] * W
    hess = -0.1 * np.sin(arg)[..., None, None] * np.einsum("ij,ik->ijk", W, W)
    return grad, hess


class TestSpatialTangents:
    """The first-order spatial jets carried by the state, and the row
    divergence of P_u, against central differences in X of the value-only
    evaluation."""

    @staticmethod
    def state_at(X, with_gradients=True):
        grad, hess = wavy_field(X)
        return deformation_gradient(
            ad.Jet(ad.constant(grad), ad.constant(hess) if with_gradients else None)
        )

    @pytest.mark.parametrize("mat", [NH, LP], ids=["neo_hookean", "lopez_pamies"])
    def test_gradients_match_fd(self, mat):
        X = np.random.default_rng(17).uniform(-1.0, 1.0, size=(40, 3))
        state = self.state_at(X)
        _, div_P = mat.stress(state)

        def values(st):
            return {"F": st.F.val.data, "lnJ": np.log(st.J.val.data),
                    "P_u": mat.stress(st)[0].data}

        # gradient array (..., 3) of each value; ln J's and div F's are the
        # state's own (J and I1 carry none; Lopez-Pamies' grad I1 is checked
        # through its div P_u)
        grads = {"F": state.F.grad, "lnJ": state.grad_lnJ}
        h = 1e-5
        div_F_fd = div_P_fd = 0.0
        for k in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, k] += h
            Xm[:, k] -= h
            plus = values(self.state_at(Xp, with_gradients=False))
            minus = values(self.state_at(Xm, with_gradients=False))
            fd = {name: (plus[name] - minus[name]) / (2 * h) for name in plus}
            for name, grad in grads.items():
                scale = np.abs(grad.data).max()
                err = np.abs(grad.data[..., k] - fd[name]).max() / scale
                assert err <= 1e-8, (name, err)
            div_F_fd = div_F_fd + fd["F"][..., k]
            div_P_fd = div_P_fd + fd["P_u"][..., k]
        for name, div, div_fd in (("div_F", state.div_F, div_F_fd), ("div_P_u", div_P, div_P_fd)):
            err = np.abs(div.data - div_fd).max() / np.abs(div.data).max()
            assert err <= 1e-8, (name, err)

    def test_order_zero_state_has_no_divergence(self):
        state = state_from_array(np.eye(3) + 0.1)
        assert state.grad_lnJ is None and state.div_F is None
        assert NH.stress(state)[1] is None


class TestNeoHookean:
    def test_energy_zero_at_identity(self):
        assert eval_psi(NH, np.eye(3)) == 0.0

    def test_energy_uniaxial_stretch(self):
        # 0.5*577*ln(2)^2 - 385*ln(2) + 0.5*385*3 evaluated directly
        psi = eval_psi(NH, np.diag([2.0, 1.0, 1.0]))
        assert_allclose(psi, 449.24903, rtol=1e-6)

    def test_energy_frame_indifferent(self):
        rng = np.random.default_rng(5)
        F = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        base = eval_psi(NH, F)
        for _ in range(100):
            Q = random_rotation(rng)
            assert abs(eval_psi(NH, Q @ F) - base) <= 1e-10 * (1.0 + abs(base))

    def test_stress_zero_at_identity(self):
        assert np.all(eval_stress(NH, np.eye(3)) == 0.0)

    def test_stress_is_energy_gradient(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(20):
            F = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
            P = eval_stress(NH, F)
            scale = np.abs(P).max()
            for i in range(3):
                for j in range(3):
                    Fp, Fm = F.copy(), F.copy()
                    Fp[i, j] += h
                    Fm[i, j] -= h
                    fd = (eval_psi(NH, Fp) - eval_psi(NH, Fm)) / (2 * h)
                    assert abs(P[i, j] - fd) / scale <= 1e-6

    def test_simple_shear_cauchy(self):
        gamma = 0.4
        F = np.eye(3)
        F[0, 1] = gamma
        S = eval_cauchy(NH, F)
        # closed form at J=1: S = mu (F F^T - I)
        assert_allclose(S, NH.mu * (F @ F.T - np.eye(3)), atol=1e-10)
        assert_allclose(S[0, 1], NH.mu * gamma, rtol=1e-14)


class TestLopezPamies:
    def test_energy_zero_at_identity(self):
        assert eval_psi(LP, np.eye(3)) == 0.0

    def test_single_term_alpha_one_matches_closed_form(self):
        mat = LopezPamies(alphas=(1.0,), mus=(90.0,), lam=40.0)
        rng = np.random.default_rng(7)
        for _ in range(10):
            F = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
            J = np.linalg.det(F)
            if J <= 0.2:
                continue
            I1 = np.trace(F.T @ F)
            expected = 0.5 * 90.0 * (I1 - 3.0) - 90.0 * np.log(J) + 20.0 * (J - 1.0) ** 2
            assert_allclose(eval_psi(mat, F), expected, rtol=1e-12)

    def test_energy_uniaxial_stretch(self):
        # frozen from a direct scalar evaluation of the power-law sum
        psi = eval_psi(LP, np.diag([1.2, 1.0, 1.0]))
        assert_allclose(psi, 5.631282435476844, rtol=1e-12)

    def test_stress_zero_at_identity(self):
        assert_allclose(eval_stress(LP, np.eye(3)), np.zeros((3, 3)), atol=1e-13)

    def test_stress_is_energy_gradient(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(20):
            F = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
            P = eval_stress(LP, F)
            scale = np.abs(P).max()
            for i in range(3):
                for j in range(3):
                    Fp, Fm = F.copy(), F.copy()
                    Fp[i, j] += h
                    Fm[i, j] -= h
                    fd = (eval_psi(LP, Fp) - eval_psi(LP, Fm)) / (2 * h)
                    assert abs(P[i, j] - fd) / scale <= 1e-6

    def test_alpha_one_terms_reproduce_neo_hookean_shear_part(self):
        mat = LopezPamies(alphas=(1.0,), mus=(385.0,), lam=0.0)
        rng = np.random.default_rng(9)
        F = np.eye(3) + 0.15 * rng.standard_normal((3, 3))
        P = eval_stress(mat, F)
        # with alpha = 1 the power-law factor collapses to mu
        expected = 385.0 * F - 385.0 * np.linalg.inv(F).T
        assert_allclose(P, expected, rtol=1e-12)

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            LopezPamies(alphas=(0.0,), mus=(1.0,), lam=0.0)

    def test_frame_indifference(self):
        rng = np.random.default_rng(10)
        F = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        base = eval_psi(LP, F)
        for _ in range(100):
            Q = random_rotation(rng)
            assert abs(eval_psi(LP, Q @ F) - base) <= 1e-10 * (1.0 + abs(base))


def rotation_from_quaternion(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# F = I + A with bounded entries, kept where det F >= 0.2; examples are
# derived from the test itself and no example database is kept
deformations = arrays(np.float64, (3, 3), elements=st.floats(-0.6, 0.6)).map(
    lambda A: np.eye(3) + A
).filter(lambda F: np.linalg.det(F) >= 0.2)
quaternions = arrays(np.float64, 4, elements=st.floats(-1.0, 1.0))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@pytest.mark.parametrize("mat", [NH, LP], ids=["neo_hookean", "lopez_pamies"])
class TestMaterialProperties:
    @PROPERTY
    @given(F=deformations, q=quaternions)
    def test_frame_indifference(self, mat, F, q):
        assume(np.linalg.norm(q) >= 0.1)
        Q = rotation_from_quaternion(q)
        psi, P = eval_psi(mat, F), eval_stress(mat, F)
        assert abs(eval_psi(mat, Q @ F) - psi) <= 1e-10 * (1.0 + abs(psi))
        scale = 1.0 + np.abs(P).max()
        assert np.abs(eval_stress(mat, Q @ F) - Q @ P).max() <= 1e-10 * scale

    @PROPERTY
    @given(F=deformations)
    def test_stress_is_central_difference_of_energy(self, mat, F):
        h = 1e-6
        E = np.eye(9).reshape(9, 3, 3) * h
        fd = ((eval_psi(mat, F + E) - eval_psi(mat, F - E)) / (2 * h)).reshape(3, 3)
        P = eval_stress(mat, F)
        assert np.abs(P - fd).max() <= 1e-6 * (1.0 + np.abs(P).max())


class TestCauchy:
    def test_zero_stress(self):
        F = np.diag([1.3, 0.9, 1.1])
        S = cauchy(np.zeros((3, 3)), F, np.linalg.det(F))
        assert np.all(S == 0.0)

    def test_identity_returns_p(self):
        state = state_from_array(np.eye(3))
        P = NH.stress(state)[0].data
        S = cauchy(P, state.F.val.data, state.J.val.data)
        assert np.array_equal(S, P)

    def test_shear_value(self):
        F = np.eye(3)
        F[0, 1] = 0.5
        assert_allclose(eval_cauchy(NH, F)[0, 1], 192.5, rtol=1e-14)

    def test_symmetric_for_isotropic_states(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            Q = random_rotation(rng)
            D = np.diag(rng.uniform(0.7, 1.4, size=3))
            F = Q @ D @ Q.T
            S = eval_cauchy(NH, F)
            assert np.abs(S - S.T).max() <= 1e-10 * max(1.0, np.abs(S).max())


class TestVonMises:
    def test_pure_pressure(self):
        assert von_mises(4.2 * np.eye(3)) == 0.0

    def test_uniaxial(self):
        assert_allclose(von_mises(np.diag([7.0, 0.0, 0.0])), 7.0, rtol=1e-14)

    def test_pure_shear(self):
        S = np.zeros((3, 3))
        S[0, 1] = S[1, 0] = 2.5
        assert_allclose(von_mises(S), np.sqrt(3.0) * 2.5, rtol=1e-14)

    def test_batched(self):
        S = np.stack([np.diag([1.0, 0, 0]), 3.0 * np.eye(3)])
        out = von_mises(S)
        assert_allclose(out, [1.0, 0.0], atol=1e-14)
