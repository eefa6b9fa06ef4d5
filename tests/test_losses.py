"""Loss assembly and adaptive-weighting tests.

Manufactured fields are built directly as constant jets, so every
expected value here comes from hand algebra or a brute-force
recomputation independent of the production code path.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hyperelast.autodiff as ad
from hyperelast.bvp import (
    BoxDomain,
    ProblemSpec,
    TractionPatch,
    affine_problem,
    build_point_sets,
    preset,
)
from hyperelast.errors import LengthMismatch, NonFiniteLoss
from hyperelast.losses import (
    ENERGY_SHIFT_EPS,
    CoVState,
    LossWeights,
    assemble,
    mse_constitutive,
    mse_interior,
    mse_traction,
    potential_energy,
)
from hyperelast.materials import NeoHookean
from hyperelast.network import BCEnforcer, DirichletFace

NH = NeoHookean(lam=577.0, mu=385.0)


def linear_u_jets(X, G):
    """u = G X as an order-2 jet (zero Hessian)."""
    G = np.asarray(G, dtype=np.float64)
    batch = X.shape[:-1]
    return ad.Jet(
        ad.constant(X @ G.T),
        ad.constant(np.broadcast_to(G, batch + (3, 3))),
        ad.constant(np.zeros(batch + (3, 6))),
    )


def zero_u_jets(X):
    return linear_u_jets(X, np.zeros((3, 3)))


def const_stress(X, P0):
    """Spatially constant stress and its (zero) row divergence."""
    batch = X.shape[:-1]
    return (
        ad.constant(np.broadcast_to(np.asarray(P0, dtype=np.float64), batch + (3, 3))),
        ad.constant(np.zeros(batch + (3,))),
    )


class TestPotentialEnergy:
    def test_zero_field_zero_energy(self):
        problem = affine_problem("shear:0.3", (3, 3, 3))
        ps = problem.point_sets()
        total, internal, external = potential_energy(
            zero_u_jets(ps.points), problem, ps
        )
        assert total.data == 0.0
        assert internal.data == 0.0 and external.data == 0.0

    def test_zero_field_with_traction_zero_energy(self):
        problem = preset("nh_cantilever_traction", grid=(5, 3, 3))
        ps = problem.point_sets()
        total, internal, external = potential_energy(
            zero_u_jets(ps.points), problem, ps
        )
        assert total.data == 0.0

    def test_affine_shear_closed_form(self):
        # psi is constant for homogeneous shear, so the quadrature is exact:
        # energy = mu/2 * gamma^2 * volume (J = 1, I1 = 3 + gamma^2)
        gamma = 0.4
        problem = affine_problem(f"shear:{gamma}", (5, 5, 5))
        ps = problem.point_sets()
        G = np.zeros((3, 3))
        G[0, 1] = gamma
        total, internal, external = potential_energy(
            linear_u_jets(ps.points, G), problem, ps
        )
        assert_allclose(total.data, 0.5 * 385.0 * gamma**2, rtol=1e-13)
        assert external.data == 0.0

    def test_traction_work_enters_negatively(self):
        problem = preset("nh_cantilever_traction", grid=(5, 3, 3))
        ps = problem.point_sets()
        G = np.zeros((3, 3))
        G[1, 0] = -0.01  # small vertical droop grows along the beam
        u = linear_u_jets(ps.points, G)
        total, internal, external = potential_energy(u, problem, ps)
        # external work = integral over the unit loaded face X1 = 4 of
        # u2 * (-5), with u2 = -0.01 * 4 constant there
        expected_ext = (-0.01 * 4.0) * (-5.0) * 1.0
        assert_allclose(external.data, expected_ext, rtol=1e-12)
        assert_allclose(total.data, internal.data - external.data, rtol=1e-15)


class TestMSEConstitutive:
    def test_equal_fields(self):
        X = np.zeros((4, 3))
        P, _ = const_stress(X, np.eye(3))
        assert mse_constitutive(P, P).data == 0.0

    def test_single_point_definition(self):
        X = np.zeros((1, 3))
        P1, _ = const_stress(X, 2.0 * np.outer([1, 0, 0], [1, 0, 0]))
        P0, _ = const_stress(X, np.zeros((3, 3)))
        assert mse_constitutive(P1, P0).data == 4.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        N = 5
        A = rng.standard_normal((N, 3, 3))
        B = rng.standard_normal((N, 3, 3))
        X = np.zeros((N, 3))
        got = mse_constitutive(ad.constant(A), ad.constant(B)).data
        brute = 0.0
        for n in range(N):
            for i in range(3):
                for j in range(3):
                    brute += (A[n, i, j] - B[n, i, j]) ** 2
        brute /= N
        assert abs(got - brute) <= 1e-12 * max(1.0, brute)


def cantilever_points(grid=(5, 3, 3)):
    problem = preset("nh_cantilever_traction", grid=grid)
    return problem, problem.point_sets()


class TestMSETraction:
    def test_zero_stress_residual_is_load_magnitude(self):
        # zero stress violates only the loaded face, contributing |t|^2 per
        # point there; all zero-traction faces are satisfied exactly
        problem, ps = cantilever_points()
        Z, _ = const_stress(ps.points, np.zeros((3, 3)))
        tu, tn = mse_traction(Z, Z, ps)
        # 3 x 3 nodes on the loaded end; 9 + 4 * (5 x 3) (point, face) pairs
        assert np.count_nonzero(np.any(ps.tbar, axis=-1)) == 9
        assert ps.n_traction == 69
        expected = 9 * 25.0 / 69
        assert_allclose(tu.data, expected, rtol=1e-13)
        assert tn.data == tu.data

    def test_zero_traction_patches_satisfied_by_zero_stress(self):
        domain = BoxDomain(counts=(3, 3, 3))
        enforcer = BCEnforcer(lengths=domain.lengths,
                              faces=(DirichletFace(axis=0, side="lo"),))
        patches = tuple(TractionPatch(axis=a, side=s, traction=(0, 0, 0))
                        for a, s in [(1, "lo"), (1, "hi"), (2, "lo"), (2, "hi"), (0, "hi")])
        problem = ProblemSpec(name="t", domain=domain, material=NH,
                              enforcer=enforcer, patches=patches)
        ps = problem.point_sets()
        Z, _ = const_stress(ps.points, np.zeros((3, 3)))
        tu, tn = mse_traction(Z, Z, ps)
        assert tu.data == 0.0 and tn.data == 0.0

    def test_uniform_stress_satisfies_patch_points(self):
        # P = 300 e1 x e1 gives P N = t exactly on the loaded patch
        problem = preset("nh_localized_traction", grid=(11, 11, 11))
        ps = problem.point_sets()
        P0 = np.zeros((3, 3))
        P0[0, 0] = 300.0
        P, _ = const_stress(ps.points, P0)
        (f,) = np.flatnonzero(ps.normals[:, 0] == 1.0)  # the X1-hi face
        loaded = np.any(ps.tbar[:, f] != 0.0, axis=1)
        assert loaded.sum() == 9
        res = P0 @ ps.normals[f] - ps.tbar[loaded, f]
        assert np.all(res == 0.0)

    def test_matches_hand_expansion_single_point(self):
        rng = np.random.default_rng(2)
        domain = BoxDomain(counts=(3, 3, 3))
        enforcer = BCEnforcer(lengths=domain.lengths,
                              faces=(DirichletFace(axis=0, side="lo"),))
        tbar = (3.0, -1.0, 2.0)
        problem = ProblemSpec(
            name="t", domain=domain, material=NH, enforcer=enforcer,
            patches=(TractionPatch(axis=0, side="hi", traction=tbar),),
        )
        ps = problem.point_sets()
        A = rng.standard_normal((3, 3))
        P, _ = const_stress(ps.points, A)
        tu, tn = mse_traction(P, P, ps)
        assert ps.n_traction == 9  # the 3 x 3 nodes of the X1-hi face
        # every face point has the same residual, so the mean is one point's
        r = A @ np.array([1.0, 0.0, 0.0]) - np.asarray(tbar)
        brute = float(r @ r)
        assert_allclose(tu.data, brute, rtol=1e-12)
        assert_allclose(tn.data, brute, rtol=1e-12)

    def test_faces_sharing_an_edge_count_edge_points_once_per_face(self):
        rng = np.random.default_rng(5)
        domain = BoxDomain(counts=(5, 3, 7))
        enforcer = BCEnforcer(lengths=domain.lengths,
                              faces=(DirichletFace(axis=0, side="lo"),))
        loaded = [(0, (1.0, 0.0, 0.0), (2.0, -1.0, 0.5)),
                  (1, (0.0, 1.0, 0.0), (-3.0, 0.25, 4.0))]
        problem = ProblemSpec(
            name="t", domain=domain, material=NH, enforcer=enforcer,
            patches=tuple(TractionPatch(axis=a, side="hi", traction=t) for a, _, t in loaded),
        )
        ps = problem.point_sets()
        A, B = rng.standard_normal((2, 3, 3))
        tu, tn = mse_traction(const_stress(ps.points, A)[0], const_stress(ps.points, B)[0], ps)
        for P, got in ((A, tu), (B, tn)):
            brute, pairs = 0.0, 0
            for axis, normal, t in loaded:
                for X in ps.points:
                    if X[axis] == 1.0:
                        r = P @ np.asarray(normal) - np.asarray(t)
                        brute += float(r @ r)
                        pairs += 1
            assert pairs == 5 * 7 + 3 * 7  # the 7 edge points counted twice
            assert_allclose(got.data, brute / pairs, rtol=1e-12)


class TestMSEInterior:
    def test_constant_stress_zero_residual(self):
        problem, ps = cantilever_points()
        _, div = const_stress(ps.points, np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
        iu, inn = mse_interior(div, div, ps)
        assert iu.data == 0.0 and inn.data == 0.0

    def test_linear_stress_unit_divergence(self):
        # P = X1 e1 x e1 has div P = e1, so the residual is 1 everywhere
        problem, ps = cantilever_points()
        div = np.zeros((ps.n_points, 3))
        div[:, 0] = 1.0
        iu, inn = mse_interior(ad.constant(div), ad.constant(2.0 * div), ps)
        assert_allclose(iu.data, 1.0, rtol=1e-14)
        assert_allclose(inn.data, 4.0, rtol=1e-14)

    def test_affine_displacement_equilibrium(self):
        # homogeneous deformation: constant stress, zero divergence
        problem = affine_problem("shear:0.3", (5, 5, 5))
        ps = problem.point_sets()
        G = np.zeros((3, 3))
        G[0, 1] = 0.3
        u = linear_u_jets(ps.points, G)
        P0 = np.zeros((3, 3))
        breakdown = assemble(u, *const_stress(ps.points, P0), problem, ps)
        assert breakdown.mse_interior_u.data <= 1e-10


class TestCoVUpdate:
    @staticmethod
    def brute_force_weights(history):
        """Naive statistics over the stored loss history.

        Ratios use the previous-step running mean (first ratio defined as
        one); mean/std are population statistics over the stored ratios.
        """
        history = np.asarray(history, dtype=np.float64)
        T, n = history.shape
        ratios = np.ones((T, n))
        for t in range(1, T):
            mu_prev = history[:t].mean(axis=0)
            ratios[t] = np.where(mu_prev > 0, history[t] / np.where(mu_prev > 0, mu_prev, 1.0), 1.0)
        mu_l = ratios.mean(axis=0)
        sigma_l = ratios.std(axis=0)
        c = np.where(mu_l > 0, sigma_l / np.where(mu_l > 0, mu_l, 1.0), 0.0)
        z = c.sum()
        return np.full(n, 1.0 / n) if z <= 0 else c / z

    def test_identical_histories_symmetric(self):
        state = CoVState(2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.uniform(0.5, 2.0)
            w = state.update(np.array([v, v]))
            assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_constant_history_degenerates_to_uniform(self):
        state = CoVState(3)
        for _ in range(10):
            w = state.update(np.array([4.0, 4.0, 4.0]))
        assert_allclose(w, np.full(3, 1 / 3), atol=1e-15)

    def test_first_iteration_uniform(self):
        state = CoVState(4)
        w = state.update(np.array([1.0, 10.0, 100.0, 0.5]))
        assert_allclose(w, np.full(4, 0.25), atol=1e-15)

    def test_scripted_sequence_matches_brute_force(self):
        history = np.array([[1.0, 10.0, 100.0],
                            [0.5, 10.0, 200.0],
                            [0.25, 10.0, 400.0]])
        state = CoVState(3)
        for t in range(3):
            w = state.update(history[t])
            brute = self.brute_force_weights(history[: t + 1])
            assert_allclose(w, brute, atol=1e-10)
        # hand-computed second step: c = (1/3, 0, 1/3) -> (1/2, 0, 1/2)
        state2 = CoVState(3)
        state2.update(history[0])
        w2 = state2.update(history[1])
        assert_allclose(w2, [0.5, 0.0, 0.5], atol=1e-12)

    def test_streaming_matches_brute_force_long_random(self):
        rng = np.random.default_rng(4)
        history = rng.uniform(0.1, 10.0, size=(100, 5))
        state = CoVState(5)
        for t in range(100):
            w = state.update(history[t])
        brute = self.brute_force_weights(history)
        assert_allclose(w, brute, atol=1e-10)
        # streaming moments agree with the stored-history statistics
        ratios = np.ones((100, 5))
        for t in range(1, 100):
            ratios[t] = history[t] / history[:t].mean(axis=0)
        assert_allclose(state.mu_l, ratios.mean(axis=0), atol=1e-10)
        assert_allclose(np.sqrt(state.M_l), ratios.std(axis=0), atol=1e-10)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        state = CoVState(6)
        for _ in range(200):
            w = state.update(rng.uniform(0.01, 100.0, size=6))
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_scale_independence(self):
        rng = np.random.default_rng(6)
        history = rng.uniform(0.1, 5.0, size=(50, 4))
        a, b = CoVState(4), CoVState(4)
        scaled = history.copy()
        scaled[:, 2] *= 1e3
        for t in range(50):
            wa = a.update(history[t])
            wb = b.update(scaled[t])
            assert np.abs(wa - wb).max() <= 1e-10

    def test_non_finite_rejected(self):
        state = CoVState(2)
        with pytest.raises(NonFiniteLoss):
            state.update(np.array([1.0, np.nan]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            CoVState(3).update(np.ones(2))


class ScriptedBreakdown:
    """Six loss terms read off a (6,) Var, taped or constant."""

    def __init__(self, x):
        self.x = x

    def terms(self):
        return tuple(ad.inner(self.x, np.eye(6)[i]) for i in range(6))


class TestTotalLoss:
    def _unit_breakdown(self, problem, ps):
        u = zero_u_jets(ps.points)
        return assemble(u, *const_stress(ps.points, np.zeros((3, 3))), problem, ps)

    def test_uniform_weights_unit_terms(self):
        # direct check of the weighted-sum identity on scripted scalars
        total = LossWeights("full", has_traction=True).total(ScriptedBreakdown(np.ones(6)))
        assert_allclose(total.data, 1.0, rtol=1e-15)

    def test_dem_mask_keeps_energy_only(self):
        problem = preset("nh_cantilever_traction", grid=(5, 3, 3))
        ps = problem.point_sets()
        br = self._unit_breakdown(problem, ps)
        total = LossWeights("dem", has_traction=True).total(br)
        assert total.data == br.energy.data

    def test_dcm_mask_terms(self):
        for mask, has_traction, active in (
            ("full", True, (0, 1, 2, 3, 4, 5)),
            ("full", False, (0, 1, 4, 5)),
            ("dem", True, (0,)),
            ("dem", False, (0,)),
            ("dcm", True, (2, 4)),
            ("dcm", False, (4,)),
        ):
            assert LossWeights(mask, has_traction).active == active

    def test_weighted_sum_matches_dot_product(self):
        problem = preset("nh_localized_traction", grid=(5, 5, 5))
        ps = problem.point_sets()
        rng = np.random.default_rng(7)
        G = 0.01 * rng.standard_normal((3, 3))
        u = linear_u_jets(ps.points, G)
        br = assemble(u, *const_stress(ps.points, rng.standard_normal((3, 3))), problem, ps)
        weights = LossWeights("full", has_traction=True)
        for _ in range(3):
            weights.update(rng.uniform(0.1, 10.0, size=6))
        assert np.all(weights.values > 0.0)
        total = weights.total(br)
        assert_allclose(total.data, float(np.dot(weights.values, br.values())), rtol=1e-12)

    def test_total_tape_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        weights = LossWeights("full", has_traction=False)
        for _ in range(4):
            weights.update(rng.uniform(0.1, 10.0, size=6))

        def total(x):
            tape = ad.Tape()
            xv = tape.input(x)
            out = weights.total(ScriptedBreakdown(xv))
            return float(out.data), ad.reverse_gradient(out, xv)

        x = rng.uniform(0.1, 10.0, size=6)
        _, g = total(x)
        assert np.array_equal(g == 0.0, weights.values == 0.0)
        assert ad.fd_check(lambda v: total(v)[0], x, g, h=1e-6) <= 1e-8


class TestLossWeights:
    def test_uniform_over_active_until_history(self):
        weights = LossWeights("full", has_traction=False)
        expected = np.array([0.25, 0.25, 0.0, 0.0, 0.25, 0.25])
        assert np.array_equal(weights.values, expected)
        # the coefficient of variation is degenerate after one update
        weights.update(np.array([-3.0, 1.0, 0.0, 0.0, 10.0, 100.0]))
        assert np.array_equal(weights.values, expected)

    def test_energy_statistic_uses_earlier_floor(self, monkeypatch):
        weights = LossWeights("dem", has_traction=True)
        seen = []
        inner = weights.cov.update
        monkeypatch.setattr(weights.cov, "update", lambda v: seen.append(v.copy()) or inner(v))
        energies = (5.0, 3.0, 4.0, 1.0, 2.0)
        floors = []
        for e in energies:
            weights.update(np.array([e, 7.0, 7.0, 7.0, 7.0, 7.0]))
            floors.append(weights.energy_floor)
        assert floors == [5.0, 3.0, 3.0, 1.0, 1.0]
        eps = ENERGY_SHIFT_EPS
        expected = [eps, 2.0 + eps, 1.0 + eps, 2.0 + eps, 1.0 + eps]
        assert [float(v[0]) for v in seen] == expected
        assert all(v.shape == (1,) for v in seen)

    @pytest.mark.parametrize("mask, has_traction", [("dcm", True), ("full", False), ("dem", True)])
    def test_zero_off_active(self, mask, has_traction):
        weights = LossWeights(mask, has_traction)
        off = [i for i in range(6) if i not in weights.active]
        rng = np.random.default_rng(10)
        for _ in range(6):
            weights.update(rng.uniform(0.1, 10.0, size=6))
            assert np.all(weights.values[off] == 0.0)
            assert abs(weights.values.sum() - 1.0) <= 1e-12


class TestGradientFlow:
    def test_total_loss_gradient_matches_fd(self):
        from hyperelast.solver import TrainingObjective, build_network

        problem = preset("nh_cantilever_traction", grid=(3, 3, 3))
        net = build_network(problem, hidden=(8, 8), fourier_features=2, seed=8)
        objective = TrainingObjective(problem, net)
        rng = np.random.default_rng(9)
        phi = net.init_params() + 0.01 * rng.standard_normal(net.n_params)
        _, grad = objective(phi)
        scale = np.abs(grad).max()
        h = 1e-6
        for k in rng.choice(phi.size, size=40, replace=False):
            up, dn = phi.copy(), phi.copy()
            up[k] += h
            dn[k] -= h
            fd = (objective(up)[0] - objective(dn)[0]) / (2 * h)
            assert abs(grad[k] - fd) / scale <= 1e-5
