"""Manufactured-solution and metric tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hyperelast.autodiff as ad
from hyperelast.bvp import (
    BoxDomain,
    ProblemSpec,
    TractionPatch,
    affine_dirichlet_problem,
    build_point_sets,
)
from hyperelast.errors import NoBracket, ZeroReference
from hyperelast.losses import TERM_NAMES, assemble
from hyperelast.materials import LopezPamies, NeoHookean, eval_cauchy, eval_psi, eval_stress
from hyperelast.network import BCEnforcer, DirichletFace
from hyperelast.reference import affine_solution, l2_error, uniaxial_oracle

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


def const_stress(X, P0):
    """Spatially constant stress and its (zero) row divergence."""
    batch = X.shape[:-1]
    return (
        ad.constant(np.broadcast_to(np.asarray(P0, dtype=np.float64), batch + (3, 3))),
        ad.constant(np.zeros(batch + (3,))),
    )


class TestL2Error:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.u = rng.standard_normal((40, 3))
        self.w = rng.uniform(0.1, 1.0, size=40)

    def test_identity(self):
        assert l2_error(self.u, self.u, self.w) == 0.0

    def test_homogeneity(self):
        assert_allclose(l2_error(1.1 * self.u, self.u, self.w), 0.1, rtol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        perm = rng.permutation(40)
        a = l2_error(1.3 * self.u, self.u, self.w)
        b = l2_error(1.3 * self.u[perm], self.u[perm], self.w[perm])
        assert_allclose(a, b, rtol=1e-13)

    def test_zero_reference(self):
        with pytest.raises(ZeroReference):
            l2_error(self.u, np.zeros_like(self.u), self.w)


def simple_shear(gamma):
    """Affine solution of F0 = I + gamma e1 x e2 (volume preserving); for
    neo-Hookean, S = mu (F0 F0^T - I), so S12 = mu gamma, S11 = mu gamma^2."""
    F0 = np.eye(3)
    F0[0, 1] = gamma
    return affine_solution(F0, NH)


class TestSimpleShearOracle:
    def test_zero_gamma(self):
        sol = simple_shear(0.0)
        assert np.all(sol.S0 == 0.0) and np.all(sol.P0 == 0.0)

    def test_half_gamma_values(self):
        sol = simple_shear(0.5)
        assert_allclose(sol.S0[0, 1], 192.5, rtol=1e-14)
        assert_allclose(sol.S0[1, 0], 192.5, rtol=1e-14)
        assert_allclose(sol.S0[0, 0], 96.25, rtol=1e-14)
        assert sol.S0[2, 2] == 0.0

    def test_matches_material_module(self):
        sol = simple_shear(0.5)
        assert_allclose(eval_cauchy(NH, sol.F0), sol.S0, atol=1e-12)
        assert_allclose(eval_stress(NH, sol.F0), sol.P0, atol=1e-12)

    def test_displacement_field(self):
        sol = simple_shear(0.3)
        X = np.array([[1.0, 2.0, 3.0]])
        assert_allclose(sol.displacement(X), [[0.6, 0.0, 0.0]], rtol=1e-15)


class TestUniaxialOracle:
    def test_unit_stretch(self):
        sol = uniaxial_oracle(1.0, NH)
        assert_allclose(sol.F0, np.eye(3), atol=1e-9)
        assert np.abs(sol.P0).max() <= 1e-7

    def test_lateral_stress_killed(self):
        sol = uniaxial_oracle(1.2, NH)
        assert abs(sol.P0[1, 1]) <= 1e-10
        assert abs(sol.P0[2, 2]) <= 1e-10
        assert sol.P0[0, 0] > 0.0

    def test_transverse_symmetry(self):
        sol = uniaxial_oracle(1.4, NH)
        assert sol.F0[1, 1] == sol.F0[2, 2]

    def test_transverse_contraction_monotone(self):
        lts = []
        for stretch in np.linspace(1.0, 2.0, 9):
            lts.append(uniaxial_oracle(stretch, NH).F0[1, 1])
        assert all(b < a + 1e-9 for a, b in zip(lts, lts[1:]))
        assert lts[-1] < lts[0]

    def test_works_for_power_law_material(self):
        mat = LopezPamies(alphas=(1.0, -2.0), mus=(100.0, 50.0), lam=100.0)
        sol = uniaxial_oracle(1.3, mat)
        assert abs(sol.P0[1, 1]) <= 1e-10

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            uniaxial_oracle(1.2, NH, bracket=(0.99, 1.0))


class TestAffineDirichletProblem:
    def test_identity_state_zero_loss(self):
        problem = affine_dirichlet_problem(np.eye(3), NH, grid=(3, 3, 3))
        ps = problem.point_sets()
        u = linear_u_jets(ps.points, np.zeros((3, 3)))
        br = assemble(u, *const_stress(ps.points, np.zeros((3, 3))), problem, ps)
        assert np.all(br.values() == 0.0)

    def test_exact_field_passes_loss_module(self):
        F0 = np.diag([1.1, 1.0, 1.0])
        problem = affine_dirichlet_problem(F0, NH, grid=(5, 5, 5))
        ps = problem.point_sets()
        sol = affine_solution(F0, NH)
        u = linear_u_jets(ps.points, F0 - np.eye(3))
        br = assemble(u, *const_stress(ps.points, sol.P0), problem, ps)
        terms = dict(zip(TERM_NAMES, br.values()))
        assert terms["mse_interior_u"] <= 1e-10
        assert terms["mse_interior_net"] <= 1e-10
        assert terms["mse_constitutive"] <= 1e-12

    def test_exact_power_law_field_zero_interior_residual(self):
        # the power-law stress's coefficient of F varies with I1, so its
        # divergence carries the F grad a term, zero for an affine field
        mat = LopezPamies(alphas=(1.0, -2.0), mus=(100.0, 50.0), lam=100.0)
        F0 = np.diag([1.1, 0.95, 1.0])
        F0[0, 1] = 0.2
        problem = affine_dirichlet_problem(F0, mat, grid=(5, 5, 5))
        ps = problem.point_sets()
        sol = affine_solution(F0, mat)
        u = linear_u_jets(ps.points, F0 - np.eye(3))
        br = assemble(u, *const_stress(ps.points, sol.P0), problem, ps)
        terms = dict(zip(TERM_NAMES, br.values()))
        assert terms["mse_interior_u"] == 0.0
        assert terms["mse_interior_net"] == 0.0
        assert terms["mse_constitutive"] <= 1e-12

    def test_reference_matches_affine_solution(self):
        F0 = np.eye(3)
        F0[0, 1] = 0.3
        problem = affine_dirichlet_problem(F0, NH, grid=(3, 3, 3))
        sol = affine_solution(F0, NH)
        X = problem.point_sets().points
        assert_allclose(problem.reference(X), sol.displacement(X), rtol=1e-14)

    def test_traction_consistency_on_loaded_cube(self):
        # prescribe t = P0 N on two opposite faces: the affine field then
        # satisfies the traction residual exactly on those faces
        F0 = np.diag([1.05, 0.98, 1.0])
        sol = affine_solution(F0, NH)
        domain = BoxDomain(counts=(5, 5, 5))
        patches = []
        for side, sign in (("lo", -1.0), ("hi", 1.0)):
            normal = sign * np.eye(3)[0]
            patches.append(
                TractionPatch(axis=0, side=side, traction=tuple(sol.P0 @ normal))
            )
        enforcer = BCEnforcer(
            lengths=domain.lengths,
            faces=(DirichletFace(axis=1, side="lo"),),
            lift_lin=tuple(tuple(row) for row in (F0 - np.eye(3))),
        )
        problem = ProblemSpec(name="t", domain=domain, material=NH,
                              enforcer=enforcer, patches=tuple(patches))
        ps = problem.point_sets()
        u = linear_u_jets(ps.points, F0 - np.eye(3))
        br = assemble(u, *const_stress(ps.points, sol.P0), problem, ps)
        terms = dict(zip(TERM_NAMES, br.values()))
        assert terms["mse_traction_u"] <= 1e-20
        assert terms["mse_traction_net"] <= 1e-20


class TestUniaxialTractionState:
    """The exact uniaxial-stress field of a unit cube on rollers, loaded by
    a normal traction on its X1-hi face and free on X2-hi and X3-hi."""

    def test_exact_jets_zero_residuals_and_closed_form_energy(self):
        sol = uniaxial_oracle(1.1, NH)
        p11 = sol.P0[0, 0]
        assert_allclose(p11, 93.164, rtol=1e-5)
        domain = BoxDomain(counts=(9, 9, 9))
        rollers = tuple(DirichletFace(a, "lo", components=(a,)) for a in range(3))
        enforcer = BCEnforcer(lengths=domain.lengths, faces=rollers)
        patches = (
            TractionPatch(axis=0, side="hi", traction=(p11, 0.0, 0.0)),
            TractionPatch(axis=1, side="hi", traction=(0.0, 0.0, 0.0)),
            TractionPatch(axis=2, side="hi", traction=(0.0, 0.0, 0.0)),
        )
        problem = ProblemSpec(name="uniaxial", domain=domain, material=NH,
                              enforcer=enforcer, patches=patches)
        ps = problem.point_sets()
        u = linear_u_jets(ps.points, sol.F0 - np.eye(3))
        br = assemble(u, *const_stress(ps.points, sol.P0), problem, ps)
        terms = dict(zip(TERM_NAMES, br.values()))
        assert terms["mse_constitutive"] == 0.0
        assert terms["mse_interior_u"] == 0.0
        assert terms["mse_interior_net"] == 0.0
        assert terms["mse_traction_u"] <= 1e-20
        assert terms["mse_traction_net"] <= 1e-20
        # constant psi over the unit volume, minus the work of p11 through
        # the end displacement u1 = 0.1
        expected = eval_psi(NH, sol.F0) - 0.1 * p11
        assert_allclose(terms["energy"], expected, rtol=1e-12)
        assert_allclose(expected, -4.548991, rtol=1e-6)
