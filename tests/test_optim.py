"""Optimizer tests: LBFGS, strong Wolfe search, curriculum."""

import logging
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperelast import optim
from hyperelast.errors import (
    LineSearchFailure,
    MaxProbesExceeded,
    NonFiniteObjective,
    NotDescentDirection,
)
from hyperelast.optim import (
    CurriculumSchedule,
    LBFGSConfig,
    curriculum_train,
    lbfgs_minimize,
    strong_wolfe_search,
)


def quadratic(center):
    center = np.asarray(center, dtype=np.float64)

    def fn(phi):
        d = phi - center
        return 0.5 * float(d @ d), d

    return fn


def rosenbrock(phi):
    x, y = phi
    f = (1 - x) ** 2 + 100.0 * (y - x * x) ** 2
    g = np.array([
        -2 * (1 - x) - 400.0 * x * (y - x * x),
        200.0 * (y - x * x),
    ])
    return f, g


def spd_quadratic(n, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lams = np.linspace(1.0, cond, n)
    A = Q @ np.diag(lams) @ Q.T
    b = rng.standard_normal(n)

    def fn(phi):
        g = A @ phi - b
        return 0.5 * float(phi @ A @ phi) - float(b @ phi), g

    return fn, np.linalg.solve(A, b)


def _nan_first_search_at_iteration_2(monkeypatch):
    """Three LBFGS iterations on an 8-d quadratic whose first line search
    of iteration 2 sees only NaN probes, with a budget of 5 probes."""
    monkeypatch.setattr(optim, "MAX_PROBES", 5)
    fn, _ = spd_quadratic(8, seed=6, cond=20.0)

    class Objective:
        def __init__(self):
            self.calls, self.nan_left, self.begins = 0, 0, []

        def __call__(self, phi):
            self.calls += 1
            if self.nan_left:
                self.nan_left -= 1
                return np.nan, np.zeros_like(phi)
            return fn(phi)

        def begin_iteration(self, phi):
            self.calls += 1
            self.begins.append(fn(phi)[1])
            if len(self.begins) == 2:
                self.nan_left = optim.MAX_PROBES
            return fn(phi)

        def stats(self):
            return None

    obj = Objective()
    return obj, lbfgs_minimize(obj, np.ones(8), LBFGSConfig(max_iters=3))[1]


class TestLBFGS:
    def test_unit_quadratic_three_iterations(self):
        rng = np.random.default_rng(0)
        center = rng.standard_normal(12)
        phi, hist = lbfgs_minimize(
            quadratic(center), rng.standard_normal(12),
            LBFGSConfig(max_iters=10, grad_tol=1e-12),
        )
        assert np.abs(phi - center).max() <= 1e-10
        assert len(hist) <= 3

    def test_rosenbrock(self):
        phi, hist = lbfgs_minimize(
            rosenbrock, np.array([-1.2, 1.0]),
            LBFGSConfig(max_iters=200, grad_tol=1e-12),
        )
        assert np.abs(phi - 1.0).max() <= 1e-6

    def test_hundred_dim_quadratic(self):
        fn, sol = spd_quadratic(100, seed=1)
        phi, hist = lbfgs_minimize(
            fn, np.zeros(100), LBFGSConfig(max_iters=50, grad_tol=1e-8)
        )
        assert hist.status == "converged"
        assert len(hist) <= 50
        assert np.linalg.norm(fn(phi)[1]) <= 1e-8

    def test_nan_objective_keeps_iterate(self):
        phi0 = np.array([1.0, 2.0])

        def nan_away(phi):
            if np.array_equal(phi, phi0):
                return 1.0, np.array([1.0, 1.0])
            return np.nan, np.zeros(2)

        phi, hist = lbfgs_minimize(nan_away, phi0, LBFGSConfig(max_iters=5))
        assert hist.status == "line_search_failure"
        assert np.array_equal(phi, phi0)
        # no step taken: one row for the starting iterate, with every probe
        (row,) = hist.rows
        assert (row.iter, row.total, row.step) == (1, 1.0, 0.0)
        assert row.grad_norm == np.sqrt(2.0) and row.n_evals == 1 + optim.MAX_PROBES

    def test_start_at_minimum_records_one_row(self):
        center = np.array([1.0, -2.0])
        phi, hist = lbfgs_minimize(quadratic(center), center, stage=2, iter_offset=5)
        assert hist.status == "converged" and np.array_equal(phi, center)
        (row,) = hist.rows
        assert (row.stage, row.iter, row.total, row.grad_norm) == (2, 6, 0.0, 0.0)
        assert (row.step, row.n_evals) == (0.0, 1)

    def test_steepest_descent_retry_bookkeeping(self, monkeypatch):
        # the first line search of iteration 2 sees only NaN probes and
        # fails; the retry along -g must be what the history records, and
        # the failed search's probes must still count as evaluations
        obj, hist = _nan_first_search_at_iteration_2(monkeypatch)
        assert len(hist) == 3 and obj.nan_left == 0
        g2 = obj.begins[1]
        assert_allclose(hist.wolfe[1][1], -float(g2 @ g2), rtol=1e-12)
        assert sum(row.n_evals for row in hist.rows) == obj.calls

    def test_failed_search_logged_with_its_cause(self, monkeypatch, caplog):
        # one INFO line per failed search, beside the three row lines
        with caplog.at_level(logging.INFO, logger="hyperelast.optim"):
            _, hist = _nan_first_search_at_iteration_2(monkeypatch)
        lines = [r.getMessage() for r in caplog.records if r.name == "hyperelast.optim"]
        assert len(lines) == len(hist) + 1
        assert lines[1] == (
            "stage 0 iter 2: line search along LBFGS failed after 6 evals "
            "(no Wolfe point within 5 probes); retrying along -g"
        )
        assert lines[2].startswith(f"stage 0 iter 2: total {hist.rows[1].total:.6e}")

    def test_nonfinite_at_start(self):
        with pytest.raises(NonFiniteObjective):
            lbfgs_minimize(lambda p: (np.inf, p), np.ones(2), LBFGSConfig())

    def test_monotone_totals_on_fixed_objective(self):
        fn, _ = spd_quadratic(30, seed=2, cond=50.0)
        _, hist = lbfgs_minimize(fn, np.ones(30), LBFGSConfig(max_iters=40, grad_tol=1e-10))
        totals = np.array([r.total for r in hist.rows])
        assert np.all(np.diff(totals) <= 1e-12 * np.maximum(1.0, np.abs(totals[:-1])))

    def test_wolfe_conditions_at_every_accepted_step(self):
        fn, _ = spd_quadratic(20, seed=3, cond=80.0)
        config = LBFGSConfig(max_iters=40, grad_tol=1e-10)
        _, hist = lbfgs_minimize(fn, np.ones(20), config)
        assert hist.wolfe, "no steps recorded"
        for f0, dg0, alpha, f_new, dg_new in hist.wolfe:
            assert f_new <= f0 + optim.C1 * alpha * dg0 + 1e-14 * max(1.0, abs(f0))
            assert abs(dg_new) <= optim.C2 * abs(dg0) + 1e-14

    def test_history_one_memory_still_converges(self, monkeypatch):
        monkeypatch.setattr(optim, "HISTORY", 1)
        fn, sol = spd_quadratic(10, seed=4)
        phi, hist = lbfgs_minimize(fn, np.zeros(10), LBFGSConfig(max_iters=200, grad_tol=1e-9))
        assert np.abs(phi - sol).max() <= 1e-7

    def test_determinism(self):
        fn, _ = spd_quadratic(25, seed=5)
        phi1, h1 = lbfgs_minimize(fn, np.ones(25), LBFGSConfig(max_iters=30))
        phi2, h2 = lbfgs_minimize(fn, np.ones(25), LBFGSConfig(max_iters=30))
        assert np.array_equal(phi1, phi2)
        assert [r.total for r in h1.rows] == [r.total for r in h2.rows]


class TestStrongWolfe:
    def test_quadratic_unit_step(self):
        center = np.zeros(3)
        fn = quadratic(center)
        phi = np.array([1.0, -2.0, 0.5])
        f0, g0 = fn(phi)
        d = -g0
        alpha, f_a, g_a = strong_wolfe_search(fn, phi, d, f0, g0, alpha0=1.0)
        assert 0.9 <= alpha <= 1.1
        dg0 = g0 @ d
        assert f_a <= f0 + 1e-4 * alpha * dg0
        assert abs(g_a @ d) <= 0.9 * abs(dg0)

    def test_random_convex_quadratic_conditions(self):
        fn, _ = spd_quadratic(15, seed=6, cond=30.0)
        rng = np.random.default_rng(7)
        for trial in range(10):
            phi = rng.standard_normal(15)
            f0, g0 = fn(phi)
            d = -g0
            alpha, f_a, g_a = strong_wolfe_search(fn, phi, d, f0, g0, alpha0=1.0)
            dg0 = g0 @ d
            assert f_a <= f0 + 1e-4 * alpha * dg0 + 1e-14
            assert abs(g_a @ d) <= 0.9 * abs(dg0) + 1e-14

    def test_ascent_direction_rejected(self):
        fn = quadratic(np.zeros(2))
        phi = np.array([1.0, 1.0])
        f0, g0 = fn(phi)
        with pytest.raises(NotDescentDirection):
            strong_wolfe_search(fn, phi, +g0, f0, g0)

    def test_probe_budget(self, monkeypatch):
        monkeypatch.setattr(optim, "MAX_PROBES", 6)
        probes = []

        def bad(phi):
            probes.append(float(phi[0]))
            return np.nan, np.zeros(1)

        with pytest.raises(LineSearchFailure):
            strong_wolfe_search(bad, np.zeros(1), np.array([-1.0]), 1.0, np.array([1.0]))
        assert len(probes) == 6

    def test_bracket_doubles_the_step_while_descent_continues(self):
        # f = x^2 / 2 from x = 10 along -1: alpha 0.5 is short (slope -9.5
        # against the bound 0.9 * 10), so the bracket phase doubles it, and
        # alpha 1.0 meets both conditions
        probes = []

        def fn(phi):
            probes.append(float(phi[0]))
            return 0.5 * float(phi[0]) ** 2, phi.copy()

        phi = np.array([10.0])
        f0, g0 = fn(phi)
        probes.clear()
        alpha, f_a, g_a = strong_wolfe_search(fn, phi, np.array([-1.0]), f0, g0, alpha0=0.5)
        assert probes == [9.5, 9.0]
        assert (alpha, f_a, float(g_a[0])) == (1.0, 40.5, 9.0)

    def test_zoom_runs_out_of_probes(self):
        # f = |x - 0.3| from 0 along +1: the unit step overshoots, and no
        # point of the bracket [0, 1] has a slope as small as the
        # curvature condition asks, so zoom spends the whole budget
        probes = []

        def fn(phi):
            probes.append(float(phi[0]))
            return abs(float(phi[0]) - 0.3), np.sign(phi - 0.3)

        f0, g0 = fn(np.zeros(1))
        probes.clear()
        with pytest.raises(MaxProbesExceeded, match="no Wolfe point within 30 probes"):
            strong_wolfe_search(fn, np.zeros(1), np.array([1.0]), f0, g0)
        assert len(probes) == optim.MAX_PROBES == 30
        assert probes[0] == 1.0 and all(0.0 < a < 1.0 for a in probes[1:])

    def test_infinite_probe_in_zoom_falls_back_to_bisection_silently(self, monkeypatch):
        # f is +inf on (0.04, 0.95): the first step overshoots into a finite
        # but too high value, the cubic on [0, 1] falls below 0.1 and is
        # clamped into the infinite gap, and the cubic through an infinite
        # endpoint must not be formed: zoom bisects until both ends are finite
        probes = []

        def fn(phi):
            a = float(phi[0])
            probes.append(a)
            f = np.inf if 0.04 < a < 0.95 else (a - 0.03) ** 2 + (10.0 if a >= 0.95 else 0.0)
            return f, np.array([2.0 * (a - 0.03)])

        monkeypatch.setattr(optim, "C2", 0.1)
        f0, g0 = fn(np.zeros(1))
        probes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, f_a, _ = strong_wolfe_search(fn, np.zeros(1), np.array([1.0]), f0, g0)
        assert (alpha, f_a) == (0.03, 0.0)
        # 0.1 is the clamp, 0.05 and 0.0375 bisect a bracket with an
        # infinite end, 0.03 is the cubic once both ends are finite
        assert probes == pytest.approx([1.0, 0.1, 0.05, 0.025, 0.0375, 0.03], rel=1e-15)

    def test_zoom_clamps_a_cubic_step_near_the_bracket_end(self):
        # f = (x - 0.05)^2, plus 10 from x = 0.95, from 0 along +1: the
        # cubic on [0, 1] falls below 0 + 0.1 * 1, so zoom probes exactly
        # 0.1 rather than the midpoint, then the cubic on [0, 0.1] is exact
        probes = []

        def fn(phi):
            a = float(phi[0])
            probes.append(a)
            return (a - 0.05) ** 2 + (10.0 if a >= 0.95 else 0.0), np.array([2.0 * (a - 0.05)])

        f0, g0 = fn(np.zeros(1))
        f1, g1 = fn(np.ones(1))
        assert optim._cubic_step(0.0, f0, float(g0[0]), 1.0, f1, float(g1[0])) < 0.1
        probes.clear()
        alpha, _, _ = strong_wolfe_search(fn, np.zeros(1), np.array([1.0]), f0, g0)
        assert probes[:2] == [1.0, 0.1]
        assert alpha == pytest.approx(0.05, rel=1e-12)

    def test_non_finite_step_stays_the_bracket_end(self, monkeypatch):
        # f = (x - 0.6)^2 below 0.8 and +inf from 0.8, from 0 along +1: the
        # unit step is infinite and 0.5 is still short, so the search
        # bisects towards 1.0 instead of doubling back onto it, and the
        # cubic on [0.5, 0.75] is exact
        probes = []

        def fn(phi):
            a = float(phi[0])
            probes.append(a)
            return (np.inf if a >= 0.8 else (a - 0.6) ** 2), np.array([2.0 * (a - 0.6)])

        monkeypatch.setattr(optim, "C2", 0.1)
        f0, g0 = fn(np.zeros(1))
        probes.clear()
        alpha, _, _ = strong_wolfe_search(fn, np.zeros(1), np.array([1.0]), f0, g0)
        assert probes == pytest.approx([1.0, 0.5, 0.75, 0.6], rel=1e-15)
        assert alpha == pytest.approx(0.6, rel=1e-12)


class TestSteepestStep:
    def test_model_step_capped_at_unit_length(self):
        # 2|f| / |g|^2 below the unit-length step 1/|g|; a negative f
        # (an energy-only total) uses |f|; f = 0 takes 1/|g|
        assert optim._steepest_step(2.0, 10.0) == 0.04
        assert optim._steepest_step(-2.0, 10.0) == 0.04
        assert optim._steepest_step(100.0, 10.0) == 0.1
        assert optim._steepest_step(0.0, 4.0) == 0.25

    def test_zero_value_objective_minimizes(self):
        # f(x) = x^2 - 2x is 0 at x = 2, where g = 2: no division by zero,
        # and the first trial step is 1/|g| = 0.5, onto the minimizer x = 1
        probes = []

        def fn(phi):
            probes.append(float(phi[0]))
            return float(phi[0] ** 2 - 2.0 * phi[0]), 2.0 * phi - 2.0

        phi, hist = lbfgs_minimize(fn, np.array([2.0]), LBFGSConfig(max_iters=5, grad_tol=1e-12))
        assert probes == [2.0, 1.0, 1.0]
        assert hist.status == "converged" and phi[0] == 1.0

    def test_isotropic_quadratic_in_one_probe(self):
        # 0.5 c |x|^2: the model step 2f/|g|^2 = 1/c is the exact minimizer,
        # where 1/|g| would overshoot it 447-fold
        c = 1e6

        def fn(phi):
            return 0.5 * c * float(phi @ phi), c * phi

        phi, hist = lbfgs_minimize(fn, np.array([1e-3, 2e-3]), LBFGSConfig(max_iters=5))
        assert hist.status == "converged"
        assert hist.rows[0].n_evals == 2
        assert np.abs(phi).max() <= 1e-18

    def test_fallback_after_non_descent_direction(self, monkeypatch):
        # the second iteration's two-loop direction points uphill: the
        # memory is cleared and the search along -g starts at the model
        # step, not at the unit step phi - g
        fn, _ = spd_quadratic(8, seed=13, cond=20.0)
        two_loop = optim._two_loop
        calls, begins, probes = [], [], []

        def uphill_once(g, *args):
            calls.append(1)
            return g.copy() if len(calls) == 2 else two_loop(g, *args)

        class Objective:
            def __call__(self, phi):
                probes.append(phi.copy())
                return fn(phi)

            def begin_iteration(self, phi):
                begins.append((phi.copy(), *fn(phi)))
                return fn(phi)

            def stats(self):
                return None

        monkeypatch.setattr(optim, "_two_loop", uphill_once)
        _, hist = lbfgs_minimize(Objective(), np.ones(8), LBFGSConfig(max_iters=2))
        assert len(hist) == 2
        phi2, f2, g2 = begins[1]
        step = optim._steepest_step(f2, float(np.linalg.norm(g2)))
        first = probes[hist.rows[0].n_evals - 1]
        assert np.array_equal(first, phi2 + step * -g2)
        assert np.abs(first - (phi2 - g2)).max() > 1e-3


class TestCurriculum:
    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            CurriculumSchedule(fractions=(1.0, 0.5))
        with pytest.raises(ValueError):
            CurriculumSchedule(fractions=(0.5, 0.9))
        with pytest.raises(ValueError):
            CurriculumSchedule(fractions=())
        CurriculumSchedule(fractions=(0.25, 0.5, 0.75, 1.0))

    def test_single_stage_identical_to_plain_minimize(self):
        fn, _ = spd_quadratic(8, seed=9)
        fractions = []

        def factory(fraction):
            fractions.append(fraction)
            return fn

        phi_a, hist_a = curriculum_train(
            CurriculumSchedule(fractions=(1.0,)), factory, np.ones(8), LBFGSConfig(max_iters=30),
        )
        assert fractions == [1.0]
        phi_b, hist_b = lbfgs_minimize(fn, np.ones(8), LBFGSConfig(max_iters=30))
        assert np.array_equal(phi_a, phi_b)
        assert [r.total for r in hist_a.rows] == [r.total for r in hist_b.rows]

    def test_warm_start_beats_cold_start(self):
        # train the affine shear patch test at half load, then compare the
        # full-load starting losses with and without the warm start
        from hyperelast.bvp import affine_problem
        from hyperelast.solver import TrainingObjective, build_network, train

        problem = affine_problem("shear:0.3", (5, 5, 5))
        net = build_network(problem, hidden=(12,), fourier_features=4, seed=10)
        phi0 = net.init_params()
        phi_warm, hist = train(
            problem, net,
            schedule=CurriculumSchedule(fractions=(0.5, 1.0), stage_iters=(60, 1)),
            opt_config=LBFGSConfig(max_iters=60, grad_tol=1e-14),
            phi0=phi0,
        )
        stages = {r.stage for r in hist.rows}
        assert stages == {0, 1}
        objective = TrainingObjective(problem, net)
        f_warm = objective(phi_warm)[0]
        f_cold = objective(phi0)[0]
        assert f_warm <= f_cold

    def test_stage_budgets_applied(self):
        fn, _ = spd_quadratic(6, seed=11)
        _, hist = curriculum_train(
            CurriculumSchedule(fractions=(0.5, 1.0), stage_iters=(2, 3)),
            lambda fraction: fn, np.ones(6), LBFGSConfig(max_iters=100),
        )
        assert max(r.iter for r in hist.rows if r.stage == 0) <= 2

    def test_stage_failure_names_its_stage(self):
        fn, _ = spd_quadratic(4, seed=12)

        def factory(fraction):
            return fn if fraction < 1.0 else (lambda phi: (np.inf, np.zeros_like(phi)))

        message = r"^stage 1 \(fraction 1.0\): objective is inf at the current iterate$"
        with pytest.raises(NonFiniteObjective, match=message):
            curriculum_train(
                CurriculumSchedule(fractions=(0.5, 1.0)), factory, np.ones(4),
                LBFGSConfig(max_iters=5),
            )
