"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the
measured quantities. The training-based criteria use deliberately small
network configurations; every tolerance is pinned here, not tuned at
run time. Expect several minutes total on one CPU.
"""

import os
import time

import numpy as np
import pytest

from hyperelast import bvp, cli, optim, solver, verification
from hyperelast.exports import read_history
from hyperelast.losses import CoVState
from hyperelast.materials import (
    LopezPamies,
    NeoHookean,
    eval_psi,
    eval_stress,
)
from hyperelast.optim import LBFGSConfig, lbfgs_minimize
from hyperelast.reference import l2_error

NH = NeoHookean(lam=577.0, mu=385.0)
LP = LopezPamies(alphas=(1.0, -2.0), mus=(100.0, 50.0), lam=100.0)


def report(criterion, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def train_patch(problem, hidden=(16, 16), m=8, sigma=1.0, max_iters=300, seed=0):
    net = solver.build_network(
        problem, hidden=hidden, fourier_features=m, fourier_sigma=sigma, seed=seed
    )
    phi, hist = solver.train(
        problem, net, opt_config=LBFGSConfig(max_iters=max_iters, grad_tol=1e-10)
    )
    return net, phi, hist


class TestCriterion3Constitutive:
    def test_constitutive_exactness(self):
        tic = time.time()
        exact = (
            np.all(eval_psi(NH, np.eye(3)) == 0.0)
            and np.all(eval_stress(NH, np.eye(3)) == 0.0)
            and np.all(eval_psi(LP, np.eye(3)) == 0.0)
            and np.abs(eval_stress(LP, np.eye(3))).max() <= 1e-13
        )
        name, err, tol, fd_ok = verification.check_material_consistency(seed=0, n=100)
        elapsed = time.time() - tic
        report(
            3,
            exact and fd_ok and elapsed <= 30.0,
            f"psi(I)=0 and P(I)=0 exact; P vs FD max rel err {err:.2e} "
            f"(tol 1e-6) on 2x100 random states; {elapsed:.1f}s (limit 30s)",
        )


class TestCriterion5Quadrature:
    def test_simpson(self):
        domain = bvp.BoxDomain(lengths=(4.0, 1.0, 1.0), counts=(9, 5, 5))
        ps = bvp.build_point_sets(domain)
        worst = 0.0
        for p in range(4):
            for q in range(4):
                for r in range(4):
                    f = ps.points[:, 0] ** p * ps.points[:, 1] ** q * ps.points[:, 2] ** r
                    exact = (4.0 ** (p + 1) / (p + 1)) / (q + 1) / (r + 1)
                    worst = max(worst, abs(float(np.sum(f * ps.vol_weights)) - exact) / exact)
        cube = bvp.build_point_sets(bvp.BoxDomain(counts=(9, 3, 3)))
        sine = float(np.sum(np.sin(np.pi * cube.points[:, 0]) * cube.vol_weights))
        sine_err = abs(sine - 2.0 / np.pi)
        report(
            5,
            worst <= 1e-13 and sine_err <= 1e-4,
            f"monomials through cubic exact to {worst:.2e} (limit 1e-13); "
            f"sin(pi x) at n=9 off by {sine_err:.2e} (limit 1e-4)",
        )


class TestCriterion6CoV:
    def test_weighting(self):
        rng = np.random.default_rng(0)
        # normalization at every step
        state = CoVState(6)
        sums_ok = True
        for _ in range(300):
            w = state.update(rng.uniform(0.01, 50.0, size=6))
            sums_ok &= abs(w.sum() - 1.0) <= 1e-12
        # streaming vs brute force over stored history
        history = rng.uniform(0.1, 10.0, size=(100, 4))
        state = CoVState(4)
        for t in range(100):
            w = state.update(history[t])
        ratios = np.ones((100, 4))
        for t in range(1, 100):
            ratios[t] = history[t] / history[:t].mean(axis=0)
        mu_err = np.abs(state.mu_l - ratios.mean(axis=0)).max()
        sd_err = np.abs(np.sqrt(state.M_l) - ratios.std(axis=0)).max()
        # symmetric two-term histories
        state = CoVState(2)
        sym_ok = True
        for _ in range(50):
            v = rng.uniform(0.1, 5.0)
            sym_ok &= np.allclose(state.update(np.array([v, v])), [0.5, 0.5], atol=1e-14)
        # scaling one term's history leaves its weights unchanged
        base_hist = rng.uniform(0.1, 5.0, size=(100, 3))
        scaled_hist = base_hist.copy()
        scaled_hist[:, 1] *= 1e3
        a, b = CoVState(3), CoVState(3)
        scale_gap = 0.0
        for t in range(100):
            scale_gap = max(scale_gap, np.abs(a.update(base_hist[t]) - b.update(scaled_hist[t])).max())
        report(
            6,
            sums_ok and mu_err <= 1e-10 and sd_err <= 1e-10 and sym_ok and scale_gap <= 1e-10,
            f"sum(w)=1 each step; streaming vs stored stats off by "
            f"{max(mu_err, sd_err):.2e} (limit 1e-10); symmetric pairs get (1/2, 1/2); "
            f"1e3 scaling shifts weights by {scale_gap:.2e} (limit 1e-10)",
        )


class TestCriterion7Optimizer:
    def test_lbfgs(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((100, 100)))
        A = Q @ np.diag(np.linspace(1.0, 10.0, 100)) @ Q.T
        b = rng.standard_normal(100)

        def quad(phi):
            g = A @ phi - b
            return 0.5 * float(phi @ A @ phi) - float(b @ phi), g

        config = LBFGSConfig(max_iters=50, grad_tol=1e-8)
        phi, hist = lbfgs_minimize(quad, np.zeros(100), config)
        gnorm = np.linalg.norm(quad(phi)[1])
        quad_ok = hist.status == "converged" and len(hist) <= 50 and gnorm <= 1e-8

        def rosen(phi):
            x, y = phi
            return (
                (1 - x) ** 2 + 100.0 * (y - x * x) ** 2,
                np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)]),
            )

        phi_r, hist_r = lbfgs_minimize(rosen, np.array([-1.2, 1.0]),
                                       LBFGSConfig(max_iters=200, grad_tol=1e-12))
        rosen_ok = np.abs(phi_r - 1.0).max() <= 1e-6

        wolfe_ok = bool(hist.wolfe) and bool(hist_r.wolfe)
        for record in (hist, hist_r):
            for f0, dg0, alpha, f_new, dg_new in record.wolfe:
                wolfe_ok &= f_new <= f0 + optim.C1 * alpha * dg0 + 1e-13 * max(1.0, abs(f0))
                wolfe_ok &= abs(dg_new) <= optim.C2 * abs(dg0) + 1e-13 * max(1.0, abs(dg0))
        report(
            7,
            quad_ok and rosen_ok and wolfe_ok,
            f"100-dim quadratic: grad norm {gnorm:.2e} in {len(hist)} iters "
            f"(limits 1e-8, 50); Rosenbrock off optimum by {np.abs(phi_r - 1.0).max():.2e} "
            f"(limit 1e-6); strong Wolfe held at every accepted step: {wolfe_ok}",
        )


class TestCriterion4Differentiation:
    def test_fd_suites(self):
        tic = time.time()
        _, loss_err, loss_tol, loss_ok = verification.check_loss_gradient(seed=0)
        _, hess_err, hess_tol, hess_ok = verification.check_spatial_hessians(seed=0)
        elapsed = time.time() - tic
        report(
            4,
            loss_ok and hess_ok and elapsed <= 60.0,
            f"six-term loss gradient vs FD {loss_err:.2e} (tol 1e-5, 2x8 net, 5^3 grid); "
            f"spatial Hessians vs FD {hess_err:.2e} (tol 1e-4); {elapsed:.1f}s (limit 60s)",
        )


class TestCriterion10Determinism:
    def test_bitwise_identical_history(self, tmp_path):
        args = [
            "solve", "--affine", "shear:0.3",
            "--set", "problem.grid=5,5,5",
            "--set", "network.hidden=8",
            "--set", "network.fourier_features=4",
            "--set", "optimizer.max_iters=25",
        ]
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(args + ["--out", out1]) == 0
        assert cli.main(args + ["--out", out2]) == 0
        h1 = open(os.path.join(out1, "history.csv"), "rb").read()
        h2 = open(os.path.join(out2, "history.csv"), "rb").read()
        report(
            10,
            h1 == h2,
            f"two solve runs with identical seed/config produced byte-identical "
            f"history files ({len(h1)} bytes)",
        )


class TestCriterion1AffinePatch:
    def test_shear_and_stretch(self):
        tic = time.time()
        results = {}
        for label, problem in (
            ("shear 0.3", bvp.affine_problem("shear:0.3", (9, 9, 9))),
            ("stretch 1.1", bvp.affine_problem("stretch:1.1,1.0,1.0", (9, 9, 9))),
        ):
            net, phi, hist = train_patch(problem, max_iters=300)
            assert len(hist) <= 2000
            results[label] = solver.solution_l2(problem, net, phi)
        elapsed = time.time() - tic
        worst = max(results.values())
        report(
            1,
            worst <= 1e-3 and elapsed <= 600.0,
            f"trained patch-test l2 errors "
            + ", ".join(f"{k}: {v:.2e}" for k, v in results.items())
            + f" (limit 1e-3, <= 2000 iters, 9^3 grid); {elapsed:.0f}s (limit 600s)",
        )


class TestCriterion2ShearStress:
    def test_stress_recovery(self):
        problem = bvp.preset("nh_simple_shear", grid=(9, 9, 9))
        net, phi, hist = train_patch(problem, max_iters=300)
        ps = problem.point_sets()
        fields = solver.evaluate_fields(net, phi, ps.points)
        s12 = float(np.sum(ps.vol_weights * fields["S"][:, 0, 1]) / ps.vol_weights.sum())
        target = 385.0 * 0.5
        rel = abs(s12 - target) / target
        mse_p = hist.rows[-1].terms[1]
        limit = 1e-2 * target**2
        report(
            2,
            rel <= 0.02 and mse_p <= limit,
            f"volume-averaged S12 {s12:.2f} Pa vs {target} Pa (rel {rel:.2e}, limit 2e-2); "
            f"constitutive MSE {mse_p:.2e} (limit {limit:.1f})",
        )


class TestCriterion8MaskComparison:
    def test_compare_masks(self, tmp_path, capsys):
        from hyperelast.config import RunConfig

        cfg = RunConfig({
            "problem.affine": "shear:0.3",
            "problem.grid": "13,13,13",
            "network.hidden": "8",
            "network.fourier_features": "2",
            "network.fourier_sigma": "0.3",
            "optimizer.max_iters": "500",
        })
        rows = solver.compare_masks(cfg)
        table = {r["mask"]: r["l2_error"] for r in rows}
        finished = all(r["status"] in ("converged", "max_iters") for r in rows)
        out = str(tmp_path / "masks")
        code = cli.main([
            "compare-masks", "--affine", "shear:0.3",
            "--set", "problem.grid=9,9,9",
            "--set", "network.hidden=8",
            "--set", "network.fourier_features=2",
            "--set", "network.fourier_sigma=0.3",
            "--set", "optimizer.max_iters=30",
            "--out", out,
        ])
        table_written = os.path.exists(os.path.join(out, "mask_comparison.csv"))
        worst = max(table.values())
        report(
            8,
            finished and worst <= 1e-2 and code == 0 and table_written,
            "masked runs completed with l2 errors "
            + ", ".join(f"{k}: {v:.2e}" for k, v in table.items())
            + " (limit 1e-2); comparison table written",
        )
