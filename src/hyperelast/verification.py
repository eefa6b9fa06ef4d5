"""Finite-difference verification suites.

Each suite returns (name, worst_error, tolerance, passed); the CLI's
check-gradients command runs them all and the acceptance tests reuse
them directly.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .bvp import preset
from .materials import LopezPamies, NeoHookean, eval_psi, eval_stress
from .network import BLOCK_POINTS, MLPSpec, RFFMap, forward
from .solver import TrainingObjective, build_network


def random_states(rng, n, spread=0.3, min_det=0.2):
    """Random deformation gradients near identity with a safe determinant."""
    out = []
    while len(out) < n:
        F = np.eye(3) + rng.uniform(-spread, spread, size=(3, 3))
        if np.linalg.det(F) >= min_det:
            out.append(F)
    return np.array(out)


def check_material_consistency(seed=0, n=100, h=1e-6, tol=1e-6):
    """P against central differences of psi, both models."""
    rng = np.random.default_rng(seed)
    materials = [
        NeoHookean(lam=577.0, mu=385.0),
        LopezPamies(alphas=(1.0, -2.0), mus=(100.0, 50.0), lam=100.0),
    ]
    worst = 0.0
    for mat in materials:
        for F in random_states(rng, n):
            P = eval_stress(mat, F)
            scale = max(np.abs(P).max(), 1e-8)
            for i in range(3):
                for j in range(3):
                    Fp, Fm = F.copy(), F.copy()
                    Fp[i, j] += h
                    Fm[i, j] -= h
                    fd = (eval_psi(mat, Fp) - eval_psi(mat, Fm)) / (2.0 * h)
                    worst = max(worst, abs(P[i, j] - fd) / scale)
    return ("material P = d(psi)/dF", worst, tol, worst <= tol)


def _tiny_objective(seed, grid=(5, 5, 5), hidden=(8, 8), m=4):
    problem = preset("nh_cantilever_traction", grid=grid)
    net = build_network(
        problem, hidden=hidden, fourier_features=m, fourier_sigma=1.0, seed=seed
    )
    return problem, net, TrainingObjective(problem, net)


def check_loss_gradient(seed=0, h=1e-6, tol=1e-5):
    """Parameter gradient of the six-term loss against central differences.

    Uses the frozen uniform weights of a fresh objective, a 2x8 network
    and a 5^3 grid, sweeping every parameter.
    """
    _, net, objective = _tiny_objective(seed)
    rng = np.random.default_rng(seed + 1)
    phi = net.init_params() + 0.01 * rng.standard_normal(net.n_params)
    _, grad = objective(phi)
    scale = max(np.abs(grad).max(), 1e-10)
    worst = 0.0
    for k in range(phi.size):
        up, dn = phi.copy(), phi.copy()
        up[k] += h
        dn[k] -= h
        fd = (objective(up)[0] - objective(dn)[0]) / (2.0 * h)
        worst = max(worst, abs(grad[k] - fd) / scale)
    return ("loss d(total)/d(phi)", worst, tol, worst <= tol)


def check_spatial_hessians(seed=0, n_points=5, h=1e-4, tol=1e-4):
    """Spatial Hessians against central differences of the gradients.

    Covers the raw 12 network outputs and the displacement after the
    boundary-condition composition; the stress head carries no Hessian
    past the network.
    """
    problem, net, _ = _tiny_objective(seed)
    rng = np.random.default_rng(seed + 2)
    phi = net.init_params() + 0.05 * rng.standard_normal(net.n_params)
    phi_c = ad.constant(phi)
    L = np.asarray(problem.domain.lengths)
    X = rng.uniform(0.1, L - 0.1, size=(n_points, 3))

    def jets_at(Xp):
        # (gradient (..., 3), packed Hessian (..., 6)) of the raw node's
        # 12 outputs and of u
        y = forward(net.mlp, phi_c, (net.rff.features(Xp),)).data
        u, _, _ = net.fields(phi_c, Xp)
        raw = (np.moveaxis(y[:, 1:4], 1, -1), np.moveaxis(y[:, 4:], 1, -1))
        return raw, (u.grad.data, u.hess.data)

    shifted = []
    for j in range(3):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, j] += h
        Xm[:, j] -= h
        shifted.append((jets_at(Xp), jets_at(Xm)))
    worst = 0.0
    for which, (_, packed) in enumerate(jets_at(X)):
        hess = packed[..., ad.UNPACK].reshape(packed.shape[:-1] + (3, 3))
        scale = max(np.abs(hess).max(), 1e-8)
        for j, (plus, minus) in enumerate(shifted):
            fd = (plus[which][0] - minus[which][0]) / (2.0 * h)
            worst = max(worst, np.abs(hess[..., j, :] - fd).max() / scale)
    return ("network spatial Hessians", worst, tol, worst <= tol)


def check_tape_gradient(seed=0, h=1e-6, tol=1e-5):
    """Parameter gradient of the perceptron node against central FD.

    The loss weights every channel of a two-hidden-layer perceptron's
    output in one contraction, on one order-2 stack and on an order-2
    stack followed by an order-1 one, there with zero weight on the
    Hessian channels of the order-1 rows.  Each stack spans two full
    point blocks and a ragged remainder, so the blocked forward pass, the
    row ranges of the stacks, their vjp and the block sums are all
    covered.
    """
    rng = np.random.default_rng(seed + 3)
    rff = RFFMap(m=3, sigma=1.0, seed=seed)
    spec = MLPSpec(widths=(rff.out_dim, 6, 5, 12))
    n = 2 * BLOCK_POINTS + 37
    X = rng.uniform(-1.0, 1.0, size=(2 * n, 3))
    cases = (
        ((rff.features(X[:n]),), np.ones(n, dtype=bool)),
        ((rff.features(X[:n]), rff.features(X[n:], 1)), np.arange(2 * n) < n),
    )
    phi0 = 0.5 * rng.standard_normal(spec.n_params)
    worst = 0.0
    for stacks, hess_read in cases:
        # positive weights keep every bias adjoint (a sum over the batch)
        # away from zero, where a relative FD error means nothing
        coeffs = rng.uniform(0.5, 1.5, (hess_read.size, 10, 12)) / n
        coeffs[~hess_read, 4:] = 0.0

        def loss(p):
            return ad.inner(forward(spec, p, stacks), coeffs)

        p = ad.Tape().input(phi0)
        g = ad.reverse_gradient(loss(p), p)
        err = ad.fd_check(lambda x: float(loss(ad.constant(x)).data), phi0, g, h=h)
        worst = max(worst, err)
    return ("perceptron d(loss)/d(phi)", worst, tol, worst <= tol)


ALL_SUITES = (
    check_tape_gradient,
    check_material_consistency,
    check_spatial_hessians,
    check_loss_gradient,
)


def run_all(seed=0):
    return [suite(seed=seed) for suite in ALL_SUITES]
