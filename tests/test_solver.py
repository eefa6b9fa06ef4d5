"""Training objective: reuse of the accepted probe's tape, and an
end-to-end curriculum solve on a built-in preset."""

import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hyperelast.autodiff as ad
from hyperelast import solver
from hyperelast.bvp import affine_problem, preset
from hyperelast.config import RunConfig
from hyperelast.losses import TERM_NAMES
from hyperelast.errors import InvertedState, NonFiniteObjective
from hyperelast.materials import cauchy, deformation_gradient, von_mises
from hyperelast.network import BLOCK_POINTS, FieldNetwork, displacement_gradient
from hyperelast.optim import CurriculumSchedule, LBFGSConfig
from hyperelast.solver import (
    TrainingObjective,
    build_network,
    evaluate_fields,
    solve_config,
    train,
)


def tiny_problem():
    problem = preset("nh_cantilever_traction", grid=(3, 3, 3))
    net = build_network(problem, hidden=(6,), fourier_features=2, seed=1)
    return problem, net


@pytest.fixture
def taped_fields_calls(monkeypatch):
    """Counts FieldNetwork.fields calls whose parameters are on a tape,
    i.e. the objective evaluations that build a tape."""
    calls = []
    inner = FieldNetwork.fields

    def fields(self, phi, *args, **kwargs):
        if phi.tape is not None:
            calls.append(1)
        return inner(self, phi, *args, **kwargs)

    monkeypatch.setattr(FieldNetwork, "fields", fields)
    return calls


def _nearby_points(net):
    phi0 = net.init_params()
    d = np.random.default_rng(5).standard_normal(phi0.shape)
    return phi0, phi0 + 1e-3 * d, phi0 - 1e-3 * d


def _same_state(a, b, out_a, out_b):
    assert out_a[0] == out_b[0]
    assert np.array_equal(out_a[1], out_b[1])
    assert np.array_equal(a.weights.values, b.weights.values)
    assert a.weights.energy_floor == b.weights.energy_floor
    assert np.array_equal(a.last_terms, b.last_terms)


class TestProbeReuse:
    def test_reuse_is_bitwise_exact(self, taped_fields_calls):
        problem, net = tiny_problem()
        phi0, phi1, _ = _nearby_points(net)
        reused, fresh = TrainingObjective(problem, net), TrainingObjective(problem, net)
        for obj in (reused, fresh):
            obj.begin_iteration(phi0)
        reused(phi1)
        n_before = len(taped_fields_calls)
        out_reused = reused.begin_iteration(phi1.copy())
        assert len(taped_fields_calls) == n_before  # no new tape
        out_fresh = fresh.begin_iteration(phi1)
        assert len(taped_fields_calls) == n_before + 1
        _same_state(reused, fresh, out_reused, out_fresh)
        # a second iteration start at the same point has nothing to reuse
        reused.begin_iteration(phi1)
        assert len(taped_fields_calls) == n_before + 2

    def test_probe_elsewhere_evaluates_afresh(self, taped_fields_calls):
        problem, net = tiny_problem()
        phi0, phi1, phi2 = _nearby_points(net)
        probed, fresh = TrainingObjective(problem, net), TrainingObjective(problem, net)
        for obj in (probed, fresh):
            obj.begin_iteration(phi0)
        probed(phi2)
        n_before = len(taped_fields_calls)
        out_probed = probed.begin_iteration(phi1)
        assert len(taped_fields_calls) == n_before + 1
        _same_state(probed, fresh, out_probed, fresh.begin_iteration(phi1))

    def test_inverted_probe_at_iterate_raises(self):
        problem, net = tiny_problem()
        objective = TrainingObjective(problem, net)
        phi = np.random.default_rng(24).standard_normal(net.n_params)
        f, _ = objective(phi)
        assert f == np.inf
        with pytest.raises(NonFiniteObjective):
            objective.begin_iteration(phi)


class TestCurriculumSolve:
    def test_two_stage_lbfgs_on_preset(self, taped_fields_calls):
        problem, net = tiny_problem()
        schedule = CurriculumSchedule(fractions=(0.5, 1.0), stage_iters=(4, 4))
        runs = []
        for _ in range(2):
            taped_fields_calls.clear()
            phi, history = train(problem, net, schedule=schedule, opt_config=LBFGSConfig())
            runs.append((phi, history, len(taped_fields_calls)))
        (phi_a, hist_a, calls_a), (phi_b, hist_b, calls_b) = runs
        assert hist_a.status == "max_iters"
        assert [r.stage for r in hist_a.rows] == [0] * 4 + [1] * 4
        assert np.all(np.isfinite([r.total for r in hist_a.rows]))
        # one fresh evaluation per stage start; every later iteration
        # starts at the probe its line search accepted
        assert calls_a == sum(r.n_evals - 1 for r in hist_a.rows) + 2
        assert calls_b == calls_a
        assert np.array_equal(phi_a, phi_b)
        assert len(hist_a.rows) == len(hist_b.rows)
        assert all(_rows_equal(a, b) for a, b in zip(hist_a.rows, hist_b.rows))

    @pytest.mark.parametrize("name", ["nh_cantilever_traction", "lp_cantilever_displacement"])
    def test_stage_scales_loads_and_lift(self, name):
        # a stage at half load is the problem with its patch tractions and
        # prescribed displacement halved by hand; 0.5 scales exactly
        problem = preset(name, grid=(5, 5, 5))
        enforcer = problem.enforcer
        by_hand = replace(
            problem,
            patches=tuple(
                replace(p, traction=tuple(0.5 * t for t in p.traction)) for p in problem.patches
            ),
            enforcer=replace(
                enforcer,
                lift_lin=tuple(tuple(0.5 * g for g in row) for row in enforcer.lift_lin),
            ),
        )
        net = build_network(problem, hidden=(6,), fourier_features=2, seed=1)
        phi = net.init_params() + 1e-3 * np.random.default_rng(4).standard_normal(net.n_params)
        f_half, g_half = TrainingObjective(problem, net, 0.5)(phi)
        f_hand, g_hand = TrainingObjective(by_hand, net)(phi)
        assert f_half == f_hand
        assert np.array_equal(g_half, g_hand)
        assert f_half != TrainingObjective(problem, net)(phi)[0]


def test_default_beam_first_search_stays_out_of_inversion(monkeypatch):
    # the first search along -g starts at the quadratic-model step; the
    # unit-length step 1/|g| overshoots into inverted states on this beam
    inverted = []
    call = TrainingObjective.__call__

    def counted(self, phi):
        f, g = call(self, phi)
        inverted.append(f == np.inf)
        return f, g

    monkeypatch.setattr(TrainingObjective, "__call__", counted)
    problem = preset("nh_cantilever_traction")
    _, history = train(problem, build_network(problem), opt_config=LBFGSConfig(max_iters=1))
    (row,) = history.rows
    assert row.n_evals <= 3
    assert not any(inverted)


def _rows_equal(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("stage", "iter", "total", "terms", "weights", "grad_norm",
                     "step", "seconds", "n_evals")
    )


# every field is one batched jet from the network head to the loss, so an
# evaluation records a few dozen nodes per stage rather than one per
# scalar entry of a 3x3 matrix; the budgets are the exact counts at grid
# 5^3 with the default network, so any change to them is deliberate; each
# loss term selects its rows by a weight vector, so no node gathers rows
TAPE_NODE_BUDGET = {"nh_cantilever_traction": 59, "lp_cantilever_displacement": 71, "affine": 50}


@pytest.mark.parametrize("name", list(TAPE_NODE_BUDGET))
def test_tape_node_budget(name, monkeypatch):
    import hyperelast.autodiff as ad

    tapes = []

    class CountedTape(ad.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(ad, "Tape", CountedTape)
    grid = (5, 5, 5)
    problem = affine_problem("shear", grid) if name == "affine" else preset(name, grid=grid)
    net = build_network(problem)  # default (64, 64, 64) perceptron
    f, _ = TrainingObjective(problem, net)(net.init_params())
    assert np.isfinite(f) and len(tapes) == 1
    assert len(tapes[0]) == TAPE_NODE_BUDGET[name]
    assert "take" not in {node.op for node in tapes[0].nodes}


@pytest.mark.parametrize("name", ["nh_cantilever_traction", "lp_cantilever_displacement", "affine"])
def test_evaluation_makes_no_einsum_call(name, monkeypatch):
    # the contractions of an evaluation are fixed matmul kernels; set-up
    # (features, boundary jets) may still use np.einsum
    grid = (3, 3, 3)
    problem = affine_problem("shear", grid) if name == "affine" else preset(name, grid=grid)
    net = build_network(problem, hidden=(6,), fourier_features=2, seed=1)
    objective = TrainingObjective(problem, net)

    def einsum(*args, **kwargs):
        raise AssertionError("np.einsum called during an objective evaluation")

    monkeypatch.setattr(np, "einsum", einsum)
    phi = net.init_params()
    f0, _ = objective.begin_iteration(phi)
    f1, _ = objective(phi + 1e-3 * np.random.default_rng(9).standard_normal(phi.shape))
    assert np.isfinite(f0) and np.isfinite(f1)


@pytest.mark.parametrize("name", ["nh_cantilever_traction", "lp_cantilever_displacement"])
def test_objective_equal_to_all_rows_second_order_features(name):
    # training carries Hessian channels on the interior rows only; the
    # loss must be that of order-2 features on every row
    problem = preset(name, grid=(17, 9, 9))
    net = build_network(problem, hidden=(32, 32), fourier_features=16, seed=3)
    phi = net.init_params() + 1e-3 * np.random.default_rng(19).standard_normal(net.n_params)
    split = TrainingObjective(problem, net)
    points = split.points
    assert min(points.n_interior, points.n_points - points.n_interior) > BLOCK_POINTS
    full = TrainingObjective(problem, net)
    full.features = (net.rff.features(points.points),)
    f_split, g_split = split(phi)
    f_full, g_full = full(phi)
    assert f_split == f_full
    assert np.abs(g_split - g_full).max() <= 1e-12 * np.abs(g_full).max()


def test_objective_keeps_two_feature_rows_per_point():
    # of the Fourier features the objective keeps the value rows and their
    # quarter turns, (N, 2, 2m), besides its point sets and boundary data;
    # the (n, C, 2m) jet stacks would take 14.5 MB on the default
    # cantilever, these 4.1 MB
    problem = preset("nh_cantilever_traction")
    net = build_network(problem)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        objective = TrainingObjective(problem, net)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = [a for a in vars(objective.points).values() if isinstance(a, np.ndarray)]
    arrays += [a for a in objective.bc if a is not None]
    features = objective.points.n_points * 2 * net.rff.out_dim * 8
    assert held <= features + sum(a.nbytes for a in arrays) + 65536


@pytest.mark.parametrize("name", ["nh_cantilever_traction", "lp_cantilever_displacement"])
def test_strong_form_divergence_matches_fd_of_sampled_stress(name):
    # div P_u of the training pass (order-2 interior rows, Piola form)
    # against the sum over j of central differences of the sampled P_u's
    # column j, at 20 interior points of a perturbed network
    problem = preset(name, grid=(9, 5, 5))
    net = build_network(problem, hidden=(8, 8), fourier_features=4, seed=3)
    rng = np.random.default_rng(5)
    phi = net.init_params() + 0.01 * rng.standard_normal(net.n_params)
    objective = TrainingObjective(problem, net)
    points = objective.points
    u, _, _ = net.fields(ad.Tape().input(phi), points.points,
                         features=objective.features, bc=objective.bc)
    _, div = problem.material.stress(deformation_gradient(displacement_gradient(u)))
    idx = rng.choice(points.n_interior, 20, replace=False)
    X, h = points.points[idx], 1e-5
    fd = 0.0
    for j in range(3):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, j] += h
        Xm[:, j] -= h
        Pp, Pm = (evaluate_fields(net, phi, Y, material=problem.material)["P_u"] for Y in (Xp, Xm))
        fd = fd + (Pp[:, :, j] - Pm[:, :, j]) / (2 * h)
    got = div.data[idx]
    assert np.abs(got - fd).max() <= 1e-6 * np.abs(got).max()


@pytest.mark.parametrize("name", ["nh_cantilever_traction", "lp_cantilever_displacement"])
def test_evaluate_fields_bitwise_equal_to_second_order_pass(name):
    # sampling builds first-order jets only; every value it returns must
    # equal the one read off the training-order (second-order) fields
    problem = preset(name, grid=(3, 3, 3))
    net = build_network(problem, hidden=(6, 6), fourier_features=3, seed=2)
    rng = np.random.default_rng(17)
    phi = net.init_params() + 1e-3 * rng.standard_normal(net.n_params)
    dom = problem.domain
    X = rng.uniform(0, 1, size=(40, 3)) * np.asarray(dom.lengths)
    u, P, _ = net.fields(ad.constant(phi), X)
    assert u.hess is not None
    _assert_sampled(evaluate_fields(net, phi, X, material=problem.material), u, P, problem.material)


def _assert_sampled(out, u, P, material):
    """``out`` holds, bit for bit, the fields post-processed from u and P."""
    state = deformation_gradient(displacement_gradient(u))
    F, J = state.F.val.data, state.J.val.data
    S = cauchy(P.data, F, J)
    expected = {
        "u": u.val.data, "P": P.data, "F": F, "J": J, "S": S,
        "von_mises": von_mises(S), "P_u": material.stress(state)[0].data,
    }
    assert out.keys() == expected.keys()
    for key, value in expected.items():
        assert np.array_equal(out[key], value), key


def _sampling_case(n, seed=0):
    """A small network, parameters near its initial ones and n random
    points in the domain of the power-law cantilever."""
    problem = preset("lp_cantilever_displacement", grid=(3, 3, 3))
    net = build_network(problem, hidden=(6, 6), fourier_features=3, seed=2)
    rng = np.random.default_rng(seed)
    phi = net.init_params() + 1e-3 * rng.standard_normal(net.n_params)
    dom = problem.domain
    X = rng.uniform(0, 1, size=(n, 3)) * np.asarray(dom.lengths)
    return problem, net, phi, X


CHUNK = solver.SAMPLE_CHUNK_POINTS


@pytest.mark.parametrize("n", [
    CHUNK - 1,  # one chunk
    2 * CHUNK,
    2 * CHUNK + BLOCK_POINTS // 2,  # a remainder shorter than a block
    2 * CHUNK + BLOCK_POINTS + 17,  # a remainder of a block and more
])
def test_evaluate_fields_chunks_bitwise_equal_to_one_pass(n):
    assert CHUNK % BLOCK_POINTS == 0
    problem, net, phi, X = _sampling_case(n)
    u, P, _ = net.fields(ad.constant(phi), X, order=1)
    _assert_sampled(evaluate_fields(net, phi, X, material=problem.material), u, P, problem.material)


def _traced_peak(fn):
    """(fn(), the peak of the memory traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_fields_memory_does_not_grow_with_rows():
    # beyond its outputs, sampling holds one chunk's jets at a time
    working = []
    for n_chunks in (2, 8):
        problem, net, phi, X = _sampling_case(n_chunks * CHUNK)
        out, peak = _traced_peak(lambda: evaluate_fields(net, phi, X, material=problem.material))
        working.append(peak - sum(a.nbytes for a in out.values()))
    assert working[1] <= 1.25 * working[0]


def test_inverted_chunk_names_a_row_of_the_batch(monkeypatch):
    # the third chunk inverts at its row 100: the index is shifted by the
    # chunk's start, in the attribute and in the message
    problem, net, phi, X = _sampling_case(3 * CHUNK + 10)
    inner, calls = solver.deformation_gradient, []

    def deformation_gradient(grad_u):
        calls.append(1)
        if len(calls) == 3:
            val = grad_u.val.data.copy()
            val[100] = -np.eye(3)  # F = 0
            grad_u = ad.Jet(ad.constant(val))
        return inner(grad_u)

    monkeypatch.setattr(solver, "deformation_gradient", deformation_gradient)
    with pytest.raises(InvertedState) as info:
        evaluate_fields(net, phi, X)
    assert len(calls) == 3
    assert info.value.point_index == 2 * CHUNK + 100
    assert str(info.value).endswith(f"(point index {2 * CHUNK + 100})")


# one step per curriculum stage of the power-law cantilever: a line-search
# probe the search rejects comes near inversion (min det F 0.049), no
# accepted iterate does
LP_WARMUP = {
    "problem.preset": "lp_cantilever_displacement",
    "problem.grid": "17,5,5",
    "network.hidden": "32,32",
    "network.fourier_features": "16",
    "curriculum.fractions": "0.25,0.5,1.0",
    "curriculum.stage_iters": "1,1,1",
}


def _near_inversion_messages(caplog):
    return [r.getMessage() for r in caplog.records if "near-inverted" in r.getMessage()]


def test_near_inversion_warned_once_per_stage(caplog, monkeypatch):
    with caplog.at_level(logging.WARNING):
        solve_config(RunConfig(LP_WARMUP))
    assert _near_inversion_messages(caplog) == []

    # with a threshold every state falls under, the stage warns at its
    # first iteration start and counts all three in one line at its end
    caplog.clear()
    monkeypatch.setattr(solver, "J_WARN", 2.0)
    one_stage = dict(LP_WARMUP, **{"curriculum.fractions": "1.0", "curriculum.stage_iters": "3"})
    with caplog.at_level(logging.WARNING):
        rows = solve_config(RunConfig(one_stage)).history.rows
    first, count = _near_inversion_messages(caplog)
    assert len(rows) == 3 and "at iteration 1 of this stage:" in first
    prefix = "stage 0: 3 iteration starts near-inverted, lowest min det F = "
    assert count.startswith(prefix)
    first_det_F = float(first.split("min det F = ")[1].split()[0])
    assert float(count[len(prefix):]) <= first_det_F

    # a run that raises still gets its count line
    caplog.clear()
    inner = solver.curriculum_train

    def curriculum_train(*args, **kwargs):
        inner(*args, **kwargs)
        raise NonFiniteObjective("stopped after the stage")

    monkeypatch.setattr(solver, "curriculum_train", curriculum_train)
    with caplog.at_level(logging.WARNING), pytest.raises(NonFiniteObjective):
        solve_config(RunConfig(one_stage))
    assert _near_inversion_messages(caplog)[1] == count


def test_progress_line_per_history_row(caplog):
    # -v shows each accepted iterate as it is recorded, read off its row
    cfg = RunConfig({
        "problem.affine": "shear:0.3", "problem.grid": "5,5,5", "network.hidden": "8",
        "network.fourier_features": "4", "optimizer.max_iters": "3",
    })
    with caplog.at_level(logging.INFO, logger="hyperelast.optim"):
        rows = solve_config(cfg).history.rows
    lines = [r.getMessage() for r in caplog.records if r.name == "hyperelast.optim"]
    assert len(lines) == len(rows) == 3
    for row, line in zip(rows, lines):
        weights = " ".join(f"{name}={w:.3g}" for name, w in zip(TERM_NAMES, row.weights))
        assert line == (
            f"stage {row.stage} iter {row.iter}: total {row.total:.6e}, "
            f"grad norm {row.grad_norm:.3e}, step {row.step:.3e}, {row.n_evals} evals; "
            f"weights {weights}"
        )
