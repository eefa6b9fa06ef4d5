"""Run orchestration: training objective, solve driver, field sampling.

The training objective owns the per-problem caches (grid, Fourier
features) and the adaptive-weight state.  Weights are refreshed exactly
once per accepted optimizer iteration via ``begin_iteration``; line
search probes reuse the frozen weights.

Reuse contract: the objective holds the tape of its last finite probe.
When ``begin_iteration`` is called at exactly that point (the line
search accepts its last probe), it re-weights the held loss terms and
sweeps the same tape again instead of rebuilding it, with results
bitwise equal to a fresh evaluation.  At any other point it evaluates
from scratch.  At most one evaluation tape is alive at a time, and none
once ``begin_iteration`` has returned.  No tape outlives its stage:
``train`` keeps nothing of a finished curriculum stage but its
near-inversion counts, so the stage's objective, and the tape it holds,
are freed before the next stage builds a tape, and none is left once
``train`` has returned.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import bvp
from .config import RunConfig
from .errors import ConfigError, InvertedState, NonFiniteObjective
from .losses import N_TERMS, LossWeights, assemble
from .materials import J_WARN, cauchy, deformation_gradient, von_mises
from .network import BLOCK_POINTS, FieldNetwork, MLPSpec, RFFMap, displacement_gradient, row_blocks
from .optim import CurriculumSchedule, LBFGSConfig, curriculum_train
from .reference import l2_error

log = logging.getLogger(__name__)

# rows per chunk of evaluate_fields, a whole number of perceptron blocks:
# 16 blocks gave the fastest measured export; peak memory grows with the chunk
SAMPLE_CHUNK_POINTS = 16 * BLOCK_POINTS


@dataclass
class NearInversion:
    """Iteration starts of one stage with min det F below ``J_WARN``, and
    the lowest min det F among them."""

    count: int = 0
    min_det_F: float = np.inf


class TrainingObjective:
    """phi -> (loss, gradient) with adaptive weighting on iteration starts.

    ``fraction`` is the load fraction of a curriculum stage: the laid-out
    patch tractions ``tbar``, nodal load ``load`` and the lift arrays of
    the boundary data are multiplied by it.  For a power-of-two fraction
    this equals laying out the problem with its loads scaled, bit for
    bit; another fraction may round the nodal load and lift differently
    in the last bit.

    ``weights`` (a ``LossWeights``) is refreshed from the loss terms of
    each accepted iterate.  An inverted deformation state during a probe
    yields +inf (the line search backs off); at an iteration start it
    aborts the run.

    Each finite probe keeps a copy of its point, its loss breakdown and
    its input Var until the next call.  ``begin_iteration`` at that very
    point takes them over: it refreshes the weights from the breakdown,
    records the new weighted total on the same tape and sweeps it again.
    Every other call first drops what is held, so the old tape is freed
    before a new one is built.

    ``begin_iteration`` warns at the first accepted iterate near
    inversion (min det F below ``J_WARN``), naming its iteration in the
    objective's curriculum stage, and counts it and the later ones, with
    their lowest min det F, in ``near``; line-search probes count nothing.
    """

    def __init__(self, problem, net, fraction=1.0):
        self.problem = problem
        self.net = net
        points = problem.point_sets()
        self.points = replace(points, tbar=fraction * points.tbar, load=fraction * points.load)
        # u's Hessian is read on the interior rows only (strong-form residuals)
        X, n = points.points, points.n_interior
        self.features = (net.rff.features(X[:n], 2), net.rff.features(X[n:], 1))
        # given bc, the network's own enforcer is never read, so one
        # network serves every stage
        lift, lift_grad, *mask = problem.enforcer.bc_jets(X)
        self.bc = (fraction * lift, fraction * lift_grad, *mask)
        self.weights = LossWeights(problem.mask, has_traction=len(points.normals) > 0)
        self.last_terms = np.zeros(N_TERMS)
        self.iteration = 0  # begin_iteration calls so far, i.e. in this stage
        self.near = NearInversion()
        self._held = None  # (point, breakdown, input Var) of the last finite probe

    def _breakdown(self, phi_array):
        tape = ad.Tape()
        phi = tape.input(phi_array)
        u, P, div_P = self.net.fields(
            phi, self.points.points, features=self.features, bc=self.bc
        )
        return assemble(u, P, div_P, self.problem, self.points), phi

    def _finish(self, breakdown, phi):
        total = self.weights.total(breakdown)
        grad = ad.reverse_gradient(total, phi)
        self.last_terms = breakdown.values()
        return float(total.data), grad

    def __call__(self, phi_array):
        self._held = None
        try:
            breakdown, phi = self._breakdown(phi_array)
        except InvertedState:
            return np.inf, np.zeros_like(phi_array)
        f, grad = self._finish(breakdown, phi)
        if np.isfinite(f):
            self._held = (np.array(phi_array, dtype=np.float64), breakdown, phi)
        return f, grad

    def begin_iteration(self, phi_array):
        self.iteration += 1
        held, self._held = self._held, None
        if held is not None and np.array_equal(held[0], phi_array):
            _, breakdown, phi = held
        else:
            held = None  # free the held tape before building a new one
            try:
                breakdown, phi = self._breakdown(phi_array)
            except InvertedState as err:
                raise NonFiniteObjective(f"inverted state at iteration start: {err}") from err
        det_F = breakdown.det_F
        if det_F.min() < J_WARN:
            self.near.count += 1
            self.near.min_det_F = min(self.near.min_det_F, det_F.min())
            if self.near.count == 1:
                log.warning(
                    "near-inverted state at iteration %d of this stage: "
                    "min det F = %.3e at point index %d",
                    self.iteration, det_F.min(), int(np.argmin(det_F)),
                )
        self.weights.update(breakdown.values())
        return self._finish(breakdown, phi)

    def stats(self):
        return {"terms": self.last_terms, "weights": self.weights.values}


@dataclass
class SolveResult:
    problem: bvp.ProblemSpec
    phi: np.ndarray
    history: object
    l2: float = None


def build_network(problem, *, hidden=(64, 64, 64), fourier_features=64,
                  fourier_sigma=1.0, seed=0):
    """Assemble the field network for a problem.

    The stress head is scaled by the material's shear modulus so both
    output groups train on comparable magnitudes.
    """
    rff = RFFMap(m=int(fourier_features), sigma=float(fourier_sigma), seed=int(seed))
    widths = (rff.out_dim,) + tuple(int(h) for h in hidden) + (12,)
    return FieldNetwork(
        rff=rff,
        mlp=MLPSpec(widths=widths),
        enforcer=problem.enforcer,
        stress_scale=problem.material.stress_scale,
    )


def train(problem, net, *, schedule=None, opt_config=None, phi0=None,
          timing=False):
    """Run the full training loop and return (phi, history); once it
    returns or raises, count each stage's near-inverted iteration starts.

    Of each stage's objective only its ``NearInversion`` record is kept
    here, so a finished stage and the tape it holds are freed before the
    next stage builds one, and no tape outlives ``train``.
    """
    schedule = schedule or CurriculumSchedule()
    opt_config = opt_config or LBFGSConfig()
    phi = net.init_params() if phi0 is None else np.asarray(phi0, dtype=np.float64)
    near = []  # the NearInversion record of each stage begun

    def objective(fraction):
        obj = TrainingObjective(problem, net, fraction)
        near.append(obj.near)
        return obj

    try:
        return curriculum_train(schedule, objective, phi, opt_config, timing=timing)
    finally:
        for k, stage in enumerate(near):
            if stage.count > 1:
                log.warning("stage %d: %d iteration starts near-inverted, lowest min det F = %.3e",
                            k, stage.count, stage.min_det_F)


def _sample(net, phi, X, material):
    """The fields of :func:`evaluate_fields` at the rows X, in one pass."""
    u, P, _ = net.fields(phi, X, order=1)
    state = deformation_gradient(displacement_gradient(u))
    F, J = state.F.val.data, state.J.val.data
    S = cauchy(P.data, F, J)
    out = {
        "u": u.val.data,
        "P": P.data,
        "F": F,
        "J": J,
        "S": S,
        "von_mises": von_mises(S),
    }
    if material is not None:
        out["P_u"] = material.stress(state)[0].data
    return out


def evaluate_fields(net, phi, X, material=None):
    """Sample trained fields at arbitrary points (no gradients recorded).

    Returns displacement, the stress-head prediction, the Cauchy stress
    pushed forward from the head, and its von Mises intensity; passing a
    material adds the constitutive-branch stress "P_u".  Only first-order
    jets are built: sampling needs no spatial derivatives of the state.

    The points are sampled in chunks of ``SAMPLE_CHUNK_POINTS`` rows, the
    remainder joining the last chunk, into output arrays allocated once,
    so the jets of one chunk at a time are alive.  Chunks start on
    multiples of ``BLOCK_POINTS`` and hold whole blocks, so every block of
    the perceptron, and every product inside it, is the block of one pass
    over all rows: the result does not depend on the chunk size.  The
    first inverted chunk raises InvertedState, its ``point_index`` (the
    smallest det F in that chunk) counted in rows of X.
    """
    X = np.asarray(X, dtype=np.float64)
    phi_const = ad.constant(np.asarray(phi, dtype=np.float64))
    out = {}
    for lo, hi in row_blocks(len(X), SAMPLE_CHUNK_POINTS):
        try:
            chunk = _sample(net, phi_const, X[lo:hi], material)
        except InvertedState as err:
            err.point_index += lo
            raise
        for key, value in chunk.items():
            if key not in out:
                out[key] = np.empty((len(X),) + value.shape[1:], dtype=value.dtype)
            out[key][lo:hi] = value
    return out


def sample_fields(net, phi, X):
    """:func:`evaluate_fields` one chunk at a time, for a caller that
    writes each chunk out and drops it before the next is sampled.

    Yields ``(lo, hi, evaluate_fields(net, phi, X[lo:hi]))`` for the chunks
    ``row_blocks(len(X), SAMPLE_CHUNK_POINTS)`` in order.  Each call samples
    its rows in one chunk, the one a call on all of X samples them in, so
    the values are those of that call bit for bit.  An inverted chunk
    raises InvertedState with its ``point_index`` counted in rows of X.
    """
    for lo, hi in row_blocks(len(X), SAMPLE_CHUNK_POINTS):
        try:
            fields = evaluate_fields(net, phi, X[lo:hi])
        except InvertedState as err:
            err.point_index += lo
            raise
        yield lo, hi, fields


def solution_l2(problem, net, phi):
    """Normalized L2 displacement error against the problem's reference."""
    if problem.reference is None:
        return None
    points = problem.point_sets()
    fields = evaluate_fields(net, phi, points.points)
    u_ref = problem.reference(points.points)
    return l2_error(fields["u"], u_ref, points.vol_weights)


# ---------------------------------------------------------------------------
# configuration-driven entry points
# ---------------------------------------------------------------------------


def _config_rejects(build):
    """Report a value that an object built from the config rejects as a
    ConfigError; errors raised later, in training, keep their class."""

    @functools.wraps(build)
    def wrapper(*args):
        try:
            return build(*args)
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(str(err)) from err

    return wrapper


@_config_rejects
def problem_from_config(cfg: RunConfig):
    grid = cfg.int_list("problem.grid") or None
    if grid is not None and len(grid) != 3:
        raise ConfigError(f"problem.grid needs three counts, got '{cfg.get('problem.grid')}'")
    preset_name = cfg.get("problem.preset")
    affine = cfg.get("problem.affine")
    if preset_name and affine:
        raise ConfigError("set either problem.preset or problem.affine, not both")
    if affine:
        problem = bvp.affine_problem(affine, grid)
    elif preset_name:
        problem = bvp.preset(preset_name, grid=grid)
    else:
        raise ConfigError("problem.preset or problem.affine is required")
    mask = cfg.get("problem.mask")
    if mask != problem.mask:
        problem = replace(problem, mask=mask)
    return problem


@_config_rejects
def network_from_config(cfg: RunConfig, problem):
    hidden = cfg.int_list("network.hidden")
    if not hidden:
        raise ConfigError("network.hidden needs at least one layer width")
    return build_network(
        problem,
        hidden=hidden,
        fourier_features=cfg.int("network.fourier_features"),
        fourier_sigma=cfg.float("network.fourier_sigma"),
        seed=cfg.int("network.seed"),
    )


@_config_rejects
def optimizer_from_config(cfg: RunConfig):
    return LBFGSConfig(
        max_iters=cfg.int("optimizer.max_iters"),
        grad_tol=cfg.float("optimizer.grad_tol"),
    )


@_config_rejects
def schedule_from_config(cfg: RunConfig):
    fractions = cfg.float_list("curriculum.fractions") or (1.0,)
    stage_iters = cfg.int_list("curriculum.stage_iters") or None
    return CurriculumSchedule(fractions=tuple(fractions), stage_iters=stage_iters)


def solve_config(cfg: RunConfig):
    """Train per the configuration and return the full result bundle."""
    problem = problem_from_config(cfg)
    net = network_from_config(cfg, problem)
    opt_config = optimizer_from_config(cfg)
    schedule = schedule_from_config(cfg)
    timing = cfg.get("history.timing")
    if timing not in ("off", "wall"):
        raise ConfigError(f"history.timing must be off or wall, got '{timing}'")
    phi, history = train(
        problem, net, schedule=schedule, opt_config=opt_config, timing=timing == "wall",
    )
    l2 = solution_l2(problem, net, phi)
    return SolveResult(problem=problem, phi=phi, history=history, l2=l2)


def compare_masks(cfg: RunConfig):
    """Train the configured problem under full/dem/dcm masks.

    Returns one row per mask: name, l2 error (nan without a reference),
    iterations, final total and final term values.
    """
    rows = []
    for mask in ("full", "dem", "dcm"):
        sub = cfg.with_overrides({"problem.mask": mask})
        result = solve_config(sub)
        final = result.history.rows[-1]
        rows.append(
            {
                "mask": mask,
                "l2_error": np.nan if result.l2 is None else result.l2,
                "iterations": len(result.history),
                "total": final.total,
                "terms": final.terms.copy(),
                "status": result.history.status,
            }
        )
    return rows
