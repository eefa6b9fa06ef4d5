"""Parameter optimization.

LBFGS with a strong Wolfe line search is the only minimizer, with the
standard constants of Nocedal & Wright (Numerical Optimization, 2006):
``HISTORY`` stored curvature pairs, sufficient decrease ``C1``, curvature
``C2`` and at most ``MAX_PROBES`` objective calls per line search.  A
load-stepping curriculum wraps it, warm-starting each stage from the
previous optimum.

The objective protocol: a callable ``phi -> (loss, gradient)`` for line
search probes, optionally with ``begin_iteration(phi)`` (called once per
accepted outer iteration; adaptive loss weighting hooks in there) and
``stats()`` returning the latest term values/weights for the history.

``begin_iteration`` must return what a fresh evaluation at ``phi`` under
the refreshed weights would.  An objective may meet that by reusing the
work of its last probe: ``strong_wolfe_search`` always returns its last
probe, so ``lbfgs_minimize`` starts each iteration after the first at the
point just probed.  ``n_evals`` in the history counts objective calls
(``begin_iteration`` included), whether or not a call reused a probe.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    LineSearchFailure,
    MaxProbesExceeded,
    NonFiniteObjective,
    NotDescentDirection,
)
from .losses import N_TERMS, TERM_NAMES

log = logging.getLogger(__name__)

HISTORY = 20  # curvature pairs kept by LBFGS
C1 = 1e-4  # sufficient decrease (Armijo) constant
C2 = 0.9  # curvature constant
MAX_PROBES = 30  # objective calls per line search


class _PlainObjective:
    """Adapter giving bare (loss, grad) callables the full protocol."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, phi):
        return self.fn(phi)

    def begin_iteration(self, phi):
        return self.fn(phi)

    def stats(self):
        return None


def as_objective(obj):
    if hasattr(obj, "begin_iteration"):
        return obj
    return _PlainObjective(obj)


@dataclass(frozen=True)
class LBFGSConfig:
    """Iteration budget and gradient-norm stopping tolerance of one
    :func:`lbfgs_minimize` run."""

    max_iters: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class CurriculumSchedule:
    """Strictly increasing load fractions ending at 1.0, with optional
    per-stage iteration budgets."""

    fractions: tuple = (1.0,)
    stage_iters: tuple = None

    def __post_init__(self):
        f = tuple(float(x) for x in self.fractions)
        object.__setattr__(self, "fractions", f)
        if not f or any(x <= 0.0 or x > 1.0 for x in f):
            raise ValueError(f"fractions must lie in (0, 1], got {f}")
        if any(b <= a for a, b in zip(f, f[1:])):
            raise ValueError(f"fractions must be strictly increasing, got {f}")
        if f[-1] != 1.0:
            raise ValueError(f"final fraction must be 1.0, got {f[-1]}")
        if self.stage_iters is not None:
            si = tuple(int(x) for x in self.stage_iters)
            object.__setattr__(self, "stage_iters", si)
            if len(si) != len(f):
                raise ValueError("one iteration budget per stage required")
            if any(n < 1 for n in si):
                raise ValueError(f"stage iteration budgets must be >= 1, got {si}")


@dataclass
class HistoryRow:
    stage: int
    iter: int
    total: float
    terms: np.ndarray
    weights: np.ndarray
    grad_norm: float
    step: float
    seconds: float
    n_evals: int


@dataclass
class TrainingHistory:
    """One row per accepted iteration (or the starting iterate's, when a
    stage takes no step), plus the termination status."""

    rows: list = field(default_factory=list)
    status: str = "running"
    wolfe: list = field(default_factory=list)  # (f0, dg0, alpha, f_new, dg_new)

    def append(self, row):
        self.rows.append(row)

    def extend(self, other):
        self.rows.extend(other.rows)
        self.wolfe.extend(other.wolfe)
        self.status = other.status

    def __len__(self):
        return len(self.rows)


def _zeros_stats():
    return {"terms": np.zeros(N_TERMS), "weights": np.zeros(N_TERMS)}


def _make_row(stage, it, f, obj, grad_norm, step, seconds, n_evals):
    stats = obj.stats() or _zeros_stats()
    return HistoryRow(
        stage=stage,
        iter=it,
        total=float(f),
        terms=np.asarray(stats["terms"], dtype=np.float64).copy(),
        weights=np.asarray(stats["weights"], dtype=np.float64).copy(),
        grad_norm=float(grad_norm),
        step=float(step),
        seconds=float(seconds),
        n_evals=int(n_evals),
    )


def _log_row(row):
    """One INFO line per history row: the progress of a run under -v."""
    weights = " ".join(f"{name}={w:.3g}" for name, w in zip(TERM_NAMES, row.weights))
    log.info(
        "stage %d iter %d: total %.6e, grad norm %.3e, step %.3e, %d evals; weights %s",
        row.stage, row.iter, row.total, row.grad_norm, row.step, row.n_evals, weights,
    )


def _cubic_step(lo, f_lo, dg_lo, hi, f_hi, dg_hi):
    """Minimizer of the cubic through both endpoint values and slopes, None
    when there is none or an endpoint value is not finite."""
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)):
        return None
    d1 = dg_lo + dg_hi - 3.0 * (f_lo - f_hi) / (lo - hi)
    disc = d1 * d1 - dg_lo * dg_hi
    if disc < 0.0:
        return None
    d2 = np.sign(hi - lo) * np.sqrt(disc)
    denom = dg_hi - dg_lo + 2.0 * d2
    if denom == 0.0:
        return None
    alpha = hi - (hi - lo) * (dg_hi + d2 - d1) / denom
    return alpha if np.isfinite(alpha) else None


def strong_wolfe_search(evaluate, phi, direction, f0, g0, alpha0=1.0):
    """Bracket-and-zoom line search enforcing both strong Wolfe conditions,
    with constants ``C1`` and ``C2``, in at most ``MAX_PROBES`` probes.

    ``evaluate(phi_trial) -> (f, g)``.  Non-finite probe values are treated
    as overly long steps and pulled back toward the last good point, so an
    objective that is NaN everywhere off the origin still fails cleanly
    once the probe budget is spent.

    Returns (alpha, f_alpha, g_alpha).
    """
    d = np.asarray(direction, dtype=np.float64)
    dg0 = float(np.dot(g0, d))
    if dg0 >= 0.0:
        raise NotDescentDirection(f"directional derivative {dg0:.3e} >= 0")
    evals = 0
    # slack at floating-point resolution keeps steps acceptable once the
    # true decrease falls below what f can represent
    f_eps = 1e-15 * (1.0 + abs(f0))
    g_eps = 1e-14 * (1.0 + abs(dg0))

    def probe(alpha):
        nonlocal evals
        evals += 1
        f_a, g_a = evaluate(phi + alpha * d)
        dg_a = float(np.dot(g_a, d)) if np.isfinite(f_a) else np.nan
        return float(f_a), g_a, dg_a

    def zoom(lo, f_lo, dg_lo, hi, f_hi, dg_hi):
        while evals < MAX_PROBES:
            width = hi - lo
            alpha = _cubic_step(lo, f_lo, dg_lo, hi, f_hi, dg_hi)
            span = sorted((lo, hi))
            margin = 0.1 * abs(width)
            if alpha is None or not (span[0] + margin <= alpha <= span[1] - margin):
                alpha = 0.5 * (lo + hi)
            if abs(width) < 1e-14 * max(1.0, abs(lo)):
                raise MaxProbesExceeded("bracket collapsed without satisfying Wolfe")
            f_a, g_a, dg_a = probe(alpha)
            if not np.isfinite(f_a):
                hi, f_hi, dg_hi = alpha, np.inf, 0.0
                continue
            if f_a > f0 + C1 * alpha * dg0 + f_eps or f_a >= f_lo:
                hi, f_hi, dg_hi = alpha, f_a, dg_a
            else:
                if abs(dg_a) <= -C2 * dg0 + g_eps:
                    return alpha, f_a, g_a
                if dg_a * (hi - lo) >= 0.0:
                    hi, f_hi, dg_hi = lo, f_lo, dg_lo
                lo, f_lo, dg_lo = alpha, f_a, dg_a
        raise MaxProbesExceeded(f"no Wolfe point within {MAX_PROBES} probes")

    alpha_prev, f_prev, dg_prev = 0.0, f0, dg0
    alpha = float(alpha0)
    first = True
    while evals < MAX_PROBES:
        f_a, g_a, dg_a = probe(alpha)
        if not np.isfinite(f_a):
            alpha = 0.5 * (alpha_prev + alpha)
            continue
        if f_a > f0 + C1 * alpha * dg0 + f_eps or (not first and f_a >= f_prev):
            return zoom(alpha_prev, f_prev, dg_prev, alpha, f_a, dg_a)
        if abs(dg_a) <= -C2 * dg0 + g_eps:
            return alpha, f_a, g_a
        if dg_a >= 0.0:
            return zoom(alpha, f_a, dg_a, alpha_prev, f_prev, dg_prev)
        alpha_prev, f_prev, dg_prev = alpha, f_a, dg_a
        alpha *= 2.0
        first = False
    raise MaxProbesExceeded(f"no Wolfe point within {MAX_PROBES} probes")


def _two_loop(g, s_list, y_list, rho_list):
    d = -g
    if not s_list:
        return d
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * np.dot(s, d)
        alphas.append(a)
        d -= a * y
    gamma = np.dot(s_list[-1], y_list[-1]) / np.dot(y_list[-1], y_list[-1])
    d *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * np.dot(y, d)
        d += (a - b) * s
    return d


def lbfgs_minimize(objective, phi0, config=None, *, stage=0, iter_offset=0,
                   timing=False):
    """Limited-memory quasi-Newton minimization with strong Wolfe steps,
    keeping the last ``HISTORY`` curvature pairs.

    Curvature pairs with s.y <= 1e-10 |s||y| are skipped.  A failed line
    search first retries once along steepest descent with cleared memory;
    a second failure terminates with the last accepted iterate retained.
    A stage that ends before its first accepted step (converged, or no
    step found) records one row for its starting iterate, with step 0.
    Each row is logged at INFO level as it is recorded.
    """
    config = config or LBFGSConfig()
    obj = as_objective(objective)
    phi = np.array(phi0, dtype=np.float64, copy=True)
    history = TrainingHistory()
    s_list, y_list, rho_list = [], [], []

    def probe(x):
        nonlocal n_evals
        n_evals += 1
        return obj(x)

    history.status = "max_iters"
    for it in range(1, config.max_iters + 1):
        tic = time.perf_counter() if timing else 0.0
        f, g = obj.begin_iteration(phi)
        n_evals = 1  # probe adds every line-search call, failed searches' too
        if not np.isfinite(f):
            raise NonFiniteObjective(f"objective is {f} at the current iterate")
        gnorm = float(np.linalg.norm(g))
        if it == 1:  # the row of a stage that ends before its first step
            start = _make_row(stage, iter_offset + 1, f, obj, gnorm, 0.0, 0.0, 0)
        if gnorm <= config.grad_tol:
            history.status = "converged"
            break
        d = _two_loop(g, s_list, y_list, rho_list)
        dg = float(np.dot(d, g))
        if dg >= 0.0 or not np.isfinite(dg):
            s_list, y_list, rho_list = [], [], []
            d = -g
            dg = -gnorm * gnorm
        attempts = [(d, dg, 1.0 / gnorm if it == 1 else 1.0)]
        if s_list:
            # stale curvature is the usual culprit; retry along steepest descent
            attempts.append((-g, -gnorm * gnorm, 1.0 / gnorm))
        for d, dg, alpha0 in attempts:
            try:
                alpha, f_new, g_new = strong_wolfe_search(probe, phi, d, f, g, alpha0)
                break
            except LineSearchFailure:
                s_list, y_list, rho_list = [], [], []
        else:
            history.status = "line_search_failure"
            break
        s = alpha * d
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > HISTORY:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        phi = phi + s
        seconds = (time.perf_counter() - tic) if timing else 0.0
        history.append(
            _make_row(stage, iter_offset + it, f_new, obj,
                      np.linalg.norm(g_new), alpha, seconds, n_evals)
        )
        _log_row(history.rows[-1])
        history.wolfe.append((f, dg, alpha, f_new, float(np.dot(g_new, d))))
    if not history.rows:
        seconds = (time.perf_counter() - tic) if timing else 0.0
        history.append(replace(start, seconds=seconds, n_evals=n_evals))
        _log_row(history.rows[-1])
    return phi, history


def curriculum_train(schedule, objective_factory, phi0, config, *, timing=False):
    """Load-stepped training: one stage per fraction of the schedule,
    warm-starting parameters between stages.

    ``objective_factory(fraction)`` builds a fresh objective (and fresh
    weighting statistics) with all loads scaled by ``fraction``.
    """
    phi = np.array(phi0, dtype=np.float64, copy=True)
    history = TrainingHistory()
    offset = 0
    for k, fraction in enumerate(schedule.fractions):
        objective = objective_factory(fraction)
        stage_config = config
        if schedule.stage_iters is not None:
            stage_config = replace(config, max_iters=schedule.stage_iters[k])
        try:
            phi, stage_hist = lbfgs_minimize(
                objective, phi, stage_config,
                stage=k, iter_offset=offset, timing=timing,
            )
        except NonFiniteObjective as err:
            raise NonFiniteObjective(f"stage {k} (fraction {fraction}): {err}") from err
        history.extend(stage_hist)
        offset += len(stage_hist)
    return phi, history
