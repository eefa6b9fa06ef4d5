"""Spans recorded from outside the program, around calls into its modules.

A :class:`Recorder` keeps one span per wrapped call in memory: name,
start, end, parent and the tape length at both ends.  :func:`install`
replaces public functions and methods of the ``hyperelast`` package with
timing wrappers.  A target that no longer exists is skipped and noted,
so a refactor that deletes a function turns its metric into ``null``
rather than crashing the benchmark.  Wrappers pass arguments, results
and exceptions through unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "hyperelast"


class Recorder:
    """In-memory span list; one per child process."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        # [name, t0, t1, parent index, tape length at t0, at t1, extra]
        self.spans = []
        self.stack = []
        # tape of the evaluation in progress; set when FieldNetwork.fields
        # receives a taped parameter vector, cleared around objective calls
        self.tape = None
        self.notes = []
        self.missing = []

    def _nodes(self):
        return len(self.tape) if self.tape is not None else -1

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self._nodes(), None, None])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        """Close span ``idx`` and return it, so the caller can add extra."""
        span = self.spans[idx]
        span[2] = self.clock()
        span[5] = self._nodes()
        self.stack.pop()
        return span

    def dump(self):
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "missing": self.missing,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# hooks: extra data read off a call's arguments and result.  A hook that
# fails records its error instead; it never changes the call's outcome.
# Hooks run after their span has closed, inside a "trace.hook" span of
# their own, so their time counts in no layer's self time.
# ---------------------------------------------------------------------------


def _capture_tape(rec, args, kwargs):
    for value in list(args) + list(kwargs.values()):
        tape = getattr(value, "tape", None)
        if tape is not None and hasattr(tape, "nodes"):
            rec.tape = tape
            return


def _forward_gflop(args, kwargs, out):
    spec, features = args[0], args[2]
    n = 1
    for d in features[0].shape[:-1]:
        n *= int(d)
    macs = sum(int(a) * int(b) for a, b in zip(spec.widths[:-1], spec.widths[1:]))
    # value + 3 gradient + 6 packed Hessian channels per layer
    return {"gflop": 2.0 * n * 10 * macs / 1e9}


def _min_J(args, kwargs, out):
    return {"min_J": float(out.J.val.data.min())}


def _tape_ops(args, kwargs, out):
    wrt = args[1] if len(args) > 1 else kwargs["wrt"]
    nodes = wrt.tape.nodes
    return {"tape_len": len(nodes), "ops": dict(Counter(n.op.split("[", 1)[0] for n in nodes))}


def _file_bytes(args, kwargs, out):
    size = 0
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            size += os.path.getsize(value)
    return {"bytes": size}


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str  # "function" or "Class.method"
    before: object = None  # hook(rec, args, kwargs) before the span opens
    after: object = None  # hook(args, kwargs, result) -> dict for the span
    # an objective call: the tape of the previous evaluation is forgotten
    # when it starts and its own when it returns
    clear_tape: bool = False


_M = PACKAGE + "."

# the objective boundary: all the untraced run observes
OBJECTIVE_TARGETS = (
    Target("solver.objective.begin", _M + "solver", "TrainingObjective.begin_iteration",
           clear_tape=True),
    Target("solver.objective.call", _M + "solver", "TrainingObjective.__call__",
           clear_tape=True),
    Target("network.fields", _M + "network", "FieldNetwork.fields", before=_capture_tape),
)

LAYER_TARGETS = (
    Target("network.forward", _M + "network", "forward", after=_forward_gflop),
    Target("network.raw_outputs", _M + "network", "FieldNetwork.raw_outputs"),
    Target("network.bc_apply", _M + "network", "BCEnforcer.apply"),
    Target("network.features", _M + "network", "RFFMap.features"),
    Target("network.bc_jets", _M + "network", "BCEnforcer.bc_jets"),
    Target("materials.displacement_gradient", _M + "network", "displacement_gradient"),
    Target("materials.deformation_gradient", _M + "materials", "deformation_gradient",
           after=_min_J),
    Target("materials.stress", _M + "materials", "NeoHookean.stress"),
    Target("materials.stress", _M + "materials", "LopezPamies.stress"),
    Target("materials.psi", _M + "materials", "NeoHookean.psi"),
    Target("materials.psi", _M + "materials", "LopezPamies.psi"),
    Target("losses.assemble", _M + "losses", "assemble"),
    Target("autodiff.reverse", _M + "autodiff", "reverse_gradient", after=_tape_ops),
    Target("optim.lbfgs", _M + "optim", "lbfgs_minimize"),
    Target("optim.wolfe", _M + "optim", "strong_wolfe_search"),
    Target("bvp.point_sets", _M + "bvp", "build_point_sets"),
    Target("solver.evaluate_fields", _M + "solver", "evaluate_fields"),
    Target("exports.fields_csv", _M + "exports", "write_fields_csv", after=_file_bytes),
    Target("exports.vtk", _M + "exports", "write_vtk_structured", after=_file_bytes),
    Target("exports.history", _M + "exports", "write_history", after=_file_bytes),
    Target("exports.checkpoint", _M + "exports", "save_checkpoint", after=_file_bytes),
)


def make_wrapper(rec, target, fn):
    name, before, after, clear = target.span, target.before, target.after, target.clear_tape

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if clear:
            rec.tape = None
        if before is not None:
            before(rec, args, kwargs)
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as err:
            rec.end(idx)[6] = {"exc": [c.__name__ for c in type(err).__mro__]}
            if clear:
                rec.tape = None
            raise
        span = rec.end(idx)
        if after is not None:
            hook = rec.begin("trace.hook")
            try:
                span[6] = after(args, kwargs, out)
            except Exception as err:  # a hook must not change the run
                span[6] = {"hook_error": f"{type(err).__name__}: {err}"}
            rec.end(hook)
        if clear:
            rec.tape = None
        return out

    return wrapper


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(_M))
    ]


def install(rec, targets):
    """Wrap every target that resolves; note the rest in ``rec.missing``.

    Module-level functions are replaced in every package module that
    imported them by name, so ``from .materials import f`` call sites are
    wrapped too.  Only plain functions are wrapped.
    """
    wrapped = set()
    for t in targets:
        label = f"{t.module}:{t.attr}"
        try:
            module = importlib.import_module(t.module)
        except ImportError as err:
            rec.missing.append([t.span, label, f"module not importable: {err}"])
            continue
        *owner_path, attr = t.attr.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None:
            rec.missing.append([t.span, label, "owner not found"])
            continue
        raw = inspect.getattr_static(owner, attr, None)
        if not inspect.isfunction(raw):
            reason = "not found" if raw is None else f"not a plain function ({type(raw).__name__})"
            rec.missing.append([t.span, label, reason])
            continue
        if id(raw) in wrapped:
            rec.notes.append(f"{label} already wrapped under another target")
            continue
        wrapped.add(id(raw))
        wrapper = make_wrapper(rec, t, raw)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapper)
    return rec
