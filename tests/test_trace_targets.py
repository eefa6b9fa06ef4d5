"""The benchmark's tracer (perfbench/tracer.py) wraps functions of the
package by name and turns the metric of a name that no longer resolves
into null; every name it lists must resolve to a plain function, and a
traced run must still print a result line that parses as JSON."""

import importlib
import inspect
import json
import math
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_perfbench(*names):
    """Import the named perfbench modules, writing no bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


tracer, run, record_references, workloads = _load_perfbench(
    "tracer", "run", "record_references", "workloads"
)

# solves of three iterations and two exports, small enough for a test: an
# all-Dirichlet patch, and a cantilever with traction faces
SMOKES = (
    workloads.Workload(
        name="smoke",
        solve_args=(
            "--affine", "shear:0.3",
            "--set", "problem.grid=5,5,5",
            "--set", "network.hidden=4",
            "--set", "network.fourier_features=2",
            "--set", "optimizer.max_iters=3",
        ),
        export_grid=(5, 5, 5),
        solves=1,
        exports_per_solve=2,
        warmup_args=("--set", "optimizer.max_iters=1"),
    ),
    workloads.Workload(
        name="smoke_traction",
        solve_args=(
            "--preset", "nh_cantilever_traction",
            "--set", "problem.grid=5,3,3",
            "--set", "network.hidden=4",
            "--set", "network.fourier_features=2",
            "--set", "network.fourier_sigma=0.25",
            "--set", "optimizer.max_iters=3",
        ),
        export_grid=(5, 3, 3),
        solves=1,
        exports_per_solve=2,
        warmup_args=("--set", "optimizer.max_iters=1"),
    ),
)


@pytest.mark.parametrize(
    "target",
    tracer.OBJECTIVE_TARGETS + tracer.LAYER_TARGETS,
    ids=lambda t: f"{t.module}:{t.attr}",
)
def test_trace_target_is_a_plain_function(target):
    owner = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert inspect.isfunction(inspect.getattr_static(owner, attr, None))


@pytest.mark.parametrize("smoke", SMOKES, ids=lambda w: w.name)
def test_traced_smoke_run_prints_finite_metrics(smoke, monkeypatch):
    # a NaN metric prints as NaN, which is no JSON, and a hook that fails
    # on what its function was given (network.forward's feature stacks,
    # deformation_gradient's state) loses its metric
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")  # the child processes
    spans = []
    layer_metrics = run.analysis.layer_metrics

    def spy(solve_spans, export_spans, *args):
        spans.extend(solve_spans + export_spans)
        return layer_metrics(solve_spans, export_spans, *args)

    monkeypatch.setattr(run.analysis, "layer_metrics", spy)
    references = {smoke.name: record_references.record(str(ROOT), smoke)}
    result, summary = run.run(smoke, seed=0, seconds=1, trace=True, root=str(ROOT),
                              references=references)
    assert result["correct"], summary["failures"]
    json.loads(json.dumps(result, allow_nan=False))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    assert {"network.forward", "materials.deformation_gradient"} <= {s[0] for s in spans}
    assert [s for s in spans if "hook_error" in (s[6] or {})] == []
