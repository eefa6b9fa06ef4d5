"""Tests of the benchmark's own code.

Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import analysis  # noqa: E402
import record_references  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CATALOGUE = run.Catalogue()


class TestCatalogue:
    def test_metric_names_and_counts(self):
        names = [n for n, _ in CATALOGUE.end_to_end + CATALOGUE.per_layer]
        assert all(NAME_RE.match(n) for n in names + CATALOGUE.workloads)
        assert len(set(names)) == len(names)
        assert 1 <= len(CATALOGUE.end_to_end) <= 16
        assert 1 <= len(CATALOGUE.per_layer) <= 128
        assert 2 <= len(CATALOGUE.workloads) <= 8
        assert "input" in CATALOGUE.tape_ops and "other" not in CATALOGUE.tape_ops

    def test_every_workload_is_configured(self):
        assert sorted(CATALOGUE.workloads) == sorted(WORKLOADS)

    def test_bounds(self):
        with open(run.SPEC_PATH) as fh:
            spec = json.load(fh)
        for m in spec["end_to_end"]:
            assert m["better"] == "lower" and 0 < m["bound"] <= 0.25
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
        for w in spec["workloads"]:
            assert len(w["why"]) <= 200 and "\n" not in w["why"]


class TestSpanArithmetic:
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping, so the
    # union counts once), a has child c [2, 3]; d [8, 12] overruns the root
    SPANS = [
        ["root", 0.0, 10.0, -1, -1, -1, None],
        ["a", 1.0, 4.0, 0, 1, 101, None],
        ["c", 2.0, 3.0, 1, 11, 41, None],
        ["b", 3.0, 6.0, 0, 101, 151, None],
        ["d", 8.0, 12.0, 0, -1, -1, None],
    ]

    def test_self_times(self):
        selfs = analysis.self_times(self.SPANS)
        # root: 10 - |[1,6] u [8,10]| = 10 - 7
        assert selfs == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])

    def test_covered_union(self):
        assert analysis.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
        assert analysis.covered([(-1, 2)], 0, 1) == 1
        assert analysis.covered([], 0, 1) == 0

    def test_nodes_and_outermost(self):
        kids = analysis.children_of(self.SPANS)
        sub = analysis.subtree(kids, 0)
        assert sorted(analysis._outermost(self.SPANS, sub, ("a", "c"))) == [1]
        assert analysis._nodes(self.SPANS, 1) == 100
        assert analysis._nodes(self.SPANS, 0) == 0  # no live tape

    def test_evaluations_need_a_forward_pass(self):
        spans = [
            ["cli.solve", 0.0, 10.0, -1, -1, -1, None],
            ["solver.objective.begin", 1.0, 2.0, 0, -1, 5, None],
            ["network.fields", 1.1, 1.5, 1, 1, 3, None],
            ["solver.objective.call", 3.0, 3.5, 0, -1, -1, None],
            ["solver.objective.call", 4.0, 5.0, 0, -1, 5, None],
            ["network.fields", 4.2, 4.4, 4, 1, 3, None],
        ]
        assert [i for i, _ in analysis.evaluations(spans)] == [1, 4]
        setup, solve, evals = analysis.solve_timings(spans)
        assert (setup, solve) == (1.0, 9.0)
        assert evals == pytest.approx([1000.0, 1000.0])


class TestTailRule:
    @pytest.mark.parametrize("n, p", [
        (9, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
        (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, p):
        assert analysis.tail_percentile(n) == p

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert analysis.percentile(values, 95.0) == 95.0
        assert analysis.percentile(values, 50.0) == 50.0
        assert analysis.median([3, 1, 2, 10]) == 2.5


class TestLayerMetrics:
    def test_missing_spans_give_absent_metrics(self):
        # a traced solve where only the objective boundary was wrapped, as
        # if every layer function had been deleted by a refactor
        spans = [
            ["cli.solve", 0.0, 3.0, -1, -1, -1, None],
            ["solver.objective.begin", 1.0, 2.0, 0, -1, 9, None],
            ["network.fields", 1.1, 1.5, 1, 1, 5, None],
        ]
        export = [["cli.export", 0.0, 1.0, -1, -1, -1, None]]
        out = analysis.layer_metrics(spans, export, 1, CATALOGUE.tape_ops)
        assert "network.forward_ms" not in out
        assert "autodiff.tape_nodes" not in out
        assert "materials.min_J" not in out
        assert out["solver.begin_calls"] == 1
        assert out["network.bc_ms"] == pytest.approx(400.0)


def test_missing_wrap_targets_are_noted_not_fatal():
    """Targets that do not exist are skipped; the rest still wrap and the
    wrapped code returns exactly what it returned before."""
    script = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import tracer
from hyperelast import losses, materials, network

F = np.array([[[1.1, 0.2, 0.0], [0.0, 0.9, 0.1], [0.05, 0.0, 1.0]]])
before = materials.eval_stress(materials.NeoHookean(lam=1.0, mu=1.0), F)
rec = tracer.Recorder("t")
tracer.install(rec, tracer.LAYER_TARGETS + (
    tracer.Target("network.component", "hyperelast.network", "LayerJets.component_removed"),
    tracer.Target("autodiff.inv3", "hyperelast.autodiff", "jet_inv3_removed"),
    tracer.Target("gone.module", "hyperelast.no_such_module", "f"),
))
after = materials.eval_stress(materials.NeoHookean(lam=1.0, mu=1.0), F)
print(json.dumps({
    "missing": [m[0] for m in rec.missing],
    "same": bool(np.array_equal(before, after)),
    "spans": sorted(set(s[0] for s in rec.spans)),
    "alias_wrapped": losses.deformation_gradient is materials.deformation_gradient,
}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, HERE, os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["missing"] == ["network.component", "autodiff.inv3", "gone.module"]
    assert out["same"]
    assert "materials.stress" in out["spans"]
    assert "materials.deformation_gradient" in out["spans"]
    assert out["alias_wrapped"]


def test_finite_csv_flags_bad_values(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("# meta\na,b\n1.0,2.0\n3.0,4.0\n")
    assert run._finite_csv(str(good), skip_comments=True) == (2, None)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,nan\n")
    rows, problem = run._finite_csv(str(bad))
    assert problem and "nan" in problem


def test_hook_time_is_outside_its_span():
    """An ``after`` hook runs once its span is closed, in a span of its own."""
    ticks = iter(range(100))
    rec = tracer.Recorder("t", clock=lambda: float(next(ticks)))
    target = tracer.Target("layer", "m", "f", after=lambda a, k, out: {"out": out})
    wrapped = tracer.make_wrapper(rec, target, lambda x: x + 1)
    outer = rec.begin("outer")
    assert wrapped(1) == 2
    rec.end(outer)
    names = [s[analysis.NAME] for s in rec.spans]
    assert names == ["outer", "layer", "trace.hook"]
    _, layer, hook = rec.spans
    assert layer[analysis.EXTRA] == {"out": 2}
    assert layer[analysis.T1] <= hook[analysis.T0]
    assert hook[analysis.PARENT] == 0
    # outer [0, 5], layer [1, 2], hook [3, 4]: the hook's time is nobody's
    assert analysis.self_times(rec.spans) == [3.0, 1.0, 1.0]


def test_git_commit_from_packed_refs(tmp_path):
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n"
        "1111111111111111111111111111111111111111 refs/heads/dev\n"
        "2222222222222222222222222222222222222222 refs/heads/main\n"
    )
    assert run._git_commit(str(tmp_path)) == "2" * 40
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "refs" / "heads" / "main").write_text("3" * 40 + "\n")
    assert run._git_commit(str(tmp_path)) == "3" * 40
    assert run._git_commit(str(tmp_path / "none")) is None


SMOKE = Workload(
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
)


@pytest.fixture(scope="module")
def smoke_references():
    return {"smoke": record_references.record(ROOT, SMOKE)}


def test_gate_rejects_a_wrong_reference(smoke_references):
    ref = dict(smoke_references["smoke"], f=smoke_references["smoke"]["f"] * (1 + 1e-6))
    result, summary = run.run(SMOKE, seed=0, seconds=1, trace=False, root=ROOT,
                              references={"smoke": ref})
    assert not result["correct"]
    assert any("gate: f = " in line for line in summary["failures"])


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_workload(trace, smoke_references):
    result, summary = run.run(SMOKE, seed=0, seconds=1, trace=trace, root=ROOT,
                              references=smoke_references)
    assert result["correct"], summary["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    catalogue = CATALOGUE.per_layer if trace else CATALOGUE.end_to_end
    assert list(result["metrics"]) == [n for n, _ in catalogue]
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert summary["detail"]["history_identical"]
        assert result["metrics"]["optim.iters"]["value"] == 3
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        # one solve plus the warm-up solve, each followed by its exports
        assert len(summary["detail"]["samples"]["export_s"]) == 2 * SMOKE.exports_per_solve


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "patch_shear",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
