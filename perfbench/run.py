#!/usr/bin/env python3
"""Closed-loop solve benchmark for hyperelast.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload patch_shear --seed 0 --seconds 30 --trace 0

Each workload is a single caller running one solve at a time: a fresh
child process runs ``hyperelast solve`` and a second one runs
``hyperelast export-fields`` on its checkpoint.  ``--trace 0`` runs a
one-iteration warm-up solve, then repeats that loop for ``--seconds``
and prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced solve and prints the
per-layer metrics.  Both first run the phi0 gate against
``references.json``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

# workload names and the metric catalogue (names, units, bounds)
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# per-layer metrics autodiff.tape_nodes.op.<kind> name the tape op kinds
# counted one by one; the rest are summed into <kind> = "other"
TAPE_OP_PREFIX = "autodiff.tape_nodes.op."

# a run must end within this many seconds, builds aside
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 3
# phi0 objective value, gradient norm and g.d against references.json
GATE_RTOL = 1e-8
# central difference against g.d, relative to max(|g.d|, 1e-3 |g|)
FD_RTOL = 1e-5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OK_STATUS = ("max_iters", "converged")


class RunFailed(Exception):
    """The run cannot produce metrics (e.g. not a source checkout)."""


def _child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("HYPERELAST_OUT", None)
    return env


def _finite_csv(path, skip_comments=False):
    """(data rows, first problem) of a numeric CSV with one header line."""
    rows, header_seen = 0, False
    with open(path) as fh:
        for line in fh:
            if skip_comments and line.startswith("#"):
                continue
            if not header_seen:
                header_seen = True
                continue
            for cell in line.rstrip("\n").split(","):
                value = float(cell)
                if not math.isfinite(value):
                    return rows, f"non-finite value {cell!r} in {os.path.basename(path)}"
            rows += 1
    return rows, None


class Catalogue:
    """What BENCHMARK.json says: workload names and (name, unit) metrics."""

    def __init__(self):
        with open(SPEC_PATH) as fh:
            spec = json.load(fh)
        self.workloads = [w["name"] for w in spec["workloads"]]
        self.end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        self.per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.tape_ops = tuple(
            n[len(TAPE_OP_PREFIX):] for n, _ in self.per_layer
            if n.startswith(TAPE_OP_PREFIX) and n != TAPE_OP_PREFIX + "other"
        )


class Bench:
    def __init__(self, root, workload, seed, deadline):
        self.root = root
        self.w = workload
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join(
            root, ".perfbench_work", f"{workload.name}-{seed}-{os.getpid()}"
        )
        os.makedirs(self.work, exist_ok=True)
        self.n_children = 0
        self.attempted = 0
        self.failures = []
        self.notes = []

    # -- children ----------------------------------------------------------
    def child(self, role, calls, trace=False):
        """Run the ``hyperelast`` command lines ``calls`` in one child."""
        self.n_children += 1
        tag = f"{self.n_children:03d}-{role}"
        spec_path = os.path.join(self.work, tag + ".spec.json")
        rec_path = os.path.join(self.work, tag + ".record.json")
        spec = {
            "role": role, "calls": calls, "trace": trace, "run_id": tag,
            "src": os.path.join(self.root, "src"), "record": rec_path,
        }
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=self.root, env=_child_env(), capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"failure": f"{tag}: timed out after {timeout:.0f}s"}
        try:
            with open(rec_path) as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            tail = proc.stderr.strip().splitlines()[-5:]
            return {"failure": f"{tag}: exit {proc.returncode}, no record: {' | '.join(tail)}"}
        if proc.returncode != 0:
            why = rec.get("error") or proc.stderr.strip().splitlines()[-1:]
            rec["failure"] = f"{tag}: exit {proc.returncode}: {why}"
        return rec

    def attempt(self, problems):
        """Count one attempted operation; record its problems, if any."""
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    def solve_argv(self, seed, out):
        return (["solve"] + list(self.w.solve_args)
                + ["--set", f"network.seed={seed}", "--out", out])

    # -- operations --------------------------------------------------------
    def gate(self, references):
        rec = self.child("check", [self.solve_argv(REFERENCE_SEED, os.path.join(self.work, "gate"))])
        problems = [rec["failure"]] if "failure" in rec else []
        values = rec.get("stop")
        if not problems and not isinstance(values, dict):
            problems.append("gate: objective never reached begin_iteration")
        if not problems:
            scale = max(abs(values["gd"]), 1e-3 * values["gnorm"])
            if abs(values["fd"] - values["gd"]) > FD_RTOL * scale:
                problems.append(
                    f"gate: central difference {values['fd']!r} vs g.d {values['gd']!r}"
                )
            ref = references.get(self.w.name)
            if ref is None:
                problems.append(f"gate: no reference recorded for {self.w.name}")
            else:
                for key in ("f", "gnorm", "gd"):
                    if abs(values[key] - ref[key]) > GATE_RTOL * abs(ref[key]):
                        problems.append(
                            f"gate: {key} = {values[key]!r}, reference {ref[key]!r}"
                        )
        self.attempt(problems)
        return rec

    def setup_only(self):
        rec = self.child("setup", [self.solve_argv(self.seed, os.path.join(self.work, "setup"))])
        problems = [rec["failure"]] if "failure" in rec else []
        setup_s = None
        if not problems:
            if isinstance(rec.get("stop"), float):
                setup_s = rec["stop"] - rec["spans"][0][analysis.T0]
            else:
                problems.append("setup: no objective call reached")
        self.attempt(problems)
        return setup_s

    def solve(self, out, trace=False, exports=1, warmup=False):
        """One closed-loop solve, then ``exports`` exports of its checkpoint
        in one child; returns its measurements.  A warm-up solve stops after
        one iteration and is not held to the l2 limit."""
        res = {"out": out, "problems": []}
        problems = res["problems"]
        argv = self.solve_argv(self.seed, out) + list(self.w.warmup_args if warmup else ())
        rec = self.child("solve", [argv], trace=trace)
        res["solve"] = rec
        if "failure" in rec:
            problems.append(rec["failure"])
        else:
            problems += self._check_solve(rec, out, res, check_l2=not warmup)
        if exports and not problems:
            res["export"], more = self.export(out, exports, trace=trace)
            problems += more
        self.attempt(problems)
        return res

    def export(self, out, n, trace=False):
        """``export-fields`` on the checkpoint in ``out``, ``n`` times in one
        child, each into a directory of its own; the last one is checked."""
        grid = "export.grid=" + ",".join(map(str, self.w.export_grid))
        dirs = [os.path.join(out, f"export-{k}") for k in range(n)]
        rec = self.child("export", [
            ["export-fields", "--checkpoint", os.path.join(out, "checkpoint.json"),
             "--set", grid, "--out", d] for d in dirs
        ], trace=trace)
        problems = [rec["failure"]] if "failure" in rec else self._check_export(dirs[-1])
        return rec, problems

    def _check_solve(self, rec, out, res, check_l2=True):
        problems = []
        text = rec.get("stdout", "")
        m = re.search(r"status:\s+(\S+) after (\d+) iterations", text)
        if not m or m.group(1) not in OK_STATUS:
            problems.append(f"solve status: {m.group(1) if m else 'missing'}")
        hist = os.path.join(out, "history.csv")
        try:
            rows, bad = _finite_csv(hist)
        except (OSError, ValueError) as err:
            return problems + [f"history.csv unreadable: {err}"]
        if bad:
            problems.append(bad)
        if rows < 1:
            problems.append("history.csv has no rows")
        res["iters"] = rows
        if check_l2 and self.w.l2_max is not None:
            m = re.search(r"l2 error vs reference: (\S+)", text)
            l2 = float(m.group(1)) if m else math.nan
            res["l2"] = l2
            if not l2 <= self.w.l2_max:
                problems.append(f"l2 error {l2:.3e} > {self.w.l2_max:g}")
        return problems

    def _check_export(self, exp_out):
        problems = []
        try:
            rows, bad = _finite_csv(os.path.join(exp_out, "fields.csv"), skip_comments=True)
        except (OSError, ValueError) as err:
            return [f"fields.csv unreadable: {err}"]
        if bad:
            problems.append(bad)
        if rows != self.w.export_rows():
            problems.append(f"fields.csv has {rows} rows, expected {self.w.export_rows()}")
        vtk = os.path.join(exp_out, "fields.vtk")
        if not (os.path.isfile(vtk) and os.path.getsize(vtk) > 0):
            problems.append("fields.vtk missing or empty")
        return problems


def _root_seconds(rec):
    """Durations of the root spans, one per ``cli.main`` call of a child."""
    return [s[analysis.T1] - s[analysis.T0] for s in rec["spans"]
            if s[analysis.PARENT] < 0 and s[analysis.NAME].startswith("cli.")]


def _tail(evals, bench):
    """(percentile, value): the highest ladder percentile with ten or more
    evaluations beyond it, or the maximum (100) when there are too few."""
    p = analysis.tail_percentile(len(evals))
    if p is None:
        bench.notes.append(f"only {len(evals)} evaluations: tail reported as the maximum")
        return 100.0, max(evals)
    return p, analysis.percentile(evals, p)


def _untraced(bench, seconds):
    setups = [bench.setup_only() for _ in range(SETUP_REPEATS)]
    setups = [s for s in setups if s is not None]
    # export samples are taken after the warm-up and after every solve, so
    # they are spread over the run like the evaluations are
    warmup = bench.solve(os.path.join(bench.work, "warmup"),
                         exports=bench.w.exports_per_solve, warmup=True)
    export_s = []
    if not warmup["problems"]:
        setups.append(analysis.solve_timings(warmup["solve"]["spans"])[0])
        export_s += _root_seconds(warmup["export"])
    n_solves = max(1, round(bench.w.solves * seconds / 30.0))
    solves = []
    for k in range(n_solves):
        solves.append(bench.solve(os.path.join(bench.work, f"solve-{k}"),
                                  exports=bench.w.exports_per_solve))
        if solves[-1]["problems"]:
            break
    good = [s for s in solves if not s["problems"]]
    if not good:
        raise RunFailed("no solve succeeded: " + " | ".join(bench.failures))
    evals, iters, solve_s, rss = [], 0, [], []
    for s in good:
        setup, dur, ev = analysis.solve_timings(s["solve"]["spans"])
        setups.append(setup)
        solve_s.append(dur)
        evals += ev
        iters += s["iters"]
        export_s += _root_seconds(s["export"])
        rss.append(max(s["solve"]["maxrss_kb"], s["export"]["maxrss_kb"]) / 1024.0)
    values = {
        "setup_s": analysis.median(setups),
        "solve_s": analysis.median(solve_s),
        "eval_ms.p50": analysis.median(evals),
        "evals_per_iter": len(evals) / iters,
        "peak_rss_mb": analysis.median(rss),
        "export_s": analysis.median(export_s),
    }
    p, tail = _tail(evals, bench)
    detail = {
        "solves": len(solves), "iterations": iters, "eval_samples": len(evals),
        "tail_percentile": p, "eval_ms.tail": tail,
        "samples": {"setup_s": setups, "solve_s": solve_s, "export_s": export_s},
    }
    return values, detail


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _traced(bench, catalogue):
    base = bench.solve(os.path.join(bench.work, "base"), exports=0)
    traced = bench.solve(os.path.join(bench.work, "traced"), trace=True)
    if base["problems"] or traced["problems"]:
        raise RunFailed("solve failed: " + " | ".join(bench.failures))
    same = _read(os.path.join(base["out"], "history.csv")) == _read(
        os.path.join(traced["out"], "history.csv"))
    bench.attempt([] if same else ["traced history.csv differs from the untraced one"])

    values = analysis.layer_metrics(
        traced["solve"]["spans"], traced["export"]["spans"], traced["iters"], catalogue.tape_ops
    )
    _, base_solve_s, evals = analysis.solve_timings(base["solve"]["spans"])
    _, traced_solve_s, _ = analysis.solve_timings(traced["solve"]["spans"])
    values["trace.overhead_s"] = traced_solve_s - base_solve_s
    values["eval_ms.tail_pct"], values["eval_ms.tail"] = _tail(evals, bench)
    values["eval_ms.samples"] = len(evals)
    missing = {}
    for rec in (traced["solve"], traced["export"]):
        for span, label, reason in rec.get("missing", ()):
            missing.setdefault(span, set()).add(f"{label} ({reason})")
    for metric, _unit in catalogue.per_layer:
        if values.get(metric) is None and metric != "fail_rate":
            why = "; ".join(f"{s}: {', '.join(sorted(m))}" for s, m in missing.items())
            bench.notes.append(f"{metric}: null ({why or 'no span recorded'})")
    detail = {"tracing_overhead_s": values["trace.overhead_s"],
              "history_identical": same,
              "missing_targets": {k: sorted(v) for k, v in missing.items()}}
    return values, detail


def _git_commit(root):
    """Commit of HEAD in ``root/.git``, loose or packed ref; None without one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def run(workload, seed, seconds, trace, root=None, references=None):
    """Run one benchmark invocation; returns (result, summary)."""
    catalogue = Catalogue()
    root = os.path.abspath(root or os.getcwd())
    if not os.path.isfile(os.path.join(root, "src", "hyperelast", "cli.py")):
        raise RunFailed(f"{root} is not a hyperelast source checkout (no src/hyperelast)")
    if references is None:
        with open(os.path.join(HERE, "references.json")) as fh:
            references = json.load(fh)
    bench = Bench(root, workload, seed, time.monotonic() + RUN_LIMIT_S)
    try:
        gate = bench.gate(references)
        if trace:
            values, detail = _traced(bench, catalogue)
        else:
            values, detail = _untraced(bench, seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:  # another run still uses it
            pass
    failed = len(bench.failures)
    values["fail_rate"] = failed / bench.attempted
    metrics = {
        name: {"value": values.get(name), "unit": unit}
        for name, unit in (catalogue.per_layer if trace else catalogue.end_to_end)
    }
    env = dict(gate.get("env") or {})
    env.update({
        "nproc": len(os.sched_getaffinity(0)), "seed": seed, "workload": workload.name,
        "git_commit": _git_commit(root), "seconds": seconds, "trace": int(trace),
    })
    result = {"correct": failed == 0, "attempted": bench.attempted,
              "failed": failed, "metrics": metrics}
    summary = {"env": env, "detail": detail, "failures": bench.failures,
               "notes": bench.notes}
    return result, summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=Catalogue().workloads)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and
    # waited for and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, summary = run(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    except RunFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for key in ("env", "detail"):
        print(f"{key}: {json.dumps(summary[key], sort_keys=True)}")
    for line in summary["failures"]:
        print(f"failure: {line}")
    for line in summary["notes"]:
        print(f"note: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
