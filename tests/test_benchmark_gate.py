"""The benchmark's phi0 gate (perfbench/run.py), run in-process: a change
that would fail the gate fails here first.

For each workload of perfbench/workloads.py, ``hyperelast solve`` runs at
the reference seed and stops at its first ``begin_iteration``, as the
gate's ``check`` child (perfbench/child.py) does.  There f, |g| and g.d
along the seeded direction must match perfbench/references.json, and the
central difference along it must match g.d.
"""

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from hyperelast import cli, solver

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
# as perfbench/child.py and perfbench/run.py set them
GATE_DIRECTION_SEED = 20220528
FD_STEP = 1e-5
GATE_RTOL = 1e-8
FD_RTOL = 1e-5


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read perfbench/, write nothing there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())


class StopRun(BaseException):
    """Carries the gate values out of the solve at its first iteration."""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_phi0_gate(name, tmp_path, monkeypatch, capsys):
    w = workloads.WORKLOADS[name]
    begin = solver.TrainingObjective.begin_iteration

    def gate_values(obj, phi):
        f, g = begin(obj, phi)
        d = np.random.default_rng(GATE_DIRECTION_SEED).standard_normal(phi.shape)
        d /= np.linalg.norm(d)
        f_plus, _ = obj(phi + FD_STEP * d)
        f_minus, _ = obj(phi - FD_STEP * d)
        raise StopRun({
            "f": float(f),
            "gnorm": float(np.linalg.norm(g)),
            "gd": float(np.dot(g, d)),
            "fd": float((f_plus - f_minus) / (2.0 * FD_STEP)),
            "n_params": int(phi.size),
        })

    monkeypatch.setattr(solver.TrainingObjective, "begin_iteration", gate_values)
    argv = (["solve"] + list(w.solve_args)
            + ["--set", f"network.seed={workloads.REFERENCE_SEED}", "--out", str(tmp_path)])
    with pytest.raises(StopRun) as stop:
        cli.main(argv)
    got, ref = stop.value.args[0], REFERENCES[name]
    assert got["n_params"] == ref["n_params"]
    for key in ("f", "gnorm", "gd"):
        assert abs(got[key] - ref[key]) <= GATE_RTOL * abs(ref[key]), key
    scale = max(abs(got["gd"]), 1e-3 * got["gnorm"])
    assert abs(got["fd"] - got["gd"]) <= FD_RTOL * scale
