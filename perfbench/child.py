"""One child process of the benchmark.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the
role, the ``hyperelast`` command lines to run one after the other, the
source directory and where to write the record.  Roles:

- ``solve`` / ``export``: run ``cli.main`` on each command line and
  record spans around it, each call under a root span of its own;
- ``setup``: like ``solve`` but stop at the first objective call, so the
  record holds only the set-up time;
- ``check``: stop at the first ``begin_iteration`` after evaluating the
  objective at phi0 and along a seeded direction, for the gate.
"""

import os

# BLAS thread pools are sized when numpy loads, so pin them first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402

# direction of the central-difference check, and its step along it
GATE_DIRECTION_SEED = 20220528
FD_STEP = 1e-5


class StopRun(BaseException):
    """Ends a setup or check child at its first objective call."""


def _stop_at_first_iteration(solver, action):
    cls = solver.TrainingObjective
    inner = cls.begin_iteration

    def begin_iteration(self, phi):
        raise StopRun(action(self, inner, phi))

    cls.begin_iteration = begin_iteration


def _gate_values(obj, begin, phi):
    import numpy as np

    f, g = begin(obj, phi)
    d = np.random.default_rng(GATE_DIRECTION_SEED).standard_normal(phi.shape)
    d /= np.linalg.norm(d)
    f_plus, _ = obj(phi + FD_STEP * d)
    f_minus, _ = obj(phi - FD_STEP * d)
    return {
        "f": float(f),
        "gnorm": float(np.linalg.norm(g)),
        "gd": float(np.dot(g, d)),
        "fd": float((f_plus - f_minus) / (2.0 * FD_STEP)),
        "n_params": int(phi.size),
    }


def _environment():
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except Exception as err:  # older numpy: no dict mode
        blas = f"unknown ({type(err).__name__})"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    rec = tracer.Recorder(spec["run_id"])
    record = {"role": spec["role"], "rc": None, "error": None}
    try:
        from hyperelast import cli, solver

        targets = tracer.OBJECTIVE_TARGETS
        if spec["trace"]:
            targets = targets + tracer.LAYER_TARGETS
        tracer.install(rec, targets)
        if spec["role"] == "setup":
            _stop_at_first_iteration(solver, lambda obj, begin, phi: rec.clock())
        elif spec["role"] == "check":
            _stop_at_first_iteration(solver, _gate_values)
            record["env"] = _environment()

        stdout = io.StringIO()
        for argv in spec["calls"]:
            root = rec.begin("cli." + spec["role"])
            try:
                with contextlib.redirect_stdout(stdout):
                    record["rc"] = cli.main(argv)
            except StopRun as stop:
                record["rc"] = 0
                record["stop"] = stop.args[0]
            finally:
                rec.end(root)
            if record["rc"] != 0:
                break
        record["stdout"] = stdout.getvalue()
    except Exception:
        record["error"] = traceback.format_exc()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(rec.dump())
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return 0 if record["rc"] == 0 and record["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
