#!/usr/bin/env python3
"""Record the phi0 gate references of every workload.

Run from the root of a source checkout:

    python3 perfbench/record_references.py

It evaluates each workload's objective at phi0 (network.seed =
REFERENCE_SEED) and writes value, gradient norm and g.d along the gate
direction to perfbench/references.json.  Re-record only when a change
is meant to alter the objective itself.
"""

import json
import os
import shutil
import sys
import time

from run import HERE, RUN_LIMIT_S, Bench
from workloads import REFERENCE_SEED, WORKLOADS


def record(root, workload):
    """The gate values of ``workload`` at phi0, from the same ``check``
    child the gate runs; raises RuntimeError when the child fails."""
    bench = Bench(root, workload, REFERENCE_SEED, time.monotonic() + RUN_LIMIT_S)
    try:
        rec = bench.child("check", [bench.solve_argv(REFERENCE_SEED, bench.work)])
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if "failure" in rec or not isinstance(rec.get("stop"), dict):
        raise RuntimeError(f"{workload.name}: {rec.get('failure', 'no gate values')}")
    return {k: rec["stop"][k] for k in ("f", "gnorm", "gd", "n_params")}


def main():
    refs = {}
    for name, w in WORKLOADS.items():
        try:
            refs[name] = record(os.getcwd(), w)
        except RuntimeError as err:
            print(err, file=sys.stderr)
            return 1
        print(name, refs[name])
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
