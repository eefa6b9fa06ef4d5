"""Command-line entry point.

Subcommands: solve, export-fields, check-gradients, run-oracles,
compare-masks.  Exit codes: 0 success, 2 configuration error,
3 numerical failure (inversion / non-finite loss), 4 verification
failure.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import sys

import numpy as np

from . import bvp, exports, solver, verification
from .config import RunConfig, parse_override, read_file
from .errors import (
    ConfigError,
    HyperelastError,
    InvertedState,
    NonFiniteLoss,
    NonFiniteObjective,
    UnknownPreset,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

log = logging.getLogger("hyperelast")

# run-oracles' base config, sized like acceptance criterion 1: both affine
# cases reach l2 ~1e-8 within 300 iterations
ORACLE_BASE = {
    "network.hidden": "16,16",
    "network.fourier_features": "8",
    "optimizer.max_iters": "300",
    "optimizer.grad_tol": "1e-10",
}

# (label, problem, the case's own values over ORACLE_BASE); the traction
# cases need finer Fourier features and more iterations to pass 1e-3
ORACLE_CASES = (
    ("affine shear 0.3", {"problem.affine": "shear:0.3"}, {}),
    ("affine stretch 1.1", {"problem.affine": "stretch:1.1,1.0,1.0"}, {}),
    ("uniaxial traction 1.1", {"problem.preset": "nh_uniaxial_traction"},
     {"network.fourier_sigma": "0.25", "optimizer.max_iters": "1000"}),
    ("lp uniaxial traction 1.1", {"problem.preset": "lp_uniaxial_traction"},
     {"network.fourier_sigma": "0.25", "optimizer.max_iters": "500"}),
)


# glibc mallopt parameters; 32 MiB is the largest mmap threshold glibc
# accepts on 64-bit
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 256 << 20


def _keep_freed_heap():
    """Keep freed heap memory in the process; True when glibc took it.

    A training run evaluates the same loss hundreds of times, and each
    evaluation allocates and frees arrays of the same shapes.  By default
    glibc serves the large ones from fresh mmaps and trims the heap top,
    so every evaluation page-faults its arrays in again.  Raising the
    mmap and trim thresholds keeps up to 256 MiB of freed heap for reuse.
    Elsewhere than on glibc, or if the call fails, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1)


def _output_dir(cfg, override=None):
    root = os.environ.get("HYPERELAST_OUT", ".")
    path = override or cfg.get("output.dir")
    full = path if os.path.isabs(path) else os.path.join(root, path)
    os.makedirs(full, exist_ok=True)
    return full


def _load_config(args, base=()):
    """Defaults, then ``base``, the config file and the command line, each
    over the ones before."""
    values = dict(base)
    if args.config:
        values.update(read_file(args.config))
    values.update(parse_override(s) for s in (args.set or []))
    if getattr(args, "preset", None):
        values["problem.preset"] = args.preset
    if getattr(args, "affine", None):
        values["problem.affine"] = args.affine
    return RunConfig(values)


def _export_grid_points(cfg, domain):
    dims = cfg.int_list("export.grid") or (21, 21, 21)
    if len(dims) != 3 or min(dims) < 2:
        raise ConfigError(f"export.grid must be three counts >= 2, got {dims}")
    return (dims, *bvp.grid_points(domain.lengths, dims))


def cmd_solve(args):
    cfg = _load_config(args)
    out = _output_dir(cfg, args.out)
    result = solver.solve_config(cfg)
    exports.write_history(result.history, os.path.join(out, "history.csv"))
    exports.save_checkpoint(os.path.join(out, "checkpoint.json"), cfg, result.phi)
    cfg.write(os.path.join(out, "config.txt"))
    exports.write_run_summary(os.path.join(out, "run.json"), cfg, result.history,
                              result.l2, args.heap_kept)
    final = result.history.rows[-1]
    print(f"problem:    {result.problem.name} (mask={result.problem.mask})")
    print(f"status:     {result.history.status} after {len(result.history)} iterations")
    print(f"final loss: {final.total:.6e}  grad norm: {final.grad_norm:.3e}")
    if result.l2 is not None:
        print(f"l2 error vs reference: {result.l2:.3e}")
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_export_fields(args):
    cfg, phi = exports.load_checkpoint(args.checkpoint)
    if args.set:
        cfg = cfg.with_overrides(dict(parse_override(s) for s in args.set))
    out = _output_dir(cfg, args.out)
    problem = solver.problem_from_config(cfg)
    net = solver.network_from_config(cfg, problem)
    if phi.size != net.n_params:
        raise ConfigError(
            f"{args.checkpoint}: parameter vector has length {phi.size}, "
            f"the configured network needs {net.n_params}"
        )
    dims, X, spacing = _export_grid_points(cfg, problem.domain)
    meta = {"config_hash": cfg.hash(), "seed": cfg.get("network.seed"),
            "problem": problem.name}
    # the VTK file lists the points in another order, so it is written after
    # the CSV from u and von Mises kept for all points; the rest of a chunk
    # is freed once its rows are written
    kept = {"u": np.empty((len(X), 3)), "von_mises": np.empty(len(X))}

    def chunks():
        for lo, hi, fields in solver.sample_fields(net, phi, X):
            for key, value in kept.items():
                value[lo:hi] = fields[key]
            yield X[lo:hi], fields

    exports.write_fields_csv(os.path.join(out, "fields.csv"), chunks(), metadata=meta)
    exports.write_vtk_structured(
        os.path.join(out, "fields.vtk"), dims, spacing, kept, title=problem.name
    )
    print(f"sampled {X.shape[0]} points on {dims} grid; outputs in {out}")
    return EXIT_OK


def cmd_check_gradients(args):
    results = verification.run_all(seed=args.seed)
    failed = False
    for name, err, tol, ok in results:
        status = "ok " if ok else "FAIL"
        print(f"[{status}] {name:32s} max rel err {err:.3e} (tol {tol:.1e})")
        failed |= not ok
    return EXIT_VERIFY if failed else EXIT_OK


def _seed_range(text):
    """``A-B`` (or ``A``) as the range of seeds A to B inclusive."""
    first, dash, last = text.partition("-")
    try:
        seeds = range(int(first), int(last if dash else first) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"expected seeds A-B with 0 <= A <= B, got '{text}'")
    return seeds


def cmd_run_oracles(args):
    """Train each oracle case and check its l2 error against ``--tol``;
    with ``--seeds``, once per seed, reporting the worst and median l2."""
    failed = False
    for label, problem, values in ORACLE_CASES:
        cfg = _load_config(args, {**ORACLE_BASE, **values}).with_overrides(
            {"problem.affine": "", "problem.preset": "", **problem})
        runs = []  # (l2, seed, ok)
        for seed in args.seeds or (None,):
            run_cfg = cfg if seed is None else cfg.with_overrides({"network.seed": seed})
            result = solver.solve_config(run_cfg)
            ok = (result.history.status in ("converged", "max_iters")
                  and result.l2 is not None and result.l2 <= args.tol)
            runs.append((result.l2, seed, ok))
        case_ok = all(ok for _, _, ok in runs)
        failed |= not case_ok
        status = "ok " if case_ok else "FAIL"
        if args.seeds is None:
            print(f"[{status}] {label:24s} l2 error {result.l2:.3e} "
                  f"({result.history.status}, {len(result.history)} iters)")
        else:
            worst, worst_seed, _ = max(runs)
            median = float(np.median([l2 for l2, _, _ in runs]))
            print(f"[{status}] {label:24s} worst l2 {worst:.3e} (seed {worst_seed}), "
                  f"median {median:.3e} over seeds {args.seeds.start}-{args.seeds.stop - 1}; "
                  f"{sum(not ok for _, _, ok in runs)} failed")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_compare_masks(args):
    cfg = _load_config(args)
    out = _output_dir(cfg, args.out)
    rows = solver.compare_masks(cfg)
    table = os.path.join(out, "mask_comparison.csv")
    with open(table, "w") as fh:
        fh.write("mask,l2_error,iterations,total," +
                 ",".join(exports.TERM_NAMES) + ",status\n")
        for r in rows:
            fh.write(
                f"{r['mask']},{r['l2_error']!r},{r['iterations']},{r['total']!r},"
                + ",".join(repr(float(v)) for v in r["terms"])
                + f",{r['status']}\n"
            )
    print(f"{'mask':6s} {'l2_error':>12s} {'iters':>6s} {'final total':>14s}")
    for r in rows:
        print(f"{r['mask']:6s} {r['l2_error']:12.4e} {r['iterations']:6d} {r['total']:14.6e}")
    print(f"table written to {table}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperelast",
        description="Meshfree hyperelasticity solver based on physics-trained coordinate networks",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_problem=True):
        p.add_argument("--config", help="config file (key = value lines)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", help="output directory (default: config output.dir)")
        if with_problem:
            p.add_argument("--preset", help="built-in problem name")
            p.add_argument("--affine", metavar="KIND:ARGS",
                           help="manufactured problem, e.g. shear:0.3 or stretch:1.1,1.0,1.0")

    p = sub.add_parser("solve", help="train a network on a problem")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("export-fields", help="sample a checkpoint on a regular grid")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export_fields)

    p = sub.add_parser("check-gradients", help="run the finite-difference verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check_gradients)

    p = sub.add_parser("run-oracles", help="train the manufactured patch tests and check errors")
    common(p, with_problem=False)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seeds", type=_seed_range, metavar="A-B",
                   help="train every case once per network seed A..B and report "
                        "the worst and median l2 error")
    p.set_defaults(fn=cmd_run_oracles)

    p = sub.add_parser("compare-masks", help="train full/dem/dcm variants and tabulate")
    common(p)
    p.set_defaults(fn=cmd_compare_masks)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    # every subcommand but export-fields trains or evaluates in a loop; the
    # one sampling pass of an export gains nothing and its peak would grow
    args.heap_kept = args.command != "export-fields" and _keep_freed_heap()
    try:
        return args.fn(args)
    except (ConfigError, UnknownPreset) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvertedState, NonFiniteLoss, NonFiniteObjective) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except HyperelastError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
