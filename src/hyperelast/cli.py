"""Command-line entry point.

Subcommands: solve, export-fields, check-gradients, run-oracles,
compare-masks.  Exit codes: 0 success, 2 configuration error,
3 numerical failure (inversion / non-finite loss), 4 verification
failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import exports, solver, verification
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


def _output_dir(cfg, override=None):
    root = os.environ.get("HYPERELAST_OUT", ".")
    path = override or cfg.get("output.dir")
    full = path if os.path.isabs(path) else os.path.join(root, path)
    os.makedirs(full, exist_ok=True)
    return full


def _load_config(args):
    """Defaults, then the command's base values, the config file and the
    command line, each over the ones before."""
    values = dict(getattr(args, "base", {}))
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
    axes = [np.linspace(0.0, l, n) for l, n in zip(domain.lengths, dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=-1)
    spacing = [l / (n - 1) for l, n in zip(domain.lengths, dims)]
    return dims, X, spacing


def cmd_solve(args):
    cfg = _load_config(args)
    out = _output_dir(cfg, args.out)
    result = solver.solve_config(cfg)
    exports.write_history(result.history, os.path.join(out, "history.csv"))
    exports.save_checkpoint(os.path.join(out, "checkpoint.json"), cfg, result.phi)
    cfg.write(os.path.join(out, "config.txt"))
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
    fields = solver.evaluate_fields(net, phi, X)
    meta = {"config_hash": cfg.hash(), "seed": cfg.get("network.seed"),
            "problem": problem.name}
    exports.write_fields_csv(os.path.join(out, "fields.csv"), X, fields, metadata=meta)
    exports.write_vtk_structured(
        os.path.join(out, "fields.vtk"), dims, spacing, fields, title=problem.name
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


def cmd_run_oracles(args):
    cfg = _load_config(args)
    cases = [("shear:0.3", "affine shear 0.3"), ("stretch:1.1,1.0,1.0", "affine stretch 1.1")]
    failed = False
    for affine, label in cases:
        sub = cfg.with_overrides({
            "problem.affine": affine,
            "problem.preset": "",
        })
        result = solver.solve_config(sub)
        ok = (result.history.status in ("converged", "max_iters")
              and result.l2 is not None and result.l2 <= args.tol)
        failed |= not ok
        status = "ok " if ok else "FAIL"
        print(f"[{status}] {label:24s} l2 error {result.l2:.3e} "
              f"({result.history.status}, {len(result.history)} iters)")
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
    p.set_defaults(fn=cmd_run_oracles, base=ORACLE_BASE)

    p = sub.add_parser("compare-masks", help="train full/dem/dcm variants and tabulate")
    common(p)
    p.set_defaults(fn=cmd_compare_masks)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
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
