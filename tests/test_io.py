"""Configuration, export and command-line tests."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperelast import autodiff as ad
from hyperelast import cli, materials, solver
from hyperelast.config import DEFAULTS, RunConfig, parse_override, read_file
from hyperelast.errors import ConfigError
from hyperelast.exports import (
    FIELD_COLUMNS,
    HISTORY_COLUMNS,
    load_checkpoint,
    read_fields_csv,
    read_history,
    save_checkpoint,
    write_fields_csv,
    write_history,
    write_vtk_structured,
)
from hyperelast.optim import HistoryRow, TrainingHistory

# malformed values whose message must name the key and the bad token
NAMED_IN_MESSAGE = {
    "problem.grid=5,5": ("problem.grid", "'5,5'"),
    "problem.grid=5,5,5,5": ("problem.grid", "'5,5,5,5'"),
    "shear:abc": ("problem.affine", "'abc'"),
    "stretch:1.1,,1": ("problem.affine", "''"),
    "shear:0.5": ("set either problem.preset or problem.affine, not both",),
}

TINY_SOLVE = [
    "--affine", "shear:0.3",
    "--set", "problem.grid=5,5,5",
    "--set", "network.hidden=8",
    "--set", "network.fourier_features=4",
    "--set", "optimizer.max_iters=4",
]


class TestRunConfig:
    def test_defaults_complete(self):
        cfg = RunConfig()
        assert cfg.get("history.timing") == "off"
        assert cfg.int("network.fourier_features") == 64

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="optimizer.momentum"):
            RunConfig({"optimizer.momentum": "0.9"})

    def test_file_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sample\n"
            "problem.preset = nh_simple_shear\n"
            "network.hidden = 16,16  # two layers\n"
            "\n"
            "optimizer.max_iters = 12\n"
        )
        cfg = RunConfig(read_file(path))
        assert cfg.get("problem.preset") == "nh_simple_shear"
        assert cfg.int_list("network.hidden") == (16, 16)
        assert cfg.int("optimizer.max_iters") == 12

    def test_file_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("problem.preset\n")
        with pytest.raises(ConfigError, match="key = value"):
            RunConfig(read_file(path))

    def test_typed_accessor_errors(self):
        cfg = RunConfig({"optimizer.max_iters": "many"})
        with pytest.raises(ConfigError, match="optimizer.max_iters"):
            cfg.int("optimizer.max_iters")

    def test_hash_changes_iff_field_changes(self):
        base = RunConfig()
        same = RunConfig()
        assert base.hash() == same.hash()
        for key in ("network.seed", "problem.mask", "optimizer.grad_tol"):
            changed = base.with_overrides({key: "0.123"})
            assert changed.hash() != base.hash()
        # overriding with the identical value keeps the hash
        assert base.with_overrides({"problem.mask": "full"}).hash() == base.hash()

    def test_canonical_roundtrip(self, tmp_path):
        cfg = RunConfig({"problem.preset": "nh_simple_shear"})
        path = tmp_path / "c.txt"
        cfg.write(path)
        again = RunConfig(read_file(path))
        assert again.as_dict() == cfg.as_dict()

    def test_parse_override(self):
        assert parse_override("a.b=3") == ("a.b", "3")
        with pytest.raises(ConfigError):
            parse_override("nonsense")

    def test_every_default_key_documented_type(self):
        assert set(DEFAULTS) == set(RunConfig().as_dict())

    def test_readme_table_lists_exactly_the_keys(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        documented = set()
        for line in section.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`(\w+\.\w+)`", line.split("|")[1]))
        assert documented == set(DEFAULTS)


def small_history(n=3):
    rng = np.random.default_rng(0)
    hist = TrainingHistory()
    for t in range(1, n + 1):
        hist.append(
            HistoryRow(
                stage=0,
                iter=t,
                total=float(rng.standard_normal()) * 10.0 ** float(rng.integers(-8, 8)),
                terms=rng.standard_normal(6) * 1e-3,
                weights=rng.uniform(0, 1, 6),
                grad_norm=float(rng.uniform(0, 1)),
                step=float(rng.uniform(0, 2)),
                seconds=0.0,
                n_evals=int(rng.integers(1, 9)),
            )
        )
    hist.status = "max_iters"
    return hist


class TestHistoryIO:
    def test_roundtrip_exact(self, tmp_path):
        hist = small_history(7)
        path = tmp_path / "history.csv"
        write_history(hist, path)
        back = read_history(path)
        assert len(back) == 7
        for a, b in zip(hist.rows, back.rows):
            assert a.total == b.total
            assert np.array_equal(a.terms, b.terms)
            assert np.array_equal(a.weights, b.weights)
            assert (a.grad_norm, a.step, a.seconds) == (b.grad_norm, b.step, b.seconds)
            assert (a.stage, a.iter, a.n_evals) == (b.stage, b.iter, b.n_evals)

    def test_single_iteration_two_lines(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history(small_history(1), path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2

    def test_nineteen_columns(self, tmp_path):
        assert len(HISTORY_COLUMNS) == 19
        path = tmp_path / "h.csv"
        write_history(small_history(4), path)
        for line in path.read_text().strip().split("\n"):
            assert len(line.split(",")) == 19

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_history(TrainingHistory(), tmp_path / "h.csv")


class TestFieldIO:
    def _fields(self, n=10):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(n, 3))
        return X, {
            "u": rng.standard_normal((n, 3)),
            "P": rng.standard_normal((n, 3, 3)) * 100,
            "von_mises": rng.uniform(0, 50, n),
        }

    def test_roundtrip_bit_for_bit(self, tmp_path):
        X, fields = self._fields()
        path = tmp_path / "fields.csv"
        write_fields_csv(path, [(X, fields)], metadata={"config_hash": "abc", "seed": 0})
        back = read_fields_csv(path)
        assert np.array_equal(back["X"], X)
        assert np.array_equal(back["u"], fields["u"])
        assert np.array_equal(back["P"], fields["P"])
        assert np.array_equal(back["von_mises"], fields["von_mises"])

    def test_sixteen_columns(self, tmp_path):
        assert len(FIELD_COLUMNS) == 16
        X, fields = self._fields(4)
        path = tmp_path / "fields.csv"
        write_fields_csv(path, [(X, fields)])
        rows = [l for l in path.read_text().strip().split("\n") if not l.startswith("#")]
        assert all(len(r.split(",")) == 16 for r in rows[1:])
        assert len(rows) == 5

    def test_metadata_comments(self, tmp_path):
        X, fields = self._fields(2)
        path = tmp_path / "fields.csv"
        write_fields_csv(path, [(X, fields)], metadata={"config_hash": "deadbeef"})
        text = path.read_text()
        assert "# config_hash: deadbeef" in text
        assert text.startswith("# units:")


    def test_blocks_written_without_the_whole_table(self, tmp_path):
        # twelve 4096-row blocks and a remainder; values with short
        # reprs keep a block's text small next to the table
        n = 12 * 4096 + 100
        table = np.random.default_rng(3).integers(-8, 8, (n, 16)) / 8
        X, fields = table[:, :3], {
            "u": table[:, 3:6], "P": table[:, 6:15].reshape(n, 3, 3), "von_mises": table[:, 15],
        }
        path = tmp_path / "fields.csv"
        tracemalloc.start()
        try:
            write_fields_csv(path, [(X, fields)], metadata={"seed": 0})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes
        # the text of one hstack-ed table, row by row
        whole = np.hstack([X, fields["u"], fields["P"].reshape(n, 9), fields["von_mises"][:, None]])
        assert path.read_text() == (
            "# units: X in m, u in m, P and von_mises in Pa\n# seed: 0\n"
            + ",".join(FIELD_COLUMNS) + "\n"
            + "".join(",".join(map(repr, row)) + "\n" for row in whole.tolist())
        )


class TestVTK:
    def test_structured_points_layout(self, tmp_path):
        dims = (3, 4, 5)
        n = np.prod(dims)
        rng = np.random.default_rng(2)
        fields = {"u": rng.standard_normal((n, 3)), "von_mises": rng.uniform(0, 1, n)}
        path = tmp_path / "f.vtk"
        write_vtk_structured(path, dims, (0.5, 1 / 3, 0.25), fields)
        lines = path.read_text().split("\n")
        assert lines[0].startswith("# vtk DataFile")
        assert "DATASET STRUCTURED_POINTS" in lines
        assert "DIMENSIONS 3 4 5" in lines
        assert f"POINT_DATA {n}" in lines
        vec_start = lines.index("VECTORS displacement double") + 1
        assert len(lines[vec_start].split()) == 3

    def test_matches_per_row_writer_across_blocks(self, tmp_path):
        # 4624 points: one full 4096-row block and a ragged one, with values
        # of every magnitude, signed zeros and non-finite entries mixed in
        dims = (17, 16, 17)
        n = int(np.prod(dims))
        rng = np.random.default_rng(12)
        u = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-320, 300, (n, 3))
        u[:7].flat = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16]
        vm = rng.uniform(0, 1, n) * 10.0 ** rng.integers(-12, 12, n)
        spacing = (0.25, 1 / 3, 0.125)
        path = tmp_path / "f.vtk"
        write_vtk_structured(path, dims, spacing, {"u": u, "von_mises": vm})

        # the same file written one row at a time, x fastest
        n1, n2, n3 = dims
        u_vtk = u.reshape(n1, n2, n3, 3).transpose(2, 1, 0, 3).reshape(-1, 3)
        vm_vtk = vm.reshape(n1, n2, n3).transpose(2, 1, 0).reshape(-1)
        want = (
            "# vtk DataFile Version 3.0\nhyperelast\nASCII\nDATASET STRUCTURED_POINTS\n"
            "DIMENSIONS 17 16 17\nORIGIN 0 0 0\nSPACING 0.25 0.333333333333 0.125\n"
            f"POINT_DATA {n}\nVECTORS displacement double\n"
            + "".join("%.12g %.12g %.12g\n" % tuple(row) for row in u_vtk.tolist())
            + "SCALARS von_mises double 1\nLOOKUP_TABLE default\n"
            + "".join("%.12g\n" % v for v in vm_vtk.tolist())
        )
        assert path.read_text() == want



def test_writers_exact_text_for_edge_values(tmp_path):
    # negative zero, the smallest subnormal, a float that needs an
    # exponent, a sum with no short decimal form, and a whole number
    table = np.resize([-0.0, 5e-324, 1e16, 0.1 + 0.2, 1.0], (2, 16))
    fields = {"u": table[:, 3:6], "P": table[:, 6:15], "von_mises": table[:, 15]}
    write_fields_csv(tmp_path / "f.csv", [(table[:, :3], fields)])
    a, b, c, d, e = "-0.0", "5e-324", "1e+16", "0.30000000000000004", "1.0"
    assert (tmp_path / "f.csv").read_text() == (
        "# units: X in m, u in m, P and von_mises in Pa\n"
        + ",".join(FIELD_COLUMNS) + "\n"
        + ",".join([a, b, c, d, e] * 3 + [a]) + "\n"
        + ",".join([b, c, d, e, a] * 3 + [b]) + "\n"
    )
    vtk = {"u": table[:, :3], "von_mises": table[:, 3]}
    write_vtk_structured(tmp_path / "f.vtk", (2, 1, 1), (0.5, 1, 1), vtk)
    assert (tmp_path / "f.vtk").read_text() == (
        "# vtk DataFile Version 3.0\nhyperelast\nASCII\nDATASET STRUCTURED_POINTS\n"
        "DIMENSIONS 2 1 1\nORIGIN 0 0 0\nSPACING 0.5 1 1\nPOINT_DATA 2\n"
        "VECTORS displacement double\n"
        "-0 4.94065645841e-324 1e+16\n"
        "4.94065645841e-324 1e+16 0.3\n"
        "SCALARS von_mises double 1\nLOOKUP_TABLE default\n"
        "0.3\n1\n"
    )

class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = RunConfig({"problem.affine": "shear:0.3"})
        phi = np.random.default_rng(3).standard_normal(37)
        path = tmp_path / "ck.json"
        save_checkpoint(path, cfg, phi)
        cfg2, phi2 = load_checkpoint(path)
        assert np.array_equal(phi, phi2)
        assert cfg2.as_dict() == cfg.as_dict()

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"format": "other", "config": {}, "params": []}))
        with pytest.raises(ConfigError, match="format"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, dropped", [
        ("network.stress_scale", "auto", True),
        ("network.stress_scale", "100", False),
        ("problem.shear_gamma", "0.50", True),
        ("problem.shear_gamma", "0.7", False),
        ("optimizer.history", "5", True),
        ("optimizer.wolfe_c1", "0.3", True),
        ("optimizer.max_probes", "8", True),
    ])
    def test_retired_keys(self, tmp_path, key, value, dropped):
        # configs of older checkpoints carry keys the program no longer reads
        cfg = RunConfig({"problem.preset": "nh_simple_shear"})
        path = tmp_path / "ck.json"
        save_checkpoint(path, cfg, np.zeros(3))
        payload = json.loads(path.read_text())
        payload["config"][key] = value
        path.write_text(json.dumps(payload))
        if dropped:
            assert load_checkpoint(path)[0].as_dict() == cfg.as_dict()
        else:
            with pytest.raises(ConfigError, match=key):
                load_checkpoint(path)


class TestCLI:
    @pytest.mark.parametrize("command", ["solve", "compare-masks"])
    def test_converged_at_first_iterate_exit_0(self, tmp_path, command):
        # grad_tol far above the first gradient: the run ends before any
        # step and records one row for its starting iterate
        out = str(tmp_path / "run")
        args = ["--affine", "shear", "--set", "problem.grid=5,5,5", "--set", "network.hidden=8",
                "--set", "network.fourier_features=2", "--set", "optimizer.grad_tol=1e9"]
        assert cli.main([command, *args, "--out", out]) == 0
        if command == "solve":
            (row,) = read_history(os.path.join(out, "history.csv")).rows
            assert (row.iter, row.step, row.n_evals) == (1, 0.0, 1) and row.grad_norm > 0.0
        else:
            table = open(os.path.join(out, "mask_comparison.csv")).read().splitlines()[1:]
            assert [line.split(",")[2] for line in table] == ["1", "1", "1"]
            assert all(line.endswith(",converged") for line in table)

    def test_progress_lines_only_with_verbose(self, tmp_path):
        # at the default level a solve writes nothing to stderr; -v adds one
        # progress line per history row
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        stderr = []
        for flags in ([], ["-v"]):
            out = str(tmp_path / f"run{len(stderr)}")
            proc = subprocess.run(
                [sys.executable, "-m", "hyperelast.cli", *flags, "solve", *TINY_SOLVE,
                 "--out", out],
                env=env, capture_output=True, text=True, check=True,
            )
            stderr.append(proc.stderr)
        assert stderr[0] == ""
        rows = read_history(os.path.join(out, "history.csv")).rows
        lines = [l for l in stderr[1].splitlines() if l.startswith("INFO hyperelast.optim: ")]
        assert [l.split(":")[1] for l in lines] == [f" stage 0 iter {r.iter}" for r in rows]

    def test_solve_writes_outputs(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["solve", *TINY_SOLVE, "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "history.csv"))
        assert os.path.exists(os.path.join(out, "checkpoint.json"))
        assert os.path.exists(os.path.join(out, "config.txt"))
        hist = read_history(os.path.join(out, "history.csv"))
        assert len(hist) >= 1

    def test_solve_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["solve", *TINY_SOLVE, "--out", out1]) == 0
        assert cli.main(["solve", *TINY_SOLVE, "--out", out2]) == 0
        h1 = open(os.path.join(out1, "history.csv"), "rb").read()
        h2 = open(os.path.join(out2, "history.csv"), "rb").read()
        assert h1 == h2

    def test_wall_timing_changes_only_the_seconds_column(self, tmp_path):
        # history.timing=wall fills in the seconds column and leaves every
        # other column, and the trained parameters, as with timing off
        runs = {}
        for timing in ("off", "wall"):
            out = str(tmp_path / timing)
            argv = ["solve", *TINY_SOLVE, "--set", "optimizer.max_iters=5",
                    "--set", f"history.timing={timing}", "--out", out]
            assert cli.main(argv) == 0
            with open(os.path.join(out, "history.csv")) as fh:
                rows = [line.rstrip("\n").split(",") for line in fh]
            with open(os.path.join(out, "checkpoint.json")) as fh:
                runs[timing] = rows, json.load(fh)["params"]
        (off_rows, off_params), (wall_rows, wall_params) = runs["off"], runs["wall"]
        col = HISTORY_COLUMNS.index("seconds")
        assert len(off_rows) == len(wall_rows) == 1 + 5  # header and one row per iteration
        assert all(float(row[col]) == 0.0 for row in off_rows[1:])
        assert all(float(row[col]) > 0.0 for row in wall_rows[1:])
        for off, wall in zip(off_rows, wall_rows):
            assert off[:col] + off[col + 1:] == wall[:col] + wall[col + 1:]
        assert off_params == wall_params

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        code = cli.main(["solve", "--affine", "shear:0.3",
                         "--set", "optimizer.bogus_key=1", "--out", str(tmp_path)])
        assert code == 2
        assert "optimizer.bogus_key" in capsys.readouterr().err

    def test_unknown_preset_exit_2(self, tmp_path):
        code = cli.main(["solve", "--preset", "nope", "--out", str(tmp_path)])
        assert code == 2

    def test_missing_problem_exit_2(self, tmp_path):
        assert cli.main(["solve", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("bad", [
        ["--set", "network.fourier_sigma=-1"],
        ["--set", "problem.mask=foo"],
        ["--set", "curriculum.stage_iters=0"],
        ["--set", "curriculum.stage_iters=1,2"],
        ["--set", "curriculum.fractions=0.5"],
        ["--set", "network.fourier_features=0"],
        ["--set", "network.hidden="],
        ["--affine", "shear:abc"],
        ["--set", "optimizer.max_iters=0"],
        ["--set", "problem.grid=4,4,4"],
        ["--set", "history.timing=on"],
        ["--affine", "stretch:-1,1,1"],
        ["--affine", "stretch:1.1,1.0"],
        ["--set", "problem.grid=5,5"],
        ["--set", "problem.grid=5,5,5,5"],
        ["--preset", "nh_cantilever_traction", "--set", "problem.grid=5,5"],
        ["--affine", "stretch:1.1,,1"],
        ["--preset", "nh_simple_shear", "--affine", "shear:0.5"],
    ])
    def test_malformed_value_exit_2(self, tmp_path, capsys, bad):
        args = [*TINY_SOLVE, *bad]
        if bad[0] == "--preset":
            args = args[2:]  # drop TINY_SOLVE's --affine
        code = cli.main(["solve", *args, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        for part in NAMED_IN_MESSAGE.get(bad[-1], ()):
            assert part in err

    @pytest.mark.parametrize("method, code", [("lbfgs", 0), ("gd", 2)])
    def test_checkpoint_with_optimizer_method_key(self, tmp_path, method, code):
        # checkpoints written while a gradient-descent optimizer existed
        # carry optimizer.method and optimizer.gd_rate
        out = str(tmp_path / "run")
        assert cli.main(["solve", *TINY_SOLVE, "--out", out]) == 0
        path = os.path.join(out, "checkpoint.json")
        with open(path) as fh:
            payload = json.load(fh)
        payload["config"].update({"optimizer.method": method, "optimizer.gd_rate": "1e-3"})
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert cli.main([
            "export-fields", "--checkpoint", path,
            "--set", "export.grid=5,5,5", "--out", str(tmp_path / "fields"),
        ]) == code

    @staticmethod
    def tiny_checkpoint(tmp_path, fmt=None):
        args = cli.build_parser().parse_args(["solve", *TINY_SOLVE])
        cfg = cli._load_config(args)
        net = solver.network_from_config(cfg, solver.problem_from_config(cfg))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, cfg, net.init_params())
        if fmt is not None:
            payload = json.loads(path.read_text())
            payload["format"] = fmt
            path.write_text(json.dumps(payload))
        return str(path)

    @pytest.mark.parametrize("grid", ["4", "1,1,1"])
    def test_bad_export_grid_exit_2(self, tmp_path, capsys, grid):
        code = cli.main([
            "export-fields", "--checkpoint", self.tiny_checkpoint(tmp_path),
            "--set", f"export.grid={grid}", "--out", str(tmp_path / "fields"),
        ])
        assert code == 2
        assert "export.grid" in capsys.readouterr().err

    def test_unknown_checkpoint_format_exit_2(self, tmp_path, capsys):
        path = self.tiny_checkpoint(tmp_path, fmt="hyperelast-checkpoint-v0")
        code = cli.main(["export-fields", "--checkpoint", path, "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "missing checkpoint", "not json", "no config", "text param", "short params",
        "missing config file", "unknown key in config file",
    ])
    def test_bad_input_file_exit_2(self, tmp_path, capsys, case):
        path = self.tiny_checkpoint(tmp_path)
        with open(path) as fh:
            payload = json.load(fh)
        if case == "not json":
            payload = "format = hyperelast-checkpoint-v1"
        elif case == "no config":
            del payload["config"]
        elif case == "text param":
            payload["params"][3] = "one"
        elif case == "short params":
            payload["params"].pop()
        with open(path, "w") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
        argv = ["export-fields", "--checkpoint", path]
        if case == "missing checkpoint":
            os.remove(path)
        elif case == "missing config file":
            path = str(tmp_path / "missing.txt")
            argv = ["solve", "--config", path]
        elif case == "unknown key in config file":
            path = str(tmp_path / "f.txt")
            with open(path, "w") as fh:
                fh.write("network.bogus = 1\n")
            argv = ["solve", "--config", path]
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and path in err
        if case == "unknown key in config file":
            assert f"{path}:1: unknown config key 'network.bogus'" in err

    def test_run_oracles_sizing_and_failed_status(self, monkeypatch, capsys):
        seen = []

        def fake_solve(cfg):
            seen.append(cfg)
            return SimpleNamespace(l2=1e-8, history=TrainingHistory(status="line_search_failure"))

        monkeypatch.setattr(solver, "solve_config", fake_solve)
        assert cli.main(["run-oracles", "--set", "optimizer.max_iters=7"]) == 4
        assert "[FAIL]" in capsys.readouterr().out
        assert len(seen) == 4
        for cfg in seen:
            assert cfg.int_list("network.hidden") == (16, 16)
            assert cfg.int("network.fourier_features") == 8
            assert cfg.float("optimizer.grad_tol") == 1e-10
            assert cfg.int("optimizer.max_iters") == 7  # --set wins over base and case
        problems = [(cfg.get("problem.affine"), cfg.get("problem.preset")) for cfg in seen]
        assert problems == [("shear:0.3", ""), ("stretch:1.1,1.0,1.0", ""),
                            ("", "nh_uniaxial_traction"), ("", "lp_uniaxial_traction")]
        assert [cfg.float("network.fourier_sigma") for cfg in seen] == [1.0, 1.0, 0.25, 0.25]

    @pytest.mark.parametrize("seeds, code", [("0-2", 4), ("0", 0), ("2-2", 4)])
    def test_run_oracles_over_seeds(self, monkeypatch, capsys, seeds, code):
        # the worst l2 names its seed; one seed past --tol fails the case
        l2 = {0: 2e-4, 1: 1e-4, 2: 3e-3}
        seen = []

        def fake_solve(cfg):
            seen.append(cfg.int("network.seed"))
            return SimpleNamespace(l2=l2[seen[-1]], history=TrainingHistory(status="max_iters"))

        monkeypatch.setattr(solver, "solve_config", fake_solve)
        monkeypatch.setattr(cli, "ORACLE_CASES", (("tiny", {"problem.affine": "shear:0.1"}, {}),))
        assert cli.main(["run-oracles", "--seeds", seeds]) == code
        first, _, last = seeds.partition("-")
        expected = list(range(int(first), int(last or first) + 1))
        assert seen == expected
        (line,) = capsys.readouterr().out.splitlines()
        worst = max(expected, key=l2.get)
        median = float(np.median([l2[k] for k in expected]))
        assert line.startswith("[FAIL] tiny" if code else "[ok ] tiny")
        assert f"worst l2 {l2[worst]:.3e} (seed {worst}), median {median:.3e}" in line

    @pytest.mark.parametrize("seeds", ["2-1", "-1", "a-b", "1-"])
    def test_run_oracles_rejects_bad_seed_range(self, capsys, seeds):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run-oracles", "--seeds", seeds])
        assert exit_.value.code == 2
        assert "expected seeds A-B" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["no library", "no mallopt", "refused"])
    def test_keep_freed_heap_off_glibc(self, monkeypatch, case):
        # without a mallopt that takes both values nothing is set and
        # nothing raises
        libraries = {"no mallopt": SimpleNamespace(),
                     "refused": SimpleNamespace(mallopt=lambda param, value: 0)}

        def cdll(name):
            if case == "no library":
                raise OSError("no C library")
            return libraries[case]

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._keep_freed_heap() is False

    def test_freed_heap_kept_for_training_subcommands(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(1) or True)
        out = str(tmp_path / "run")
        assert cli.main(["solve", *TINY_SOLVE, "--out", out]) == 0
        assert len(calls) == 1
        with open(os.path.join(out, "run.json")) as fh:
            assert json.load(fh)["heap_kept"] is True
        code = cli.main(["export-fields", "--checkpoint", os.path.join(out, "checkpoint.json"),
                         "--set", "export.grid=3,3,3", "--out", str(tmp_path / "fields")])
        assert code == 0 and len(calls) == 1

    def test_kept_heap_leaves_history_bytes(self, tmp_path):
        # a solve through solver.solve_config in a process that never calls
        # mallopt, and the same solve through the command line, which does
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        values = {"problem.affine": "shear:0.3", "problem.grid": "9,9,9",
                  "network.hidden": "16", "network.fourier_features": "8",
                  "optimizer.max_iters": "6"}
        plain = str(tmp_path / "plain.csv")
        script = ("import sys\n"
                  "from hyperelast import exports, solver\n"
                  "from hyperelast.config import RunConfig\n"
                  "cfg = RunConfig(dict(a.split('=', 1) for a in sys.argv[2:]))\n"
                  "exports.write_history(solver.solve_config(cfg).history, sys.argv[1])\n")
        pairs = [f"{k}={v}" for k, v in values.items()]
        subprocess.run([sys.executable, "-c", script, plain, *pairs],
                       env=env, check=True, capture_output=True)
        out = str(tmp_path / "cli")
        overrides = [a for pair in pairs for a in ("--set", pair)]
        subprocess.run([sys.executable, "-m", "hyperelast.cli", "solve", *overrides,
                        "--out", out], env=env, check=True, capture_output=True)
        with open(plain, "rb") as a, open(os.path.join(out, "history.csv"), "rb") as b:
            assert a.read() == b.read()

    def test_run_summary(self, tmp_path, monkeypatch):
        # run.json says how the solve ended and what its numbers depend on;
        # two runs of one config write the same bytes
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        texts = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(["solve", *TINY_SOLVE, "--out", out]) == 0
            with open(os.path.join(out, "run.json"), "rb") as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1]
        summary = json.loads(texts[0])
        hist = read_history(os.path.join(out, "history.csv"))
        cfg = RunConfig(read_file(os.path.join(out, "config.txt")))
        assert summary["status"] == "max_iters"
        assert summary["iterations"] == len(hist) == 4
        assert summary["objective_calls"] == sum(r.n_evals for r in hist.rows)
        assert summary["l2_error"] > 0.0
        assert summary["total"] == hist.rows[-1].total
        assert list(summary["terms"]) == list(HISTORY_COLUMNS[2:8])
        assert list(summary["terms"].values()) == hist.rows[-1].terms.tolist()
        assert (summary["config_hash"], summary["seed"]) == (cfg.hash(), 0)
        assert summary["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert summary["blas_threads"]["MKL_NUM_THREADS"] is None
        assert summary["cpu_count"] == os.cpu_count()
        assert summary["wall_seconds"] == 0.0

    def test_run_summary_without_reference_and_with_wall_time(self, tmp_path):
        out = str(tmp_path / "beam")
        code = cli.main(["solve", "--preset", "nh_cantilever_traction",
                         "--set", "problem.grid=5,3,3", "--set", "network.hidden=4",
                         "--set", "network.fourier_features=2", "--set", "optimizer.max_iters=2",
                         "--set", "history.timing=wall", "--out", out])
        assert code == 0
        with open(os.path.join(out, "run.json")) as fh:
            summary = json.load(fh)
        assert summary["l2_error"] is None
        assert summary["wall_seconds"] > 0.0

    def test_export_fields(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["solve", *TINY_SOLVE, "--out", out]) == 0
        exp = str(tmp_path / "fields")
        code = cli.main([
            "export-fields", "--checkpoint", os.path.join(out, "checkpoint.json"),
            "--set", "export.grid=5,5,5", "--out", exp,
        ])
        assert code == 0
        back = read_fields_csv(os.path.join(exp, "fields.csv"))
        assert back["X"].shape == (125, 3)
        assert os.path.exists(os.path.join(exp, "fields.vtk"))

    def test_export_fields_makes_no_constitutive_stress_call(self, tmp_path, monkeypatch):
        # fields.csv and fields.vtk hold no constitutive-branch stress
        def stress(self, state):
            raise AssertionError("export-fields evaluated the constitutive stress")

        for cls in (materials.NeoHookean, materials.LopezPamies):
            monkeypatch.setattr(cls, "stress", stress)
        code = cli.main([
            "export-fields", "--checkpoint", self.tiny_checkpoint(tmp_path),
            "--set", "export.grid=5,5,5", "--out", str(tmp_path / "fields"),
        ])
        assert code == 0

    def _export(self, tmp_path, grid, name="fields"):
        out = str(tmp_path / name)
        code = cli.main(["export-fields", "--checkpoint", self.tiny_checkpoint(tmp_path),
                         "--set", f"export.grid={grid}", "--out", out])
        return code, out

    def test_streamed_export_equals_whole_array_files(self, tmp_path):
        # 17^3 = 4913 rows: a chunk of 2048 and a last one of 2865, the
        # remainder joined to it; both files equal those written from one
        # evaluate_fields call on every point
        code, out = self._export(tmp_path, "17,17,17")
        assert code == 0
        cfg, phi = load_checkpoint(tmp_path / "checkpoint.json")
        cfg = cfg.with_overrides({"export.grid": "17,17,17"})
        problem = solver.problem_from_config(cfg)
        net = solver.network_from_config(cfg, problem)
        dims, X, spacing = cli._export_grid_points(cfg, problem.domain)
        assert len(X) == 4913 and len(X) % solver.SAMPLE_CHUNK_POINTS > 0
        fields = solver.evaluate_fields(net, phi, X)
        meta = {"config_hash": cfg.hash(), "seed": cfg.get("network.seed"),
                "problem": problem.name}
        write_fields_csv(tmp_path / "want.csv", [(X, fields)], metadata=meta)
        write_vtk_structured(tmp_path / "want.vtk", dims, spacing, fields, title=problem.name)
        for name in ("csv", "vtk"):
            with open(os.path.join(out, f"fields.{name}"), "rb") as got:
                assert got.read() == (tmp_path / f"want.{name}").read_bytes(), name

    def test_export_memory_does_not_grow_with_grid(self, tmp_path):
        # grids of 2 and 16 chunks whose last chunk has the same 2448 rows:
        # beyond the points and the u and von Mises arrays the VTK writer
        # reorders, the export holds one chunk at a time
        working = []
        for n1 in (1124, 8292):
            tracemalloc.start()
            try:
                code, _ = self._export(tmp_path, f"{n1},2,2", name=f"fields{n1}")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            n = 4 * n1
            assert n % solver.SAMPLE_CHUNK_POINTS + solver.SAMPLE_CHUNK_POINTS == 2448
            working.append(peak - n * (3 + 3 + 1) * 8)  # X, u and von Mises
        assert working[1] <= 1.25 * working[0]

    def test_inverted_export_chunk_leaves_no_table(self, tmp_path, capsys, monkeypatch):
        # the second chunk inverts at its row 5: exit 3, the index counted
        # in rows of the grid, and no partial fields.csv
        inner, calls = solver.deformation_gradient, []

        def deformation_gradient(grad_u):
            calls.append(1)
            if len(calls) == 2:
                val = grad_u.val.data.copy()
                val[5] = -np.eye(3)  # F = 0
                grad_u = ad.Jet(ad.constant(val))
            return inner(grad_u)

        monkeypatch.setattr(solver, "deformation_gradient", deformation_gradient)
        code, out = self._export(tmp_path, "17,17,17")
        assert code == 3
        assert f"(point index {solver.SAMPLE_CHUNK_POINTS + 5})" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "fields.csv"))
        assert not os.path.exists(os.path.join(out, "fields.vtk"))

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERELAST_OUT", str(tmp_path))
        code = cli.main(["solve", *TINY_SOLVE, "--out", "rel_run"])
        assert code == 0
        assert os.path.exists(tmp_path / "rel_run" / "history.csv")
