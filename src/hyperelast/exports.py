"""File exports: training history, sampled fields, checkpoints.

CSV is the canonical format and uses ``repr`` float serialization, so a
file read back by this module reproduces the in-memory values bit for
bit.  The VTK writer emits legacy ASCII structured points for contour
viewers and makes no round-trip promise.
"""

from __future__ import annotations

import json

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .losses import TERM_NAMES
from .optim import HistoryRow, TrainingHistory

HISTORY_COLUMNS = (
    ("iter", "total")
    + TERM_NAMES
    + tuple(f"w_{name}" for name in TERM_NAMES)
    + ("grad_norm", "step", "seconds", "stage", "n_evals")
)

FIELD_COLUMNS = (
    "X1", "X2", "X3",
    "u1", "u2", "u3",
    "P11", "P12", "P13", "P21", "P22", "P23", "P31", "P32", "P33",
    "von_mises",
)

CHECKPOINT_FORMAT = "hyperelast-checkpoint-v1"


def _fmt(x):
    return repr(float(x))


def _write_rows(fh, columns, format_rows, block=4096):
    """Write ``format_rows(rows)`` for each block of ``block`` rows of the
    table whose columns are the arrays ``columns`` side by side: only one
    block of the table, and of its text, ever exists."""
    for start in range(0, len(columns[0]), block):
        fh.write(format_rows(np.hstack([col[start:start + block] for col in columns])))


def _repr_csv(rows):
    return "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())


def _printf(row_format):
    """Rows formatter applying ``row_format`` to every row with one ``%``
    on the format repeated once per row."""
    return lambda rows: (row_format * len(rows)) % tuple(rows.ravel().tolist())


def write_history(history, path):
    """One CSV row per accepted iteration, stable column order."""
    if not history.rows:
        raise ValueError("history is empty")
    with open(path, "w") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for r in history.rows:
            cells = (
                [str(r.iter), _fmt(r.total)]
                + [_fmt(v) for v in r.terms]
                + [_fmt(v) for v in r.weights]
                + [_fmt(r.grad_norm), _fmt(r.step), _fmt(r.seconds),
                   str(r.stage), str(r.n_evals)]
            )
            fh.write(",".join(cells) + "\n")


def read_history(path):
    history = TrainingHistory()
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != HISTORY_COLUMNS:
            raise ValueError(f"unexpected history header in {path}")
        for line in fh:
            c = line.strip().split(",")
            history.append(
                HistoryRow(
                    stage=int(c[17]),
                    iter=int(c[0]),
                    total=float(c[1]),
                    terms=np.array([float(v) for v in c[2:8]]),
                    weights=np.array([float(v) for v in c[8:14]]),
                    grad_norm=float(c[14]),
                    step=float(c[15]),
                    seconds=float(c[16]),
                    n_evals=int(c[18]),
                )
            )
    return history


def write_fields_csv(path, X, fields, metadata=None):
    """Sampled-field table: coordinates, displacement, stress head, von Mises.

    ``metadata`` key/value pairs go into '#' comment lines (units, config
    hash, seed); readers skip them.
    """
    n = np.asarray(X).size // 3
    cols = [
        np.asarray(a, dtype=np.float64).reshape(n, -1)
        for a in (X, fields["u"], fields["P"], fields["von_mises"])
    ]
    with open(path, "w") as fh:
        fh.write("# units: X in m, u in m, P and von_mises in Pa\n")
        for key, val in (metadata or {}).items():
            fh.write(f"# {key}: {val}\n")
        fh.write(",".join(FIELD_COLUMNS) + "\n")
        _write_rows(fh, cols, _repr_csv)


def read_fields_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            line = line.strip()
            if not line or line.startswith("X1,"):
                continue
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows)
    return {
        "X": data[:, 0:3],
        "u": data[:, 3:6],
        "P": data[:, 6:15].reshape(-1, 3, 3),
        "von_mises": data[:, 15],
    }


def write_vtk_structured(path, dims, spacing, fields, title="hyperelast"):
    """Legacy ASCII structured-points file with displacement and von Mises,
    on a grid whose first node is the origin.

    ``fields['u']`` must be sampled on the (n1, n2, n3) grid in C order
    with axis 1 fastest -- the writer reorders to VTK's x-fastest layout.
    """
    n1, n2, n3 = dims
    u = np.asarray(fields["u"]).reshape(n1, n2, n3, 3)
    vm = np.asarray(fields["von_mises"]).reshape(n1, n2, n3)
    # VTK iterates z, then y, then x fastest; our C-order grid is x slowest
    u_vtk = np.transpose(u, (2, 1, 0, 3)).reshape(-1, 3)
    vm_vtk = np.transpose(vm, (2, 1, 0)).reshape(-1)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title + "\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {n1} {n2} {n3}\n")
        fh.write("ORIGIN 0 0 0\n")
        fh.write(f"SPACING {spacing[0]:.12g} {spacing[1]:.12g} {spacing[2]:.12g}\n")
        fh.write(f"POINT_DATA {n1 * n2 * n3}\n")
        fh.write("VECTORS displacement double\n")
        _write_rows(fh, [u_vtk], _printf("%.12g %.12g %.12g\n"))
        fh.write("SCALARS von_mises double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        _write_rows(fh, [vm_vtk], _printf("%.12g\n"))


def save_checkpoint(path, cfg, phi):
    """Parameters plus the full run configuration in one versioned file."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": cfg.as_dict(),
        "config_hash": cfg.hash(),
        "params": [repr(float(v)) for v in np.asarray(phi).ravel()],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


# Keys of older checkpoint configs, each with the one value the program still
# implements (None: any value, the key steered training only).  Any other
# value would change what export-fields computes, or names a removed optimizer.
RETIRED_KEYS = {
    "optimizer.method": "lbfgs",
    "optimizer.gd_rate": None,
    "optimizer.history": None,
    "optimizer.wolfe_c1": None,
    "optimizer.wolfe_c2": None,
    "optimizer.max_probes": None,
    "problem.shear_gamma": "0.5",
    "network.stress_scale": "auto",
}


def _same_value(value, kept):
    try:
        return float(value) == float(kept)
    except ValueError:
        return value == kept


def load_checkpoint(path):
    """The run configuration and parameters that ``save_checkpoint`` wrote.

    A file that is missing or is not such a checkpoint raises a
    ConfigError naming it.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as err:  # ValueError: not UTF-8 text or not JSON
        raise ConfigError(f"cannot read checkpoint {path}: {err}") from err
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format {fmt!r} in {path}")
    if not isinstance(payload.get("config"), dict) or not isinstance(payload.get("params"), list):
        raise ConfigError(f"{path}: a checkpoint needs a 'config' object and a 'params' list")
    values = dict(payload["config"])
    for key, kept in RETIRED_KEYS.items():
        value = str(values.pop(key, kept)).strip()
        if kept is not None and not _same_value(value, kept):
            raise ConfigError(f"{path}: {key} = {value} is no longer supported")
    try:
        cfg = RunConfig(values)
        phi = np.array([float(v) for v in payload["params"]])
    except (TypeError, ValueError) as err:  # ConfigError is a ValueError
        raise ConfigError(f"{path}: {err}") from err
    return cfg, phi
