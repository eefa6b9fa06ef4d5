"""Flat key/value run configuration.

Config files are plain text, one ``section.key = value`` per line, with
``#`` comments.  Every key has a default; unknown keys are rejected with
the offending name.  Values are kept as canonical strings, so the config
hash changes exactly when a field changes.
"""

from __future__ import annotations

import hashlib

from .errors import ConfigError

DEFAULTS = {
    # problem selection: exactly one of preset / affine
    "problem.preset": "",
    "problem.affine": "",          # "shear:0.3" or "stretch:1.1,1.0,1.0"
    "problem.grid": "",            # per-axis odd node counts, e.g. "25,9,9"
    "problem.mask": "full",        # full | dem | dcm
    # network
    "network.hidden": "64,64,64",
    "network.fourier_features": "64",
    "network.fourier_sigma": "1.0",
    "network.seed": "0",
    # optimizer
    "optimizer.max_iters": "1000",
    "optimizer.grad_tol": "1e-8",
    # curriculum (load stepping); single stage by default
    "curriculum.fractions": "1.0",
    "curriculum.stage_iters": "",
    # outputs
    "history.timing": "off",       # off | wall (wall clock breaks bitwise determinism)
    "export.grid": "21,21,21",
    "output.dir": "runs",
}


class RunConfig:
    """Immutable-ish view over the resolved key/value map."""

    def __init__(self, values=None):
        self.values = dict(DEFAULTS)
        for key, val in (values or {}).items():
            self._set(key, val)

    def _set(self, key, value):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")
        self.values[key] = str(value).strip()

    def with_overrides(self, overrides):
        return RunConfig({**self.values, **overrides})

    # typed accessors -------------------------------------------------
    def get(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise ConfigError(f"unknown config key '{key}'") from None

    def int(self, key):
        try:
            return int(self.get(key))
        except ValueError:
            raise ConfigError(f"config key '{key}' must be an integer, got '{self.get(key)}'") from None

    def float(self, key):
        try:
            return float(self.get(key))
        except ValueError:
            raise ConfigError(f"config key '{key}' must be a number, got '{self.get(key)}'") from None

    def int_list(self, key):
        raw = self.get(key)
        if not raw:
            return None
        try:
            return tuple(int(v.strip()) for v in raw.split(","))
        except ValueError:
            raise ConfigError(f"config key '{key}' must be comma-separated integers, got '{raw}'") from None

    def float_list(self, key):
        raw = self.get(key)
        if not raw:
            return None
        try:
            return tuple(float(v.strip()) for v in raw.split(","))
        except ValueError:
            raise ConfigError(f"config key '{key}' must be comma-separated numbers, got '{raw}'") from None

    # serialization ----------------------------------------------------
    def canonical(self):
        return "\n".join(f"{k} = {self.values[k]}" for k in sorted(self.values)) + "\n"

    def hash(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.canonical())

    def as_dict(self):
        return dict(self.values)


def read_file(path):
    """The ``key = value`` pairs of a config file; a malformed line or an
    unknown key is reported with its file and line."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        values[key] = value
    return values


def parse_override(text):
    """Split a --set KEY=VALUE argument."""
    if "=" not in text:
        raise ConfigError(f"override '{text}' must look like section.key=value")
    key, _, value = text.partition("=")
    return key.strip(), value.strip()
