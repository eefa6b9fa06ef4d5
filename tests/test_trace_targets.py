"""The benchmark's tracer (perfbench/tracer.py) wraps functions of the
package by name and turns the metric of a name that no longer resolves
into null; every name it lists must resolve to a plain function."""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read perfbench/, write nothing there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "target",
    tracer.OBJECTIVE_TARGETS + tracer.LAYER_TARGETS,
    ids=lambda t: f"{t.module}:{t.attr}",
)
def test_trace_target_is_a_plain_function(target):
    owner = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert inspect.isfunction(inspect.getattr_static(owner, attr, None))
