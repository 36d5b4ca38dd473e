"""The benchmark's tracer against this tree.

`perfbench/tracer.py` wraps each traced function where its callers look
it up, by name.  A module that stops importing a name the tracer patches
breaks only the traced benchmark run; this test finds that in the plain
test suite.  The tracer file is read, never imported as a package module,
so nothing is written under `perfbench/`.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np

import flip754.cli  # noqa: F401  (loaded before the snapshot: the tracer patches it)
from flip754 import FpClass, FpFormat, bounds_sweep, exhaustive_census

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _holders() -> list:
    """Every flip754 module and every class defined in one: all the
    namespaces the tracer may patch."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "flip754"]
    classes = {
        id(v): v for m in modules for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith("flip754")
    }
    return modules + list(classes.values())


def test_tracer_installs_on_this_tree_and_is_undone():
    tracer_module = _load_tracer()
    holders = _holders()
    before = [dict(vars(h)) for h in holders]
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        patched = [
            f"{getattr(h, '__name__', h)}.{name}"
            for h, saved in zip(holders, before)
            for name, value in vars(h).items() if saved.get(name) is not value
        ]
        assert "flip754._vector.split_fields" in patched
        tracer.active = True
        exhaustive_census(FpFormat(2, 1), FpClass.NORMALIZED)
        bounds_sweep(FpFormat(2, 1), np.arange(16, dtype=np.uint64))
        tracer.active = False
        assert tracer.snapshot()["vector.split_fields.calls"] > 0
        assert tracer.snapshot()["vector.classify_codes.calls"] > 0
    finally:
        for h, saved in zip(holders, before):
            for name, value in saved.items():
                if vars(h).get(name) is not value:
                    setattr(h, name, value)
    assert all(vars(h).get(name) is value for h, saved in zip(holders, before)
               for name, value in saved.items())
