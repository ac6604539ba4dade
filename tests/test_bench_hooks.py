"""The benchmark's traced run (``bench/tracing.py``) wraps engine functions
and methods by name.  Installing its tracer must find every name it wraps,
and uninstalling it must put back every original object, so that renaming or
removing a wrapped name fails here and not only in a traced benchmark run."""

from __future__ import annotations

import gc
import importlib.util
import sys
from pathlib import Path

from ces import editor, objects

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def engine_state() -> dict:
    """Every attribute of every loaded ``ces`` module and of the classes
    they define, keyed by (namespace, name)."""
    spaces = []
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "ces":
            continue
        spaces.append(module)
        spaces += [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
    return {(space, attr): value for space in spaces for attr, value in vars(space).items()}


def test_tracer_install_wraps_every_hook_and_uninstall_restores_it():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    before = engine_state()
    callbacks = list(gc.callbacks)
    tracer.install()
    try:
        wrapped = {key for key, value in engine_state().items() if before.get(key) is not value}
        for attr in tracing.MUTATORS:
            assert (objects.ObjectRegistry, attr) in wrapped
        for attr in ("execute", "load_events", "export_active", "parse", "clone"):
            assert (editor.Editor, attr) in wrapped
        assert (editor, "decode") in wrapped and (editor, "overwrites") in wrapped
    finally:
        tracer.uninstall()
    after = engine_state()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
    assert gc.callbacks == callbacks
