"""The benchmark's traced run (``bench/tracing.py``) wraps engine functions
and methods by name.  Installing its tracer must find every name it wraps,
and uninstalling it must put back every original object, so that renaming or
removing a wrapped name fails here and not only in a traced benchmark run.
The benchmark's workloads (``bench/workloads.py``) also run here at tiny
sizes, so a change to an engine call they make fails here too."""

from __future__ import annotations

import gc
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ces import editor, objects

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
# The sizes of the benchmark's own smoke test (bench/tests/test_smoke.py).
TINY = {
    "bulk_sync": dict(events=300, package_share=0.1, depth=4, fanout=4, roots=2),
    "redeliver": dict(
        packages=20,
        classes=180,
        per_text=20,
        digest_after=10,
        shares={"duplicate": 0.7, "stale": 0.1, "equal_time": 0.1, "newer": 0.1},
    ),
    "mesh_session": dict(packages=10, classes=30, submits=60, remove_share=0.1, package_share=0.3),
    "edit_parse": dict(packages=20, classes=180, edits=20),
}


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


@pytest.mark.parametrize("name", sorted(TINY))
def test_benchmark_workload_runs_clean_at_tiny_sizes(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name](TINY[name])
    state = workload.setup(3)
    try:
        while state.steps < 2 or workload.must_continue(state):
            workload.step(state)
        workload.finish(state)
        assert workload.replicas(state)
    finally:
        workload.close(state)
    assert state.problems == []
    assert (state.failed, state.oracle_failed) == (0, 0)
