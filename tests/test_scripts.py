"""Smoke tests for the runnable demos under ``scripts/``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_sync_repairs_without_cascading_deletes(capsys):
    load("demo_sync").main()
    out = capsys.readouterr().out
    assert "doc model after syncing 4 commands:" in out
    # Making fulib a root drops only its describing file; the subtree stays.
    changed = out.split("what changed on the doc side:\n", 1)[1]
    assert "only in a: DocFile fulib.Doc" in changed
    assert "Editor" not in changed and "serv:" not in changed


@pytest.mark.parametrize("seed", [0, 1])
def test_fault_injection_converges(seed, capsys):
    assert load("fault_injection").run_once(seed, editors=3, events=50, drop=0.2, duplicate=0.3)
    assert f"seed {seed:3d}: converged=True" in capsys.readouterr().out
