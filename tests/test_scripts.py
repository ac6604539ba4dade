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


def test_every_mutant_fragment_matches_once(capsys):
    assert load("mutants").main(["--check"]) == 0
    assert capsys.readouterr().out.endswith("mutant fragments match\n")


def test_a_fragment_that_no_longer_matches_makes_the_table_stale(monkeypatch, capsys):
    mutants = load("mutants")
    gone = mutants.Mutant("gone", "src/ces/objects.py", "no such fragment\n", "", ("tests",))
    monkeypatch.setattr(mutants, "MUTANTS", (*mutants.MUTANTS, gone))
    assert mutants.main(["--check"]) == 2
    assert "stale: gone: fragment occurs 0 times in src/ces/objects.py, not once" in capsys.readouterr().out


def test_a_mutant_whose_tests_run_too_long_cannot_be_run(monkeypatch, capsys):
    mutants = load("mutants")

    def too_long(command, **kwargs):
        raise mutants.subprocess.TimeoutExpired(command, kwargs["timeout"])

    monkeypatch.setattr(mutants, "MUTANTS", mutants.MUTANTS[:1])
    monkeypatch.setattr(mutants.subprocess, "run", too_long)
    assert mutants.main([]) == 2
    assert f"cannot run the tests of {mutants.MUTANTS[0].name} (past 300 s)" in capsys.readouterr().out
