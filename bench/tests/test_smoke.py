"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/tests -q

Runs every workload untraced and traced for a fraction of a second, checks
that the oracles pass and that each mode prints exactly the metrics named in
BENCHMARK.json, and that the benchmark refuses to run without the engine's
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import generate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHARES = {"duplicate": 0.7, "stale": 0.1, "equal_time": 0.1, "newer": 0.1}
TINY = {
    "bulk_sync": dict(events=300, package_share=0.1, depth=4, fanout=4, roots=2),
    "redeliver": dict(packages=20, classes=180, per_text=20, digest_after=10, shares=SHARES),
    "mesh_session": dict(packages=10, classes=30, submits=60, remove_share=0.1, package_share=0.3),
    "edit_parse": dict(packages=20, classes=180, edits=20),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_correct_with_every_metric(name, trace):
    result, lines, problems = run.run(WORKLOADS[name](TINY[name]), seed=3, seconds=0.2, trace=trace)
    assert problems == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {key: m["unit"] for key, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs_and_digest():
    sizes = dict(packages=20, classes=180, per_text=20, shares=SHARES)
    first, second, other = (generate.RedeliverStream(seed, **sizes) for seed in (5, 5, 6))
    assert first.initial == second.initial
    assert [first.next_text() for _ in range(5)] == [second.next_text() for _ in range(5)]
    assert other.next_text() != first.next_text()
    runs = [run.run(WORKLOADS["mesh_session"](TINY["mesh_session"]), 5, 0.1, False) for _ in range(2)]
    digests = {lines[0].rpartition("digest ")[2] for _, lines, _ in runs}
    assert len(digests) == 1


def test_tail_is_highest_percentile_up_to_p95_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 201)]) == (190.0, 95, 10)
    assert run.tail([float(i) for i in range(1, 401)]) == (380.0, 95, 20)
    assert run.tail([float(i) for i in range(1, 51)]) == (40.0, 80, 10)
    assert run.tail([float(i) for i in range(1, 11)]) == (10.0, 100.0, 0)
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "redeliver", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
