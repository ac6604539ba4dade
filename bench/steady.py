#!/usr/bin/env python3
"""Check that the benchmark is steady: run two sets of runs and compare them.

    python3 bench/steady.py --runs 10 --out bench/baseline.json

Each of the two sets runs every workload of BENCHMARK.json once per seed
(seeds 1 to ``--runs`` in both sets, ``run_seconds`` long), each run in a
fresh process, workloads interleaved so that drift in the machine spreads
over all of them.  For every (metric, workload) pair it reports per set the
median, the quartiles and the spread (interquartile distance over the
median), and how far apart the two medians are, in either direction, as a
share of the first.  A pair is unresolved when either set's spread or the
distance of the medians exceeds the metric's bound; this holds for every
metric, ``setup_s`` included.  Unresolved pairs are listed, never dropped.
Runs with the same seed must print the same output digest.

Exit code 0 when every pair agrees, every run was correct and every digest
repeated; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST = re.compile(r"digest (\S+)")
SETS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {"correct": False, "metrics": {}}
    found = DIGEST.search(done.stdout)
    result["digest"] = found.group(1) if found else ""
    result["exit"] = done.returncode
    if done.returncode:
        sys.stderr.write(done.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    parser.add_argument("--out", type=Path, help="write every value and summary as JSON")
    args = parser.parse_args(argv)

    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    values = {(s, w, m["name"]): [] for s in range(SETS) for w in workloads for m in metrics}
    digests: dict[tuple[str, int], set[str]] = {}
    failures = []
    started = time.time()
    for s in range(SETS):
        for seed in seeds:
            for workload in workloads:
                result = one_run(workload, seed, seconds, trace=0)
                print(f"set {s} seed {seed} {workload}: exit {result['exit']} "
                      f"correct {result['correct']} digest {result['digest']}", flush=True)
                if result["exit"] or not result["correct"]:
                    failures.append(f"set {s} seed {seed} {workload}: run failed")
                digests.setdefault((workload, seed), set()).add(result["digest"])
                for m in metrics:
                    if m["name"] in result["metrics"]:
                        values[(s, workload, m["name"])].append(result["metrics"][m["name"]]["value"])
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) != 1:
            failures.append(f"{workload} seed {seed}: digests differ across sets: {sorted(seen)}")

    summary, unresolved = [], []
    print(f"\n{'workload':14} {'metric':16} {'bound':>6} " + " ".join(
        f"{'median' + str(s):>12} {'spread' + str(s):>8}" for s in range(SETS)) + f" {'apart':>7}  verdict")
    for workload in workloads:
        for m in metrics:
            per_set = [values[(s, workload, m["name"])] for s in range(SETS)]
            if any(len(v) < 2 for v in per_set):
                unresolved.append(f"{workload} {m['name']}: too few values")
                continue
            stats = [spread(v) for v in per_set]
            first, second = stats[0][0], stats[1][0]
            apart = abs(second - first) / first if first else float("inf")
            problems = []
            if any(st[3] > m["bound"] for st in stats):
                problems.append("spread over bound")
            if apart > m["bound"]:
                problems.append("medians apart by more than the bound")
            verdict = "UNRESOLVED (" + "; ".join(problems) + ")" if problems else "agree"
            if problems:
                unresolved.append(f"{workload} {m['name']}: {verdict.lower()}")
            print(f"{workload:14} {m['name']:16} {m['bound']:6.2f} " + " ".join(
                f"{st[0]:12.6g} {st[3]:8.4f}" for st in stats) + f" {apart:7.4f}  {verdict}")
            summary.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"], "bound": m["bound"],
                "sets": [{"median": st[0], "q1": st[1], "q3": st[2], "spread": st[3], "values": v}
                         for st, v in zip(stats, per_set)],
                "apart": apart, "verdict": verdict,
            })
    print(f"\n{len(failures)} failed runs or digest mismatches; {len(unresolved)} unresolved pairs "
          f"({time.time() - started:.0f} s)")
    for line in failures + unresolved:
        print(f"  {line}")
    if args.out:
        record = {
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {platform.processor() or 'unknown cpu'}, "
                       f"{len(os.sched_getaffinity(0))} cpus",
            "seconds": seconds, "seeds": seeds, "sets": SETS,
            "digests": {f"{w}:{seed}": sorted(d) for (w, seed), d in sorted(digests.items())},
            "failures": failures, "unresolved": unresolved, "pairs": summary,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if not failures and not unresolved else 1


if __name__ == "__main__":
    sys.exit(main())
