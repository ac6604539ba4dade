"""Chaos run: several editors submit random edits while the mesh drops,
duplicates, and reorders messages; with eventual delivery they converge."""

from __future__ import annotations

import argparse
import random

from ces import JAVA_PACKAGES
from ces.oracles import random_command_sequence
from ces.simulate import Session


def run_once(seed: int, editors: int, events: int, drop: float, duplicate: float) -> bool:
    session = Session(seed=seed, drop=drop, duplicate=duplicate, reorder=True, eventual=True)
    names = [f"editor{i}" for i in range(editors)]
    for name in names:
        session.add_editor(name, JAVA_PACKAGES)
    rng = random.Random(seed)
    for index, event in enumerate(random_command_sequence(events, 1000 + seed)):
        session.submit(rng.choice(names), event)
        if index % 10 == 9:
            session.flush()
    session.settle()
    report = session.report()
    digest = next(iter(report.digests.values()))
    print(f"seed {seed:3d}: converged={report.converged} digest={digest}")
    return report.converged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--editors", type=int, default=3)
    parser.add_argument("--events", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=25)
    parser.add_argument("--drop", type=float, default=0.2)
    parser.add_argument("--duplicate", type=float, default=0.3)
    args = parser.parse_args()
    ok = all(
        # run every seed even after a failure, so the summary is complete
        [run_once(seed, args.editors, args.events, args.drop, args.duplicate)
         for seed in range(args.seeds)]
    )
    print("all converged" if ok else "CONVERGENCE FAILURE")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
