"""Command-line surface: replay, sync, diff, commutativity checks, and
session simulation over ``.ces`` event files.

Exit codes: 0 success/pass, 1 semantic failure (models differ, sequence not
commutative, session not converged), 2 usage or format error.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .editor import text_digest
from .events import CesError, OverwriteStrategy, decode
from .javadoc import JAVA_DOC
from .javapackages import JAVA_PACKAGES
from .objects import dump_model, model_diff
from .oracles import check_commutative, replay
from .simulate import run_script

DOMAINS = {d.name: d for d in (JAVA_PACKAGES, JAVA_DOC)}


def _read(path: str) -> str:
    return Path(path).read_bytes().decode("utf-8")  # untranslated: decode reads line ends


def _write(path: str, text: str) -> str:
    """Write the text untranslated, so the file holds exactly the bytes
    whose :func:`text_digest` is returned."""
    Path(path).write_bytes(text.encode("utf-8"))
    return text_digest(text)


def _parse_filter(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    return frozenset(tag for tag in raw.split(",") if tag)


def cmd_replay(args) -> int:
    events = decode(_read(args.infile))
    if args.reverse:
        events = list(reversed(events))
    elif args.permute is not None:
        events = list(events)
        random.Random(args.permute).shuffle(events)
    editor = replay(events, DOMAINS[args.domain], strategy=args.strategy)
    print(dump_model(editor.registry), end="")
    # Printed digests and written files cover every event type.
    print(f"active-digest: {editor.digest(frozenset())}")
    return 0


def cmd_sync(args) -> int:
    # One replica at a time: the source only settles which commands are
    # active, and the store text is written and digested before the dump.
    source = replay(decode(_read(args.infile)), DOMAINS[args.from_domain], strategy=args.strategy)
    exported = source.active_events(_parse_filter(args.filter))
    del source
    target = replay(exported, DOMAINS[args.to_domain], strategy=args.strategy)
    del exported
    digest = _write(args.outfile, target.export_active(frozenset()))
    print(dump_model(target.registry), end="")
    print(f"active-digest: {digest}")
    return 0


def cmd_diff(args) -> int:
    left = replay(decode(_read(args.a)), DOMAINS[args.domain], strategy=args.strategy)
    right = replay(decode(_read(args.b)), DOMAINS[args.domain], strategy=args.strategy)
    diff = model_diff(left.registry, right.registry)
    for line in diff.differences:
        print(line)
    for line in diff.warnings:
        print(f"warning: {line}")
    print(f"models {'equal' if not diff.differences else 'differ'}")
    return 0 if not diff.differences else 1


def cmd_check_commute(args) -> int:
    events = decode(_read(args.infile))
    report = check_commutative(
        events, DOMAINS[args.domain], trials=args.trials, seed=args.seed, strategy=args.strategy
    )
    print(report.to_text(), end="")
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    report = run_script(_read(args.script), DOMAINS, seed=args.seed)
    print(report.to_text(), end="")
    return 0 if report.converged else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ces", description="Commutative event sourcing model synchronization"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    strategies = {s.value: s for s in OverwriteStrategy}

    def count(raw: str) -> int:
        value = int(raw)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
        return value

    def common(p, domain=True):
        if domain:
            p.add_argument("--domain", choices=sorted(DOMAINS), required=True)
        p.add_argument(
            "--strategy",
            # A known value becomes its member; choices refuses any other.
            type=lambda raw: strategies.get(raw, raw),
            choices=list(strategies),
            default=OverwriteStrategy.LAST_EDIT_WINS,
        )

    p = sub.add_parser("replay", help="replay an event file and dump the model")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    order = p.add_mutually_exclusive_group()
    order.add_argument("--reverse", action="store_true")
    order.add_argument("--permute", type=int, metavar="SEED")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("sync", help="replay into one domain, sync into another")
    p.add_argument("--from-domain", choices=sorted(DOMAINS), required=True)
    p.add_argument("--to-domain", choices=sorted(DOMAINS), required=True)
    common(p, domain=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--filter", help="comma-separated event types to exchange")
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("diff", help="compare the models built by two event files")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("check-commute", help="verify order-independence of an event file")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trials", type=count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_commute)

    p = sub.add_parser("simulate", help="run a collaborative editing session script")
    p.add_argument("--script", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, CesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
