"""Mutation checks: each named mutant breaks one rule of the engine on
purpose, and the tests named with it must then fail.

    python scripts/mutants.py            # run every mutant
    python scripts/mutants.py --check    # only check that every fragment matches

A mutant is a file, an exact fragment that must occur in it once, the
replacement, and the tests that must catch it.  Each mutant is applied to a
copy of the tree in a temporary directory, never to the tree itself, and
its tests run there.  Exit code: 0 when every mutant is caught, 1 when one
survives, 2 when a fragment no longer matches once or a mutant's tests
cannot run (so the table has gone stale).  Tests that run past TIMEOUT_S
count as tests that cannot run: a mutant that makes a test loop stops the
harness with exit 2 rather than hanging it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


_TAKEN = "        taken = {id: self.find(id) or self._create(object_type, id) for object_type, id in wanted[:2]}\n"

MUTANTS = (
    Mutant(
        "a mutation holds the given instance",
        "src/ces/objects.py",
        _TAKEN,
        _TAKEN.replace(
            "self._create(object_type, id)",
            "next(name for name in (obj, target) if getattr(name, 'id', None) == id)",
        ),
        (
            "tests/test_objects.py::test_a_mutation_drops_the_raw_links_of_a_new_instance",
            "tests/test_objects.py::test_two_new_instances_of_one_id_as_object_and_target_link_consistently",
        ),
    ),
    Mutant(
        "find hands out a shared instance",
        "src/ces/objects.py",
        "        return self._hold(_duplicate(obj, self._stamp))\n",
        "        return obj\n",
        (
            "tests/test_javapackages.py::test_tree_writes_leave_a_live_clone_its_pre_image",
            "tests/test_objects.py::test_a_write_on_either_side_of_a_copy_leaves_the_other_sides_entries_alone",
        ),
    ),
    Mutant(
        "copy() keeps the source's stamp",
        "src/ces/objects.py",
        "        copied._changed = dict(self._changed)\n        self._stamp = next(_stamps)\n",
        "        copied._changed = dict(self._changed)\n",
        (
            "tests/test_javapackages.py::test_tree_writes_leave_a_live_clone_its_pre_image",
            "tests/test_objects.py::test_a_write_on_either_side_of_a_copy_leaves_the_other_sides_entries_alone",
        ),
    ),
    Mutant(
        "mutations hold a new id before they write",
        "src/ces/objects.py",
        _TAKEN,
        _TAKEN.replace("self._create(object_type, id)", "self._hold(self._create(object_type, id))"),
        ("tests/test_objects.py::test_a_mutation_that_writes_nothing_holds_no_new_id",),
    ),
    Mutant(
        "mutations take an empty id",
        "src/ces/objects.py",
        '            elif not name.id:\n                raise UnknownObjectError("object id must be non-empty")\n',
        "",
        ("tests/test_objects.py::test_a_mutation_refuses_an_instance_with_an_empty_id",),
    ),
    Mutant(
        "dump_model stops quoting",
        "src/ces/objects.py",
        "    return text if _DELIMITED.search(text) is None else _quoted(text)\n",
        "    return text\n",
        (
            "tests/test_objects.py::test_a_value_holding_a_line_break_dumps_as_one_row",
            "tests/test_oracles.py::test_two_models_whose_fields_hold_dump_delimiters_are_told_apart",
        ),
    ),
    Mutant(
        "place without the parent type check",
        "src/ces/objects.py",
        '            if known != wanted:\n                raise TypeConflictError(f"id {parent!r} is a {known}, requested {wanted}")\n',
        "",
        ("tests/test_objects.py::test_place_refuses_before_any_write",),
    ),
    Mutant(
        "javadoc HaveSubUnit without check_types",
        "src/ces/javadoc.py",
        "        registry.check_types((FOLDERS.container, javapackages._parent(event)), (FOLDERS.leaf, doc))\n",
        "",
        ("tests/test_javadoc.py::test_type_conflict_leaves_model_and_store_untouched",),
    ),
    Mutant(
        "javadoc HaveLeaf takes a describing-file id",
        "src/ces/javadoc.py",
        "        if event.id.endswith(DOC_SUFFIX):\n            # Describing DocFiles belong to their folder's HaveSubUnit; a\n",
        "        if False:\n            # Describing DocFiles belong to their folder's HaveSubUnit; a\n",
        ("tests/test_javadoc.py::test_a_leaf_with_a_describing_file_id_is_refused_in_every_order",),
    ),
    Mutant(
        "check_ces_model replays under last-edit-wins",
        "src/ces/oracles.py",
        "            run = replay(sequence, editor.domain, strategy=editor.strategy)\n",
        "            run = replay(sequence, editor.domain)\n",
        ("tests/test_oracles.py::test_sequences_are_replayed_under_the_editors_own_strategy",),
    ),
    Mutant(
        "sync keeps the source through the target replay",
        "src/ces/cli.py",
        "    del source\n",
        "",
        ("tests/test_cli.py::test_sync_drops_the_source_model_before_the_target_replay",),
    ),
    Mutant(
        "submit puts the unstamped event on the wire",
        "src/ces/simulate.py",
        "                    self.channels[(name, other)].submit(applied)\n",
        "                    self.channels[(name, other)].submit(event)\n",
        (
            "tests/test_simulate.py::"
            "test_a_shared_submit_reaches_each_receiver_as_the_stored_event_with_no_codec_call",
        ),
    ),
    Mutant(
        "check_commutative ignores refusals",
        "src/ces/oracles.py",
        "            refused[event] = exc.with_traceback(None)\n",
        "            pass\n",
        (
            "tests/test_cli.py::test_check_commute_counts_an_order_refusing_other_events_as_not_commutative",
            "tests/test_oracles.py::test_an_event_refused_in_one_order_only_is_a_divergence_even_when_the_models_agree",
        ),
    ),
    Mutant(
        "a kept refusal holds its editor",
        "src/ces/oracles.py",
        "            refused[event] = exc.with_traceback(None)\n",
        "            refused[event] = exc\n",
        (
            "tests/test_oracles.py::"
            "test_check_commutative_holds_the_base_and_one_variant_when_orders_refuse_events",
        ),
    ),
    Mutant(
        "check_commutative passes an event every order refuses",
        "src/ces/oracles.py",
        "    if everywhere:\n        raise next(iter(everywhere.values()))\n",
        "",
        (
            "tests/test_cli.py::test_check_commute_exits_two_on_an_event_every_order_refuses",
            "tests/test_oracles.py::test_check_commutative_raises_an_event_every_order_refuses",
        ),
    ),
    Mutant(
        "decode takes a duplicate key",
        "src/ces/events.py",
        '        elif key in fields:\n            raise DecodeError(lineno, f"duplicate key {key!r} in event block")\n',
        "",
        ("tests/test_events.py::test_decode_rejects_duplicate_key",),
    ),
    Mutant(
        "the block regex takes a reserved key as a param",
        "src/ces/events.py",
        "_PARAM_LINE = rf\"  (?!(?:{'|'.join(RESERVED_KEYS)}): )",
        "_PARAM_LINE = rf\"  ",
        ("tests/test_events.py::test_decode_rejects_duplicate_key",),
    ),
    Mutant(
        "decode takes a key repeated across the inline pair",
        "src/ces/events.py",
        "            if len(params) == count:\n",
        "            if True:\n",
        ("tests/test_events.py::test_decode_rejects_duplicate_key",),
    ),
    Mutant(
        "the tie-break orders tags the other way",
        "src/ces/events.py",
        "        return old_event.type_tag < new_event.type_tag\n",
        "        return old_event.type_tag > new_event.type_tag\n",
        (
            "tests/test_events.py::test_an_equal_time_tie_is_broken_by_the_encoded_bytes",
            "tests/test_editor.py::test_an_equal_time_rival_of_another_tag_is_decided_by_the_tag_alone",
        ),
    ),
    Mutant(
        "the tie-break ignores the tag and compares param lines only",
        "src/ces/events.py",
        "    if new_event.type_tag != old_event.type_tag:\n        return old_event.type_tag < new_event.type_tag\n",
        "",
        (
            "tests/test_events.py::test_an_equal_time_tie_is_broken_by_the_encoded_bytes",
            "tests/test_editor.py::test_an_equal_time_rival_of_another_tag_is_decided_by_the_tag_alone",
        ),
    ),
    Mutant(
        "a stored key skips the time check",
        "src/ces/editor.py",
        "(old is None or time != old.time) and ",
        "old is None and ",
        ("tests/test_editor.py::test_malformed_time_is_rejected_before_anything_changes",),
    ),
    Mutant(
        "decode swaps the unterminated and bad escape errors",
        "src/ces/events.py",
        '        raise DecodeError(line, "unterminated quoted value")\n'
        '    if raw[end] == "\\\\":\n'
        '        raise DecodeError(line, "bad escape sequence in quoted value")\n',
        '        raise DecodeError(line, "bad escape sequence in quoted value")\n'
        '    if raw[end] == "\\\\":\n'
        '        raise DecodeError(line, "unterminated quoted value")\n',
        ("tests/test_events.py::test_decode_rejects_malformed_lines_with_line_number",),
    ),
)


def stale(mutant: Mutant) -> str | None:
    """Why the mutant's fragment cannot be applied, or None."""
    path = ROOT / mutant.path
    if not path.is_file():
        return f"{mutant.path} does not exist"
    count = path.read_text(encoding="utf-8").count(mutant.fragment)
    return None if count == 1 else f"fragment occurs {count} times in {mutant.path}, not once"


def run(mutant: Mutant) -> int | None:
    """Apply the mutant to a copy of the tree and run its tests there: the
    pytest exit code (1 means the mutant was caught), or None when they run
    past TIMEOUT_S."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work", "traces")
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=ignore)
        path = tree / mutant.path
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.fragment, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        try:
            done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        return done.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="only check that every fragment matches once")
    args = parser.parse_args(argv)
    problems = [f"{m.name}: {reason}" for m in MUTANTS if (reason := stale(m))]
    for problem in problems:
        print(f"stale: {problem}")
    if problems:
        return 2
    if args.check:
        print(f"{len(MUTANTS)} mutant fragments match")
        return 0
    verdict = 0
    for mutant in MUTANTS:
        code = run(mutant)
        if code == 1:
            print(f"caught: {mutant.name}")
        elif code == 0:
            print(f"SURVIVED: {mutant.name}")
            verdict = max(verdict, 1)
        else:
            reason = f"past {TIMEOUT_S} s" if code is None else f"pytest exit {code}"
            print(f"cannot run the tests of {mutant.name} ({reason})")
            verdict = 2
    return verdict


if __name__ == "__main__":
    sys.exit(main())
