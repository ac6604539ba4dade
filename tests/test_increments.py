"""Increment non-overlap audit: replay random histories while snapshotting
the registry around every execution, attribute each written attribute/link
slot to the event that wrote it, and require a single owner per slot.

Link writes are canonicalized to their to-one end (the reverse to-many set
is the same edit seen from the other side), and slots on a describing
"<id>.Doc" file belong to the increment of <id>.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ces import Editor, JAVA_DOC, JAVA_PACKAGES
from ces.javadoc import DOC_SUFFIX
from ces.oracles import random_command_sequence


def snapshot(registry):
    state = {}
    for table in (registry.model_objects, registry.frames):
        for id, obj in table.items():
            state[id] = (
                dict(obj.attributes),
                dict(obj.to_one),
                {k: frozenset(v) for k, v in obj.to_many.items()},
            )
    return state


def written_slots(before, after, schema):
    """(kind, object id, name) slots whose value changed, reverse ends folded
    into their to-one side."""
    slots = set()
    for id in before.keys() | after.keys():
        attrs_a, ones_a, manys_a = before.get(id, ({}, {}, {}))
        attrs_b, ones_b, manys_b = after.get(id, ({}, {}, {}))
        for key in attrs_a.keys() | attrs_b.keys():
            if attrs_a.get(key) != attrs_b.get(key):
                slots.add(("attr", id, key))
        for key in ones_a.keys() | ones_b.keys():
            if ones_a.get(key) != ones_b.get(key):
                slots.add(("link", id, key))
        for key in manys_a.keys() | manys_b.keys():
            if manys_a.get(key, frozenset()) != manys_b.get(key, frozenset()):
                end = schema.end(key)
                if end.other_many:
                    slots.add(("link", id, key))  # true many-to-many edit
                # else: mirror of the to-one side, already attributed there
    return slots


def owner(id: str) -> str:
    return id[: -len(DOC_SUFFIX)] if id.endswith(DOC_SUFFIX) else id


def audit(editor, events) -> dict:
    writers: dict[tuple, set[str]] = {}
    for event in events:
        before = snapshot(editor.registry)
        editor.execute(event)
        after = snapshot(editor.registry)
        for slot in written_slots(before, after, editor.registry.schema):
            writers.setdefault(slot, set()).add(owner(event.id))
    return {slot: ids for slot, ids in writers.items() if len(ids) > 1}


@pytest.mark.parametrize("domain", [JAVA_PACKAGES, JAVA_DOC], ids=lambda d: d.name)
@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), length=st.integers(1, 30))
def test_no_slot_is_written_by_two_increments(domain, seed, length):
    overlaps = audit(Editor(domain), random_command_sequence(length, seed))
    assert not overlaps, f"slots edited by several increments: {overlaps}"


def test_the_audit_flags_overlapping_increments():
    # negative control: a handler that funnels every id into one attribute
    from ces import Event
    from ces.editor import CommandHandler, Domain
    from ces.objects import Association, AssociationSchema

    class SetShared(CommandHandler):
        type_tag = "SetShared"

        def run(self, editor, event):
            shared = editor.registry.get_or_create("Node", "shared")
            editor.registry.set_attribute(shared, "value", event.id)

    domain = Domain(
        name="broken",
        schema=AssociationSchema([Association("Node", "uses", True, "Node", "usedBy", True)]),
        handlers=(SetShared(),),
    )
    overlaps = audit(
        Editor(domain),
        [
            Event("SetShared", id="a", time="2020-01-01T13:00:00.000Z"),
            Event("SetShared", id="b", time="2020-01-01T13:01:00.000Z"),
        ],
    )
    assert ("attr", "shared", "value") in overlaps
