from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ces import Editor, Event, JAVA_DOC, JAVA_PACKAGES, model_equal
from ces.editor import CommandError, CommandHandler, Domain
from ces.objects import Association, AssociationSchema
from ces.oracles import (
    ActiveSetError,
    check_ces_model,
    check_commutative,
    effective_subsequence,
    exhaustive_sequences,
    is_ineffective,
    random_command_sequence,
    replay,
    small_alphabet,
    stamp_events,
    store_signature,
)

from conftest import start_events

T = [f"2020-01-01T17:00:0{i}.000Z" for i in range(10)]


def leaf(time, vtag):
    return Event("HaveLeaf", id="Editor", time=time, params={"parent": "serv", "vTag": vtag})


# -- Definition 1: effective events -----------------------------------------------


def test_overwritten_event_is_ineffective():
    events = [leaf(T[0], "1.0"), leaf(T[1], "1.1")]
    assert is_ineffective(events, 0, JAVA_PACKAGES) is True
    assert is_ineffective(events, 1, JAVA_PACKAGES) is False
    for outside in (-1, 2):
        with pytest.raises(IndexError):
            is_ineffective(events, outside, JAVA_PACKAGES)


def test_single_creating_event_is_effective():
    assert is_ineffective([Event("HaveRoot", id="org", time=T[0])], 0, JAVA_PACKAGES) is False


def test_sub_unit_under_root_is_effective():
    events = [
        Event("HaveRoot", id="org", time=T[0]),
        Event("HaveSubUnit", id="fulib", time=T[1], params={"parent": "org"}),
    ]
    assert is_ineffective(events, 1, JAVA_PACKAGES) is False


def test_repeated_vtag_series_keeps_only_the_last():
    series = [leaf(T[i], f"1.{i}") for i in range(5)]
    assert effective_subsequence(series, JAVA_PACKAGES) == [series[-1]]


def test_minimal_series_survives_whole():
    events = start_events()
    assert effective_subsequence(events, JAVA_PACKAGES) == events
    assert effective_subsequence([], JAVA_PACKAGES) == []


# -- Definition 4: active sets --------------------------------------------------------


def test_active_set_of_empty_series_is_empty():
    from ces.oracles import active_set

    assert active_set([], JAVA_PACKAGES) == set()


def test_active_set_drops_overwritten_events():
    from ces.oracles import active_set

    series = start_events() + [leaf(T[5], "1.1")]
    active = active_set(series, JAVA_PACKAGES)
    assert leaf(T[5], "1.1") in active
    assert start_events()[3] not in active
    assert len(active) == 4


def test_scoped_commands_may_share_a_core_object_id():
    from ces.oracles import active_set

    series = [
        Event("HaveLeaf", id="Editor", time=T[0], params={"parent": "serv", "vTag": "1.0"}),
        Event("HaveContent", id="Editor", time=T[1], params={"content": "hello"}),
    ]
    assert len(active_set(series, JAVA_DOC)) == 2


class Append(CommandHandler):
    """Test fixture violating the overwrite requirement: same-id events
    accumulate instead of replacing each other."""

    type_tag = "Append"

    def run(self, editor, event):
        node = editor.registry.get_or_create("Node", event.id)
        joined = node.attributes.get("log", "") + event.params.get("bit", "")
        editor.registry.set_attribute(node, "log", joined)
        return event.id


class SetShared(CommandHandler):
    """Test fixture violating increment non-overlap: every command id writes
    the same attribute of one shared object."""

    type_tag = "SetShared"

    def run(self, editor, event):
        shared = editor.registry.get_or_create("Node", "shared")
        editor.registry.set_attribute(shared, "value", event.id)
        return event.id


class Tag(CommandHandler):
    """Test fixture violating store uniqueness: run ignores the ``note``
    param, so events that differ only in it build one model."""

    type_tag = "Tag"

    def run(self, editor, event):
        editor.registry.get_or_create("Node", event.id)


BROKEN = Domain(
    name="broken",
    schema=AssociationSchema([Association("Node", "uses", True, "Node", "usedBy", True)]),
    handlers=(Append(), SetShared(), Tag()),
)


def test_active_set_rejects_non_overwriting_series():
    series = [
        Event("Append", id="x", time=T[0], params={"bit": "a"}),
        Event("Append", id="x", time=T[1], params={"bit": "b"}),
    ]
    with pytest.raises(ActiveSetError, match="share id"):
        from ces.oracles import active_set

        active_set(series, BROKEN)


# -- Definition 1/4 agreement: replaying the active set rebuilds the model -------------


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), length=st.integers(0, 8))
def test_replaying_the_active_set_rebuilds_the_model(seed, length):
    from ces.oracles import active_set

    events = random_command_sequence(length, seed)
    full = replay(events, JAVA_PACKAGES)
    compact = replay(sorted(active_set(events, JAVA_PACKAGES), key=lambda e: e.time), JAVA_PACKAGES)
    assert model_equal(full.registry, compact.registry)


# -- commutativity check ---------------------------------------------------------------


def test_start_situation_is_commutative():
    report = check_commutative(start_events(), JAVA_PACKAGES, trials=10, seed=1)
    assert report.passed
    assert "commutative: yes" in report.to_text()


def test_non_commutative_handlers_are_detected():
    events = [
        Event("SetShared", id="a", time=T[0]),
        Event("SetShared", id="b", time=T[1]),
    ]
    report = check_commutative(events, BROKEN, trials=4, seed=1)
    assert not report.passed
    assert any(diffs for _, diffs in report.entries)


def test_large_generated_sequence_is_commutative():
    events = random_command_sequence(100, seed=7)
    report = check_commutative(events, JAVA_PACKAGES, trials=20, seed=7)
    assert report.passed
    assert len(report.entries) == 21  # reverse + 20 permutations


def test_check_commutative_requires_ids():
    with pytest.raises(ValueError):
        check_commutative([Event("HaveRoot")], JAVA_PACKAGES)


# -- parse/uniqueness check --------------------------------------------------------------


def test_start_situation_editor_supports_command_sourcing(packages_editor):
    report = check_ces_model(packages_editor)
    assert report.parse_stable and report.passed
    assert report.divergent_ids == []


def test_unparsed_hand_edit_is_reported_with_its_id(packages_editor):
    registry = packages_editor.registry
    registry.set_attribute(registry.model_objects["Editor"], "vTag", "1.1")
    report = check_ces_model(packages_editor)
    assert not report.parse_stable
    assert report.divergent_ids == ["Editor"]
    # the check must not disturb the editor it examines
    assert packages_editor.get_active("Editor").params["vTag"] == "1.0"


def test_empty_editor_passes_vacuously():
    assert check_ces_model(Editor(JAVA_PACKAGES)).passed


def test_model_equal_replays_share_a_store_signature():
    sequences = [list(seq) for seq in exhaustive_sequences(small_alphabet()[:3], 3)]
    sequences += [
        random_command_sequence(length, seed)
        for seed in range(50)
        for length in (seed % 11,)
    ]
    report = check_ces_model(replay(start_events(), JAVA_PACKAGES), sequences=sequences)
    assert report.unique_stores, report.uniqueness_failures


def test_one_model_built_from_two_stores_is_reported_with_both_sequences():
    bare = [Event("Tag", id="x", time=T[0])]
    noted = [Event("Tag", id="x", time=T[0], params={"note": "1"})]
    report = check_ces_model(replay(bare, BROKEN), sequences=[bare, noted, bare])
    assert report.parse_stable
    assert not report.unique_stores and not report.passed
    assert report.uniqueness_failures == [
        "sequences 0 and 1 build the same model but different active stores"
    ]


def test_store_signature_ignores_time_and_tombstones():
    a = replay([leaf(T[0], "1.0")], JAVA_PACKAGES)
    b = replay([leaf(T[1], "1.0")], JAVA_PACKAGES)
    assert store_signature(a) == store_signature(b)
    c = replay([Event("RemoveCommand", id="ghost", time=T[2])], JAVA_PACKAGES)
    assert store_signature(c) == frozenset()


# -- generators ---------------------------------------------------------------------------


def test_random_sequences_are_reproducible():
    assert random_command_sequence(30, 42) == random_command_sequence(30, 42)
    assert random_command_sequence(30, 42) != random_command_sequence(30, 43)


# -- the replay clock ---------------------------------------------------------------------


LAST = "9999-12-31T23:59:59.999Z"


@pytest.mark.parametrize(
    "latest, start",
    [
        ("2020-02-28T00:00:00.000Z", "2020-02-28T01:00:00.000Z"),
        ("2019-06-01T00:00:00.000Z", "2020-01-01T01:00:00.000Z"),
        # a day past its month's end is no calendar date: the next month starts
        ("2020-02-31T00:00:00.000Z", "2020-03-01T00:00:00.000Z"),
        ("2021-02-29T23:59:59.999Z", "2021-03-01T00:00:00.000Z"),
        ("2020-11-31T00:00:00.000Z", "2020-12-01T00:00:00.000Z"),
        # within an hour of the last stamp there is: held there, no overflow
        ("9999-12-31T23:30:00.000Z", LAST),
        (LAST, LAST),
    ],
)
def test_replay_clock_starts_after_the_latest_stamp(latest, start):
    timeless = [Event("HaveRoot", id="c"), Event("HaveRoot", id="d")]
    editor = replay([Event("HaveRoot", id="b", time=latest), *timeless], JAVA_PACKAGES)
    stamps = [editor.get_active(id).time for id in "cd"]
    assert stamps[0] == start and stamps[1] >= start
    assert editor.clock.now() >= stamps[1]


def test_replay_clock_leaves_malformed_stamps_for_execute_to_refuse():
    for bad in ("zzz", "2020-99-99T99:99:99.999Z"):
        events = [Event("HaveRoot", id="a", time=T[0]), Event("HaveRoot", id="b", time=bad)]
        with pytest.raises(CommandError):
            replay(events, JAVA_PACKAGES)


def test_stamp_events_preserves_existing_times():
    stamped = stamp_events([Event("HaveRoot", id="a"), Event("HaveRoot", id="b", time=T[9])])
    assert stamped[0].time and stamped[1].time == T[9]


def test_exhaustive_sequences_cover_the_whole_space():
    alphabet = small_alphabet()[:2]
    sequences = list(exhaustive_sequences(alphabet, 3))
    assert len(sequences) == 1 + 2 + 4 + 8
