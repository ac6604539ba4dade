from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ces import (
    Editor,
    Event,
    JAVA_DOC,
    JAVA_PACKAGES,
    LoadError,
    ModelObject,
    UnknownCommandError,
    decode,
    model_equal,
)
from ces import editor as editor_module, events as events_module, javadoc, javapackages
from ces.editor import (
    CommandError,
    CommandHandler,
    Domain,
    IdCollisionError,
    RemoveCommandHandler,
)
from ces.events import (
    BASE_TIME,
    LAST_TIME,
    TIMESTAMP_RE,
    Clock,
    DecodeError,
    OverwriteStrategy,
    encode,
    stepping_clock,
)
from ces.javadoc import FOLDERS
from ces.javapackages import PACKAGES
from ces.objects import (
    Association,
    AssociationSchema,
    TypeConflictError,
    dump_model,
    model_diff,
)
from ces.oracles import check_ces_model, replay

from conftest import snapshot, start_events, unchanged_and_unheld

T = [f"2020-01-01T14:00:0{i}.000Z" for i in range(10)]


# -- execute -------------------------------------------------------------------


def test_execute_applies_and_stores_under_the_event_id():
    editor = Editor(JAVA_PACKAGES)
    stored = editor.execute(Event("HaveRoot", id="org", time=T[0]))
    assert stored is not None
    assert editor.get_active("org") == stored
    org = editor.registry.model_objects["org"]
    assert "pPack" not in org.to_one


def test_execute_assigns_missing_id_and_time():
    editor = Editor(JAVA_PACKAGES)
    first = editor.execute(Event("HaveRoot"))
    second = editor.execute(Event("HaveRoot"))
    assert first.id == "obj0" and second.id == "obj1"
    assert first.time and second.time > first.time


def test_auto_id_collision_with_user_id_is_an_error():
    editor = Editor(JAVA_PACKAGES)
    editor.execute(Event("HaveRoot", id="obj1", time=T[0]))
    with pytest.raises(IdCollisionError):
        editor.execute(Event("HaveRoot"))  # store size 1 -> wants "obj1", already taken


def test_re_delivered_duplicate_is_ignored():
    editor = Editor(JAVA_PACKAGES)
    event = Event("HaveRoot", id="org", time=T[0])
    assert editor.execute(event) is not None
    assert editor.execute(event) is None
    assert len(editor.active_commands) == 1


def test_stale_event_is_ignored_and_newer_wins():
    editor = Editor(JAVA_PACKAGES)
    new = Event("HaveLeaf", id="Editor", time=T[2], params={"parent": "serv", "vTag": "1.1"})
    old = Event("HaveLeaf", id="Editor", time=T[1], params={"parent": "serv", "vTag": "1.0"})
    editor.execute(new)
    assert editor.execute(old) is None
    assert editor.registry.model_objects["Editor"].attributes["vTag"] == "1.1"


def test_command_can_run_before_its_context_exists():
    editor = Editor(JAVA_PACKAGES)
    editor.execute(Event("HaveLeaf", id="Editor", time=T[0], params={"parent": "serv", "vTag": "1.0"}))
    assert "serv" in editor.registry.frames
    assert editor.registry.model_objects["Editor"].to_one["pack"] == "serv"
    editor.execute(Event("HaveSubUnit", id="serv", time=T[1], params={"parent": "fulib"}))
    assert "serv" in editor.registry.model_objects  # same object, promoted
    assert editor.registry.model_objects["serv"].to_many["classes"] == {"Editor"}


def test_unknown_command_type_is_an_error():
    editor = Editor(JAVA_PACKAGES)
    with pytest.raises(UnknownCommandError):
        editor.execute(Event("Mystery", id="x", time=T[0]))


def test_failed_run_leaves_the_store_unchanged():
    editor = Editor(JAVA_PACKAGES)
    with pytest.raises(Exception):
        editor.execute(Event("HaveSubUnit", id="fulib", time=T[0]))  # missing parent
    assert editor.active_commands == {}


def test_editor_strategy_decides_same_id_conflicts():
    editor = Editor(JAVA_PACKAGES, strategy=OverwriteStrategy.HIGHEST_VERSION_WINS)
    editor.execute(Event("HaveLeaf", id="E", time=T[0], params={"parent": "p", "vTag": "2.0"}))
    stale = Event("HaveLeaf", id="E", time=T[1], params={"parent": "p", "vTag": "1.9"})
    assert editor.execute(stale) is None  # newer time, lower version
    assert editor.registry.model_objects["E"].attributes["vTag"] == "2.0"


def test_highest_version_wins_keeps_one_version_in_every_delivery_order():
    # "10" is above "9" by value, yet as strings "1a" < "9" and "10" < "1a":
    # an order that compares some pairs by value and others as strings loops,
    # and the last arrival then decides.
    root = Event("HaveRoot", id="p", time=T[0])
    leaves = [
        Event("HaveLeaf", id="C", time=T[i], params={"parent": "p", "vTag": vtag})
        for i, vtag in enumerate(["9", "10", "1a"], 1)
    ]
    digests = set()
    for order in itertools.permutations(leaves):
        editor = Editor(JAVA_PACKAGES, strategy=OverwriteStrategy.HIGHEST_VERSION_WINS)
        editor.load([root, *order])
        assert editor.registry.model_objects["C"].attributes["vTag"] == "1a"
        digests.add(editor.digest())
    assert len(digests) == 1



@pytest.mark.parametrize("tag", ["HaveRoot", "RemoveCommand"])
def test_domain_refuses_a_repeated_type_tag(tag):
    class Twice(CommandHandler):
        type_tag = tag

    with pytest.raises(IdCollisionError, match=tag):
        Domain(name="twice", schema=JAVA_PACKAGES.schema, handlers=(*JAVA_PACKAGES.handlers, Twice()))


# -- load/export ------------------------------------------------------------------


def test_load_applies_all_events_and_is_idempotent(packages_editor):
    text = packages_editor.export_active()
    editor = Editor(JAVA_PACKAGES)
    assert editor.load_events(text) == 4
    assert editor.load_events(text) == 0
    assert model_equal(editor.registry, packages_editor.registry)


def test_load_skips_types_excluded_by_the_sync_filter():
    editor = Editor(JAVA_DOC)  # default filter excludes HaveContent
    text = (
        "- command: HaveLeaf\n  id: Editor\n  time: {0}\n  parent: serv\n  vTag: 1.0\n"
        "- command: HaveContent\n  id: Editor\n  time: {1}\n  content: hello\n"
    ).format(T[0], T[1])
    assert editor.load_events(text) == 1
    assert editor.get_active("Editor", scope="content") is None
    assert "content" not in editor.registry.model_objects["Editor"].attributes


def test_load_collects_per_event_errors_and_continues():
    editor = Editor(JAVA_PACKAGES)
    text = (
        f"- command: HaveSubUnit\n  id: fulib\n  time: {T[0]}\n"  # missing parent
        f"- command: HaveRoot\n  id: org\n  time: {T[1]}\n"
    )
    with pytest.raises(LoadError) as err:
        editor.load_events(text)
    assert err.value.applied == 1
    assert "fulib" in err.value.failures[0]
    assert "org" in editor.registry.model_objects


def test_load_of_a_stored_events_own_text_encodes_nothing(monkeypatch, packages_editor):
    text = packages_editor.export_active()

    def refuse(events):
        raise AssertionError("encode called while loading duplicates")

    monkeypatch.setattr(events_module, "encode", refuse)
    assert packages_editor.load_events(text) == 0


_MALFORMED_TIMES = (
    "zzz",  # sorts above every stamp
    " 2020-01-01T13:03:00.000Z",  # sorts below every stamp
    "2020-01-01T13:03:00.000Z\n",
    "2020-01-01T13:03:00Z",
    "2020-01-01 13:03:00.000Z",
    "2020-01-01T13:03:00.000",
    # the right form, a field out of range
    "2020-99-99T99:99:99.999Z",
    "2020-00-01T00:00:00.000Z",
    "2020-13-01T00:00:00.000Z",
    "2020-01-00T00:00:00.000Z",
    "2020-01-32T00:00:00.000Z",
    "2020-01-01T24:00:00.000Z",
    "2020-01-01T00:60:00.000Z",
    "2020-01-01T00:00:60.000Z",
)
# The first and the last stamp there are, so that every malformed time
# above sorts above one and below the other, or above or below both.
_FIRST_TIME = "0000-01-01T00:00:00.000Z"


@pytest.mark.parametrize("strategy", list(OverwriteStrategy))
def test_malformed_time_is_rejected_before_anything_changes(strategy):
    def editor_with_editor_at(time):
        editor = Editor(JAVA_PACKAGES, strategy=strategy)
        for event in start_events()[:3]:
            editor.execute(event)
        editor.execute(Event("HaveLeaf", id="Editor", time=time, params={"parent": "serv", "vTag": "1.0"}))
        return editor

    editor = editor_with_editor_at("2020-01-01T13:03:00.000Z")
    store = dict(editor.active_commands)
    dump = dump_model(editor.registry)
    poison = "- command: HaveLeaf\n  id: Editor\n  time: zzz\n  parent: serv\n  vTag: 9.9\n"
    with pytest.raises(LoadError) as err:
        editor.load_events(poison)
    assert err.value.applied == 0
    assert "'zzz'" in err.value.failures[0]
    assert editor.active_commands == store
    assert dump_model(editor.registry) == dump
    for time in _MALFORMED_TIMES:
        with pytest.raises(CommandError):
            editor.execute(Event("HaveRoot", id="fresh", time=time))
    assert "fresh" not in editor.registry.frames
    assert editor.active_commands == store
    # Against a stored event for the id, whose time sorts above or below
    # the malformed one, and with a vTag that would win or lose: a time is
    # matched whenever it is not the stored event's.
    for stored_time in (_FIRST_TIME, LAST_TIME):
        editor = editor_with_editor_at(stored_time)
        store = dict(editor.active_commands)
        dump = dump_model(editor.registry)
        for time in _MALFORMED_TIMES:
            for vtag in ("0.1", "9.9"):
                rival = Event("HaveLeaf", id="Editor", time=time, params={"parent": "serv", "vTag": vtag})
                with pytest.raises(CommandError, match="is not of the form"):
                    editor.execute(rival)
        assert editor.active_commands == store
        assert dump_model(editor.registry) == dump


@pytest.mark.parametrize("strategy", list(OverwriteStrategy))
def test_an_event_with_the_stored_time_but_other_params_is_decided_by_the_tie_break(
    strategy, packages_editor
):
    packages_editor.strategy = strategy
    old = packages_editor.get_active("Editor")
    # "  parent: ser\n" < "  parent: serv\n" < "  parent: serv2\n", byte by byte
    for parent, wins in (("ser", False), ("serv2", True)):
        editor = packages_editor.clone()
        rival = Event("HaveLeaf", id="Editor", time=old.time, params={"parent": parent, "vTag": "1.0"})
        assert (encode([old]) < encode([rival])) is wins
        assert (editor.execute(rival) is not None) is wins
        assert editor.get_active("Editor") == (rival if wins else old)
        assert editor.registry.model_objects["Editor"].to_one["pack"] == (parent if wins else "serv")


@pytest.mark.parametrize("strategy", list(OverwriteStrategy))
def test_an_equal_time_rival_of_another_tag_is_decided_by_the_tag_alone(strategy, packages_editor):
    # A control character in a rival's value is refused when the rival
    # wins, and no concern when it loses, as for a stale rival: the tie-break
    # never writes the rival's params, as encode would refuse to.
    editor = packages_editor
    editor.strategy = strategy
    store = dict(editor.active_commands)
    dump = dump_model(editor.registry)
    serv, leaf = editor.get_active("serv"), editor.get_active("Editor")
    assert "HaveLeaf" < serv.type_tag and leaf.type_tag < "HaveSubUnit"
    loser = Event("HaveLeaf", id="serv", time=serv.time, params={"parent": "fu\x01lib"})
    assert editor.execute(loser) is None
    winner = Event("HaveSubUnit", id="Editor", time=leaf.time, params={"parent": "se\x01rv", "vTag": "1.0"})
    with pytest.raises(CommandError, match="unsupported control character"):
        editor.execute(winner)
    assert editor.active_commands == store
    assert dump_model(editor.registry) == dump


def test_every_stored_time_has_the_form_after_stamping_parse_and_clone():
    # What Editor.execute relies on to skip matching a time equal to the
    # stored event's: no way into the store takes a time of another form.
    for clock in (Clock(), stepping_clock(BASE_TIME), stepping_clock("9999-12-31T23:59:58.000Z")):
        editor = Editor(JAVA_PACKAGES, clock=clock)
        editor.execute(Event("HaveRoot", id="org"))
        editor.execute(Event("HaveSubUnit", params={"parent": "org"}))
        editor.execute(Event("HaveLeaf", id="Editor", params={"parent": "obj1", "vTag": "1.0"}))
        editor.execute(Event("HaveSubUnit", id="lib", time=T[0], params={"parent": "org"}))
        registry = editor.registry
        registry.clear_changes()
        registry.set_attribute(registry.find("Editor"), "vTag", "1.1")
        registry.set_link(ModelObject("JavaClass", "Command"), "pack", registry.find("org"))
        assert editor.parse(registry.changed_objects()) == 2
        twin = editor.clone()
        twin.execute(Event("RemoveCommand", id="org"))
        for replica in (editor, twin):
            times = [event.time for event in replica.active_commands.values()]
            assert len(times) == len(replica.active_commands) and all(map(TIMESTAMP_RE.fullmatch, times))


def test_a_control_character_encode_refuses_is_refused_before_the_handler_runs(packages_editor):
    late = "2030-01-01T00:00:00.000Z"
    store = dict(packages_editor.active_commands)
    dump = dump_model(packages_editor.registry)
    stored = packages_editor.get_active("Editor")
    for event in (
        Event("HaveLeaf", id="C\x01", time=late, params={"parent": "serv", "vTag": "1.0"}),
        Event("HaveLeaf", id="C", time=late, params={"parent": "serv", "vTag": "1\x1f"}),
        replace(stored, time=late, params={**stored.params, "vTag": "2\x00"}),
    ):
        with pytest.raises(CommandError, match="unsupported control character"):
            packages_editor.execute(event)
    assert packages_editor.active_commands == store
    assert dump_model(packages_editor.registry) == dump
    # An event the stored one outranks is ignored before the check.
    stale = replace(stored, time="2000-01-01T00:00:00.000Z", params={**stored.params, "vTag": "\x01"})
    assert packages_editor.execute(stale) is None
    # Tab, newline and carriage return are written escaped, so they pass.
    assert packages_editor.execute(replace(stored, time=late, params={**stored.params, "vTag": "a\tb\r\n"}))
    packages_editor.export_active()


def test_a_lone_surrogate_no_utf_8_text_can_hold_is_refused_before_the_handler_runs(packages_editor):
    # Text read with errors="surrogateescape" holds lone surrogates; a stored
    # one would make every later digest, report and UTF-8 write raise.
    late = "2030-01-01T00:00:00.000Z"
    store = dict(packages_editor.active_commands)
    dump = dump_model(packages_editor.registry)
    stored = packages_editor.get_active("Editor")
    for event in (
        Event("HaveLeaf", id="C\udcff", time=late, params={"parent": "serv", "vTag": "1.0"}),
        Event("HaveLeaf", id="C", time=late, params={"parent": "serv", "vTag": "\ud800"}),
        replace(stored, time=late, params={**stored.params, "vTag": "2\udfff"}),
    ):
        with pytest.raises(CommandError, match="lone surrogate in the id or a param value of"):
            packages_editor.execute(event)
    assert packages_editor.active_commands == store
    assert dump_model(packages_editor.registry) == dump
    # An event the stored one outranks is ignored before the check.
    stale = replace(stored, time="2000-01-01T00:00:00.000Z", params={**stored.params, "vTag": "\udc80"})
    assert packages_editor.execute(stale) is None
    # The neighbours of the surrogate block and an astral character pass.
    edge = "\ud7ff\ue000\U0001f600"
    assert packages_editor.execute(replace(stored, time=late, params={**stored.params, "vTag": edge}))
    packages_editor.export_active().encode("utf-8")


def test_a_peer_block_holding_a_lone_surrogate_fails_alone_in_load_events():
    raw = (
        b"- command: HaveRoot\n  id: p\n  time: 2020-01-01T00:00:00.000Z\n"
        b"- command: HaveRoot\n  id: r\xff\n  time: 2020-01-01T00:00:01.000Z\n"
        b"- command: HaveRoot\n  id: s\n  time: 2020-01-01T00:00:02.000Z\n"
    )
    editor = Editor(JAVA_PACKAGES)
    with pytest.raises(LoadError) as err:
        editor.load_events(raw.decode("utf-8", errors="surrogateescape"))
    assert err.value.applied == 2
    assert err.value.failures == [
        "HaveRoot 'r\\udcff': lone surrogate in the id or a param value of 'r\\udcff'"
    ]
    assert [event.id for event in editor.active_events()] == ["p", "s"]
    editor.export_active().encode("utf-8")


def test_load_propagates_decode_errors():
    with pytest.raises(DecodeError):
        Editor(JAVA_PACKAGES).load_events("garbage\n")


@pytest.mark.parametrize(
    "peer",
    [
        "- command: HaveLeaf\n  id: x\n  parent: p\n  vTag: 2\n",
        "- command: HaveLeaf\n  time: 2020-06-01T00:00:09.000Z\n  parent: p\n  vTag: 2\n",
        "- command: RemoveCommand\n  id: x\n",
    ],
    ids=["no time", "no id", "timeless tombstone"],
)
def test_a_received_event_without_an_id_or_a_time_is_refused_on_every_replica(peer):
    # Each receiver would stamp a timeless event with its own clock, and mint
    # its own id for an id-less one: a replica whose clock runs behind the
    # stored stamp kept its event, one whose clock runs ahead replaced it.
    start = (
        "- command: HaveRoot\n  id: p\n  time: 2020-06-01T00:00:00.000Z\n"
        "- command: HaveLeaf\n  id: x\n  time: 2020-06-01T00:00:01.000Z\n  parent: p\n  vTag: 1\n"
    )
    replicas = [
        Editor(JAVA_PACKAGES, clock=stepping_clock(first))
        for first in ("2020-01-01T00:00:00.000Z", "2021-01-01T00:00:00.000Z")
    ]
    for editor in replicas:
        assert editor.load_events(start) == 2
        store, dump = dict(editor.active_commands), dump_model(editor.registry)
        with pytest.raises(LoadError) as err:
            editor.load_events(peer)
        assert err.value.applied == 0
        assert err.value.failures[0].endswith("a received event must carry an id and a time")
        assert editor.active_commands == store
        assert dump_model(editor.registry) == dump
    assert replicas[0].digest() == replicas[1].digest()
    # A local command still has both minted.
    stored = replicas[1].execute(decode(peer)[0])
    assert stored.id and stored.time


# One id pool for containers and leaves, so ids meet across types, and a
# parent that may be missing: many of these events fail.
_LOAD_EVENTS = st.builds(
    lambda tag, id, time, parent, vtag: Event(
        tag,
        id=id,
        time=time,
        params={k: v for k, v in (("parent", parent), ("vTag", vtag), ("content", vtag)) if v},
    ),
    st.sampled_from(["HaveRoot", "HaveSubUnit", "HaveLeaf", "HaveContent", "RemoveCommand"]),
    st.sampled_from(["", "a", "b", "c"]),
    st.sampled_from(["", *T[:4]]),
    st.sampled_from(["", "a", "b", "c"]),
    st.sampled_from(["", "1.0", "2.0"]),
)


def _load_outcome(load, events):
    try:
        return load(events)
    except LoadError as err:
        return err.failures, err.applied


@settings(deadline=None, max_examples=200)
@given(
    batches=st.lists(st.lists(_LOAD_EVENTS, max_size=8), max_size=4),
    domain=st.sampled_from([JAVA_PACKAGES, JAVA_DOC]),
)
def test_load_of_events_matches_load_events_of_their_text(batches, domain):
    direct = Editor(domain, clock=stepping_clock(T[5]))
    via_text = Editor(domain, clock=stepping_clock(T[5]))
    for events in batches:
        assert _load_outcome(direct.load, events) == _load_outcome(
            via_text.load_events, events_module.encode(events)
        )
        assert direct.active_commands == via_text.active_commands
        assert dump_model(direct.registry) == dump_model(via_text.registry)
        assert model_diff(direct.registry, via_text.registry).warnings == []


def test_export_is_sorted_filtered_and_replayable(packages_editor):
    text = packages_editor.export_active()
    assert [e.id for e in decode(text)] == ["Editor", "fulib", "org", "serv"]
    twin = Editor(JAVA_PACKAGES)
    twin.load_events(text)
    assert model_equal(twin.registry, packages_editor.registry)
    assert twin.active_commands == packages_editor.active_commands
    assert Editor(JAVA_PACKAGES).export_active() == ""


def test_remove_command_always_passes_sync_filters():
    editor = Editor(JAVA_DOC)
    editor.load_events(f"- command: RemoveCommand\n  id: ghost\n  time: {T[0]}\n")
    assert editor.get_active("ghost").type_tag == "RemoveCommand"
    assert "RemoveCommand" not in editor.sync_filter
    assert "- command: RemoveCommand" in editor.export_active()


# -- RemoveCommand ------------------------------------------------------------------


def test_remove_command_demotes_unlinks_and_tombstones(packages_editor):
    editor = packages_editor
    editor.execute(Event("RemoveCommand", id="Editor", time=T[5]))
    assert "Editor" not in editor.registry.model_objects
    assert "Editor" in editor.registry.frames
    assert "classes" not in editor.registry.model_objects["serv"].to_many
    assert editor.get_active("Editor").type_tag == "RemoveCommand"


def test_remove_command_for_unknown_id_just_tombstones():
    editor = Editor(JAVA_PACKAGES)
    editor.execute(Event("RemoveCommand", id="ghost", time=T[0]))
    assert editor.get_active("ghost").type_tag == "RemoveCommand"
    assert editor.registry.model_objects == {}


def test_tombstone_blocks_stale_redelivery(packages_editor):
    editor = packages_editor
    stale = editor.get_active("Editor")
    editor.execute(Event("RemoveCommand", id="Editor", time=T[5]))
    snapshot_store = dict(editor.active_commands)
    snapshot_dump = editor.export_active()
    assert editor.execute(stale) is None
    assert editor.active_commands == snapshot_store
    assert editor.export_active() == snapshot_dump
    assert "Editor" not in editor.registry.model_objects


def test_newer_command_resurrects_after_tombstone(packages_editor):
    editor = packages_editor
    editor.execute(Event("RemoveCommand", id="Editor", time=T[5]))
    editor.execute(Event("HaveLeaf", id="Editor", time=T[6], params={"parent": "serv", "vTag": "2.0"}))
    assert editor.registry.model_objects["Editor"].attributes["vTag"] == "2.0"
    assert editor.get_active("Editor").type_tag == "HaveLeaf"


# -- HaveLink / DropLink --------------------------------------------------------------

# Commands over a many-to-many link, as a metamodel with such a link would
# define them.  The caller gives each command the composite id of its pair
# (see link_event), so a later DropLink overwrites an earlier HaveLink for
# the same pair, and vice versa.


class HaveNode(CommandHandler):
    type_tag = "HaveNode"

    def run(self, editor, event):
        editor.registry.get_or_create("Node", event.id)
        return event.id


class _LinkCommand(CommandHandler):
    # The registry method that applies the command to a many-to-many link.
    mutation = ""

    def run(self, editor, event):
        try:
            source_id = event.params["source"]
            target_id = event.params["target"]
            link = event.params["link"]
        except KeyError as exc:
            raise CommandError(f"{self.type_tag} {event.id!r}: missing param {exc}") from None
        end = editor.registry.schema.end(link)
        if not (end.many and end.other_many):
            raise CommandError(f"{self.type_tag}: link {link!r} is not many-to-many")
        editor.registry.check_types((end.owner_type, source_id), (end.other_type, target_id))
        source = editor.registry.get_object_frame(end.owner_type, source_id)
        target = editor.registry.get_object_frame(end.other_type, target_id)
        getattr(editor.registry, self.mutation)(source, link, target)


class HaveLink(_LinkCommand):
    type_tag = "HaveLink"
    mutation = "add_to_many"


class DropLink(_LinkCommand):
    type_tag = "DropLink"
    mutation = "remove_from_many"


NODES = Domain(
    name="nodes",
    schema=AssociationSchema(
        [
            Association("Node", "uses", True, "Node", "usedBy", True),
            Association("Node", "owner", False, "Node", "owned", True),
        ]
    ),
    handlers=(HaveNode(), HaveLink(), DropLink()),
)


def link_event(tag, time, source="a", target="b", link="uses"):
    return Event(
        tag,
        id=f"{source}~{link}~{target}",
        time=time,
        params={"source": source, "target": target, "link": link},
    )


def nodes_editor():
    editor = Editor(NODES)
    editor.execute(Event("HaveNode", id="a", time=T[0]))
    editor.execute(Event("HaveNode", id="b", time=T[1]))
    return editor


def test_have_link_is_stored_under_its_pair_id_and_links_both_ends():
    editor = nodes_editor()
    stored = editor.execute(link_event("HaveLink", T[2]))
    assert stored.id == "a~uses~b"
    assert editor.get_active("a~uses~b") == stored
    assert editor.registry.model_objects["a"].to_many["uses"] == {"b"}
    assert editor.registry.model_objects["b"].to_many["usedBy"] == {"a"}


def test_have_then_drop_is_order_independent():
    have, drop = link_event("HaveLink", T[2]), link_event("DropLink", T[3])
    outcomes = []
    for order in itertools.permutations([have, drop]):
        editor = nodes_editor()
        for event in order:
            editor.execute(event)
        assert "uses" not in editor.registry.model_objects["a"].to_many
        outcomes.append(editor.export_active())
    assert outcomes[0] == outcomes[1]


def test_equal_time_link_conflict_resolves_deterministically():
    have, drop = link_event("HaveLink", T[2]), link_event("DropLink", T[2])
    results = set()
    for order in itertools.permutations([have, drop]):
        editor = nodes_editor()
        for event in order:
            editor.execute(event)
        results.add(editor.get_active("a~uses~b").type_tag)
    assert len(results) == 1


def test_repeated_have_link_keeps_set_semantics():
    editor = nodes_editor()
    editor.execute(link_event("HaveLink", T[2]))
    editor.execute(link_event("HaveLink", T[3]))
    assert editor.registry.model_objects["a"].to_many["uses"] == {"b"}


def test_drop_link_on_absent_link_stores_a_guard_event():
    editor = nodes_editor()
    editor.execute(link_event("DropLink", T[2]))
    assert editor.get_active("a~uses~b").type_tag == "DropLink"
    assert "uses" not in editor.registry.model_objects["a"].to_many


def test_link_commands_reject_non_many_to_many_links():
    editor = nodes_editor()
    for link in ("owner", "owned"):
        with pytest.raises(CommandError, match="many-to-many"):
            editor.execute(link_event("HaveLink", T[2], link=link))
    event = Event("HaveLink", time=T[0], params={"source": "fulib", "target": "org", "link": "pPack"})
    with pytest.raises(UnknownCommandError):
        Editor(JAVA_PACKAGES).execute(event)


def test_link_command_without_target_leaves_store_and_model_unchanged():
    editor = nodes_editor()
    store = dict(editor.active_commands)
    dump = dump_model(editor.registry)
    for tag in ("HaveLink", "DropLink"):
        event = Event(tag, time=T[2], params={"source": "a", "link": "uses"})
        with pytest.raises(CommandError, match="missing param 'target'"):
            editor.execute(event)
    assert editor.active_commands == store
    assert dump_model(editor.registry) == dump
    assert editor.registry.frames == {}


def test_every_engine_and_metamodel_handler_is_run_by_a_shipped_domain():
    listed = {type(handler) for domain in (JAVA_PACKAGES, JAVA_DOC) for handler in domain.handlers}
    unused = [
        f"{module.__name__}.{name}"
        for module in (editor_module, javapackages, javadoc)
        for name, cls in vars(module).items()
        if isinstance(cls, type) and issubclass(cls, CommandHandler) and cls.type_tag
        and cls not in listed and cls is not RemoveCommandHandler
    ]
    assert unused == []


# -- parse ------------------------------------------------------------------------


def test_full_model_parse_changes_nothing(packages_editor):
    editor = packages_editor
    before = dict(editor.active_commands)
    changed = editor.parse(list(editor.registry.model_objects.values()))
    assert changed == 0
    assert editor.active_commands == before
    assert editor.registry.frames == {}


def test_export_into_fresh_editor_then_parse_changes_nothing(packages_editor):
    twin = Editor(JAVA_PACKAGES)
    twin.load_events(packages_editor.export_active())
    assert twin.parse(list(twin.registry.model_objects.values())) == 0
    assert twin.active_commands == packages_editor.active_commands


def test_manual_edit_scenario_parses_to_the_five_command_set(packages_editor):
    editor = packages_editor
    registry = editor.registry
    serv_before = editor.get_active("serv")
    registry.clear_changes()

    com = ModelObject("JavaPackage", "com")  # created directly, unregistered
    registry.add_to_many(com, "subPackages", registry.model_objects["org"])
    registry.set_link(registry.model_objects["fulib"], "pPack", None)
    command = ModelObject("JavaClass", "Command")
    registry.set_link(command, "pack", registry.model_objects["fulib"])
    registry.set_attribute(command, "vTag", "1.1")
    registry.set_attribute(registry.model_objects["Editor"], "vTag", "1.1")

    assert registry.changed_ids == {"com", "org", "fulib", "Command", "Editor"}
    changed = editor.parse(registry.changed_objects())
    assert changed == 5

    def summary(event):
        return (event.type_tag, event.id, dict(event.params))

    stored = {key[1]: summary(e) for key, e in editor.active_commands.items()}
    assert stored == {
        "com": ("HaveRoot", "com", {}),
        "org": ("HaveSubUnit", "org", {"parent": "com"}),
        "fulib": ("HaveRoot", "fulib", {}),
        "Command": ("HaveLeaf", "Command", {"parent": "fulib", "vTag": "1.1"}),
        "Editor": ("HaveLeaf", "Editor", {"parent": "serv", "vTag": "1.1"}),
        "serv": ("HaveSubUnit", "serv", {"parent": "fulib"}),
    }
    # untouched increment keeps its original timestamp
    assert editor.get_active("serv") == serv_before
    # the directly created objects stand for their ids: unchanged, and not held
    assert unchanged_and_unheld(registry, com, ModelObject("JavaPackage", "com"))
    assert unchanged_and_unheld(registry, command, ModelObject("JavaClass", "Command"))


def test_isolated_empty_package_parses_to_garbage_removal():
    editor = Editor(JAVA_PACKAGES)
    editor.execute(Event("HaveRoot", id="org", time=T[0]))
    changed = editor.parse(list(editor.registry.model_objects.values()))
    assert changed == 1
    assert editor.get_active("org").type_tag == "RemoveCommand"
    assert "org" not in editor.registry.model_objects


@pytest.mark.parametrize(
    "domain, tree",
    [(JAVA_PACKAGES, PACKAGES), (JAVA_DOC, FOLDERS)],
    ids=["javapackages", "javadoc"],
)
@pytest.mark.parametrize(
    "strategy", [OverwriteStrategy.FIRST_EDIT_WINS, OverwriteStrategy.HIGHEST_VERSION_WINS]
)
def test_parse_of_edits_the_store_outranks_keeps_the_model_as_stored(domain, tree, strategy):
    # The recovered events get fresh, later stamps and a lower vTag, so the
    # stored events win; the model must then show what the store holds.
    editor = Editor(domain, strategy=strategy)
    for event in (
        Event("HaveRoot", id="org", time=T[0]),
        Event("HaveSubUnit", id="a", time=T[1], params={"parent": "org"}),
        Event("HaveSubUnit", id="b", time=T[2], params={"parent": "org"}),
        Event("HaveLeaf", id="C", time=T[3], params={"parent": "a", "vTag": "1.0"}),
    ):
        editor.execute(event)
    registry = editor.registry
    registry.clear_changes()
    registry.set_attribute(registry.model_objects["C"], tree.leaf_attribute, "0.9")
    registry.set_link(registry.model_objects["a"], tree.up, "b")
    editor.parse(registry.changed_objects())
    assert editor.get_active("C").params["vTag"] == "1.0"
    replayed = replay(editor.active_commands.values(), domain, strategy=strategy)
    assert model_equal(editor.registry, replayed.registry)


both_domains = pytest.mark.parametrize(
    "domain, tree",
    [(JAVA_PACKAGES, PACKAGES), (JAVA_DOC, FOLDERS)],
    ids=["javapackages", "javadoc"],
)
# A stored tombstone that outranks every event parse recovers.
tombstone_wins = pytest.mark.parametrize(
    "strategy, tombstone_time",
    [
        (OverwriteStrategy.FIRST_EDIT_WINS, T[1]),
        # Later than every stamp the editor's clock hands the recovered event.
        (OverwriteStrategy.LAST_EDIT_WINS, "2999-01-01T00:00:00.000Z"),
    ],
    ids=["first-edit-wins", "last-edit-wins"],
)


@both_domains
@tombstone_wins
@pytest.mark.parametrize("existed", [False, True], ids=["new-object", "edited-frame"])
def test_parse_over_a_winning_tombstone_detaches_and_demotes_the_edit(
    domain, tree, strategy, tombstone_time, existed
):
    # The user links a leaf the store holds a winning tombstone for, either
    # a new object or the frame the tombstone left.  The recovered leaf
    # event loses, and re-running the tombstone alone left the parent linked
    # to the leaf, in the new-object case to an id no map holds.
    editor = Editor(domain, strategy=strategy, clock=stepping_clock(T[5]))
    editor.execute(Event("HaveRoot", id="org", time=T[0]))
    if existed:
        editor.execute(Event("HaveLeaf", id="C", time=T[2], params={"parent": "org", "vTag": "1.0"}))
    editor.execute(Event("RemoveCommand", id="C", time=tombstone_time))
    registry = editor.registry
    registry.clear_changes()
    leaf = registry.frames["C"] if existed else ModelObject(tree.leaf, "C")
    registry.set_link(leaf, tree.leaf_up, registry.find("org"))
    editor.parse(registry.changed_objects())
    assert editor.get_active("C").type_tag == "RemoveCommand"
    assert registry.consistency_violations() == []
    replayed = replay(editor.active_commands.values(), domain, strategy=strategy)
    assert model_diff(registry, replayed.registry).differences == []
    assert "C" not in registry.model_objects and registry.frames["C"].to_one == {}


@both_domains
@tombstone_wins
def test_parse_over_a_winning_tombstone_demotes_a_new_container_its_leaf_references(
    domain, tree, strategy, tombstone_time
):
    # The recovered root loses and no handler's remove undoes a root, so the
    # tombstone itself must demote the parsed container the new leaf links to.
    editor = Editor(domain, strategy=strategy, clock=stepping_clock(T[5]))
    editor.execute(Event("RemoveCommand", id="p", time=tombstone_time))
    registry = editor.registry
    container, leaf = ModelObject(tree.container, "p"), ModelObject(tree.leaf, "C")
    registry.set_link(leaf, tree.leaf_up, container)
    editor.parse(registry.changed_objects())
    assert editor.get_active("p").type_tag == "RemoveCommand"
    assert editor.get_active("C").type_tag == "HaveLeaf"
    assert "p" in registry.frames and "p" not in registry.model_objects
    assert unchanged_and_unheld(registry, container, ModelObject(tree.container, "p"))
    assert unchanged_and_unheld(registry, leaf, ModelObject(tree.leaf, "C"))
    assert registry.consistency_violations() == []
    replayed = replay(editor.active_commands.values(), domain, strategy=strategy)
    assert model_diff(registry, replayed.registry).differences == []


@pytest.mark.parametrize(
    "edits, changed",
    [
        # org2 claims new, which new's own parse also does
        ([("org", {}, {"fulib", "new"}), ("new", {"pPack": "org"}, set())], 1),
        # org2 drops fulib one-sidedly; fulib's command still holds it
        ([("org", {}, {"serv"})], 0),
        # fulib2 moves under serv
        ([("fulib", {"pPack": "serv"}, set())], 1),
    ],
)
def test_parse_of_edited_copies_of_known_objects_holds_none_of_them(edits, changed):
    # The registry keeps its own instances, and the links the recovered
    # commands make or keep are two-sided.
    editor = Editor(JAVA_PACKAGES)
    editor.execute(Event("HaveRoot", id="org", time=T[0]))
    editor.execute(Event("HaveSubUnit", id="fulib", time=T[1], params={"parent": "org"}))
    editor.execute(Event("HaveSubUnit", id="serv", time=T[2], params={"parent": "org"}))

    def copies():
        return [
            ModelObject("JavaPackage", id, to_one=dict(up), to_many={"subPackages": set(down)} if down else {})
            for id, up, down in edits
        ]

    given = copies()
    assert editor.parse(given) == changed
    registry = editor.registry
    assert registry.consistency_violations() == []
    assert all(unchanged_and_unheld(registry, *pair) for pair in zip(given, copies()))
    replayed = replay(editor.active_commands.values(), JAVA_PACKAGES)
    assert model_diff(registry, replayed.registry).differences == []


def test_parse_of_an_instance_of_another_type_changes_nothing(packages_editor):
    # No packages handler recovers a command from a Folder, as for an unknown id.
    before = snapshot(packages_editor)
    assert packages_editor.parse([ModelObject("Folder", "org")]) == 0
    assert snapshot(packages_editor) == before
    assert packages_editor.registry.consistency_violations() == []


def test_parse_adopts_no_instance_of_an_unknown_id_without_commands(packages_editor):
    # No packages handler recovers a command from a Folder.
    before = packages_editor.clone()
    frames = dict(packages_editor.registry.frames)
    assert packages_editor.parse([ModelObject("Folder", "zzz")]) == 0
    assert packages_editor.registry.frames == frames
    assert model_diff(before.registry, packages_editor.registry).warnings == []


def test_linking_to_a_copy_of_a_known_object_links_the_held_one():
    editor = Editor(JAVA_PACKAGES)
    editor.execute(Event("HaveRoot", id="org", time=T[0]))
    editor.execute(Event("HaveRoot", id="p1", time=T[1]))
    registry = editor.registry
    registry.set_link(registry.find("p1"), "pPack", ModelObject("JavaPackage", "org"))
    assert registry.consistency_violations() == []
    assert registry.find("org").to_many == {"subPackages": {"p1"}}


def test_linking_from_a_copy_of_a_known_object_links_the_held_one():
    editor = Editor(JAVA_PACKAGES)
    editor.execute(Event("HaveRoot", id="org", time=T[0]))
    editor.execute(Event("HaveRoot", id="p1", time=T[1]))
    registry = editor.registry
    copy = ModelObject("JavaPackage", "p1")
    registry.set_link(copy, "pPack", "org")
    assert registry.consistency_violations() == []
    assert unchanged_and_unheld(registry, copy, ModelObject("JavaPackage", "p1"))
    assert registry.find("p1").to_one == {"pPack": "org"}
    editor.parse(registry.changed_objects())
    assert registry.consistency_violations() == []
    assert editor.get_active("p1").params == {"parent": "org"}


def test_setting_an_attribute_on_a_copy_of_a_known_object_sets_the_held_one(packages_editor):
    registry = packages_editor.registry
    registry.set_attribute(ModelObject("JavaClass", "Editor"), "vTag", "2.0")
    assert registry.find("Editor").attributes == {"vTag": "2.0"}
    assert packages_editor.parse(registry.changed_objects()) == 1
    assert packages_editor.get_active("Editor").params["vTag"] == "2.0"


def test_many_to_many_mutations_from_a_copy_edit_the_held_one():
    registry = nodes_editor().registry
    registry.add_to_many(ModelObject("Node", "a"), "uses", "b")
    assert registry.consistency_violations() == []
    assert registry.find("a").to_many == {"uses": {"b"}}
    registry.remove_from_many(ModelObject("Node", "a"), "uses", "b")
    assert registry.find("a").to_many == {}
    assert registry.find("b").to_many == {}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r, copy: r.set_attribute(copy, "vTag", "9"),
        lambda r, copy: r.set_link(copy, "pack", "org"),
    ],
    ids=["set_attribute", "set_link"],
)
def test_a_copy_of_another_type_than_the_held_object_raises_and_changes_nothing(packages_editor, mutate):
    before = snapshot(packages_editor)
    with pytest.raises(TypeConflictError):
        mutate(packages_editor.registry, ModelObject("JavaClass", "serv"))
    assert snapshot(packages_editor) == before


def test_parse_is_idempotent_after_one_pass():
    editor = Editor(JAVA_PACKAGES)
    editor.execute(Event("HaveRoot", id="org", time=T[0]))
    editor.parse(list(editor.registry.model_objects.values()))
    assert editor.parse(list(editor.registry.model_objects.values())) == 0


# -- clone ------------------------------------------------------------------------


def test_clone_is_independent(packages_editor):
    twin = packages_editor.clone()
    assert model_equal(twin.registry, packages_editor.registry)
    twin.execute(Event("RemoveCommand", id="Editor", time=T[7]))
    assert "Editor" in packages_editor.registry.model_objects
    assert packages_editor.get_active("Editor").type_tag == "HaveLeaf"


def _with_a_frame_and_pending_changes(editor: Editor) -> Editor:
    """The start situation plus a frame ("ghost", the parent of "lib") and
    an uncommitted direct edit of Editor's vTag."""
    editor.execute(Event("HaveSubUnit", id="lib", time=T[4], params={"parent": "ghost"}))
    registry = editor.registry
    registry.clear_changes()
    registry.set_attribute(registry.find("Editor"), "vTag", "2.0")
    return editor


def _parts(obj: ModelObject) -> set[int]:
    """The identities of an object and of every dict and set it holds."""
    return {id(x) for x in (obj, obj.attributes, obj.to_one, obj.to_many, *obj.to_many.values())}


def test_clone_starts_equal_and_hands_out_only_private_instances(packages_editor):
    editor = _with_a_frame_and_pending_changes(packages_editor)
    twin = editor.clone()
    assert dump_model(twin.registry) == dump_model(editor.registry)
    assert snapshot(twin) == snapshot(editor)
    assert twin.registry.frames == editor.registry.frames
    assert twin.registry.changed_ids == editor.registry.changed_ids == {"Editor"}
    assert twin.clock is not editor.clock
    registry, source = twin.registry, editor.registry
    handed = [
        registry.get_or_create("JavaPackage", "fulib"),
        registry.get_object_frame("JavaPackage", "ghost"),
        *registry.changed_objects(),
        *(registry.find(id) for id in [*source.model_objects, *source.frames]),
    ]
    held_by_source = {id(obj) for obj in [*source.model_objects.values(), *source.frames.values()]}
    for obj in handed:
        assert registry.find(obj.id) is obj
        assert id(obj) not in held_by_source
        assert not _parts(obj) & _parts(source.model_objects.get(obj.id) or source.frames[obj.id])
    assert snapshot(twin) == snapshot(editor)


def _mutate(editor: Editor) -> None:
    registry = editor.registry
    registry.set_attribute(registry.find("Editor"), "vTag", "3.0")
    # to-one link, and the to-many sets of both parents
    registry.set_link(registry.find("serv"), "pPack", "org")
    registry.add_to_many(registry.find("org"), "classes", "Editor")
    # the frame's to-many set
    registry.set_link(registry.find("lib"), "pPack", None)
    editor.execute(Event("RemoveCommand", id="fulib", time=T[8]))
    registry.clear_changes()


@pytest.mark.parametrize("mutated", ["twin", "original"])
def test_clone_and_original_do_not_see_each_others_edits(packages_editor, mutated):
    editor = _with_a_frame_and_pending_changes(packages_editor)
    twin = editor.clone()
    before = snapshot(editor)
    target, other = (twin, editor) if mutated == "twin" else (editor, twin)
    _mutate(target)
    assert snapshot(other) == before
    assert other.registry.changed_ids == {"Editor"}
    assert other.registry.frames["ghost"].to_many == {"subPackages": {"lib"}}
    assert other.get_active("fulib").type_tag == "HaveSubUnit"
    assert snapshot(target) != before
    assert target.registry.changed_ids == set()


@pytest.mark.parametrize("mutated", range(3), ids=["source", "twin", "twin2"])
def test_a_clone_of_a_clone_and_its_ancestors_do_not_see_each_others_edits(packages_editor, mutated):
    editor = _with_a_frame_and_pending_changes(packages_editor)
    twin = editor.clone()
    family = [editor, twin, twin.clone()]
    before = snapshot(editor)
    _mutate(family[mutated])
    for index, member in enumerate(family):
        assert (snapshot(member) != before) == (index == mutated)


def test_parsing_a_clones_own_map_values_leaves_the_sources_instances_to_the_source():
    editor = Editor(JAVA_DOC)
    editor.execute(Event("HaveRoot", id="org", time=T[0]))
    editor.execute(Event("HaveSubUnit", id="fulib", time=T[1], params={"parent": "org"}))
    registry = editor.registry
    doc = registry.find("fulib.Doc")
    twin = editor.clone()
    twin.parse(list(twin.registry.model_objects.values()))
    dumped = dump_model(twin.registry)
    registry.set_attribute(doc, "content", "changed")
    # The handle taken before the clone keeps the copy-time state, which
    # the twin still holds; the write lands in a duplicate find returns.
    written = registry.find("fulib.Doc")
    assert written is not doc and twin.registry.model_objects["fulib.Doc"] is doc
    assert doc.attributes["content"] == "fulib docu"
    assert written.attributes["content"] == "changed"
    assert dump_model(twin.registry) == dumped


def test_a_clone_parsing_the_sources_edited_objects_leaves_the_source_unchanged(packages_editor):
    twin = packages_editor.clone()
    registry = packages_editor.registry
    registry.set_attribute(registry.find("Editor"), "vTag", "2.0")
    before = dump_model(registry)
    assert twin.parse(registry.changed_objects()) == 1
    assert dump_model(registry) == dump_model(twin.registry) == before
    assert registry.consistency_violations() == twin.registry.consistency_violations() == []


@pytest.mark.parametrize("edited", ["Editor", "serv"])
def test_parsing_another_editors_objects_then_editing_leaves_that_editor_unchanged(edited):
    a, b = Editor(JAVA_PACKAGES), Editor(JAVA_PACKAGES)
    a.load(start_events())
    b.load(start_events())
    registry = a.registry
    registry.set_attribute(registry.find(edited), "vTag", "2.0")
    a.parse(registry.changed_objects())
    before = dump_model(registry)
    b.parse(registry.changed_objects())
    if edited == "Editor":
        b.registry.set_attribute(b.registry.find("Editor"), "vTag", "5.0")
    else:
        b.execute(Event("HaveRoot", id="serv", time=T[9]))
    assert dump_model(registry) == before
    assert registry.consistency_violations() == []
    assert check_ces_model(a).passed


def test_a_mutation_given_an_instance_of_a_gone_registry_leaves_its_live_copy_unchanged():
    a, b = Editor(JAVA_PACKAGES), Editor(JAVA_PACKAGES)
    a.load(start_events())
    b.load(start_events())
    c = a.clone()
    before = dump_model(c.registry)
    shared = c.registry.model_objects["Editor"]
    del a
    b.registry.set_attribute(shared, "vTag", "5.0")
    assert b.registry.find("Editor").attributes["vTag"] == "5.0"
    assert shared.attributes["vTag"] == "1.0"
    assert dump_model(c.registry) == before
    assert c.registry.consistency_violations() == []
    assert check_ces_model(c).passed


# -- overwriting makes losers ineffective ---------------------------------------------


def test_overwritten_loser_is_ineffective_in_any_order():
    winner = Event("HaveLeaf", id="E", time=T[2], params={"parent": "p", "vTag": "1.1"})
    loser = Event("HaveLeaf", id="E", time=T[1], params={"parent": "q", "vTag": "1.0"})
    reference = Editor(JAVA_PACKAGES)
    reference.execute(winner)
    for order in itertools.permutations([winner, loser]):
        editor = Editor(JAVA_PACKAGES)
        for event in order:
            editor.execute(event)
        assert model_equal(editor.registry, reference.registry)
        assert editor.get_active("E") == winner
