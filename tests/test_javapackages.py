from __future__ import annotations

import copy
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from ces import Editor, Event, JAVA_DOC, JAVA_PACKAGES, ModelObject, dump_model, model_equal
from ces.editor import CommandError
from ces.events import equals_but_time
from ces.objects import TypeConflictError
from ces.oracles import random_command_sequence, replay
from conftest import snapshot, start_events

T = [f"2020-01-01T15:00:0{i}.000Z" for i in range(10)]


def run(events):
    return replay(events, JAVA_PACKAGES)


# -- run semantics ---------------------------------------------------------------


def test_have_root_creates_a_parentless_package():
    editor = run([Event("HaveRoot", id="org", time=T[0])])
    org = editor.registry.model_objects["org"]
    assert org.object_type == "JavaPackage"
    assert "pPack" not in org.to_one


def test_have_root_detaches_but_keeps_the_subtree(packages_editor):
    editor = packages_editor
    editor.execute(Event("HaveRoot", id="fulib", time=T[5]))
    fulib = editor.registry.model_objects["fulib"]
    assert "pPack" not in fulib.to_one
    assert "subPackages" not in editor.registry.model_objects["org"].to_many
    assert fulib.to_many["subPackages"] == {"serv"}  # subtree intact
    assert editor.registry.model_objects["Editor"].to_one["pack"] == "serv"


def test_have_root_is_idempotent():
    once = run([Event("HaveRoot", id="org", time=T[0])])
    twice = run([Event("HaveRoot", id="org", time=T[0]), Event("HaveRoot", id="org", time=T[1])])
    assert model_equal(once.registry, twice.registry)


def test_have_sub_unit_links_under_parent(packages_editor):
    fulib = packages_editor.registry.model_objects["fulib"]
    assert fulib.to_one["pPack"] == "org"
    assert packages_editor.registry.model_objects["org"].to_many["subPackages"] == {"fulib"}


def test_have_sub_unit_before_parent_creates_a_frame():
    editor = run([Event("HaveSubUnit", id="serv", time=T[0], params={"parent": "fulib"})])
    assert "fulib" in editor.registry.frames
    assert editor.registry.model_objects["serv"].to_one["pPack"] == "fulib"


def test_have_sub_unit_reparents(packages_editor):
    editor = packages_editor
    editor.execute(Event("HaveSubUnit", id="serv", time=T[5], params={"parent": "org"}))
    registry = editor.registry
    assert registry.model_objects["serv"].to_one["pPack"] == "org"
    assert "subPackages" not in registry.model_objects["fulib"].to_many
    assert registry.model_objects["org"].to_many["subPackages"] == {"fulib", "serv"}


def test_have_sub_unit_requires_parent_param():
    with pytest.raises(CommandError, match="parent"):
        Editor(JAVA_PACKAGES).execute(Event("HaveSubUnit", id="fulib", time=T[0]))


@pytest.mark.parametrize("tag", ["HaveSubUnit", "HaveLeaf"])
@pytest.mark.parametrize("domain", [JAVA_PACKAGES, JAVA_DOC], ids=lambda d: d.name)
def test_missing_parent_leaves_model_and_store_untouched(domain, tag):
    editor = replay(start_events(), domain)
    registry = editor.registry
    before = copy.deepcopy((registry.model_objects, registry.frames, editor.active_commands))
    with pytest.raises(CommandError, match="parent"):
        editor.execute(Event(tag, id="C", time=T[5]))
    assert (registry.model_objects, registry.frames, editor.active_commands) == before


@pytest.mark.parametrize("live_clone", [False, True])
@pytest.mark.parametrize(
    "tag, id, parent, conflict",
    [
        ("HaveLeaf", "X", "Y", "'Y' is a JavaClass, requested JavaPackage"),
        ("HaveSubUnit", "X", "Y", "'Y' is a JavaClass, requested JavaPackage"),
        ("HaveLeaf", "X", "X", "'X' is a JavaClass, requested JavaPackage"),
        ("HaveLeaf", "p", "q", "'p' is a JavaPackage, requested JavaClass"),
    ],
)
def test_type_conflict_leaves_model_and_store_untouched(tag, id, parent, conflict, live_clone):
    editor = run(
        [
            Event("HaveRoot", id="p", time=T[0]),
            Event("HaveLeaf", id="Y", time=T[1], params={"parent": "p"}),
        ]
    )
    # With a live clone, either side's writes take the copy-on-write branch.
    editors = [editor, editor.clone()] if live_clone else [editor]
    before = [snapshot(e) for e in editors]
    for writer in editors:
        with pytest.raises(TypeConflictError, match=conflict):
            writer.execute(Event(tag, id=id, time=T[2], params={"parent": parent}))
        assert [snapshot(e) for e in editors] == before


@pytest.mark.parametrize("domain", [JAVA_PACKAGES, JAVA_DOC], ids=lambda d: d.name)
@pytest.mark.parametrize("writer", ["source", "clone"])
@pytest.mark.parametrize("seed", range(5))
def test_tree_writes_leave_a_live_clone_its_pre_image(seed, writer, domain):
    head = random_command_sequence(30, seed)
    tail = random_command_sequence(30, seed + 100, base_time="2020-01-02T00:00:00.000Z")
    source = replay(head, domain)
    editors = {"source": source, "clone": source.clone()}
    other = editors["clone" if writer == "source" else "source"]

    def image(editor):
        registry = editor.registry
        return dump_model(registry), copy.deepcopy(registry.frames), dict(editor.active_commands)

    before = image(other)
    for event in tail:
        editors[writer].execute(event)
    assert image(other) == before
    assert image(editors[writer]) == image(replay(head + tail, domain))
    assert editors[writer].registry.consistency_violations() == []


@pytest.mark.parametrize("domain", [JAVA_PACKAGES, JAVA_DOC], ids=lambda d: d.name)
def test_a_clone_and_its_source_written_on_two_threads_end_as_two_sequential_runs(domain):
    # No registry writes another's maps or instances, so a clone and its
    # source need no shared lock; a lost or crossed update breaks an image.
    import sys
    import threading

    head = random_command_sequence(60, 7)
    tails = [
        random_command_sequence(300, seed, base_time="2020-01-02T00:00:00.000Z") for seed in (8, 9)
    ]
    source = replay(head, domain)
    editors = [source, source.clone()]

    def write(editor, tail):
        for event in tail:
            editor.execute(event)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=pair) for pair in zip(editors, tails)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for editor, tail in zip(editors, tails):
        expected = replay(head + tail, domain)
        assert dump_model(editor.registry) == dump_model(expected.registry)
        assert editor.registry.frames == expected.registry.frames
        assert editor.active_commands == expected.active_commands
        assert editor.registry.consistency_violations() == []


def test_have_leaf_sets_class_package_and_vtag(packages_editor):
    leaf = packages_editor.registry.model_objects["Editor"]
    assert leaf.object_type == "JavaClass"
    assert leaf.attributes["vTag"] == "1.0"
    assert leaf.to_one["pack"] == "serv"


def test_have_leaf_update_rewrites_the_single_object(packages_editor):
    editor = packages_editor
    editor.execute(Event("HaveLeaf", id="Editor", time=T[5], params={"parent": "serv", "vTag": "1.1"}))
    assert editor.registry.model_objects["Editor"].attributes["vTag"] == "1.1"
    assert len([o for o in editor.registry.model_objects.values() if o.object_type == "JavaClass"]) == 1


# -- remove semantics ---------------------------------------------------------------


def test_remove_after_sub_unit_clears_parent_link():
    events = [
        Event("HaveRoot", id="org", time=T[0]),
        Event("HaveSubUnit", id="fulib", time=T[1], params={"parent": "org"}),
    ]
    editor = run(events)
    handler = editor.handlers["HaveSubUnit"]
    handler.remove(editor, editor.get_active("fulib"))
    assert "fulib" in editor.registry.frames
    assert "subPackages" not in editor.registry.model_objects["org"].to_many


def test_remove_on_never_run_id_is_a_no_op():
    editor = Editor(JAVA_PACKAGES)
    for tag in ("HaveRoot", "HaveSubUnit", "HaveLeaf"):
        editor.handlers[tag].remove(editor, Event(tag, id="ghost", time=T[0]))
    assert editor.registry.model_objects == {}
    assert editor.registry.frames == {}


@pytest.mark.parametrize(
    "event",
    [
        Event("HaveRoot", id="org"),
        Event("HaveSubUnit", id="fulib", params={"parent": "org"}),
        Event("HaveLeaf", id="Editor", params={"parent": "serv", "vTag": "1.0"}),
    ],
)
def test_run_remove_run_replays_to_the_same_state(event, packages_editor):
    editor = packages_editor
    stamped = Event(event.type_tag, id=event.id, time=T[6], params=event.params)
    reference = editor.clone()
    reference.execute(stamped)
    handler = editor.handlers[event.type_tag]
    editor.execute(stamped)
    handler.remove(editor, stamped)
    handler.run(editor, stamped)
    assert model_equal(editor.registry, reference.registry)


# -- parse semantics -----------------------------------------------------------------


def test_parse_root_package(packages_editor):
    org = packages_editor.registry.model_objects["org"]
    event = packages_editor.handlers["HaveRoot"].parse(org)
    assert event == Event("HaveRoot", id="org")


def test_parse_isolated_empty_package_is_garbage():
    editor = Editor(JAVA_PACKAGES)
    lonely = editor.registry.get_or_create("JavaPackage", "lonely")
    assert editor.handlers["HaveRoot"].parse(lonely) == Event("RemoveCommand", id="lonely")


def test_parse_type_guard_declines_foreign_objects(packages_editor):
    folder = ModelObject("Folder", "org")
    for tag in ("HaveRoot", "HaveSubUnit", "HaveLeaf"):
        assert packages_editor.handlers[tag].parse(folder) is None


def test_parse_sub_unit_reads_parent_from_the_model(packages_editor):
    serv = packages_editor.registry.model_objects["serv"]
    event = packages_editor.handlers["HaveSubUnit"].parse(serv)
    assert event == Event("HaveSubUnit", id="serv", params={"parent": "fulib"})
    assert packages_editor.handlers["HaveRoot"].parse(serv) is None


def test_parse_packageless_class_is_garbage(packages_editor):
    editor = packages_editor
    leaf = editor.registry.model_objects["Editor"]
    editor.registry.set_link(leaf, "pack", None)
    assert editor.handlers["HaveLeaf"].parse(leaf) == Event("RemoveCommand", id="Editor")


# -- properties ------------------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), length=st.integers(0, 25))
def test_run_parse_consistency_on_random_models(seed, length):
    editor = run(random_command_sequence(length, seed))
    for obj in editor.registry.model_objects.values():
        regenerated = [
            found
            for handler in editor.handlers.values()
            if (found := handler.parse(obj)) is not None
        ]
        assert len(regenerated) <= 1
        for event in regenerated:
            if event.type_tag == "RemoveCommand":
                continue  # garbage rule: model object no command would recreate
            stored = editor.get_active(event.id)
            assert stored is not None
            assert equals_but_time(stored, event)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    prefix=st.integers(0, 12),
    data=st.data(),
)
def test_distinct_id_command_pairs_commute_on_random_states(seed, prefix, data):
    state = random_command_sequence(prefix, seed)
    pool = random_command_sequence(8, seed + 1, base_time="2020-01-02T00:00:00.000Z")
    first = data.draw(st.sampled_from(pool))
    others = [e for e in pool if e.id != first.id]
    assume(others)
    second = data.draw(st.sampled_from(others))
    editors = []
    for order in itertools.permutations([first, second]):
        editor = run(state)
        for event in order:
            editor.execute(event)
        editors.append(editor)
    assert model_equal(editors[0].registry, editors[1].registry)
    assert editors[0].active_commands == editors[1].active_commands
