from __future__ import annotations

import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ces import Editor, Event, JAVA_DOC, JAVA_PACKAGES, LoadError, model_equal
from ces.javadoc import DOC_SUFFIX
from ces.objects import TypeConflictError
from ces.oracles import random_command_sequence, replay
from conftest import snapshot

T = [f"2020-01-01T16:00:0{i}.000Z" for i in range(10)]


def run(events):
    return replay(events, JAVA_DOC)


# -- run semantics ---------------------------------------------------------------


def test_have_root_creates_folder_without_doc_file():
    editor = run([Event("HaveRoot", id="org", time=T[0])])
    org = editor.registry.model_objects["org"]
    assert org.object_type == "Folder"
    assert "pFolder" not in org.to_one
    assert "org.Doc" not in editor.registry.model_objects


def test_have_sub_unit_creates_folder_plus_describing_doc_file():
    editor = run(
        [
            Event("HaveRoot", id="org", time=T[0]),
            Event("HaveSubUnit", id="fulib", time=T[1], params={"parent": "org"}),
        ]
    )
    registry = editor.registry
    fulib = registry.model_objects["fulib"]
    doc = registry.model_objects["fulib.Doc"]
    assert fulib.to_one["pFolder"] == "org"
    assert doc.attributes["content"] == "fulib docu"
    assert doc.to_one["folder"] == "fulib"
    assert fulib.to_many["files"] == {"fulib.Doc"}


def test_have_root_after_sub_unit_detaches_and_removes_doc_file(doc_editor):
    editor = doc_editor
    editor.execute(Event("HaveRoot", id="fulib", time=T[5]))
    registry = editor.registry
    fulib = registry.model_objects["fulib"]
    assert "pFolder" not in fulib.to_one
    assert "fulib.Doc" not in registry.model_objects
    assert "fulib.Doc" in registry.frames
    assert "files" not in fulib.to_many
    # siblings and the subtree survive
    assert "serv.Doc" in registry.model_objects
    assert registry.model_objects["Editor"].attributes["version"] == "1.0"


def test_have_root_is_idempotent(doc_editor):
    editor = doc_editor
    editor.execute(Event("HaveRoot", id="fulib", time=T[5]))
    snapshot = copy.deepcopy(editor.registry.model_objects)
    editor.execute(Event("HaveRoot", id="fulib", time=T[6]))
    assert editor.registry.model_objects.keys() == snapshot.keys()


def test_have_leaf_sets_version_but_never_content(doc_editor):
    leaf = doc_editor.registry.model_objects["Editor"]
    assert leaf.attributes == {"version": "1.0"}
    doc_editor.execute(
        Event("HaveLeaf", id="Editor", time=T[5], params={"parent": "serv", "vTag": "1.1"})
    )
    assert leaf.attributes == {"version": "1.1"}


def test_out_of_order_sub_unit_frames_its_parent():
    editor = run([Event("HaveSubUnit", id="serv", time=T[0], params={"parent": "fulib"})])
    assert "fulib" in editor.registry.frames
    assert editor.registry.model_objects["serv.Doc"].attributes["content"] == "serv docu"


# -- remove semantics ---------------------------------------------------------------


def test_sub_unit_remove_demotes_folder_and_doc_file(doc_editor):
    editor = doc_editor
    editor.handlers["HaveSubUnit"].remove(editor, editor.get_active("serv"))
    registry = editor.registry
    assert "serv" in registry.frames and "serv.Doc" in registry.frames
    assert "subFolders" not in registry.model_objects["fulib"].to_many
    # sibling increments untouched
    assert "fulib.Doc" in registry.model_objects
    assert "Editor" in registry.model_objects


@pytest.mark.parametrize("live_clone", [False, True])
@pytest.mark.parametrize(
    "events",
    [
        # a folder named like x's describing file already exists
        [
            Event("HaveRoot", id="x.Doc", time=T[0]),
            Event("HaveSubUnit", id="x", time=T[1], params={"parent": "p"}),
        ],
        # x's parent is named like x's describing file
        [Event("HaveSubUnit", id="x", time=T[1], params={"parent": "x.Doc"})],
    ],
)
def test_type_conflict_leaves_model_and_store_untouched(events, live_clone):
    editor = run(events[:-1])
    # With a live clone, either side's writes take the copy-on-write branch.
    editors = [editor, editor.clone()] if live_clone else [editor]
    before = [snapshot(e) for e in editors]
    for writer in editors:
        with pytest.raises(TypeConflictError, match="'x.Doc' is a Folder, requested DocFile"):
            writer.execute(events[-1])
        assert [snapshot(e) for e in editors] == before


def test_remove_handlers_tolerate_unknown_ids():
    editor = Editor(JAVA_DOC)
    for tag in ("HaveRoot", "HaveSubUnit", "HaveLeaf"):
        editor.handlers[tag].remove(editor, Event(tag, id="ghost", time=T[0]))
    assert editor.registry.frames == {}


def test_run_remove_restores_the_previous_model(doc_editor):
    for event in [
        Event("HaveSubUnit", id="extra", time=T[5], params={"parent": "org"}),
        Event("HaveLeaf", id="Readme", time=T[6], params={"parent": "org", "vTag": "0.1"}),
    ]:
        editor = doc_editor.clone()
        handler = editor.handlers[event.type_tag]
        editor.execute(event)
        handler.remove(editor, event)
        assert model_equal(editor.registry, doc_editor.registry)


# -- parse semantics -----------------------------------------------------------------


def test_full_doc_model_parses_back_to_the_four_commands(doc_editor):
    fresh = Editor(JAVA_DOC)
    fresh.parse(copy.deepcopy(list(doc_editor.registry.model_objects.values())))
    stored = {(key[1], e.type_tag) for key, e in fresh.active_commands.items()}
    assert stored == {
        ("org", "HaveRoot"),
        ("fulib", "HaveSubUnit"),
        ("serv", "HaveSubUnit"),
        ("Editor", "HaveLeaf"),
    }
    assert fresh.get_active("Editor").params == {"parent": "serv", "vTag": "1.0"}


def test_describing_doc_files_never_parse_on_their_own(doc_editor):
    doc = doc_editor.registry.model_objects["serv.Doc"]
    for handler in doc_editor.handlers.values():
        assert handler.parse(doc) is None


def test_full_model_parse_changes_nothing(doc_editor):
    before = dict(doc_editor.active_commands)
    assert doc_editor.parse(list(doc_editor.registry.model_objects.values())) == 0
    assert doc_editor.active_commands == before


def test_isolated_empty_folder_is_garbage():
    editor = Editor(JAVA_DOC)
    lonely = editor.registry.get_or_create("Folder", "lonely")
    assert editor.handlers["HaveRoot"].parse(lonely) == Event("RemoveCommand", id="lonely")


# -- content is local-only -------------------------------------------------------------


def test_have_content_fills_content_in_its_own_store_scope(doc_editor):
    editor = doc_editor
    editor.execute(Event("HaveContent", id="Editor", time=T[5], params={"content": "hello"}))
    assert editor.registry.model_objects["Editor"].attributes["content"] == "hello"
    assert editor.get_active("Editor", scope="content").type_tag == "HaveContent"
    assert editor.get_active("Editor").type_tag == "HaveLeaf"  # leaf untouched


def test_content_is_excluded_from_the_default_export(doc_editor):
    doc_editor.execute(Event("HaveContent", id="Editor", time=T[5], params={"content": "hello"}))
    assert "HaveContent" not in doc_editor.export_active()
    assert "HaveContent" in doc_editor.export_active(frozenset({"HaveContent"}))


def test_content_before_its_doc_file_paints_a_frame_then_survives_promotion():
    editor = Editor(JAVA_DOC)
    editor.execute(Event("HaveContent", id="Editor", time=T[0], params={"content": "hello"}))
    assert "Editor" in editor.registry.frames
    editor.execute(Event("HaveLeaf", id="Editor", time=T[1], params={"parent": "serv", "vTag": "1.0"}))
    leaf = editor.registry.model_objects["Editor"]
    assert leaf.attributes == {"version": "1.0", "content": "hello"}


def test_content_refuses_describing_doc_files(doc_editor):
    # the folder's sub-unit command owns a .Doc file's content; a second
    # writer for the same attribute would not commute with it
    from ces.editor import CommandError

    import pytest

    with pytest.raises(CommandError):
        doc_editor.execute(
            Event("HaveContent", id="fulib.Doc", time=T[5], params={"content": "clobber"})
        )
    assert doc_editor.get_active("fulib.Doc", scope="content") is None
    assert doc_editor.registry.model_objects["fulib.Doc"].attributes["content"] == "fulib docu"


def test_a_leaf_with_a_describing_file_id_is_refused_in_every_order():
    # The leaf and folder p's sub-unit would both write p.Doc's folder link,
    # so the model would depend on the order the two events ran in.
    events = [
        Event("HaveRoot", id="r", time=T[0]),
        Event("HaveSubUnit", id="p", time=T[1], params={"parent": "r"}),
        Event("HaveRoot", id="q", time=T[2]),
        Event("HaveLeaf", id="p.Doc", time=T[3], params={"parent": "q"}),
    ]
    without = snapshot(run(events[:3]))
    for order in itertools.permutations(events):
        editor = Editor(JAVA_DOC)
        with pytest.raises(LoadError, match="HaveLeaf may not target describing file 'p.Doc'") as refused:
            editor.load(list(order))
        assert refused.value.applied == 3
        assert snapshot(editor) == without


def test_content_parse_matches_plain_doc_files_only(doc_editor):
    editor = doc_editor
    handler = editor.handlers["HaveContent"]
    editor.registry.set_attribute(editor.registry.model_objects["Editor"], "content", "hello")
    assert handler.parse(editor.registry.model_objects["Editor"]) == Event(
        "HaveContent", id="Editor", params={"content": "hello"}
    )
    assert handler.parse(editor.registry.model_objects["serv.Doc"]) is None


# -- overwrite correctness of root vs sub-unit ---------------------------------------------


def test_last_winner_decides_doc_file_presence_in_any_order():
    root = Event("HaveRoot", id="fulib", time=T[2])
    sub = Event("HaveSubUnit", id="fulib", time=T[1], params={"parent": "org"})
    for order in itertools.permutations([root, sub]):
        editor = run(list(order))
        assert "fulib.Doc" not in editor.registry.model_objects  # root is newer
    newer_sub = Event("HaveSubUnit", id="fulib", time=T[3], params={"parent": "org"})
    for order in itertools.permutations([root, newer_sub]):
        editor = run(list(order))
        assert "fulib.Doc" in editor.registry.model_objects


# -- cross-domain correspondence ---------------------------------------------------------


def correspondence(packages: Editor, doc: Editor) -> None:
    package_ids = {
        id for id, o in packages.registry.model_objects.items() if o.object_type == "JavaPackage"
    }
    class_objs = {
        id: o for id, o in packages.registry.model_objects.items() if o.object_type == "JavaClass"
    }
    folder_ids = {
        id for id, o in doc.registry.model_objects.items() if o.object_type == "Folder"
    }
    plain_files = {
        id: o
        for id, o in doc.registry.model_objects.items()
        if o.object_type == "DocFile" and not id.endswith(DOC_SUFFIX)
    }
    assert package_ids == folder_ids
    assert set(class_objs) == set(plain_files)
    for id, leaf in class_objs.items():
        assert leaf.attributes.get("vTag", "") == plain_files[id].attributes.get("version", "")
        assert leaf.to_one.get("pack") == plain_files[id].to_one.get("folder")


def test_start_situation_corresponds_across_domains(packages_editor, doc_editor):
    correspondence(packages_editor, doc_editor)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), length=st.integers(0, 40))
def test_any_package_history_syncs_to_a_corresponding_doc_model(seed, length):
    events = random_command_sequence(length, seed)
    packages = replay(events, JAVA_PACKAGES)
    doc = Editor(JAVA_DOC)
    doc.load_events(packages.export_active())
    correspondence(packages, doc)


def test_round_trip_packages_doc_parse_packages(packages_editor, doc_editor):
    # Parse the doc model from scratch (fresh command identities), then
    # replay the parsed commands back into a packages editor.
    reparsed = Editor(JAVA_DOC)
    reparsed.parse(copy.deepcopy(list(doc_editor.registry.model_objects.values())))
    back = Editor(JAVA_PACKAGES)
    back.load_events(reparsed.export_active())
    assert model_equal(back.registry, packages_editor.registry)
