from __future__ import annotations

import copy
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ces.events import CesError, Event
from ces.javapackages import JAVA_PACKAGES_SCHEMA
from ces.objects import (
    Association,
    AssociationSchema,
    ModelObject,
    ObjectRegistry,
    SchemaError,
    TypeConflictError,
    UnknownObjectError,
    dump_model,
    model_diff,
    model_equal,
)

from conftest import unchanged_and_unheld

M2M_SCHEMA = AssociationSchema([Association("Node", "uses", True, "Node", "usedBy", True)])


@pytest.fixture
def registry():
    return ObjectRegistry(JAVA_PACKAGES_SCHEMA)


# -- lookup and lifecycle ------------------------------------------------------


def test_frame_lookup_hit_leaves_maps_unchanged(registry):
    org = registry.get_or_create("JavaPackage", "org")
    assert registry.get_object_frame("JavaPackage", "org") is org
    assert "org" in registry.model_objects and "org" not in registry.frames


def test_frame_lookup_refuses_an_empty_id(registry):
    with pytest.raises(UnknownObjectError, match="non-empty"):
        registry.get_object_frame("JavaPackage", "")
    assert registry.frames == {} and registry.model_objects == {}


def test_frame_miss_creates_context_stand_in(registry):
    serv = registry.get_object_frame("JavaPackage", "serv")
    assert registry.frames["serv"] is serv
    assert serv.object_type == "JavaPackage"
    assert "serv" not in registry.model_objects


def test_register_parsed_fetches_the_frame_of_the_name_and_holds_no_instance(registry):
    held = registry.get_or_create("JavaPackage", "org")
    registry.set_attribute(held, "note", "x")
    edited = ModelObject("JavaPackage", "org", to_many={"subPackages": {"serv"}})
    registry.register_parsed(edited)
    assert registry.model_objects == {"org": held} and registry.frames == {}
    assert held.attributes == {"note": "x"} and held.to_many == {}
    assert edited.to_many == {"subPackages": {"serv"}}
    # An id no map holds gets a bare frame of the registry's own.
    instance = ModelObject("JavaPackage", "com", to_one={"pPack": "org"})
    registry.register_parsed(instance)
    assert registry.frames["com"] == ModelObject("JavaPackage", "com")
    assert unchanged_and_unheld(registry, instance, ModelObject("JavaPackage", "com", to_one={"pPack": "org"}))
    # An instance of another type is refused.
    with pytest.raises(TypeConflictError):
        registry.register_parsed(ModelObject("JavaClass", "org"))
    assert registry.consistency_violations() == []


def test_get_or_create_promotes_existing_frame(registry):
    frame = registry.get_object_frame("JavaPackage", "serv")
    promoted = registry.get_or_create("JavaPackage", "serv")
    assert promoted is frame
    assert "serv" in registry.model_objects and "serv" not in registry.frames


def test_get_or_create_is_idempotent(registry):
    first = registry.get_or_create("JavaPackage", "org")
    snapshot = (dict(registry.model_objects), dict(registry.frames))
    assert registry.get_or_create("JavaPackage", "org") is first
    assert (dict(registry.model_objects), dict(registry.frames)) == snapshot


def test_type_conflict_on_id_collision_names_both_types(registry):
    registry.get_or_create("JavaPackage", "org")
    with pytest.raises(TypeConflictError, match="JavaPackage.*JavaClass"):
        registry.get_object_frame("JavaClass", "org")
    with pytest.raises(TypeConflictError):
        registry.get_or_create("JavaClass", "org")


def test_empty_id_is_rejected(registry):
    with pytest.raises(UnknownObjectError):
        registry.get_or_create("JavaPackage", "")


@pytest.mark.parametrize(
    "placement, error",
    [
        (("JavaPackage", "q", "subPackages", "p"), SchemaError),  # a to-many link
        (("JavaPackage", "q", "pack", "p"), SchemaError),  # another type's link
        (("JavaPackage", "", "pPack", "p"), UnknownObjectError),
        (("JavaPackage", "q", "pPack", ""), UnknownObjectError),
        (("JavaClass", "c", "pack", "p"), TypeConflictError),  # c is a package
        (("JavaClass", "q", "pack", "x"), TypeConflictError),  # x is a class
        (("JavaClass", "q", "pack", "q"), TypeConflictError),  # one new id, two types
    ],
)
def test_place_refuses_before_any_write(registry, placement, error):
    registry.get_or_create("JavaPackage", "c")
    registry.set_link(registry.get_or_create("JavaClass", "x"), "pack", "c")
    before = copy.deepcopy((registry.model_objects, registry.frames, registry.changed_ids))
    with pytest.raises(error):
        registry.place(*placement, "vTag", "1")
    assert (registry.model_objects, registry.frames, registry.changed_ids) == before


_PLACEMENTS = st.tuples(
    st.sampled_from([("JavaPackage", "pPack"), ("JavaClass", "pack")]),
    st.sampled_from("abc"),
    st.sampled_from([None, "a", "b", "c"]),
    st.sampled_from(["", "1", "2"]),
)


@given(st.lists(_PLACEMENTS, max_size=12), st.booleans())
@settings(max_examples=150, deadline=None)
def test_place_does_what_the_five_calls_did(placements, live_copy):
    # The reference: check_types, get_or_create, get_object_frame, set_link
    # and set_attribute, the sequence the tree handlers ran before place.
    placed, stepped = ObjectRegistry(JAVA_PACKAGES_SCHEMA), ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    copies = []
    for index, ((object_type, link), id, parent, vtag) in enumerate(placements):
        if live_copy and index == len(placements) // 2:
            copies = [(placed.copy(), dump_model(placed)), (stepped.copy(), dump_model(stepped))]
        attribute = "vTag" if object_type == "JavaClass" else ""
        outcomes = []
        try:
            placed.place(object_type, id, link, parent, attribute, vtag)
            outcomes.append(None)
        except CesError as exc:
            outcomes.append(type(exc))
        try:
            wanted = [(object_type, id)] + ([("JavaPackage", parent)] if parent else [])
            stepped.check_types(*wanted)
            obj = stepped.get_or_create(object_type, id)
            target = stepped.get_object_frame("JavaPackage", parent) if parent else None
            stepped.set_link(obj, link, target)
            if attribute:
                stepped.set_attribute(obj, attribute, vtag)
            outcomes.append(None)
        except CesError as exc:
            outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        assert dump_model(placed) == dump_model(stepped)
        assert placed.frames == stepped.frames
        assert list(placed._changed) == list(stepped._changed)
        assert placed.consistency_violations() == []
    for copied, dump in copies:
        assert dump_model(copied) == dump


def test_remove_demotes_model_object_to_frame(registry):
    fulib = registry.get_or_create("JavaPackage", "fulib")
    assert registry.remove_model_object("fulib") is fulib
    assert registry.frames["fulib"] is fulib
    assert "fulib" not in registry.model_objects


def test_remove_unknown_id_returns_none(registry):
    assert registry.remove_model_object("ghost") is None


def test_remove_is_idempotent_on_frames(registry):
    frame = registry.get_object_frame("JavaPackage", "serv")
    assert registry.remove_model_object("serv") is frame
    assert registry.frames["serv"] is frame


def test_remove_then_create_restores_the_same_instance(registry):
    fulib = registry.get_or_create("JavaPackage", "fulib")
    registry.remove_model_object("fulib")
    assert registry.get_or_create("JavaPackage", "fulib") is fulib
    assert "fulib" not in registry.frames


# -- links ---------------------------------------------------------------------


def test_set_link_maintains_reverse_direction(registry):
    org = registry.get_or_create("JavaPackage", "org")
    fulib = registry.get_or_create("JavaPackage", "fulib")
    registry.set_link(fulib, "pPack", org)
    assert fulib.to_one["pPack"] == "org"
    assert org.to_many["subPackages"] == {"fulib"}


def test_unset_link_clears_both_ends(registry):
    org = registry.get_or_create("JavaPackage", "org")
    fulib = registry.get_or_create("JavaPackage", "fulib")
    registry.set_link(fulib, "pPack", org)
    registry.unset_link(fulib, "pPack")
    assert "pPack" not in fulib.to_one
    assert "subPackages" not in org.to_many


@pytest.mark.parametrize("clear", [False, True])
def test_clearing_a_link_to_an_unregistered_object_clears_its_reverse(registry, clear):
    # p0 joins the frames at the first set_link; once the change set is
    # cleared, only the maps can name it.
    p1 = registry.get_or_create("JavaPackage", "p1")
    p0 = ModelObject("JavaPackage", "p0")  # direct edit, in no map yet
    registry.set_link(p1, "pPack", p0)
    if clear:
        registry.clear_changes()
    registry.set_link(p1, "pPack", None)
    assert "pPack" not in p1.to_one
    assert registry.frames["p0"].to_many == {}
    assert unchanged_and_unheld(registry, p0, ModelObject("JavaPackage", "p0"))
    assert registry.consistency_violations() == []


def test_reassignment_moves_membership_between_parents(registry):
    org = registry.get_or_create("JavaPackage", "org")
    fulib = registry.get_or_create("JavaPackage", "fulib")
    serv = registry.get_or_create("JavaPackage", "serv")
    registry.set_link(serv, "pPack", org)
    registry.set_link(serv, "pPack", fulib)
    assert "subPackages" not in org.to_many
    assert fulib.to_many["subPackages"] == {"serv"}
    assert serv.to_one["pPack"] == "fulib"


def test_add_to_many_is_the_reverse_view_of_set_link(registry):
    org = registry.get_or_create("JavaPackage", "org")
    fulib = registry.get_or_create("JavaPackage", "fulib")
    registry.add_to_many(org, "subPackages", fulib)
    assert fulib.to_one["pPack"] == "org"
    registry.remove_from_many(org, "subPackages", fulib)
    assert "pPack" not in fulib.to_one


def test_links_accept_target_ids_and_unlinked_free_objects(registry):
    org = registry.get_or_create("JavaPackage", "org")
    free = ModelObject("JavaPackage", "com")  # direct edit, not registered
    registry.add_to_many(free, "subPackages", "org")
    assert org.to_one["pPack"] == "com"
    with pytest.raises(UnknownObjectError):
        registry.set_link(org, "pPack", "ghost")


def test_schema_violations_are_errors(registry):
    org = registry.get_or_create("JavaPackage", "org")
    leaf = registry.get_or_create("JavaClass", "Editor")
    with pytest.raises(SchemaError):
        registry.set_link(org, "subPackages", None)  # to-many end
    with pytest.raises(SchemaError):
        registry.add_to_many(org, "pPack", org)  # to-one end
    with pytest.raises(SchemaError, match="to-one"):
        registry.remove_from_many(org, "pPack", org)
    with pytest.raises(SchemaError):
        registry.set_link(org, "nonsense", None)
    with pytest.raises(SchemaError):
        registry.set_link(leaf, "pPack", None)  # link owned by JavaPackage
    with pytest.raises(TypeConflictError):
        registry.set_link(leaf, "pack", leaf)  # target must be a JavaPackage


def test_many_to_many_links():
    registry = ObjectRegistry(M2M_SCHEMA)
    a = registry.get_or_create("Node", "a")
    b = registry.get_or_create("Node", "b")
    registry.add_to_many(a, "uses", b)
    registry.add_to_many(a, "uses", b)  # set semantics
    assert a.to_many["uses"] == {"b"} and b.to_many["usedBy"] == {"a"}
    registry.remove_from_many(a, "uses", b)
    assert "uses" not in a.to_many and "usedBy" not in b.to_many
    registry.remove_from_many(a, "uses", b)  # absent: no-op


def test_schema_rejects_one_to_one_associations():
    with pytest.raises(SchemaError, match="one-to-one"):
        AssociationSchema([Association("A", "partner", False, "B", "partnerOf", False)])


def test_schema_rejects_duplicate_link_names():
    with pytest.raises(SchemaError):
        AssociationSchema(
            [
                Association("A", "x", False, "B", "y", True),
                Association("C", "x", False, "D", "z", True),
            ]
        )


# -- change tracking -------------------------------------------------------------


def test_mutators_mark_every_touched_object(registry):
    org = registry.get_or_create("JavaPackage", "org")
    fulib = registry.get_or_create("JavaPackage", "fulib")
    serv = registry.get_or_create("JavaPackage", "serv")
    registry.set_link(serv, "pPack", org)
    registry.clear_changes()
    registry.set_link(serv, "pPack", fulib)
    assert registry.changed_ids == {"org", "fulib", "serv"}
    registry.clear_changes()
    registry.set_attribute(org, "note", "x")
    assert registry.changed_ids == {"org"}


def test_changed_objects_keep_first_mutation_order(registry):
    # parse stamps the recovered events in this order, so it must not
    # depend on string hashing.
    ids = [f"p{(i * 7) % 20}" for i in range(20)]
    objs = [registry.get_or_create("JavaPackage", id) for id in ids]
    for obj in objs:
        registry.set_attribute(obj, "note", "x")
    for obj in reversed(objs):
        registry.set_attribute(obj, "note", "y")
    fresh = ModelObject("JavaClass", "C")
    registry.set_link(fresh, "pack", objs[0])
    assert [obj.id for obj in registry.changed_objects()] == ids + ["C"]
    assert all(a is b for a, b in zip(registry.changed_objects(), objs + [registry.find("C")]))
    assert unchanged_and_unheld(registry, fresh, ModelObject("JavaClass", "C"))


def test_unchanged_writes_do_not_mark(registry):
    org = registry.get_or_create("JavaPackage", "org")
    registry.set_attribute(org, "note", "x")
    registry.clear_changes()
    registry.set_attribute(org, "note", "x")
    registry.set_link(org, "pPack", None)
    assert registry.changed_ids == set()


def test_empty_attribute_value_means_absent(registry):
    editor = registry.get_or_create("JavaClass", "Editor")
    registry.set_attribute(editor, "vTag", "1.0")
    registry.set_attribute(editor, "vTag", "")
    assert "vTag" not in editor.attributes


# -- equality and diff -------------------------------------------------------------


def _tree(registry_cls=ObjectRegistry, order=("fulib", "serv")):
    registry = registry_cls(JAVA_PACKAGES_SCHEMA)
    org = registry.get_or_create("JavaPackage", "org")
    for child in order:
        registry.set_link(registry.get_or_create("JavaPackage", child), "pPack", org)
    editor = registry.get_or_create("JavaClass", "Editor")
    registry.set_link(editor, "pack", org)
    registry.set_attribute(editor, "vTag", "1.0")
    return registry


def test_model_objects_are_slotted_and_their_owner_is_no_part_of_equality_or_repr():
    registry = _tree()
    held = registry.find("Editor")
    bare = ModelObject("JavaClass", "Editor", {"vTag": "1.0"}, {"pack": "org"})
    assert held._owner is not None and bare._owner is None
    assert held == bare and repr(held) == repr(bare)
    assert "_owner" not in repr(held)
    for record in (held, bare):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.note = "ad hoc"


def test_a_deep_copy_of_a_model_object_keeps_its_owner_and_is_never_held():
    registry = _tree()
    held = registry.find("Editor")
    copied = copy.deepcopy(held)
    assert copied == held and copied is not held and copied.attributes is not held.attributes
    assert copied._owner == held._owner
    copied.attributes["vTag"] = "2.0"
    built = copy.deepcopy(copied)
    registry.set_attribute(copied, "note", "x")
    assert registry.find("Editor") is held
    assert held.attributes == {"vTag": "1.0", "note": "x"}
    assert unchanged_and_unheld(registry, copied, built)


def test_a_held_model_object_pickles_with_its_stamp():
    registry = _tree()
    held = registry.find("Editor")
    restored = pickle.loads(pickle.dumps(held))
    assert restored == held and restored._owner == held._owner


def test_registry_equals_itself():
    registry = _tree()
    assert model_equal(registry, registry)
    assert model_diff(registry, registry).differences == []


def test_to_many_insertion_order_does_not_matter():
    assert model_equal(_tree(), _tree(order=("serv", "fulib")))


def test_attribute_mismatch_names_id_and_attribute():
    a, b = _tree(), _tree()
    registry_obj = b.model_objects["Editor"]
    b.set_attribute(registry_obj, "vTag", "1.1")
    diff = model_diff(a, b)
    assert not model_equal(a, b)
    assert diff.differences == ["Editor: attribute 'vTag' differs: '1.0' != '1.1'"]


def test_missing_objects_and_link_mismatches_are_listed():
    a, b = _tree(), _tree()
    b.get_or_create("JavaPackage", "extra")
    b.set_link(b.model_objects["serv"], "pPack", None)
    diff = model_diff(a, b)
    assert "only in b: JavaPackage extra" in diff.differences
    assert any(d.startswith("serv: link pPack") for d in diff.differences)


def test_residual_frames_warn_but_do_not_break_equality():
    a, b = _tree(), _tree()
    a.get_object_frame("JavaPackage", "pending")
    diff = model_diff(a, b)
    assert model_equal(a, b)
    assert diff.warnings == ["frame only in a: pending"]


def test_diff_empty_iff_equal_on_perturbed_copies():
    a = _tree()
    for mutate in (
        lambda r: r.set_attribute(r.model_objects["Editor"], "vTag", "9"),
        lambda r: r.remove_model_object("serv"),
        lambda r: r.set_link(r.model_objects["fulib"], "pPack", None),
    ):
        b = _tree()
        mutate(b)
        assert model_equal(a, b) == (model_diff(a, b).differences == [])
        assert not model_equal(a, b)


def test_type_mismatch_is_a_difference():
    a, b = _tree(), _tree()
    b.model_objects["Editor"] = ModelObject("JavaPackage", "Editor")
    assert model_diff(a, b).differences == ["Editor: type differs: JavaClass != JavaPackage"]


# -- model_diff against the canonical reference ------------------------------------


def _reference_diff(a: ObjectRegistry, b: ObjectRegistry) -> tuple[list[str], list[str]]:
    """Differences and warnings as model_diff gave them when it canonicalized
    every shared id: empty attributes and empty links dropped first."""

    def attrs(obj):
        return {k: v for k, v in obj.attributes.items() if v}

    def links(obj):
        state = {k: v for k, v in obj.to_one.items() if v}
        state.update({k: frozenset(v) for k, v in obj.to_many.items() if v})
        return state

    def render(value):
        if isinstance(value, frozenset):
            return "{" + ",".join(sorted(value)) + "}"
        return repr(value) if value is None else str(value)

    differences, warnings = [], []
    ids_a, ids_b = set(a.model_objects), set(b.model_objects)
    for id in sorted(ids_a - ids_b):
        differences.append(f"only in a: {a.model_objects[id].object_type} {id}")
    for id in sorted(ids_b - ids_a):
        differences.append(f"only in b: {b.model_objects[id].object_type} {id}")
    for id in sorted(ids_a & ids_b):
        oa, ob = a.model_objects[id], b.model_objects[id]
        if oa.object_type != ob.object_type:
            differences.append(f"{id}: type differs: {oa.object_type} != {ob.object_type}")
            continue
        attrs_a, attrs_b = attrs(oa), attrs(ob)
        for key in sorted(set(attrs_a) | set(attrs_b)):
            if attrs_a.get(key) != attrs_b.get(key):
                differences.append(
                    f"{id}: attribute {key!r} differs: "
                    f"{attrs_a.get(key, '')!r} != {attrs_b.get(key, '')!r}"
                )
        links_a, links_b = links(oa), links(ob)
        for key in sorted(set(links_a) | set(links_b)):
            if links_a.get(key) != links_b.get(key):
                differences.append(
                    f"{id}: link {key} differs: "
                    f"{render(links_a.get(key))} != {render(links_b.get(key))}"
                )
    for id in sorted(set(a.frames) - set(b.frames)):
        warnings.append(f"frame only in a: {id}")
    for id in sorted(set(b.frames) - set(a.frames)):
        warnings.append(f"frame only in b: {id}")
    return differences, warnings


_DIFF_IDS = ["p0", "p1", "p2", "c0", "c1", "c2"]
_direct_edits = st.lists(
    st.tuples(
        st.sampled_from(
            ["vtag", "raw_vtag", "link", "unlink", "empty_set", "empty_one", "remove", "retype"]
        ),
        st.sampled_from(_DIFF_IDS),
        st.sampled_from(_DIFF_IDS),
        st.sampled_from(["", "1.0", "2.0"]),
    ),
    max_size=10,
)


def _type_of(id: str) -> str:
    return "JavaPackage" if id.startswith("p") else "JavaClass"


def _direct_edit(registry: ObjectRegistry, kind: str, x: str, y: str, value: str) -> None:
    """One edit through the registry or, for the raw kinds, straight into
    an object's maps, leaving non-canonical empty values behind."""
    obj = registry.get_or_create(_type_of(x), x)
    package = obj.object_type == "JavaPackage"
    up = "pPack" if package else "pack"
    if kind == "vtag" and not package:
        registry.set_attribute(obj, "vTag", value)
    elif kind == "raw_vtag":
        obj.attributes["vTag"] = value
    elif kind == "link" and _type_of(y) == "JavaPackage" and x != y:
        registry.set_link(obj, up, registry.get_object_frame("JavaPackage", y))
    elif kind == "unlink":
        registry.set_link(obj, up, None)
    elif kind == "empty_set" and package:
        obj.to_many.setdefault("classes" if value else "subPackages", set())
    elif kind == "empty_one":
        obj.to_one.setdefault(up, "")
    elif kind == "remove":
        registry.remove_model_object(x)
    elif kind == "retype":
        other = "JavaClass" if package else "JavaPackage"
        registry.model_objects[x] = ModelObject(other, x, dict(obj.attributes))


@settings(max_examples=300)
@given(_direct_edits, _direct_edits, _direct_edits)
def test_model_diff_equals_the_canonical_reference(common, only_a, only_b):
    a, b = ObjectRegistry(JAVA_PACKAGES_SCHEMA), ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    for registry, edits in ((a, common + only_a), (b, common + only_b)):
        for edit in edits:
            try:
                _direct_edit(registry, *edit)
            except CesError:
                pass  # a type conflict after a retype; the edit changes nothing
    diff = model_diff(a, b)
    assert (diff.differences, diff.warnings) == _reference_diff(a, b)


@st.composite
def _raw_registries(draw):
    """Two registries whose maps hold raw states straight from the strategy:
    empty attribute values, empty link sets, a to-one and a to-many entry of
    one name, and instances the two registries share."""
    names, ids = st.sampled_from(["pPack", "pack", "classes"]), ["p", "q", "r"]

    def raw(id: str) -> ModelObject:
        return ModelObject(
            draw(st.sampled_from(["JavaPackage", "JavaClass"])),
            id,
            draw(st.dictionaries(st.sampled_from(["vTag", "note"]), st.sampled_from(["", "1", "2"]))),
            draw(st.dictionaries(names, st.sampled_from(["", "p", "q"]))),
            draw(st.dictionaries(names, st.sets(st.sampled_from(ids), max_size=2))),
        )

    a, b = ObjectRegistry(JAVA_PACKAGES_SCHEMA), ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    for id in ids:
        held = draw(st.sampled_from(["a", "b", "both", "shared", "frames"]))
        if held in ("a", "both", "shared"):
            a.model_objects[id] = raw(id)
        if held in ("b", "both"):
            b.model_objects[id] = raw(id)
        if held == "shared":
            b.model_objects[id] = a.model_objects[id]
        if held == "frames":
            for registry in draw(st.sampled_from([(a,), (b,), (a, b)])):
                registry.frames[id] = raw(id)
    return a, b


@settings(max_examples=300)
@given(_raw_registries())
def test_model_diff_of_raw_states_equals_the_canonical_reference(registries):
    a, b = registries
    for first, second in ((a, b), (b, a)):
        diff = model_diff(first, second)
        assert (diff.differences, diff.warnings) == _reference_diff(first, second)


@pytest.mark.parametrize(
    "raw, canonical",
    [
        (ModelObject("JavaClass", "C", attributes={"vTag": ""}), ModelObject("JavaClass", "C")),
        (ModelObject("JavaPackage", "p", to_many={"classes": set()}), ModelObject("JavaPackage", "p")),
        (ModelObject("JavaClass", "C", to_one={"pack": ""}), ModelObject("JavaClass", "C")),
    ],
    ids=["empty-attribute", "empty-link-set", "empty-to-one"],
)
def test_non_canonical_empty_values_are_no_difference(raw, canonical):
    a, b = ObjectRegistry(JAVA_PACKAGES_SCHEMA), ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    a.model_objects[raw.id], b.model_objects[canonical.id] = raw, canonical
    assert raw != canonical
    for first, second in ((a, b), (b, a)):
        diff = model_diff(first, second)
        assert (diff.differences, diff.warnings) == _reference_diff(first, second) == ([], [])


def test_dump_model_is_deterministic_and_sorted():
    text = dump_model(_tree())
    assert text == dump_model(_tree(order=("serv", "fulib")))
    assert text.splitlines() == sorted(text.splitlines(), key=lambda l: l.split()[1])
    assert "JavaClass Editor {vTag=1.0} links{pack->org}" in text


def test_a_value_holding_a_line_break_dumps_as_one_row(registry):
    forged = "a\nJavaPackage q {} links{}"
    registry.set_attribute(registry.get_or_create("JavaClass", "X"), "vTag", forged)
    assert dump_model(registry) == 'JavaClass X {vTag="a\\nJavaPackage q {} links{}"} links{}\n'


def test_dump_model_quotes_only_the_fields_that_hold_a_delimiter(registry):
    org = registry.get_or_create("JavaPackage", "org")
    registry.set_attribute(org, "note", "fulib docu")
    registry.set_attribute(org, "a=b", 'say "hi"')
    for child in ("sub pkg", "x->y", "p,q"):
        registry.set_link(registry.get_or_create("JavaPackage", child), "pPack", org)
    rows = dump_model(registry).splitlines()
    assert rows[0] == 'JavaPackage org {"a=b"="say \\"hi\\"",note=fulib docu} links{subPackages->{"p,q","sub pkg","x->y"}}'
    assert rows[1:] == [f'JavaPackage "{id}" {{}} links{{pPack->org}}' for id in ("p,q", "sub pkg", "x->y")]


_DUMP_TEXT = st.text(alphabet=' ab,={}"\\\n\r->', max_size=5)
_DUMP_OBJECTS = st.lists(st.tuples(_DUMP_TEXT, st.dictionaries(_DUMP_TEXT, _DUMP_TEXT, max_size=2)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(_DUMP_OBJECTS, st.data())
def test_dump_model_tells_any_two_models_apart(objects, data):
    def build(objects):
        registry = ObjectRegistry(JAVA_PACKAGES_SCHEMA)
        for id, attributes in objects:
            if id:
                obj = registry.get_or_create("JavaPackage", id)
                for key, value in attributes.items():
                    registry.set_attribute(obj, key, value)
        return registry

    other = data.draw(st.one_of(st.just(objects), _DUMP_OBJECTS))
    a, b = build(objects), build(other)
    assert (dump_model(a) == dump_model(b)) == model_equal(a, b)
    assert len(dump_model(a).splitlines()) == len(a.model_objects)


# -- consistency property -----------------------------------------------------------


@pytest.mark.parametrize(
    "corrupt, problem",
    [
        (lambda o: o["org"].to_one.update(owner="fulib"), "org: unknown link name 'owner'"),
        (
            lambda o: o["org"].to_one.update(pack="fulib"),
            "org: link 'pack' belongs to JavaClass, not JavaPackage",
        ),
        (
            lambda o: o["serv"].to_many.update(pPack={o["serv"].to_one.pop("pPack")}),
            "serv: link pPack stored with wrong cardinality",
        ),
        (
            lambda o: o["org"].to_many["subPackages"].add("ghost"),
            "org: link subPackages targets unknown id 'ghost'",
        ),
        (
            lambda o: o["org"].to_many["subPackages"].add("Editor"),
            "org: link subPackages targets JavaClass 'Editor'",
        ),
        (
            lambda o: o["org"].to_many["subPackages"].discard("serv"),
            "serv: link pPack->org missing reverse subPackages",
        ),
    ],
)
def test_consistency_audit_reports_each_kind_of_corruption(corrupt, problem):
    registry = _tree()
    assert registry.consistency_violations() == []
    corrupt(registry.model_objects)
    assert problem in registry.consistency_violations()


@st.composite
def link_ops(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "set",
                        "unset",
                        "reparent",
                        "leaf",
                        "remove",
                        "fresh",
                        "clear",
                        "given",
                        "given_bare",
                        "given_linked",
                        "given_foreign",
                    ]
                ),
                st.sampled_from(["org", "fulib", "serv", "com"]),
                st.sampled_from(["org", "fulib", "serv", "com"]),
            ),
            max_size=30,
        )
    )
    return ops


@given(link_ops())
def test_bidirectional_consistency_holds_after_any_operation_sequence(ops):
    registry = ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    for op, x, y in ops:
        if op == "set" and x != y:
            registry.set_link(
                registry.get_or_create("JavaPackage", x),
                "pPack",
                registry.get_object_frame("JavaPackage", y),
            )
        elif op == "unset":
            registry.set_link(registry.get_or_create("JavaPackage", x), "pPack", None)
        elif op == "reparent" and x != y:
            registry.add_to_many(
                registry.get_or_create("JavaPackage", x),
                "subPackages",
                registry.get_object_frame("JavaPackage", y),
            )
        elif op == "leaf":
            leaf = registry.get_or_create("JavaClass", "c" + x)
            registry.set_link(leaf, "pack", registry.get_object_frame("JavaPackage", y))
        elif op == "remove":
            registry.remove_model_object(x)
        elif op == "fresh" and x != y and registry.find(y) is None:
            # a directly created target that no map holds yet
            fresh = ModelObject("JavaPackage", y)
            registry.set_link(registry.get_or_create("JavaPackage", x), "pPack", fresh)
        elif op == "clear":
            registry.clear_changes()
        elif op.startswith("given") and registry.find(x) is not None:
            # a mutation given an edited copy: structural, bare, with a
            # one-sided link added, or of another type
            held = registry.find(x)
            if op == "given_foreign":
                with pytest.raises(TypeConflictError):
                    registry.set_attribute(ModelObject("JavaClass", x), "note", y)
                assert registry.find(x) is held
                continue
            edited = copy.deepcopy(held)
            if op == "given_bare":
                edited = ModelObject("JavaPackage", x)
            elif op == "given_linked" and x != y:
                edited.to_one["pPack"] = y
            built = copy.deepcopy(edited)
            registry.set_attribute(edited, "note", y)
            assert registry.find(x) is held and held.attributes["note"] == y
            assert unchanged_and_unheld(registry, edited, built)
    assert registry.consistency_violations() == []
    assert not registry.model_objects.keys() & registry.frames.keys()
    assert all(registry.find(id) is not None for id in registry.changed_ids)


# -- copy-on-write copy families ----------------------------------------------------

_FAMILY_IDS = ["p0", "p1", "p2", "c0", "c1"]


def _family_op(registry: ObjectRegistry, kind: str, x: str, y: str, value: str, give) -> None:
    """One registry operation; every instance it hands out goes through
    ``give``.  ``y`` names a package, ``x`` any object."""
    up, down = ("pPack", "subPackages") if _type_of(x) == "JavaPackage" else ("pack", "classes")
    if kind == "attr":
        registry.set_attribute(give(registry.get_or_create(_type_of(x), x)), "vTag", value)
    elif kind == "link" and x != y:
        obj = give(registry.get_or_create(_type_of(x), x))
        registry.set_link(obj, up, give(registry.get_object_frame("JavaPackage", y)))
    elif kind == "unlink" and give(registry.find(x)) is not None:
        registry.set_link(registry.find(x), up, None)
    elif kind == "add" and x != y:
        parent = give(registry.get_object_frame("JavaPackage", y))
        registry.add_to_many(parent, down, give(registry.get_or_create(_type_of(x), x)))
    elif kind == "drop_many" and give(registry.find(x)) is not None:
        registry.remove_from_many(give(registry.get_object_frame("JavaPackage", y)), down, x)
    elif kind == "remove":
        give(registry.remove_model_object(x))
    elif kind == "given_edited" and give(registry.find(x)) is not None:
        edited = copy.deepcopy(registry.find(x))
        edited.attributes["vTag"] = "edited"
        edited.to_one[up] = y
        registry.set_attribute(edited, "vTag", value)
        assert edited.attributes["vTag"] == "edited" and edited.to_one[up] == y
        give(registry.find(x))
    elif kind == "given_raw":
        # The instances of the raw maps, shared with copies until written.
        for obj in [*registry.model_objects.values(), *registry.frames.values()]:
            registry.set_attribute(obj, "vTag", value)
    elif kind == "clear":
        registry.clear_changes()
    elif kind == "changed":
        for obj in registry.changed_objects():
            give(obj)


def _ignore(obj: ModelObject | None) -> ModelObject | None:
    return obj


_family_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["clone", "drop", "attr", "link", "unlink", "add", "drop_many", "remove",
             "given_edited", "given_raw", "clear", "changed"]
        ),
        st.integers(0, 2),
        st.sampled_from(_FAMILY_IDS),
        st.sampled_from(["p0", "p1", "p2"]),
        st.sampled_from(["", "1.0", "2.0"]),
    ),
    max_size=40,
)


@settings(max_examples=200)
@given(_family_ops)
def test_each_registry_of_a_copy_family_behaves_like_its_own_deep_copy(ops):
    root = ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    _family_op(root, "link", "p1", "p0", "", _ignore)
    _family_op(root, "link", "c0", "p1", "", _ignore)
    # Per member: the registry, its deep-copied shadow, and the last instance
    # it handed out for each id.
    family = [(root, copy.deepcopy(root), {})]

    def giver(handed: dict[str, ModelObject]):
        def give(obj: ModelObject | None) -> ModelObject | None:
            if obj is not None:
                assert handed.setdefault(obj.id, obj) is obj
            return obj

        return give

    for kind, pick, x, y, value in ops:
        registry, shadow, handed = family[pick % len(family)]
        if kind == "clone":
            if len(family) < 3:
                family.append((registry.copy(), copy.deepcopy(shadow), {}))
                # A copy re-stamps its source: what it handed out before is
                # no longer what it hands out.
                handed.clear()
        elif kind == "drop":
            if len(family) > 1:
                del family[pick % len(family)]
        else:
            raw = [
                (table, dict(table))
                for member, _, _ in family
                for table in (member.model_objects, member.frames)
                if member is not registry
            ]
            _family_op(registry, kind, x, y, value, giver(handed))
            _family_op(shadow, kind, x, y, value, _ignore)
            # No operation reaches another member's maps.
            assert all(table == held and all(table[id] is obj for id, obj in held.items()) for table, held in raw)
        for registry, shadow, handed in family:
            assert dump_model(registry) == dump_model(shadow)
            assert (registry.model_objects, registry.frames) == (shadow.model_objects, shadow.frames)
            assert registry.changed_ids == shadow.changed_ids
            assert registry.consistency_violations() == []
            for id, obj in handed.items():
                assert registry.find(id) is obj
                # Only its owner hands an instance out.
                assert all(other is handed or other.get(id) is not obj for _, _, other in family)


@pytest.mark.parametrize("writer", ["source", "copy"])
def test_many_to_many_edits_on_a_copy_or_its_source_stay_apart(writer):
    source = ObjectRegistry(M2M_SCHEMA)
    source.add_to_many(source.get_or_create("Node", "a"), "uses", source.get_or_create("Node", "b"))
    source.get_or_create("Node", "c")
    copied = source.copy()
    before = dump_model(source)
    edited, kept = (source, copied) if writer == "source" else (copied, source)
    edited.add_to_many(edited.find("a"), "uses", "c")
    edited.remove_from_many(edited.find("a"), "uses", "b")
    assert dump_model(kept) == before
    assert edited.find("a").to_many == {"uses": {"c"}}
    assert edited.consistency_violations() == kept.consistency_violations() == []


def _registry_with_class(vtag: str = "1.0") -> ObjectRegistry:
    registry = ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    registry.set_attribute(registry.get_or_create("JavaClass", "x"), "vTag", vtag)
    return registry


def test_a_mutation_given_another_registrys_instance_writes_a_duplicate():
    owner, other = _registry_with_class(), ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    before = dump_model(owner)
    lent = owner.find("x")
    other.set_attribute(lent, "vTag", "9.0")
    other.set_link(lent, "pack", other.get_or_create("JavaPackage", "p"))
    assert dump_model(owner) == before and lent.to_one == {}
    written = other.find("x")
    assert written is not lent and other.frames["x"] is written
    assert written.attributes == {"vTag": "9.0"} and written.to_one == {"pack": "p"}
    assert other.consistency_violations() == owner.consistency_violations() == []


def test_an_instance_handed_out_by_a_gone_copy_stands_only_for_its_id():
    registry = _registry_with_class()
    twin = registry.copy()
    edited = twin.find("x")
    gone = weakref.ref(twin)
    del twin
    assert gone() is None
    edited.attributes["vTag"] = "2.0"
    built = copy.deepcopy(edited)
    registry.set_attribute(edited, "note", "n")
    assert registry.find("x").attributes == {"vTag": "1.0", "note": "n"}
    assert unchanged_and_unheld(registry, edited, built)


def test_an_instance_handed_out_before_a_copy_stands_only_for_its_id():
    registry = _registry_with_class()
    handed = registry.find("x")
    twin = registry.copy()
    registry.set_attribute(handed, "vTag", "2.0")
    assert handed.attributes == {"vTag": "1.0"} and twin.model_objects["x"] is handed
    for writer in (registry, twin):
        given = copy.deepcopy(handed)  # keeps the pre-copy stamp
        writer.set_attribute(given, "note", "n")
        assert writer.find("x") is not handed
        assert unchanged_and_unheld(writer, given, copy.deepcopy(handed))
    assert registry.find("x").attributes == {"vTag": "2.0", "note": "n"}
    assert twin.find("x").attributes == {"vTag": "1.0", "note": "n"}
    assert handed.attributes == {"vTag": "1.0"}


_WRITES = {
    "place": lambda r: r.place("JavaClass", "c0", "pack", "p0", "vTag", "2.0"),
    "set_attribute": lambda r: r.set_attribute(r.find("c0"), "vTag", "2.0"),
    "set_link": lambda r: r.set_link(r.find("p1"), "pPack", None),
    "add_to_many": lambda r: r.add_to_many(r.find("p0"), "classes", "c0"),
    "remove_from_many": lambda r: r.remove_from_many(r.find("p1"), "classes", "c0"),
    "remove_model_object": lambda r: r.remove_model_object("p1"),
    "register_parsed": lambda r: r.register_parsed(ModelObject("JavaClass", "c0")),
}


@pytest.mark.parametrize("write", list(_WRITES))
@pytest.mark.parametrize("writer", ["source", "copy"])
def test_a_write_on_either_side_of_a_copy_leaves_the_other_sides_entries_alone(writer, write):
    source = ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    source.place("JavaPackage", "p1", "pPack", "p0")
    source.place("JavaClass", "c0", "pack", "p1", "vTag", "1.0")
    copied = source.copy()
    edited, other = (source, copied) if writer == "source" else (copied, source)
    entries = (dict(other.model_objects), dict(other.frames))
    before = dump_model(other)
    _WRITES[write](edited)
    for table, held in zip((other.model_objects, other.frames), entries):
        assert table == held and all(table[id] is obj for id, obj in held.items())
    assert dump_model(other) == before
    assert dump_model(edited) != before or write == "register_parsed"
    assert edited.consistency_violations() == other.consistency_violations() == []


def test_a_deep_copy_of_a_registry_owns_its_instances():
    source = _registry_with_class()
    source.get_or_create("JavaClass", "y")
    deep = copy.deepcopy(source)
    before = dump_model(deep)
    source.set_attribute(deep.find("y"), "vTag", "9.0")
    assert dump_model(deep) == before
    deep.set_attribute(deep.find("x"), "vTag", "7.0")
    assert source.find("x").attributes == {"vTag": "1.0"}
    assert deep.find("x").attributes == {"vTag": "7.0"}
    # The deep copy's instances are its own: find hands them out as held.
    assert all(deep.find(id) is obj for id, obj in deep.model_objects.items())
    # A deep copy of one instance keeps its owner, and still only names its id.
    edited, built = copy.deepcopy(source.find("x")), copy.deepcopy(source.find("x"))
    source.set_attribute(edited, "vTag", "3.0")
    assert unchanged_and_unheld(source, edited, built)
    assert source.find("x").attributes == {"vTag": "3.0"}


# -- one name rule: a mutation's operands are ids, or instances naming one -------


def test_a_mutation_drops_the_raw_links_of_a_new_instance(registry):
    given = ModelObject("JavaClass", "x", to_one={"pack": "ghost"})
    registry.set_attribute(given, "vTag", "1")
    assert registry.consistency_violations() == []
    assert registry.frames["x"].to_one == {}
    assert unchanged_and_unheld(registry, given, ModelObject("JavaClass", "x", to_one={"pack": "ghost"}))
    registry.get_or_create("JavaClass", "x")
    assert dump_model(registry) == "JavaClass x {vTag=1} links{}\n"


def test_a_mutation_drops_the_links_of_another_registrys_instance():
    owner, other = ObjectRegistry(JAVA_PACKAGES_SCHEMA), ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    owner.set_link(owner.get_or_create("JavaClass", "c"), "pack", owner.get_or_create("JavaPackage", "q"))
    before = dump_model(owner)
    other.set_attribute(owner.find("c"), "vTag", "2")
    assert other.consistency_violations() == []
    assert other.find("c").to_one == {} and other.find("c").attributes == {"vTag": "2"}
    assert dump_model(owner) == before


def test_two_new_instances_of_one_id_as_object_and_target_link_consistently(registry):
    obj, target = ModelObject("JavaPackage", "x"), ModelObject("JavaPackage", "x")
    registry.set_link(obj, "pPack", target)
    assert registry.consistency_violations() == []
    held = registry.find("x")
    assert held.to_one == {"pPack": "x"} and held.to_many == {"subPackages": {"x"}}
    for given in (obj, target):
        assert unchanged_and_unheld(registry, given, ModelObject("JavaPackage", "x"))


_WRITING_NOTHING = {
    "set_attribute": lambda registry, x: registry.set_attribute(x, "vTag", ""),
    "set_link": lambda registry, x: registry.set_link(x, "pack", None),
    "remove_from_many": lambda registry, x: registry.remove_from_many(registry.find("org"), "classes", x),
}


@pytest.mark.parametrize("mutation", list(_WRITING_NOTHING))
def test_a_mutation_that_writes_nothing_holds_no_new_id(packages_editor, mutation):
    registry = packages_editor.registry
    before = _state(registry)
    _WRITING_NOTHING[mutation](registry, ModelObject("JavaClass", "x"))
    assert _state(registry) == before
    # So this replica takes in a peer's x of another type, as every other replica does.
    peer = Event("HaveSubUnit", id="x", time="2020-01-01T14:00:00.000Z", params={"parent": "org"})
    assert packages_editor.load([peer]) == 1
    assert registry.find("x").object_type == "JavaPackage"
    assert registry.consistency_violations() == []


_EMPTY_IDS = {
    "object": lambda registry: registry.set_link(ModelObject("JavaClass", ""), "pack", "org"),
    "attribute": lambda registry: registry.set_attribute(ModelObject("JavaClass", ""), "vTag", "1"),
    "target": lambda registry: registry.add_to_many(registry.find("org"), "classes", ModelObject("JavaClass", "")),
}


@pytest.mark.parametrize("mutation", list(_EMPTY_IDS))
def test_a_mutation_refuses_an_instance_with_an_empty_id(packages_editor, mutation):
    registry = packages_editor.registry
    before = _state(registry)
    with pytest.raises(UnknownObjectError, match="non-empty"):
        _EMPTY_IDS[mutation](registry)
    assert _state(registry) == before
    # At the parent the instance was held, and its parse stored a class without an id.
    assert packages_editor.parse(registry.changed_objects()) == 0


def _state(registry: ObjectRegistry):
    """Both maps (the identity and the contents of every instance) and the
    changed ids."""
    maps = [
        {key: (id(obj), copy.deepcopy(obj)) for key, obj in held.items()}
        for held in (registry.model_objects, registry.frames)
    ]
    return maps, registry.changed_ids


_KINDS = ["bare", "raw_linked", "foreign", "deep_copy"]


def _given(kind: str, registry: ObjectRegistry, object_type: str, id: str, lenders: list) -> ModelObject:
    """An instance of ``(object_type, id)`` of one kind, for a mutation of
    ``registry``: bare, with raw attributes and one-sided links, another
    live registry's (kept alive in ``lenders``), or a deep copy of the held
    instance (else of another registry's)."""
    if kind == "bare":
        return ModelObject(object_type, id)
    if kind == "raw_linked":
        links = {"pPack": "ghost"} if object_type == "JavaPackage" else {"pack": "ghost"}
        return ModelObject(object_type, id, {"vTag": "7", "note": ""}, links, {"classes": {"ghost", ""}})
    held = registry.find(id)
    if kind == "deep_copy" and held is not None and held.object_type == object_type:
        return copy.deepcopy(held)
    lender = ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    lenders.append(lender)
    lent = lender.get_or_create(object_type, id)
    lender.set_attribute(lent, "note", "lent")
    if object_type == "JavaPackage":
        lender.set_link(lent, "pPack", lender.get_or_create("JavaPackage", "lender-root"))
    return copy.deepcopy(lent) if kind == "deep_copy" else lent


_FAILING_MUTATIONS = {
    # set_attribute takes no target, so it fails on the given instance's type.
    "set_attribute/type": lambda r, given: r.set_attribute(given("JavaPackage", "Editor"), "vTag", "9"),
    "set_link/unknown": lambda r, given: r.set_link(given("JavaPackage", "fulib"), "pPack", "nowhere"),
    "set_link/type": lambda r, given: r.set_link(given("JavaPackage", "fulib"), "pPack", "Editor"),
    "set_link/new_unknown": lambda r, given: r.set_link(given("JavaPackage", "n"), "pPack", "nowhere"),
    # The target would pass alone; the given object's type fails.
    "set_link/object_type": lambda r, given: r.set_link(
        given("JavaPackage", "Editor"), "pPack", ModelObject("JavaPackage", "n")
    ),
    # The held target passes; the given object's type fails after it.
    "set_link/object_type_held_target": lambda r, given: r.set_link(
        given("JavaPackage", "Editor"), "pPack", given("JavaPackage", "org")
    ),
    "add_to_many/unknown": lambda r, given: r.add_to_many(given("JavaPackage", "fulib"), "subPackages", "nowhere"),
    "add_to_many/type": lambda r, given: r.add_to_many(
        given("JavaPackage", "n"), "classes", ModelObject("JavaClass", "org")
    ),
    "remove_from_many/unknown": lambda r, given: r.remove_from_many(
        given("JavaPackage", "org"), "subPackages", "nowhere"
    ),
    "remove_from_many/type": lambda r, given: r.remove_from_many(
        given("JavaPackage", "org"), "subPackages", given("JavaPackage", "Editor")
    ),
}


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("mutation", list(_FAILING_MUTATIONS))
def test_a_mutation_that_raises_changes_nothing(kind, mutation):
    registry = _tree()
    before = _state(registry)
    lenders: list[ObjectRegistry] = []
    with pytest.raises((UnknownObjectError, TypeConflictError)):
        _FAILING_MUTATIONS[mutation](registry, lambda t, id: _given(kind, registry, t, id, lenders))
    assert _state(registry) == before


_POOL = {"p0": "JavaPackage", "p1": "JavaPackage", "p2": "JavaPackage", "c0": "JavaClass", "c1": "JavaClass"}
_LINKS = {
    "JavaPackage": [("pPack", "JavaPackage"), ("subPackages", "JavaPackage"), ("classes", "JavaClass")],
    "JavaClass": [("pack", "JavaPackage")],
}


_OPERANDS = ["held", "id", "stale", *_KINDS]


@st.composite
def _operand_steps(draw):
    kinds = st.sampled_from(_OPERANDS)
    steps = []
    for _ in range(draw(st.integers(0, 12))):
        id = draw(st.sampled_from(sorted(_POOL)))
        link, target_type = draw(st.sampled_from(_LINKS[_POOL[id]]))
        target_ids = [t for t, type_ in sorted(_POOL.items()) if type_ == target_type] + ["ghost"]
        targets = st.sampled_from(target_ids)
        target = draw(st.one_of(st.none(), targets, st.tuples(kinds, targets)))
        value = draw(st.sampled_from(["", "1", "2"]))
        steps.append((draw(st.sampled_from(["attribute", "link"])), draw(kinds), id, link, target, value))
    return steps


def _step(registry: ObjectRegistry, action: str, obj, link: str, target, value: str) -> type | None:
    """One mutation; the type of the error it raised, or None."""
    try:
        if action == "attribute":
            registry.set_attribute(obj, "vTag", value)
        elif link in ("pPack", "pack"):
            registry.set_link(obj, link, target)
        elif target is not None and value:
            registry.add_to_many(obj, link, target)
        elif target is not None:
            registry.remove_from_many(obj, link, target)
    except (UnknownObjectError, TypeConflictError) as exc:
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(_operand_steps())
def test_mutations_keep_every_link_two_sided_whatever_instances_they_are_given(steps):
    # Each step runs twice: on the registry with the operand of its kind,
    # and on a reference with the plain id, or a bare instance for a new id.
    registry, reference = ObjectRegistry(JAVA_PACKAGES_SCHEMA), ObjectRegistry(JAVA_PACKAGES_SCHEMA)
    lenders: list[ObjectRegistry] = []
    copies: list[tuple[ObjectRegistry, str]] = []
    # Each given instance but a held one, and its copy from when it was given.
    kept: list[tuple[ModelObject, ModelObject]] = []
    built: list[ModelObject] = []  # those the test built, which no map may hold

    def given(kind: str, id: str) -> ModelObject | str:
        object_type = _POOL.get(id, "JavaPackage")
        held = registry.find(id)
        if held is not None and kind in ("held", "id", "stale"):
            if kind == "stale":  # handed out before a copy that stays alive
                copies.append((registry.copy(), dump_model(registry)))
                kept.append((held, copy.deepcopy(held)))
            return id if kind == "id" else held
        instance = _given(kind if kind in _KINDS else "bare", registry, object_type, id, lenders)
        built.append(instance)
        kept.append((instance, copy.deepcopy(instance)))
        return instance

    def plain(id: str) -> ModelObject | str:
        return id if reference.find(id) is not None else ModelObject(_POOL.get(id, "JavaPackage"), id)

    for action, kind, id, link, target, value in steps:
        obj, plain_target = given(kind, id), target
        if isinstance(target, tuple):
            target, plain_target = given(*target), plain(target[1])
        registry.clear_changes()
        reference.clear_changes()
        before = _state(registry)
        outcome = _step(registry, action, obj, link, target, value)
        assert outcome == _step(reference, action, plain(id), link, plain_target, value)
        if outcome is not None:
            assert _state(registry) == before
        assert dump_model(registry) == dump_model(reference)
        assert (registry.model_objects, registry.frames) == (reference.model_objects, reference.frames)
        assert registry.changed_ids == reference.changed_ids
        assert registry.consistency_violations() == []
        # A new id joins the maps only when the step writes it.
        assert {*registry.model_objects, *registry.frames} <= {*before[0][0], *before[0][1], *registry.changed_ids}
        for held in [*registry.model_objects.values(), *registry.frames.values()]:
            assert all(held.attributes.values()) and all(held.to_one.values()) and all(held.to_many.values())
            assert all(held is not instance for instance in built)
        assert all(instance == as_given and instance._owner == as_given._owner for instance, as_given in kept)
    for copied, dump in copies:
        assert dump_model(copied) == dump
    for lender in lenders:
        assert lender.consistency_violations() == []
        assert all(obj.attributes == {"note": "lent"} for obj in lender.model_objects.values() if obj.id in _POOL)
