"""The in-memory model: id-bearing objects, bidirectional links, and the
two-map registry that governs object identity and lifecycle.

Each known id lives in exactly one of two maps.  ``model_objects`` holds
fully initialized objects; ``frames`` holds context-only stand-ins: ids some
command referenced before (or without) a creating command, and directly
created objects a mutation wrote.  Only the registry puts an instance in
these maps: a mutation's operands are names, and an instance handed to one
stands only for its type and id.  A copy of a registry shares its instances
until either side writes one, and the writer duplicates it first
(copy-on-write, see :class:`ObjectRegistry`).
"""

from __future__ import annotations

import copy
import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable

from .events import CesError, _quoted


class SchemaError(CesError):
    pass


class TypeConflictError(CesError):
    pass


class UnknownObjectError(CesError):
    pass


# Each registry draws its ownership stamp from this one counter.
_stamps = itertools.count(1)


@dataclass(slots=True)
class ModelObject:
    """An id-bearing node: attribute map, to-one links, and to-many link sets.

    Links hold target ids, never object references; empty values are
    canonicalized away (no empty-string attributes, no empty link entries).
    The class is slotted, so an instance has no ``__dict__``.
    """

    object_type: str
    id: str
    attributes: dict[str, str] = field(default_factory=dict)
    to_one: dict[str, str] = field(default_factory=dict)
    to_many: dict[str, set[str]] = field(default_factory=dict)

    # The stamp of the registry that made this instance, which writes it in
    # place while that stamp is its current one (see ObjectRegistry); None
    # for an instance no registry made.  Equality, repr and the constructor
    # ignore it.
    _owner: int | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Association:
    """One association: a forward end on the source type, a reverse end on
    the target type, each either to-one or to-many, but not both to-one."""

    source_type: str
    forward: str
    forward_many: bool
    target_type: str
    reverse: str
    reverse_many: bool


@dataclass(frozen=True)
class LinkEnd:
    """A link name as seen from one side of an association."""

    owner_type: str
    name: str
    many: bool
    other_type: str
    other_name: str
    other_many: bool


class AssociationSchema:
    """Declares every link name of a metamodel exactly once."""

    def __init__(self, associations: Iterable[Association]):
        self.associations = tuple(associations)
        self._ends: dict[str, LinkEnd] = {}
        for a in self.associations:
            if not (a.forward_many or a.reverse_many):
                raise SchemaError(f"association {a.forward!r} is one-to-one; not supported")
            for end in (
                LinkEnd(a.source_type, a.forward, a.forward_many, a.target_type, a.reverse, a.reverse_many),
                LinkEnd(a.target_type, a.reverse, a.reverse_many, a.source_type, a.forward, a.forward_many),
            ):
                if end.name in self._ends:
                    raise SchemaError(f"link name {end.name!r} declared twice")
                self._ends[end.name] = end

    def end(self, link: str) -> LinkEnd:
        try:
            return self._ends[link]
        except KeyError:
            raise SchemaError(f"unknown link name {link!r}") from None

    def end_for(self, object_type: str, link: str) -> LinkEnd:
        end = self.end(link)
        if end.owner_type != object_type:
            raise SchemaError(
                f"link {link!r} belongs to {end.owner_type}, not {object_type}"
            )
        return end


def _duplicate(obj: ModelObject, owner: int) -> ModelObject:
    """A new object with its own attribute and link dicts and link sets,
    owned by ``owner``."""
    copied = ModelObject(
        obj.object_type,
        obj.id,
        dict(obj.attributes),
        dict(obj.to_one),
        {link: set(ids) for link, ids in obj.to_many.items()},
    )
    copied._owner = owner
    return copied


class ObjectRegistry:
    """Two disjoint id-keyed maps plus a change set fed by every mutation.

    All attribute and link edits go through the registry so that both link
    ends stay consistent and changed objects are tracked for incremental
    parsing.  A mutation takes each operand as a name (see :meth:`_take`)
    and edits the instance this registry holds or makes for it.

    :meth:`copy` is copy-on-write.  Every held instance carries a
    registry's stamp, and a registry writes in place only the instances
    that carry its current stamp.  Whatever hands an instance out
    (:meth:`find`, and through it :meth:`get_or_create`,
    :meth:`get_object_frame`, :meth:`changed_objects` and the mutations)
    first swaps any other one for a duplicate it stamps.  :meth:`copy`
    re-stamps both sides, so an instance handed out before a copy keeps
    the copy-time state, and later writes land in a duplicate that
    :meth:`find` returns.  No registry writes another's maps or
    instances, so a registry and its copies need no shared lock.
    """

    def __init__(self, schema: AssociationSchema):
        self.schema = schema
        self.model_objects: dict[str, ModelObject] = {}
        self.frames: dict[str, ModelObject] = {}
        # Changed ids in first-mutation order (a dict used as an ordered set).
        self._changed: dict[str, None] = {}
        self._stamp = next(_stamps)

    # -- lookup and lifecycle -------------------------------------------------

    def find(self, id: str) -> ModelObject | None:
        """The instance held for ``id``, owned by this registry, or None."""
        obj = self.model_objects.get(id) or self.frames.get(id)
        if obj is None or obj._owner == self._stamp:
            return obj
        return self._hold(_duplicate(obj, self._stamp))

    def _hold(self, obj: ModelObject) -> ModelObject:
        """Put ``obj`` in place of the instance held for its id, in the map
        holding the id, else the frames."""
        (self.model_objects if obj.id in self.model_objects else self.frames)[obj.id] = obj
        return obj

    def _create(self, object_type: str, id: str) -> ModelObject:
        obj = ModelObject(object_type, id)
        obj._owner = self._stamp
        return obj

    def _checked(self, obj: ModelObject, object_type: str) -> ModelObject:
        if obj.object_type != object_type:
            raise TypeConflictError(
                f"id {obj.id!r} is a {obj.object_type}, requested {object_type}"
            )
        return obj

    def get_object_frame(self, object_type: str, id: str) -> ModelObject:
        """Fetch the object for a context reference from either map, never
        promoting it; a miss creates a frame."""
        if not id:
            raise UnknownObjectError("object id must be non-empty")
        obj = self.find(id)
        if obj is not None:
            return self._checked(obj, object_type)
        obj = self.frames[id] = self._create(object_type, id)
        return obj

    def get_or_create(self, object_type: str, id: str) -> ModelObject:
        """Fetch or create the object as a full model object (promoting a
        frame if one exists)."""
        if not id:
            raise UnknownObjectError("object id must be non-empty")
        obj = self._checked(self.find(id) or self._create(object_type, id), object_type)
        self.frames.pop(id, None)
        self.model_objects[id] = obj
        return obj

    def check_types(self, *wanted: tuple[str, str]) -> None:
        """Raise :class:`TypeConflictError` unless every ``(type, id)`` pair,
        two naming one id included, can be fetched as that type; mutates
        nothing, so a command calls it before its first mutation."""
        requested: dict[str, str] = {}
        for object_type, id in wanted:
            obj = self.model_objects.get(id) or self.frames.get(id)
            known = obj.object_type if obj is not None else requested.setdefault(id, object_type)
            if known != object_type:
                raise TypeConflictError(f"id {id!r} is a {known}, requested {object_type}")

    def place(
        self, object_type: str, id: str, link: str, parent: str | None, attribute: str = "", value: str = ""
    ) -> None:
        """Write a tree increment: fetch or create ``id`` as a full model
        object (promoting a frame), point its to-one ``link`` at the object
        of the id ``parent``, fetched or created as a frame (None clears the
        link), and set ``attribute`` to ``value`` unless ``attribute`` is
        empty.  This is what :meth:`get_or_create`, :meth:`get_object_frame`,
        :meth:`set_link` and :meth:`set_attribute` would do in turn, with one
        lookup per id.  Both ids are type-checked, as :meth:`check_types`
        does, before the first write, so a placement that fails leaves the
        registry untouched."""
        models, frames, stamp = self.model_objects, self.frames, self._stamp
        end = self.schema.end_for(object_type, link)
        if end.many:
            raise SchemaError(f"link {link!r} is to-many; use add_to_many")
        if not id or parent == "":
            raise UnknownObjectError("object id must be non-empty")
        wanted = end.other_type
        obj = models.get(id) or frames.get(id)
        known = object_type if obj is None else obj.object_type
        if known != object_type:
            raise TypeConflictError(f"id {id!r} is a {known}, requested {object_type}")
        if parent is not None:
            target = models.get(parent) or frames.get(parent)
            if target is not None:
                known = target.object_type
            else:  # a new parent id, unless it is the new ``id`` itself
                known = object_type if parent == id else wanted
            if known != wanted:
                raise TypeConflictError(f"id {parent!r} is a {known}, requested {wanted}")
        changed = self._changed
        if obj is None:
            obj = models[id] = self._create(object_type, id)
        else:
            if obj._owner != stamp:
                obj = self._hold(_duplicate(obj, stamp))
            if models.get(id) is not obj:  # promote a frame
                del frames[id]
                models[id] = obj
        old = obj.to_one.get(link)
        if old != parent:
            if old is not None:
                holder = self.find(old)
                if holder is not None:
                    self._discard(holder, end.other_name, id)
                    changed[old] = None
                del obj.to_one[link]
            if parent is not None:
                if parent == id:
                    target = obj
                elif target is None:
                    target = frames[parent] = self._create(wanted, parent)
                elif target._owner != stamp:
                    target = self._hold(_duplicate(target, stamp))
                obj.to_one[link] = parent
                target.to_many.setdefault(end.other_name, set()).add(id)
                changed[parent] = None
            changed[id] = None
        if attribute and (
            obj.attributes.get(attribute) != value if value else attribute in obj.attributes
        ):
            if value:
                obj.attributes[attribute] = value
            else:
                del obj.attributes[attribute]
            changed[id] = None

    def remove_model_object(self, id: str) -> ModelObject | None:
        """Demote a model object to a frame, which may still serve as
        context; returns the frame of the id, or None if it was never known."""
        obj = self.model_objects.pop(id, None)
        if obj is not None:
            self.frames[id] = obj
        return self.find(id)

    def register_parsed(self, obj: ModelObject) -> None:
        """:meth:`get_object_frame` for the type and id of ``obj``."""
        self.get_object_frame(obj.object_type, obj.id)

    def copy(self) -> "ObjectRegistry":
        """A copy-on-write twin: new maps and a new change set that share
        the schema and every instance with this registry.  The twin draws a
        stamp of its own and this registry a fresh one, so neither owns an
        instance they share, and each duplicates it on its first write."""
        copied = ObjectRegistry(self.schema)
        copied.model_objects = dict(self.model_objects)
        copied.frames = dict(self.frames)
        copied._changed = dict(self._changed)
        self._stamp = next(_stamps)
        return copied

    def __deepcopy__(self, memo) -> "ObjectRegistry":
        """A deep copy that shares no instance: it draws a stamp of its own
        and owns a duplicate of each instance."""
        copied = memo[id(self)] = ObjectRegistry(copy.deepcopy(self.schema, memo))
        pairs = ((self.model_objects, copied.model_objects), (self.frames, copied.frames))
        for source, target in pairs:
            for key, obj in source.items():
                target[key] = _duplicate(obj, copied._stamp)
        copied._changed = dict(self._changed)
        return copied

    # -- change tracking ------------------------------------------------------

    @property
    def changed_ids(self) -> set[str]:
        return set(self._changed)

    def changed_objects(self) -> list[ModelObject]:
        """The objects of the changed ids, in first-mutation order."""
        return [self.find(id) for id in self._changed]

    def clear_changes(self) -> None:
        self._changed.clear()

    def _mark(self, obj: ModelObject) -> None:
        self._changed[obj.id] = None

    def _writable(self, obj: ModelObject) -> None:
        """Before a mutation writes ``obj`` in place: hold it if its id is
        new, so a mutation that writes nothing holds no new id."""
        if obj.id not in self.model_objects and obj.id not in self.frames:
            self.frames[obj.id] = obj

    # -- attribute and link mutation -------------------------------------------

    def set_attribute(self, obj: ModelObject | str, name: str, value: str) -> None:
        """Set an attribute; an empty value removes it (absent and empty are
        one canonical state)."""
        obj = self._take(obj)[1]
        if obj.attributes.get(name) != value if value else name in obj.attributes:
            self._writable(obj)
            if value:
                obj.attributes[name] = value
            else:
                del obj.attributes[name]
            self._mark(obj)

    def _take(
        self, obj: ModelObject | str, link: str = "", many: bool = False, target: ModelObject | str | None = None
    ) -> tuple[LinkEnd | None, ModelObject, ModelObject | None]:
        """A mutation's operands, checked before any write: the end of
        ``obj``'s ``link`` (None for an attribute), to-many exactly when
        ``many``, and the instances this registry writes for the names
        ``obj`` and ``target`` (None for no target).  A name is a held id,
        or an instance that stands only for its type and id and is itself
        never read, written or held.  A held id resolves to what
        :meth:`find` returns; an instance of an unknown id resolves to a
        bare one this registry makes, which joins the frames only at the
        mutation's first write (see :meth:`_writable`).  An unknown or
        empty id and a type other than the held one or the link's raise."""
        wanted = []  # (type, id) of obj, target, and the type target's link end wants
        for name in [obj] if target is None else [obj, target]:
            if isinstance(name, str):
                if (held := self.model_objects.get(name) or self.frames.get(name)) is None:
                    raise UnknownObjectError(f"unknown object id {name!r}")
                wanted.append((held.object_type, name))
            elif not name.id:
                raise UnknownObjectError("object id must be non-empty")
            else:
                wanted.append((name.object_type, name.id))
        end = self.schema.end_for(wanted[0][0], link) if link else None
        if end is not None and end.many != many:
            hint = "many; use add_to_many" if end.many else "one; use set_link"
            raise SchemaError(f"link {link!r} is to-{hint}")
        if target is not None:
            wanted.append((end.other_type, wanted[1][1]))
        self.check_types(*wanted)
        taken = {id: self.find(id) or self._create(object_type, id) for object_type, id in wanted[:2]}
        return end, taken[wanted[0][1]], None if target is None else taken[wanted[1][1]]

    def _discard(self, holder: ModelObject, link: str, id: str) -> None:
        """Drop ``id`` from a to-many link set; an emptied set goes too."""
        members = holder.to_many.get(link)
        if members is not None:
            members.discard(id)
            if not members:
                del holder.to_many[link]

    def set_link(self, obj: ModelObject | str, link: str, target: ModelObject | str | None) -> None:
        """Point a to-one link at ``target`` (object, id, or None to clear),
        keeping the reverse end consistent.  Reassignment detaches the old
        target first."""
        end, obj, target_obj = self._take(obj, link, False, target)
        old_id = obj.to_one.get(link)
        new_id = target_obj.id if target_obj is not None else None
        if old_id == new_id:
            return
        self._writable(obj)
        if old_id is not None:
            old_obj = self.find(old_id)
            if old_obj is not None:
                self._discard(old_obj, end.other_name, obj.id)
                self._mark(old_obj)
            del obj.to_one[link]
        if target_obj is not None:
            obj.to_one[link] = target_obj.id
            self._writable(target_obj)
            target_obj.to_many.setdefault(end.other_name, set()).add(obj.id)
            self._mark(target_obj)
        self._mark(obj)

    def unset_link(self, obj: ModelObject | str, link: str) -> None:
        self.set_link(obj, link, None)

    def add_to_many(self, obj: ModelObject | str, link: str, target: ModelObject | str) -> None:
        """Add ``target`` to a to-many link set.  If the reverse end is
        to-one this is the reverse view of a reassignment and delegates to
        :meth:`set_link`."""
        end, holder, member = self._take(obj, link, True, target)
        if not end.other_many:
            self.set_link(target, end.other_name, obj)
            return
        if member.id in holder.to_many.get(link, ()):
            return
        self._writable(holder)
        self._writable(member)
        holder.to_many.setdefault(link, set()).add(member.id)
        member.to_many.setdefault(end.other_name, set()).add(holder.id)
        self._mark(holder)
        self._mark(member)

    def remove_from_many(self, obj: ModelObject | str, link: str, target: ModelObject | str) -> None:
        end, obj, target_obj = self._take(obj, link, True, target)
        if not end.other_many:
            if target_obj.to_one.get(end.other_name) == obj.id:
                self.set_link(target_obj, end.other_name, None)
            return
        if target_obj.id not in obj.to_many.get(link, ()):
            return
        self._discard(target_obj, end.other_name, obj.id)
        self._discard(obj, link, target_obj.id)
        self._mark(obj)
        self._mark(target_obj)

    # -- consistency audit -----------------------------------------------------

    def consistency_violations(self) -> list[str]:
        """Full graph scan: every link must be declared, typed correctly, and
        mirrored on its reverse end."""
        problems = []
        everything = {**self.frames, **self.model_objects}
        for obj in everything.values():
            entries = [(k, (v,)) for k, v in obj.to_one.items()]
            entries += [(k, tuple(sorted(v))) for k, v in obj.to_many.items()]
            for link, targets in entries:
                try:
                    end = self.schema.end_for(obj.object_type, link)
                except SchemaError as exc:
                    problems.append(f"{obj.id}: {exc}")
                    continue
                if end.many != (link in obj.to_many):
                    problems.append(f"{obj.id}: link {link} stored with wrong cardinality")
                for target_id in targets:
                    other = everything.get(target_id)
                    if other is None:
                        problems.append(f"{obj.id}: link {link} targets unknown id {target_id!r}")
                        continue
                    if other.object_type != end.other_type:
                        problems.append(
                            f"{obj.id}: link {link} targets {other.object_type} {target_id!r}"
                        )
                        continue
                    if end.other_many:
                        back = obj.id in other.to_many.get(end.other_name, ())
                    else:
                        back = other.to_one.get(end.other_name) == obj.id
                    if not back:
                        problems.append(
                            f"{obj.id}: link {link}->{target_id} missing reverse {end.other_name}"
                        )
        return problems


# ---------------------------------------------------------------------------
# Model comparison
# ---------------------------------------------------------------------------


@dataclass
class ModelDiff:
    """Differences decide equality; warnings report asymmetric leftover
    frames (creation commands that never arrived)."""

    differences: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _links(obj: ModelObject) -> dict[str, str | set[str]]:
    """The canonical links of ``obj``: empty entries dropped, and a to-many
    entry winning over a to-one of its name (as in dump_model)."""
    links: dict[str, str | set[str]] = {k: v for k, v in obj.to_one.items() if v}
    links.update({k: v for k, v in obj.to_many.items() if v})
    return links


def _render(value: str | set[str] | None) -> str:
    if isinstance(value, set):
        return "{" + ",".join(sorted(value)) + "}"
    return repr(value) if value is None else value


def model_diff(a: ObjectRegistry, b: ObjectRegistry) -> ModelDiff:
    """Compare the model objects of two registries; frames are excluded from
    equality but reported as warnings when asymmetric.  A shared id whose
    two instances are one object (as after :meth:`ObjectRegistry.copy`,
    until one side writes it) is skipped without a comparison."""
    diff = ModelDiff()
    objects_a, objects_b = a.model_objects, b.model_objects
    for id in sorted(objects_a.keys() - objects_b.keys()):
        diff.differences.append(f"only in a: {objects_a[id].object_type} {id}")
    for id in sorted(objects_b.keys() - objects_a.keys()):
        diff.differences.append(f"only in b: {objects_b[id].object_type} {id}")
    # Raw equality (type, id, attributes, links) implies canonical equality,
    # so only the attributes or links of an object that differ raw are
    # canonicalized; an empty attribute or link set may still compare equal.
    mismatched = [
        id
        for id, oa in objects_a.items()
        if (ob := objects_b.get(id)) is not None and oa is not ob and oa != ob
    ]
    for id in sorted(mismatched):
        oa, ob = objects_a[id], objects_b[id]
        if oa.object_type != ob.object_type:
            diff.differences.append(
                f"{id}: type differs: {oa.object_type} != {ob.object_type}"
            )
            continue
        if oa.attributes != ob.attributes:
            for key in sorted(oa.attributes.keys() | ob.attributes.keys()):
                value_a, value_b = oa.attributes.get(key) or "", ob.attributes.get(key) or ""
                if value_a != value_b:
                    diff.differences.append(f"{id}: attribute {key!r} differs: {value_a!r} != {value_b!r}")
        if oa.to_one != ob.to_one or oa.to_many != ob.to_many:
            links_a, links_b = _links(oa), _links(ob)
            for key in sorted(links_a.keys() | links_b.keys()):
                if links_a.get(key) != links_b.get(key):
                    diff.differences.append(
                        f"{id}: link {key} differs: "
                        f"{_render(links_a.get(key))} != {_render(links_b.get(key))}"
                    )
    for id in sorted(a.frames.keys() - b.frames.keys()):
        diff.warnings.append(f"frame only in a: {id}")
    for id in sorted(b.frames.keys() - a.frames.keys()):
        diff.warnings.append(f"frame only in b: {id}")
    return diff


def model_equal(a: ObjectRegistry, b: ObjectRegistry) -> bool:
    return not model_diff(a, b).differences


# The fields dump_model quotes: those holding a row or field delimiter, and ids
# also holding a space or "->".  So two models that differ never dump alike.
_DELIMITED = re.compile(r'[\n\r"\\,={}]')
_DELIMITED_ID = re.compile(r'[\n\r"\\,={} ]')


def _field(text: str) -> str:
    return text if _DELIMITED.search(text) is None else _quoted(text)


def dump_model(registry: ObjectRegistry) -> str:
    """Deterministic one-line-per-object dump, used for golden-file tests.

    Format: ``TYPE id {attr=val,...} links{name->id,name->{ids}}`` with ids
    and link names ascending; a field that holds a delimiter is written in
    the codec's quoted form.
    """
    lines = []
    objects = registry.model_objects
    # Check each held id once, not in every row and link: a link names a held id.
    quoted = {id: _quoted(id) for id in [*objects, *registry.frames] if _DELIMITED_ID.search(id) or "->" in id}.get
    for id in sorted(objects):
        obj = objects[id]
        attrs = ",".join([f"{_field(k)}={_field(v)}" for k, v in sorted(obj.attributes.items()) if v])
        # As in _links, a to-many entry wins over a to-one of its name.
        links = {k: quoted(v, v) for k, v in obj.to_one.items() if v}
        for k, v in obj.to_many.items():
            if v:
                links[k] = "{" + ",".join([quoted(t, t) for t in sorted(v)]) + "}"
        rendered = ",".join([f"{k}->{v}" for k, v in sorted(links.items())])
        lines.append(f"{obj.object_type} {quoted(id, id)} {{{attrs}}} links{{{rendered}}}")
    return "\n".join(lines) + ("\n" if lines else "")
