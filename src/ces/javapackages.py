"""Reference metamodel A: JavaPackage trees with JavaClass leaves.

Commands: HaveRoot detaches a package from any parent, HaveSubUnit hangs a
package under a parent, HaveLeaf places a class in a package and stamps its
vTag.  Each command's increment is the core object plus its upward link, so
distinct-id commands never touch the same attribute or link.  The handlers
take their type, link and attribute names from a :class:`Tree`, so the
javadoc domain reuses them for its folders.
"""

from __future__ import annotations

from dataclasses import dataclass

from .editor import CommandError, CommandHandler, Domain, Editor
from .events import Event
from .objects import Association, AssociationSchema, ModelObject, ObjectRegistry


@dataclass(frozen=True)
class Tree:
    """The names of a tree metamodel: containers hang under a container by
    ``up`` (reverse ``down``), leaves under a container by ``leaf_up``
    (reverse ``leaves``), and each leaf keeps the event's vTag in
    ``leaf_attribute``."""

    container: str
    up: str
    down: str
    leaf: str
    leaf_up: str
    leaves: str
    leaf_attribute: str

    def schema(self) -> AssociationSchema:
        return AssociationSchema(
            [
                Association(self.container, self.up, False, self.container, self.down, True),
                Association(self.leaf, self.leaf_up, False, self.container, self.leaves, True),
            ]
        )


PACKAGES = Tree("JavaPackage", "pPack", "subPackages", "JavaClass", "pack", "classes", "vTag")

JAVA_PACKAGES_SCHEMA = PACKAGES.schema()


def _parent(event: Event) -> str:
    """The event's parent id; a handler reads it before any mutation, so a
    command that fails leaves the model untouched."""
    parent = event.params.get("parent")
    if not parent:
        raise CommandError(f"{event.type_tag} {event.id!r}: missing 'parent' param")
    return parent


def detach(registry: ObjectRegistry, id: str, up: str) -> None:
    """Demote the object to a frame and clear its upward link ``up``."""
    obj = registry.remove_model_object(id)
    if obj is not None:
        registry.set_link(obj, up, None)


class TreeHandler(CommandHandler):
    def __init__(self, tree: Tree):
        self.tree = tree


class HaveRoot(TreeHandler):
    type_tag = "HaveRoot"

    def run(self, editor: Editor, event: Event) -> None:
        editor.registry.place(self.tree.container, event.id, self.tree.up, None)

    def parse(self, obj: ModelObject) -> Event | None:
        tree = self.tree
        if obj.object_type != tree.container or obj.to_one.get(tree.up):
            return None
        if not obj.to_many.get(tree.down) and not obj.to_many.get(tree.leaves):
            # Isolated and empty: nothing references it, collect it.
            return Event("RemoveCommand", id=obj.id)
        return Event("HaveRoot", id=obj.id)


class HaveSubUnit(TreeHandler):
    type_tag = "HaveSubUnit"

    def run(self, editor: Editor, event: Event) -> None:
        editor.registry.place(self.tree.container, event.id, self.tree.up, _parent(event))

    def remove(self, editor: Editor, event: Event) -> None:
        detach(editor.registry, event.id, self.tree.up)

    def parse(self, obj: ModelObject) -> Event | None:
        if obj.object_type != self.tree.container or not obj.to_one.get(self.tree.up):
            return None
        return Event("HaveSubUnit", id=obj.id, params={"parent": obj.to_one[self.tree.up]})


class HaveLeaf(TreeHandler):
    type_tag = "HaveLeaf"

    def run(self, editor: Editor, event: Event) -> None:
        tree = self.tree
        vtag = event.params.get("vTag", "")
        editor.registry.place(tree.leaf, event.id, tree.leaf_up, _parent(event), tree.leaf_attribute, vtag)

    def remove(self, editor: Editor, event: Event) -> None:
        detach(editor.registry, event.id, self.tree.leaf_up)

    def parse(self, obj: ModelObject) -> Event | None:
        if obj.object_type != self.tree.leaf:
            return None
        parent = obj.to_one.get(self.tree.leaf_up)
        if not parent:
            # A leaf without a container is garbage, same as an empty root.
            return Event("RemoveCommand", id=obj.id)
        return Event(
            "HaveLeaf",
            id=obj.id,
            params={"parent": parent, "vTag": obj.attributes.get(self.tree.leaf_attribute, "")},
        )


JAVA_PACKAGES = Domain(
    name="javapackages",
    schema=JAVA_PACKAGES_SCHEMA,
    handlers=(HaveRoot(PACKAGES), HaveSubUnit(PACKAGES), HaveLeaf(PACKAGES)),
)
