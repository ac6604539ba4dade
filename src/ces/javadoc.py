"""Reference metamodel B: Folder trees with DocFiles.

The packages domain's HaveRoot/HaveSubUnit/HaveLeaf handlers over a folder
tree, plus one addition: a sub-folder owns a describing DocFile named
"<id>.Doc" (created by HaveSubUnit, removed again by HaveRoot).  The
local-only HaveContent command fills DocFile content; it lives in its own
store scope because it shares the DocFile's id with HaveLeaf while editing a
disjoint slice of it, and it is excluded from synchronization by default.
Describing-file ids belong to the folder's HaveSubUnit: HaveLeaf and
HaveContent refuse them.
"""

from __future__ import annotations

from . import javapackages
from .editor import CommandError, CommandHandler, Domain, Editor
from .events import Event
from .objects import ModelObject

DOC_SUFFIX = ".Doc"

FOLDERS = javapackages.Tree("Folder", "pFolder", "subFolders", "DocFile", "folder", "files", "version")

JAVA_DOC_SCHEMA = FOLDERS.schema()


class HaveRoot(javapackages.HaveRoot):
    def run(self, editor: Editor, event: Event) -> None:
        super().run(editor, event)
        files = editor.registry.model_objects[event.id].to_many.get(FOLDERS.leaves, ())
        if event.id + DOC_SUFFIX in files:
            # A root folder is not described by a DocFile; a previous
            # HaveSubUnit may have left one behind.
            javapackages.detach(editor.registry, event.id + DOC_SUFFIX, FOLDERS.leaf_up)


class HaveSubUnit(javapackages.HaveSubUnit):
    def run(self, editor: Editor, event: Event) -> None:
        registry = editor.registry
        doc = event.id + DOC_SUFFIX
        # The folder's placement checks the folder and its parent; this
        # check keeps the describing file's placement from failing after it.
        registry.check_types((FOLDERS.container, javapackages._parent(event)), (FOLDERS.leaf, doc))
        super().run(editor, event)
        registry.place(FOLDERS.leaf, doc, FOLDERS.leaf_up, event.id, "content", f"{event.id} docu")

    def remove(self, editor: Editor, event: Event) -> None:
        super().remove(editor, event)
        javapackages.detach(editor.registry, event.id + DOC_SUFFIX, FOLDERS.leaf_up)


class HaveLeaf(javapackages.HaveLeaf):
    def run(self, editor: Editor, event: Event) -> None:
        if event.id.endswith(DOC_SUFFIX):
            # Describing DocFiles belong to their folder's HaveSubUnit; a
            # second writer of the folder link would break commutativity.
            raise CommandError(f"HaveLeaf may not target describing file {event.id!r}")
        super().run(editor, event)

    def parse(self, obj: ModelObject) -> Event | None:
        if obj.id.endswith(DOC_SUFFIX):
            # Describing DocFiles belong to their folder's HaveSubUnit
            # increment and never parse on their own.
            return None
        return super().parse(obj)


class HaveContent(CommandHandler):
    """Local-only content for a DocFile; never creates model objects, so a
    content event arriving before (or after the removal of) its DocFile only
    paints a frame."""

    type_tag = "HaveContent"
    store_scope = "content"

    def run(self, editor: Editor, event: Event) -> None:
        if event.id.endswith(DOC_SUFFIX):
            # Describing files get their content from the folder's
            # HaveSubUnit; a second writer would break commutativity.
            raise CommandError(f"HaveContent may not target describing file {event.id!r}")
        doc = editor.registry.get_object_frame("DocFile", event.id)
        editor.registry.set_attribute(doc, "content", event.params.get("content", ""))

    def parse(self, obj: ModelObject) -> Event | None:
        if obj.object_type != "DocFile" or obj.id.endswith(DOC_SUFFIX):
            return None
        content = obj.attributes.get("content", "")
        if not content:
            return None
        return Event("HaveContent", id=obj.id, params={"content": content})


JAVA_DOC = Domain(
    name="javadoc",
    schema=JAVA_DOC_SCHEMA,
    handlers=(HaveRoot(FOLDERS), HaveSubUnit(FOLDERS), HaveLeaf(FOLDERS), HaveContent()),
    sync_filter=frozenset({"HaveRoot", "HaveSubUnit", "HaveLeaf"}),
)
