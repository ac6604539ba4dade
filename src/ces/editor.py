"""The editor: command execution with overwrite resolution, the active
command store, tombstoning removal, the incremental parse driver, and event
import/export.

The store keeps at most one event per command id (per scope, see below);
overwriting makes that sufficient to reconstruct the model.  Editors
interact with each other only through the encoded event text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .events import (
    _UNSUPPORTED,
    TIMESTAMP_RE,
    CesError,
    Clock,
    Event,
    OverwriteStrategy,
    decode,
    encode,
    equals_but_time,
    overwrites,
)
from .objects import AssociationSchema, ModelObject, ObjectRegistry


def text_digest(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of the UTF-8 text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class UnknownCommandError(CesError):
    pass


class IdCollisionError(CesError):
    pass


class CommandError(CesError):
    pass


class LoadError(CesError):
    """One or more events failed during a load; the rest were processed."""

    def __init__(self, failures: list[str], applied: int):
        super().__init__("; ".join(failures))
        self.failures = failures
        self.applied = applied


class CommandHandler:
    """Run/remove/parse triple for one command type.

    ``run`` edits exactly the command's increment: the core object sharing
    the event id, that object's attributes named by the params, and the
    increment's links, never state owned by another increment.  ``remove``
    undoes what run created; ``parse`` recognizes the increment on a model
    object and rebuilds the event from it.
    """

    type_tag: str = ""
    # Store scope: commands in distinct scopes may share a core object id
    # while editing disjoint slices of it (e.g. doc content vs. doc leaf).
    store_scope: str = ""

    def run(self, editor: "Editor", event: Event) -> None:
        raise NotImplementedError

    def remove(self, editor: "Editor", event: Event) -> None:
        pass

    def parse(self, obj: ModelObject) -> Event | None:
        return None


@dataclass(frozen=True)
class Domain:
    """A metamodel: its association schema, its command handlers in parse
    offering order, and the event types it shares by default."""

    name: str
    schema: AssociationSchema
    handlers: tuple[CommandHandler, ...]
    sync_filter: frozenset[str] = frozenset()

    def __post_init__(self):
        tags = [h.type_tag for h in self.handlers] + [RemoveCommandHandler.type_tag]
        if len(set(tags)) < len(tags):
            raise IdCollisionError(f"{self.name}: a command type tag repeats in {tags}")


class RemoveCommandHandler(CommandHandler):
    """Removes the increment for an id and stays active as a tombstone so a
    late re-delivery of the removed command cannot resurrect it."""

    type_tag = "RemoveCommand"

    def run(self, editor: "Editor", event: Event) -> None:
        editor.registry.remove_model_object(event.id)
        old = editor.active_commands.get(("", event.id))
        if old is not None and old.type_tag != self.type_tag:
            editor.handlers[old.type_tag].remove(editor, old)


class Editor:
    """Owns a registry and the active command store for one model replica.

    ``sync_filter`` restricts which event types this editor exchanges with
    others (empty means all); RemoveCommand always passes so removals
    propagate under partial synchronization.
    """

    def __init__(
        self,
        domain: Domain,
        *,
        strategy: OverwriteStrategy = OverwriteStrategy.LAST_EDIT_WINS,
        clock: Clock | None = None,
        sync_filter: frozenset[str] | None = None,
    ):
        self.domain = domain
        self.registry = ObjectRegistry(domain.schema)
        self.strategy = strategy
        self.clock = clock or Clock()
        self.sync_filter = frozenset(
            domain.sync_filter if sync_filter is None else sync_filter
        )
        self.handlers: dict[str, CommandHandler] = {
            h.type_tag: h for h in (*domain.handlers, RemoveCommandHandler())
        }
        # (scope, id) -> the single surviving event for that increment
        self.active_commands: dict[tuple[str, str], Event] = {}

    # -- execution --------------------------------------------------------------

    def execute(self, event: Event) -> Event | None:
        """Run one event against the model, unless an already-stored event
        for the same id wins under the overwrite strategy.

        Missing id and time are assigned here (auto ids follow the store
        size: "obj0", "obj1", ...).  A supplied time not of the form
        YYYY-MM-DDTHH:MM:SS.mmmZ raises :class:`CommandError` before
        anything changes, and so does an event that is not ignored but
        holds a C0 control other than tab, newline and carriage return in
        its id or a param value, which :func:`encode` could not write.
        Returns the stored event when applied, None when the event was
        ignored.
        """
        handler = self.handlers.get(event.type_tag)
        if handler is None:
            raise UnknownCommandError(f"no handler for command {event.type_tag!r}")
        if event.time and not TIMESTAMP_RE.fullmatch(event.time):
            raise CommandError(f"time {event.time!r} is not of the form YYYY-MM-DDTHH:MM:SS.mmmZ")
        event_id = event.id
        if not event_id:
            event_id = f"obj{len(self.active_commands)}"
            if (handler.store_scope, event_id) in self.active_commands:
                raise IdCollisionError(
                    f"auto id {event_id!r} collides with an existing command id"
                )
        time = event.time or self.clock.now()
        if event_id != event.id or time != event.time:
            event = replace(event, id=event_id, time=time)
        key = (handler.store_scope, event_id)
        old = self.active_commands.get(key)
        if old is not None and not overwrites(event, old, self.strategy):
            return None
        refused = _UNSUPPORTED.search
        if refused(event_id) or any(map(refused, event.params.values())):
            raise CommandError(
                f"unsupported control character in the id or a param value of {event_id!r}"
            )
        handler.run(self, event)
        self.active_commands[key] = event
        return event

    def _shared(self, type_tag: str, sync_filter: frozenset[str] | None = None) -> bool:
        if sync_filter is None:
            sync_filter = self.sync_filter
        return not sync_filter or type_tag == "RemoveCommand" or type_tag in sync_filter

    def load(self, events) -> int:
        """Execute received events in order (order is immaterial for
        commutative sets); returns the number applied.

        Events excluded by the sync filter are skipped; one without an id or
        a time fails with :class:`CommandError`, as each replica would mint
        its own.  Per-event failures are collected, the rest still processed,
        then a single :class:`LoadError` reports them.
        """
        applied = 0
        failures: list[str] = []
        for event in events:
            if not self._shared(event.type_tag):
                continue
            try:
                if not (event.id and event.time):
                    raise CommandError("a received event must carry an id and a time")
                if self.execute(event) is not None:
                    applied += 1
            except CesError as exc:
                failures.append(f"{event.type_tag} {event.id!r}: {exc}")
        if failures:
            raise LoadError(failures, applied)
        return applied

    def load_events(self, text: str) -> int:
        """:meth:`load` the events the text decodes to."""
        return self.load(decode(text))

    # -- parsing ----------------------------------------------------------------

    def parse(self, objects) -> int:
        """Rebuild commands from (possibly directly edited) model objects.

        Offers each object to every handler's parse, then adopts the objects
        (see :meth:`ObjectRegistry.register_parsed`): an edited instance
        replaces the held one even when its commands are unchanged, takes
        over the held state, and stays adopted if a later one raises.  An
        instance of an unknown id is adopted only when a command was
        recovered from it, so no parse leaves a bare frame behind.  Whether
        an id is known is read from the raw maps, so parsing the instances
        of a copy's own maps neither duplicates nor takes over the ones it
        shares with its source (see :meth:`ObjectRegistry.copy`).  Runs
        each recovered event only when it differs from the stored one in
        some field other than time, so unchanged increments keep their
        timestamps.  A recovered event the stored one outranks is ignored,
        and the stored one runs again to put its increment back; a stored
        tombstone first has the recovered event's increment removed
        (detached and demoted to a frame).  Returns the number of new or
        updated commands.
        """
        collected: list[Event] = []
        adopted: list[ModelObject] = []
        for obj in objects:
            recovered = len(collected)
            for handler in self.handlers.values():
                found = handler.parse(obj)
                if found is not None:
                    collected.append(found)
            known = obj.id in self.registry.model_objects or obj.id in self.registry.frames
            if len(collected) > recovered or known:
                adopted.append(obj)
        for obj in adopted:
            self.registry.register_parsed(obj)
        changed = 0
        for event in collected:
            scope = self.handlers[event.type_tag].store_scope
            old = self.active_commands.get((scope, event.id))
            if old is None or not equals_but_time(old, event):
                if self.execute(event) is not None:
                    changed += 1
                else:
                    if old.type_tag == RemoveCommandHandler.type_tag:
                        # Re-running a tombstone undoes nothing the direct
                        # edit made, so take that increment out.
                        self.handlers[event.type_tag].remove(self, event)
                    self.handlers[old.type_tag].run(self, old)
        return changed

    # -- exchange ----------------------------------------------------------------

    def active_events(self, sync_filter: frozenset[str] | None = None) -> list[Event]:
        """Active commands restricted to the given filter (default: this
        editor's own), in deterministic (id, type) order."""
        events = [e for e in self.active_commands.values() if self._shared(e.type_tag, sync_filter)]
        events.sort(key=lambda e: (e.id, e.type_tag))
        return events

    def export_active(self, sync_filter: frozenset[str] | None = None) -> str:
        """:meth:`active_events`, encoded."""
        return encode(self.active_events(sync_filter))

    def digest(self, sync_filter: frozenset[str] | None = None) -> str:
        """The :func:`text_digest` of :meth:`export_active`."""
        return text_digest(self.export_active(sync_filter))

    def get_active(self, id: str, scope: str = "") -> Event | None:
        return self.active_commands.get((scope, id))

    def clone(self) -> "Editor":
        """An independent twin: a copy-on-write copy of the registry, which
        shares each model object until either side writes it (see
        :meth:`ObjectRegistry.copy`), and a copy of the store, whose events
        are immutable and so shared.  The twin keeps the domain, strategy
        and sync filter and shares the domain's handlers, which hold no
        state; its clock is a fresh one, not a copy of this editor's."""
        twin = Editor(
            self.domain,
            strategy=self.strategy,
            clock=Clock(),
            sync_filter=self.sync_filter,
        )
        twin.registry = self.registry.copy()
        twin.active_commands = dict(self.active_commands)
        return twin
