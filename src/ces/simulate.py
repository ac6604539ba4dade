"""Unreliable-broker simulation: seeded channels that drop, duplicate, and
reorder messages, and multi-editor sessions that must converge anyway.

Everything is deterministic given the seed, so a convergence report is
byte-reproducible.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass, field

from .editor import Domain, Editor, text_digest
from .events import (
    BASE_TIME,
    CesError,
    Event,
    OverwriteStrategy,
    encode,
    shift_timestamp,
    stepping_clock,
)
from .objects import dump_model, model_diff


class ScriptError(CesError):
    pass


class Channel:
    """Simulated transport for one direction between two editors.

    The fault model never looks into a message.  With ``eventual`` on, a
    dropped message is deferred to a later flush instead of erased, so every
    submitted event is delivered at least once before the session ends.  A
    message repeats while a fresh draw falls below ``duplicate``, so that
    share must stay below 1.
    """

    def __init__(
        self,
        *,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: bool = False,
        eventual: bool = True,
        seed=0,
    ):
        if not (0 <= drop <= 1 and 0 <= duplicate < 1):  # also refuses NaN
            raise ValueError(f"need drop in [0, 1] and duplicate in [0, 1), got {drop!r} and {duplicate!r}")
        self.drop = drop
        self.duplicate = duplicate
        self.reorder = reorder
        self.eventual = eventual
        self.rng = random.Random(seed)
        self.in_flight: list[Event] = []

    def submit(self, message: Event) -> None:
        self.in_flight.append(message)

    def flush(self) -> list[Event]:
        """Deliver what the fault model lets through; defer or discard drops."""
        delivered: list[Event] = []
        held: list[Event] = []
        for message in self.in_flight:
            if self.rng.random() < self.drop:
                if self.eventual:
                    held.append(message)
                continue
            delivered.append(message)
            while self.rng.random() < self.duplicate:
                delivered.append(message)
        if self.reorder:
            self.rng.shuffle(delivered)
        self.in_flight = held
        return delivered

    def drain(self) -> list[Event]:
        """Deliver everything still in flight, fault-free and in order."""
        delivered, self.in_flight = self.in_flight, []
        return delivered


@dataclass
class ConvergenceReport:
    converged: bool
    digests: dict[str, str]
    model_dumps: dict[str, str]
    pair_diffs: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    trace: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"converged: {'yes' if self.converged else 'no'}"]
        for name, digest in self.digests.items():
            lines.append(f"editor {name} digest={digest}")
        for (a, b), diffs in sorted(self.pair_diffs.items()):
            lines.append(f"diff {a}/{b}: {'none' if not diffs else ''}")
            lines.extend(f"  {d}" for d in diffs)
        for name, dump in self.model_dumps.items():
            lines.append(f"model {name}:")
            lines.extend(f"  {row}" for row in dump.split("\n")[:-1])
        lines.append("trace:")
        lines.extend(f"  {row}" for row in self.trace)
        return "\n".join(lines) + "\n"


class Session:
    """A set of editors joined by a full mesh of unreliable channels.

    Editors get deterministic, mutually offset clocks so that a scripted run
    is reproducible and no two editors ever mint the same timestamp.  A
    channel carries the event its sender stored, with no codec in between:
    events are immutable, and the codec is an identity on every event
    :meth:`Editor.execute` accepts, so every receiver loads that same event.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: bool = False,
        eventual: bool = True,
        strategy: OverwriteStrategy = OverwriteStrategy.LAST_EDIT_WINS,
    ):
        self.seed = seed
        self.channel_faults = dict(drop=drop, duplicate=duplicate, reorder=reorder, eventual=eventual)
        self.strategy = strategy
        self.editors: dict[str, Editor] = {}
        self.channels: dict[tuple[str, str], Channel] = {}
        self.trace: list[str] = []
        self._flushes = 0

    def add_editor(self, name: str, domain: Domain) -> Editor:
        if name in self.editors:
            raise ScriptError(f"editor {name!r} already exists")
        # Offset each editor's clock by its index: stamp streams never collide.
        clock = stepping_clock(shift_timestamp(BASE_TIME, len(self.editors)))
        editor = Editor(domain, strategy=self.strategy, clock=clock)
        for other in self.editors:
            for pair in ((name, other), (other, name)):
                self.channels[pair] = Channel(
                    seed=f"{self.seed}:{pair[0]}->{pair[1]}", **self.channel_faults
                )
        self.editors[name] = editor
        return editor

    def submit(self, name: str, event: Event) -> Event | None:
        """Execute locally; if applied and shared, put the stored event
        itself on the wire to every other editor."""
        editor = self.editors[name]
        applied = editor.execute(event)
        if applied is None:
            self.trace.append(f"submit {name}: ignored {event.type_tag} {event.id}")
            return None
        if editor._shared(applied.type_tag):
            for other in self.editors:
                if other != name:
                    self.channels[(name, other)].submit(applied)
            self.trace.append(f"submit {name}: {applied.type_tag} {applied.id}")
        else:
            self.trace.append(f"submit {name}: local {applied.type_tag} {applied.id}")
        return applied

    def _deliver(self, take) -> None:
        """One delivery round; ``take(channel)`` empties a channel.  The
        events a channel delivers reach their editor as one load: a failing
        event raises only after every other event taken has run."""
        self._flushes += 1
        for (source, target), channel in sorted(self.channels.items()):
            events = take(channel)
            applied = self.editors[target].load(events)
            self.trace.append(
                f"flush {self._flushes} {source}->{target}: "
                f"delivered {len(events)} applied {applied} held {len(channel.in_flight)}"
            )

    def flush(self) -> None:
        self._deliver(Channel.flush)

    def drain(self) -> None:
        """Final delivery round: everything still in flight arrives."""
        self._deliver(Channel.drain)

    def settle(self) -> None:
        """Drain once if anything is in flight.  Delivery never enqueues new
        messages, so one drain empties every channel."""
        if any(channel.in_flight for channel in self.channels.values()):
            self.drain()

    def shared_filter(self) -> frozenset[str]:
        """The event types every editor handles and shares.  RemoveCommand is
        always one, so the set is not empty, which would mean "all"."""
        editors = list(self.editors.values())
        if not editors:
            return frozenset({"RemoveCommand"})
        common = set.intersection(*(set(editor.handlers) for editor in editors))
        return frozenset(tag for tag in common if all(e._shared(tag) for e in editors))

    def report(self) -> ConvergenceReport:
        """Digest the shared slice of every store, diff same-domain models
        and dump each model.  An editor whose slice equals an earlier
        editor's shares that editor's digest, and one whose model has no
        differences from an earlier one's shares its dump: equal events
        encode to equal text, and equal canonical state dumps to it."""
        editors = self.editors
        names = list(editors)
        shared = self.shared_filter()
        slices = {name: editor.active_events(shared) for name, editor in editors.items()}
        digests = _render_once(
            names, lambda a, b: slices[a] == slices[b], lambda name: text_digest(encode(slices[name]))
        )
        pair_diffs = {}
        converged = len(set(digests.values())) <= 1
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if editors[a].domain.name != editors[b].domain.name:
                    continue
                diffs = model_diff(editors[a].registry, editors[b].registry).differences
                pair_diffs[(a, b)] = diffs
                if diffs:
                    converged = False
        dumps = _render_once(
            names, lambda a, b: pair_diffs.get((a, b)) == [], lambda name: dump_model(editors[name].registry)
        )
        return ConvergenceReport(
            converged=converged,
            digests=digests,
            model_dumps=dumps,
            pair_diffs=pair_diffs,
            trace=list(self.trace),
        )


def _render_once(names: list[str], same, render) -> dict[str, str]:
    """``render(name)`` for each name, in order, but a name for which
    ``same(earlier, name)`` holds takes that earlier name's text."""
    texts: dict[str, str] = {}
    for i, name in enumerate(names):
        twin = next((earlier for earlier in names[:i] if same(earlier, name)), None)
        texts[name] = texts[twin] if twin is not None else render(name)
    return texts


# ---------------------------------------------------------------------------
# Session scripts
# ---------------------------------------------------------------------------
#
#     # comments and blank lines are skipped
#     strategy last-edit-wins
#     channel drop=0.1 duplicate=0.3 reorder=on eventual=on
#     editor alice javapackages
#     editor bob javapackages
#     submit alice HaveLeaf Editor parent=serv vTag=1.0 time=2020-01-01T13:36:00.000Z
#     submit bob HaveLeaf Editor parent=serv vTag=1.1 time=2020-01-01T13:37:00.000Z
#     flush
#
# The final state is always drained (eventual delivery), then reported.


def _parse_bool(raw: str, line: int) -> bool:
    if raw in ("on", "true", "yes", "1"):
        return True
    if raw in ("off", "false", "no", "0"):
        return False
    raise ScriptError(f"line {line}: expected on/off, got {raw!r}")


def _parse_kv(tokens: list[str], line: int) -> dict[str, str]:
    pairs = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ScriptError(f"line {line}: expected key=value, got {token!r}")
        pairs[key] = value
    return pairs


def run_script(text: str, domains: dict[str, Domain], *, seed: int = 0) -> ConvergenceReport:
    """Read a whole session script, then run it and return its convergence
    report.  Lines end at ``"\\n"`` only, as in the event text: a carriage
    return before it is stripped with the other whitespace around the line,
    and a quoted value may hold U+2028, U+0085 or a lone carriage return.
    A malformed line is a :class:`ScriptError` naming that line, raised
    before any command runs; a submit or flush that fails as it runs is
    one naming its line too, and a failure in the final delivery after the
    last line is one that starts ``end of script:``."""
    options: dict = {"seed": seed}
    editors: dict[str, Domain] = {}
    actions: list[tuple[int, tuple[str, Event] | None]] = []  # line, a submit or None for a flush
    for lineno, raw in enumerate(text.split("\n"), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            word, *args = shlex.split(stripped)
            if word in ("strategy", "channel", "editor") and actions:
                raise ScriptError(f"line {lineno}: {word} must precede every submit and flush")
            if word == "strategy":
                if "strategy" in options or len(args) != 1:
                    raise ScriptError(f"line {lineno}: strategy must appear once, with one name")
                options["strategy"] = OverwriteStrategy(args[0])
            elif word == "channel":
                pairs = _parse_kv(args, lineno)
                for key in ("drop", "duplicate"):
                    if key in pairs:
                        options[key] = float(pairs.pop(key))
                Channel(drop=options.get("drop", 0), duplicate=options.get("duplicate", 0))  # range check
                for key in ("reorder", "eventual"):
                    if key in pairs:
                        options[key] = _parse_bool(pairs.pop(key), lineno)
                if pairs:
                    raise ScriptError(f"line {lineno}: unknown channel options {sorted(pairs)}")
            elif word == "editor":
                if len(args) != 2 or args[0] in editors:
                    raise ScriptError(f"line {lineno}: editor <new name> <domain>")
                if args[1] not in domains:
                    raise ScriptError(f"line {lineno}: unknown domain {args[1]!r}")
                editors[args[0]] = domains[args[1]]
            elif word == "submit":
                if len(args) < 3:
                    raise ScriptError(f"line {lineno}: submit <editor> <command> <id> [key=value ...]")
                name, type_tag, event_id = args[:3]
                if name not in editors:
                    raise ScriptError(f"line {lineno}: unknown editor {name!r}")
                params = _parse_kv(args[3:], lineno)
                time = params.pop("time", "")
                actions.append((lineno, (name, Event(type_tag, id=event_id, time=time, params=params))))
            elif word == "flush":
                actions.append((lineno, None))
            else:
                raise ScriptError(f"line {lineno}: unknown directive {word!r}")
        except ValueError as exc:  # from shlex, float, Channel, OverwriteStrategy or Event
            raise ScriptError(f"line {lineno}: {exc}") from None

    session = Session(**options)
    for name, domain in editors.items():
        session.add_editor(name, domain)
    for lineno, action in actions:
        try:
            if action is None:
                session.flush()
            else:
                session.submit(*action)
        except CesError as exc:
            raise ScriptError(f"line {lineno}: {exc}") from None
    try:
        session.settle()
    except CesError as exc:
        raise ScriptError(f"end of script: {exc}") from None
    return session.report()
