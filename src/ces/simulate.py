"""Unreliable-broker simulation: seeded channels that drop, duplicate, and
reorder messages, and multi-editor sessions that must converge anyway.

Everything is deterministic given the seed, so a convergence report is
byte-reproducible.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass, field

from .editor import Domain, Editor
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

    With ``eventual`` on, a dropped message is deferred to a later flush
    instead of erased, so every submitted event is delivered at least once
    before the session ends.
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
        self.drop = drop
        self.duplicate = duplicate
        self.reorder = reorder
        self.eventual = eventual
        self.rng = random.Random(seed)
        self.in_flight: list[str] = []

    def submit(self, text: str) -> None:
        self.in_flight.append(text)

    def flush(self) -> list[str]:
        """Deliver what the fault model lets through; defer or discard drops."""
        delivered: list[str] = []
        held: list[str] = []
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

    def drain(self) -> list[str]:
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
            lines.extend(f"  {row}" for row in dump.splitlines())
        lines.append("trace:")
        lines.extend(f"  {row}" for row in self.trace)
        return "\n".join(lines) + "\n"


class Session:
    """A set of editors joined by a full mesh of unreliable channels.

    Editors get deterministic, mutually offset clocks so that a scripted run
    is reproducible and no two editors ever mint the same timestamp.
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
        # Every text each editor processed, in order: the session is a pure
        # function of this log, so it can be replayed (even on threads).
        self.log: list[tuple[str, str]] = []
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
        """Execute locally; if applied and shared, put the completed event on
        the wire to every other editor."""
        editor = self.editors[name]
        applied = editor.execute(event)
        if applied is None:
            self.trace.append(f"submit {name}: ignored {event.type_tag} {event.id}")
            return None
        text = encode([applied])
        self.log.append((name, text))
        if editor._shared(applied.type_tag):
            for other in self.editors:
                if other != name:
                    self.channels[(name, other)].submit(text)
            self.trace.append(f"submit {name}: {applied.type_tag} {applied.id}")
        else:
            self.trace.append(f"submit {name}: local {applied.type_tag} {applied.id}")
        return applied

    def _deliver(self, take) -> None:
        """One delivery round; ``take(channel)`` empties a channel."""
        self._flushes += 1
        for (source, target), channel in sorted(self.channels.items()):
            messages = take(channel)
            editor = self.editors[target]
            count = 0
            for text in messages:
                count += editor.load_events(text)
                self.log.append((target, text))
            self.trace.append(
                f"flush {self._flushes} {source}->{target}: "
                f"delivered {len(messages)} applied {count} held {len(channel.in_flight)}"
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
        """Digest the shared slice of every store and diff same-domain models."""
        shared = self.shared_filter()
        names = list(self.editors)
        digests = {}
        dumps = {}
        for name, editor in self.editors.items():
            digests[name] = editor.digest(shared)
            dumps[name] = dump_model(editor.registry)
        pair_diffs = {}
        converged = len(set(digests.values())) <= 1
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if self.editors[a].domain.name != self.editors[b].domain.name:
                    continue
                diffs = model_diff(self.editors[a].registry, self.editors[b].registry).differences
                pair_diffs[(a, b)] = diffs
                if diffs:
                    converged = False
        return ConvergenceReport(
            converged=converged,
            digests=digests,
            model_dumps=dumps,
            pair_diffs=pair_diffs,
            trace=list(self.trace),
        )


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
    """Execute a session script and return its convergence report."""
    directives = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        directives.append((lineno, shlex.split(stripped)))

    config = {"seed": seed}
    strategy: OverwriteStrategy | None = None
    # Created by the first submit or flush; configuration must come before.
    session: Session | None = None
    pending_editors: list[tuple[str, Domain]] = []

    def ensure_session() -> Session:
        nonlocal session
        if session is None:
            session = Session(strategy=strategy or OverwriteStrategy.LAST_EDIT_WINS, **config)
            for name, domain in pending_editors:
                session.add_editor(name, domain)
        return session

    for lineno, tokens in directives:
        word, args = tokens[0], tokens[1:]
        if word == "strategy":
            if session is not None or strategy is not None or len(args) != 1:
                raise ScriptError(f"line {lineno}: strategy must appear once, before any submit")
            try:
                strategy = OverwriteStrategy(args[0])
            except ValueError:
                raise ScriptError(f"line {lineno}: unknown strategy {args[0]!r}") from None
        elif word == "channel":
            if session is not None:
                raise ScriptError(f"line {lineno}: channel config must precede submits")
            pairs = _parse_kv(args, lineno)
            for key in ("drop", "duplicate"):
                if key in pairs:
                    config[key] = float(pairs.pop(key))
            for key in ("reorder", "eventual"):
                if key in pairs:
                    config[key] = _parse_bool(pairs.pop(key), lineno)
            if pairs:
                raise ScriptError(f"line {lineno}: unknown channel options {sorted(pairs)}")
        elif word == "editor":
            if session is not None or len(args) != 2:
                raise ScriptError(f"line {lineno}: editor <name> <domain> must precede submits")
            name, domain_name = args
            if domain_name not in domains:
                raise ScriptError(f"line {lineno}: unknown domain {domain_name!r}")
            pending_editors.append((name, domains[domain_name]))
        elif word == "submit":
            if len(args) < 3:
                raise ScriptError(f"line {lineno}: submit <editor> <command> <id> [key=value ...]")
            editor_name, type_tag, event_id = args[0], args[1], args[2]
            params = _parse_kv(args[3:], lineno)
            time = params.pop("time", "")
            live = ensure_session()
            if editor_name not in live.editors:
                raise ScriptError(f"line {lineno}: unknown editor {editor_name!r}")
            live.submit(editor_name, Event(type_tag, id=event_id, time=time, params=params))
        elif word == "flush":
            ensure_session().flush()
        else:
            raise ScriptError(f"line {lineno}: unknown directive {word!r}")

    live = ensure_session()
    live.settle()
    return live.report()
