"""Replay-based oracles for the convergence theory, plus sequence generators.

Everything here judges events by replaying them from the empty model into
fresh editors and comparing the resulting registries, deliberately
independent of the editor's own overwrite bookkeeping, so the two can be
checked against each other.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace

from .editor import Domain, Editor
from .events import (
    BASE_TIME,
    TIMESTAMP_RE,
    CesError,
    Event,
    OverwriteStrategy,
    encode,
    shift_timestamp,
    stepping_clock,
)
from .objects import dump_model, model_diff, model_equal


class ActiveSetError(CesError):
    """Two retained events share a store key: the series is not overwriting."""


class MissingIdError(CesError, ValueError):
    """An oracle that permutes events was given one without an id."""


def _clock_beyond(events):
    """Deterministic clock strictly ahead of every stamp in the sequence, so
    anything the editor mints later (e.g. during a parse pass) postdates the
    replayed history, as a wall clock would.  Malformed stamps are left for
    ``execute`` to refuse."""
    latest = BASE_TIME
    for event in events:
        if event.time > latest and TIMESTAMP_RE.fullmatch(event.time):
            latest = event.time
    try:
        start = shift_timestamp(latest, 3_600_000)
    except ValueError:
        # A day past its month's end (2020-02-31): start the next month.
        start = f"{latest[:5]}{int(latest[5:7]) + 1:02d}-01T00:00:00.000Z"
    return stepping_clock(start)


def replay(
    events,
    domain: Domain,
    *,
    strategy: OverwriteStrategy = OverwriteStrategy.LAST_EDIT_WINS,
) -> Editor:
    """Fresh editor with the events executed in order (deterministic clock);
    raises the first refusal."""
    editor, refused = _loaded(list(events), domain, strategy)
    if refused:
        raise next(iter(refused.values()))
    return editor


def stamp_events(events, base_time: str = BASE_TIME) -> list[Event]:
    """Fill in missing timestamps by position, one second apart, so a
    sequence can be permuted without changing which event wins."""
    stamped = []
    for index, event in enumerate(events):
        if not event.time:
            event = replace(event, time=shift_timestamp(base_time, 1000 * index))
        stamped.append(event)
    return stamped


# ---------------------------------------------------------------------------
# Effective events and active sets
# ---------------------------------------------------------------------------


def is_ineffective(events, position: int, domain: Domain, *, strategy=OverwriteStrategy.LAST_EDIT_WINS) -> bool:
    """An event is ineffective when dropping it from the series leaves the
    replayed model unchanged (always judged from the empty start model)."""
    events = list(events)
    if not 0 <= position < len(events):
        raise IndexError(position)
    full = replay(events, domain, strategy=strategy)
    without = replay(events[:position] + events[position + 1 :], domain, strategy=strategy)
    return model_equal(full.registry, without.registry)


def effective_subsequence(events, domain: Domain, *, strategy=OverwriteStrategy.LAST_EDIT_WINS) -> list[Event]:
    """Drop ineffective events, one at a time, until a fixpoint.

    Removal candidates are tried in canonical (time, serialized-event) order
    rather than arrival order: when two events differ only in timestamp,
    either one is removable, and the canonical order makes the surviving
    representative independent of how the sequence was permuted.
    """
    current = list(events)
    changed = True
    while changed:
        changed = False
        order = sorted(range(len(current)), key=lambda i: (current[i].time, encode([current[i]])))
        for position in order:
            if is_ineffective(current, position, domain, strategy=strategy):
                del current[position]
                changed = True
                break
    return current


def active_set(events, domain: Domain, *, strategy=OverwriteStrategy.LAST_EDIT_WINS) -> set[Event]:
    """The set of effective events; errors if two of them share a store key
    (the series would not be overwriting)."""
    scopes = {h.type_tag: h.store_scope for h in domain.handlers}
    effective = effective_subsequence(events, domain, strategy=strategy)
    seen: dict[tuple[str, str], Event] = {}
    for event in effective:
        key = (scopes.get(event.type_tag, ""), event.id)
        if key in seen:
            raise ActiveSetError(
                f"effective events {seen[key].type_tag} and {event.type_tag} share id {event.id!r}"
            )
        seen[key] = event
    return set(effective)


# ---------------------------------------------------------------------------
# Commutativity check: order vs. reverse vs. random permutations
# ---------------------------------------------------------------------------


@dataclass
class CommuteReport:
    passed: bool
    entries: list[tuple[str, list[str]]] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"commutative: {'yes' if self.passed else 'no'}"]
        for label, diffs in self.entries:
            lines.append(f"{label}: {'ok' if not diffs else 'DIFFERS'}")
            lines.extend(f"  {d}" for d in diffs)
        return "\n".join(lines) + "\n"


def check_commutative(
    events,
    domain: Domain,
    *,
    trials: int = 20,
    seed: int = 0,
    strategy: OverwriteStrategy = OverwriteStrategy.LAST_EDIT_WINS,
) -> CommuteReport:
    """Load the sequence in order, in reverse, and in seeded random
    permutations; pass iff every variant yields the same model and store
    and refuses the same events as the given order.  An event every order
    refuses is bad input: its refusal in the given order is raised, as
    :func:`replay` raises it."""
    events = stamp_events(events)
    if any(not e.id for e in events):
        raise MissingIdError("check_commutative needs events with explicit ids")
    base, refused = _loaded(events, domain, strategy)
    everywhere = dict(refused)  # refused by the given order and every variant so far
    report = CommuteReport(passed=True)
    for label, ordered in _variants(events, trials, seed):
        other, other_refused = _loaded(ordered, domain, strategy)
        diffs = list(model_diff(base.registry, other.registry).differences)
        if other.active_commands != base.active_commands:
            diffs.append("active command stores differ")
        for event in events:
            if (event in refused) != (event in other_refused):
                where, exc = ("the given", refused[event]) if event in refused else ("this", other_refused[event])
                diffs.append(f"refused only in {where} order: {event.type_tag} {event.id!r}: {exc}")
        everywhere = {event: exc for event, exc in everywhere.items() if event in other_refused}
        del other  # the base and one variant at a time
        report.entries.append((label, diffs))
        if diffs:
            report.passed = False
    if everywhere:
        raise next(iter(everywhere.values()))
    return report


def _loaded(events: list[Event], domain: Domain, strategy: OverwriteStrategy) -> tuple[Editor, dict[Event, CesError]]:
    """A fresh editor that executed the events in order, and the error of
    each event it refused, without the traceback that would keep the
    editor alive."""
    editor = Editor(domain, strategy=strategy, clock=_clock_beyond(events))
    refused = {}
    for event in events:
        try:
            editor.execute(event)
        except CesError as exc:
            refused[event] = exc.with_traceback(None)
    return editor, refused


def _variants(events: list[Event], trials: int, seed: int):
    """The reverse order, then ``trials`` seeded permutations, each drawn
    only when it is asked for."""
    yield "reverse", list(reversed(events))
    rng = random.Random(seed)
    for trial in range(trials):
        shuffled = list(events)
        rng.shuffle(shuffled)
        yield f"permutation {trial}", shuffled


# ---------------------------------------------------------------------------
# Parse/uniqueness check (bounded)
# ---------------------------------------------------------------------------


def store_signature(editor: Editor) -> frozenset:
    """Store contents modulo timestamps and tombstones: what the commands
    say about the model, not when they said it."""
    return frozenset(
        (scope, id, e.type_tag, tuple(sorted(e.params.items())))
        for (scope, id), e in editor.active_commands.items()
        if e.type_tag != "RemoveCommand"
    )


@dataclass
class CesModelReport:
    parse_stable: bool
    divergent_ids: list[str] = field(default_factory=list)
    unique_stores: bool = True
    uniqueness_failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.parse_stable and self.unique_stores


def check_ces_model(editor: Editor, *, sequences=None) -> CesModelReport:
    """Check that the editor's model and store form a valid command-sourced
    pair.

    (a) Parsing the full model on a clone must change no active command:
    every increment in the model regenerates its stored event (modulo time)
    and nothing else.  (b) Optionally, for the given event sequences, any
    two that replay, under the editor's strategy, to model-equal registries
    must agree on the store (modulo timestamps and tombstones).
    """
    clone = editor.clone()
    before = dict(clone.active_commands)
    clone.parse(list(clone.registry.model_objects.values()))
    after = clone.active_commands
    divergent = sorted(
        {key[1] for key in before.keys() ^ after.keys()}
        | {key[1] for key in before.keys() & after.keys() if before[key] != after[key]}
    )
    del clone, before, after  # one model besides the editor's at a time
    report = CesModelReport(parse_stable=not divergent, divergent_ids=divergent)
    if sequences is not None:
        buckets: dict[str, tuple[frozenset, int]] = {}
        for index, sequence in enumerate(sequences):
            run = replay(sequence, editor.domain, strategy=editor.strategy)
            fingerprint = dump_model(run.registry)
            signature = store_signature(run)
            del run
            known = buckets.get(fingerprint)
            if known is None:
                buckets[fingerprint] = (signature, index)
            elif known[0] != signature:
                report.unique_stores = False
                report.uniqueness_failures.append(
                    f"sequences {known[1]} and {index} build the same model "
                    f"but different active stores"
                )
    return report


# ---------------------------------------------------------------------------
# Sequence generators (shared event-type alphabet of both example domains)
# ---------------------------------------------------------------------------

PACKAGE_IDS = ("org", "fulib", "serv", "com", "net")
CLASS_IDS = ("Editor", "Command", "Parser")
VTAGS = ("1.0", "1.1", "1.2", "2.0")


def random_command_sequence(
    count: int,
    seed: int | random.Random,
    *,
    base_time: str = BASE_TIME,
) -> list[Event]:
    """Random HaveRoot/HaveSubUnit/HaveLeaf/RemoveCommand events over a small
    id pool, pre-stamped with (mostly) increasing timestamps.

    The same sequence replays in either example domain: the event types are
    shared and the id pools for containers and leaves are disjoint.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    events: list[Event] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            event = Event("RemoveCommand", id=rng.choice(PACKAGE_IDS + CLASS_IDS))
        elif roll < 0.35:
            event = Event("HaveRoot", id=rng.choice(PACKAGE_IDS))
        elif roll < 0.65:
            child, parent = rng.sample(list(PACKAGE_IDS), 2)
            event = Event("HaveSubUnit", id=child, params={"parent": parent})
        else:
            event = Event(
                "HaveLeaf",
                id=rng.choice(CLASS_IDS),
                params={"parent": rng.choice(PACKAGE_IDS), "vTag": rng.choice(VTAGS)},
            )
        events.append(event)
    events = stamp_events(events, base_time)
    # Occasional equal stamps exercise the serialized-event tie-break.
    for index in range(1, len(events)):
        if rng.random() < 0.05:
            events[index] = replace(events[index], time=events[index - 1].time)
    return events


def small_alphabet() -> list[Event]:
    """A compact, interaction-heavy event alphabet for exhaustive sweeps."""
    return [
        Event("HaveRoot", id="org"),
        Event("HaveSubUnit", id="fulib", params={"parent": "org"}),
        Event("HaveSubUnit", id="org", params={"parent": "fulib"}),
        Event("HaveLeaf", id="Editor", params={"parent": "fulib", "vTag": "1.0"}),
        Event("RemoveCommand", id="fulib"),
    ]


def exhaustive_sequences(alphabet, max_len: int):
    """All sequences over the alphabet up to the given length, timestamps
    assigned by position."""
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield stamp_events(list(combo))
