"""Events, timestamps, the overwrite relation, and the deterministic text codec.

An event is a flat command record: a type tag, an id naming the increment it
edits, a millisecond timestamp, and string-only parameters.  Two events with
the same id overwrite each other; the codec below is byte-deterministic so
that serialized events can double as the tie-breaker for equal timestamps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Callable, Iterable, Mapping


class CesError(Exception):
    """Base class for all errors raised by this package."""


class EncodeError(CesError):
    pass


class DecodeError(CesError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Keys with fixed meaning in the text format; they never appear in params.
RESERVED_KEYS = ("command", "id", "time")

_KEY_RE = re.compile(r"[A-Za-z0-9_.~-]+")
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


@dataclass(frozen=True, slots=True)
class Event:
    """A serializable command record; the unit of exchange and storage.

    ``id`` and ``time`` may be empty on a freshly built event; the editor
    fills them in on first execution.  Instances are immutable after
    construction and safe to move between threads.  The class is slotted,
    so an instance has no ``__dict__``: the store keeps one event per
    increment, and a dict per event would cost more than its fields.
    """

    type_tag: str
    id: str = ""
    time: str = ""
    params: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.type_tag or not _KEY_RE.fullmatch(self.type_tag):
            raise ValueError(f"invalid event type tag {self.type_tag!r}")
        params = dict(self.params)
        for key, value in params.items():
            if key in RESERVED_KEYS:
                raise ValueError(f"param key {key!r} is reserved")
            if not _KEY_RE.fullmatch(key):
                raise ValueError(f"invalid param key {key!r}")
            if not isinstance(value, str):
                raise ValueError(f"param {key!r} must be a string, got {value!r}")
        object.__setattr__(self, "params", params)

    def __hash__(self):
        return hash((self.type_tag, self.id, self.time, frozenset(self.params.items())))


def equals_but_time(a: Event, b: Event) -> bool:
    """True when two events agree in every field except the timestamp."""
    return a.type_tag == b.type_tag and a.id == b.id and a.params == b.params


# ---------------------------------------------------------------------------
# Timestamps
# ---------------------------------------------------------------------------

# ISO-8601 UTC with millisecond precision; lexicographic order on the string
# equals chronological order, which lets overwrite decisions compare strings.
_TIME_PARSE = "%Y-%m-%dT%H:%M:%S.%fZ"
# The canonical form, with month 01-12, day 01-31, hour 00-23 and minute and
# second 00-59.  A string of another form can sort after every real stamp
# (e.g. "zzz" or month 99) and so win every last-edit-wins conflict.
TIMESTAMP_RE = re.compile(
    r"[0-9]{4}-(?:0[1-9]|1[0-2])-(?:0[1-9]|[12][0-9]|3[01])"
    r"T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]\.[0-9]{3}Z"
)


def format_timestamp(moment: datetime) -> str:
    if moment.tzinfo is not None:
        moment = moment.astimezone(timezone.utc).replace(tzinfo=None)
    # isoformat pads the year to four digits; strftime's %Y does not below 1000.
    return moment.isoformat(timespec="milliseconds") + "Z"


def parse_timestamp(value: str) -> datetime:
    return datetime.strptime(value, _TIME_PARSE).replace(tzinfo=timezone.utc)


# The first stamp of deterministic clocks, and the last stamp there is.
BASE_TIME = "2020-01-01T00:00:00.000Z"
LAST_TIME = "9999-12-31T23:59:59.999Z"


def shift_timestamp(stamp: str, ms: int) -> str:
    """The stamp ``ms`` milliseconds after ``stamp``, held at :data:`LAST_TIME`."""
    try:
        return format_timestamp(parse_timestamp(stamp) + timedelta(milliseconds=ms))
    except OverflowError:
        return LAST_TIME


class Clock:
    """Monotone timestamp source owned by a single editor.

    Caches the last value it returned; if the wall clock has not advanced
    past it, the next read is bumped by one millisecond so that no two
    events from one editor carry the same stamp before :data:`LAST_TIME`.
    """

    def __init__(self, source: Callable[[], datetime] | None = None):
        self._source = source or (lambda: datetime.now(timezone.utc))
        self._last: str | None = None

    def now(self) -> str:
        stamp = format_timestamp(self._source())
        if self._last is not None and stamp <= self._last:
            stamp = shift_timestamp(self._last, 1)
        self._last = stamp
        return stamp


def stepping_clock(start: str, step_ms: int = 1000) -> Clock:
    """Deterministic clock for tests and simulations: start, start+step,
    ..., held at :data:`LAST_TIME`.  Its source returns naive datetimes in
    UTC, which :func:`format_timestamp` writes without a time-zone
    conversion."""
    base = datetime.strptime(start, _TIME_PARSE)
    calls = [-1]

    def source() -> datetime:
        calls[0] += 1
        try:
            return base + timedelta(milliseconds=step_ms * calls[0])
        except OverflowError:
            return datetime.max  # formats as LAST_TIME

    return Clock(source)


# ---------------------------------------------------------------------------
# Overwrite strategies
# ---------------------------------------------------------------------------


class OverwriteStrategy(str, Enum):
    """Conflict resolution between two events sharing an id: the later time
    wins, the earlier time wins, or the higher vTag (:func:`compare_versions`)
    and then the later time.  Each is a strict total order once tie-broken by
    the encoded bytes, and a byte-identical duplicate never overwrites.
    """

    LAST_EDIT_WINS = "last-edit-wins"
    FIRST_EDIT_WINS = "first-edit-wins"
    HIGHEST_VERSION_WINS = "highest-version-wins"


def compare_versions(a: str, b: str) -> int:
    """Order version strings component-wise: "1.2" < "1.10" < "1.1a" < "2.0".

    Per dot-separated component: empty first, then ASCII digit runs by value
    (compared as strings, so of any length), then other text by code point
    (SemVer 2.0.0 §11.4.3); past equal shared components, more sort higher.
    """
    key_a, key_b = _version_key(a), _version_key(b)
    return (key_a > key_b) - (key_a < key_b)


def _version_key(version: str) -> list[tuple]:
    key = []
    for part in version.split("."):
        if part.isascii() and part.isdigit():
            digits = part.lstrip("0")
            key.append((1, len(digits), digits))
        else:
            key.append((2 if part else 0, part))
    return key


def overwrites(
    new_event: Event,
    old_event: Event,
    strategy: OverwriteStrategy = OverwriteStrategy.LAST_EDIT_WINS,
) -> bool:
    """Decide whether ``new_event`` replaces ``old_event`` in the store.

    Both events must share an id.  Every strategy is one ordering: the
    higher vTag first (highest-version-wins only), then the later time (the
    earlier one under first-edit-wins), then the larger serialized event.  A
    duplicate delivery (``new_event == old_event``, so identical bytes) is
    answered False by an equality check before any of that, without encoding.
    """
    if new_event.id != old_event.id:
        raise ValueError(
            f"overwrites needs matching ids, got {new_event.id!r} vs {old_event.id!r}"
        )
    if new_event == old_event:
        return False
    if strategy == OverwriteStrategy.HIGHEST_VERSION_WINS:
        rank = compare_versions(
            new_event.params.get("vTag", ""), old_event.params.get("vTag", "")
        )
        if rank != 0:
            return rank > 0
    if new_event.time != old_event.time:
        return (new_event.time > old_event.time) != (strategy == OverwriteStrategy.FIRST_EDIT_WINS)
    return encode([old_event]) < encode([new_event])


# ---------------------------------------------------------------------------
# Text codec
# ---------------------------------------------------------------------------
#
# One block per event, two-space indentation:
#
#     - command: HaveLeaf
#       id: Editor
#       time: 2020-01-01T13:36:00.000Z
#       parent: serv
#       vTag: 1.0
#
# Keys appear in fixed order (command, id, time, then params sorted by key)
# so identical events always produce byte-identical text.


# A value is written bare unless it is empty or holds whitespace (every code
# point str.isspace accepts), a quote, a backslash or a C0 control.  The
# class spells the whitespace out, which a regex tests faster than ``\s``.
_QUOTED = (
    r'\x00-\x20"\\\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000'
)
_NEEDS_QUOTES = re.compile(f"[{_QUOTED}]")
_ESCAPED = re.compile(r'[\\"\n\r\t]')
# The C0 controls other than tab, newline and carriage return: refused in values.
_CONTROLS = r"\x00-\x08\x0b\x0c\x0e-\x1f"
_UNSUPPORTED = re.compile(f"[{_CONTROLS}]")


def _plain(value: str) -> bool:
    return bool(value) and _NEEDS_QUOTES.search(value) is None


def _scalar(value: str) -> str:
    if _plain(value):
        return value
    bad = _UNSUPPORTED.search(value)
    if bad is not None:
        raise EncodeError(f"unsupported control character {bad.group()!r} in value")
    return _quoted(value)


def _quoted(value: str) -> str:
    """``value`` in double quotes, with quotes, backslashes, tabs and line breaks escaped."""
    return '"' + _ESCAPED.sub(lambda m: _ESCAPES[m.group()], value) + '"'


def encode(events: Iterable[Event]) -> str:
    """Serialize events to the deterministic text format."""
    blocks = []
    for event in events:
        lines = [f"- command: {_scalar(event.type_tag)}"]
        if event.id:
            lines.append(f"  id: {_scalar(event.id)}")
        if event.time:
            lines.append(f"  time: {_scalar(event.time)}")
        for key in sorted(event.params):
            lines.append(f"  {key}: {_scalar(event.params[key])}")
        blocks.append("\n".join(lines) + "\n")
    return "".join(blocks)


# The longest prefix of a quoted value with no closing quote and no bad escape:
# the character after it closes the value or starts a bad escape, or is none.
_QUOTED_PREFIX_RE = re.compile(r'"(?:[^"\\]|\\[\\"nrt])*')
_ESCAPE_RE = re.compile(r"\\(.)")


def _parse_value(raw: str, line: int) -> str:
    """Unquote and unescape a value that starts with a double quote."""
    end = _QUOTED_PREFIX_RE.match(raw).end()
    if end == len(raw):
        raise DecodeError(line, "unterminated quoted value")
    if raw[end] == "\\":
        raise DecodeError(line, "bad escape sequence in quoted value")
    if raw[end + 1 :].strip():
        raise DecodeError(line, "trailing content after closing quote")
    return _ESCAPE_RE.sub(lambda m: _UNESCAPES[m[1]], raw[1:end])


# Every line of a text is exactly one match, in order: an entry line ("- "
# opens a block, "  " continues it; then key and value up to the line break),
# or else, in the last group, any other line whole.
_LINE_RE = re.compile(
    rf"^(?:(- |  )({_KEY_RE.pattern}): ?([^{_CONTROLS}\n]*)$|(.*))", re.MULTILINE
)


# Decoded type tags, param keys and short param values pass through this
# table, so the events of every decoded text share one string object per
# distinct value: a store holds one event per increment, and most of them
# repeat a few tags, keys, parent ids and vTags.  Peers choose these strings,
# so the table is bounded: a value longer than _SHARED_MAX_LENGTH is not
# kept, and the table is emptied before it would exceed _SHARED_MAX_ENTRIES.
# Ids and timestamps are unique per increment and stay out.  ``sys.intern``
# is not used: CPython 3.12 makes interned strings immortal, so a peer
# sending ever new values could grow a replica without limit.  Threads may
# decode at once: each table operation is atomic, and a thread switched out
# between the size check and the insert overshoots the bound by one entry.
_SHARED: dict[str, str] = {}
_SHARED_MAX_LENGTH = 64
_SHARED_MAX_ENTRIES = 1 << 15


def _shared(text: str) -> str:
    """The table's string equal to ``text``, or ``text`` itself if it is
    too long to keep."""
    if len(text) > _SHARED_MAX_LENGTH:
        return text
    if len(_SHARED) >= _SHARED_MAX_ENTRIES:
        _SHARED.clear()
    return _SHARED.setdefault(text, text)


# The unchecked constructor's slot setters: Event is frozen, so its own
# __setattr__ refuses them.
_new_object = object.__new__
_set_tag = Event.type_tag.__set__
_set_id = Event.id.__set__
_set_time = Event.time.__set__
_set_params = Event.params.__set__


def _event(type_tag: str, id: str, time: str, params: dict[str, str]) -> Event:
    """The constructor of decoded and of stamped events; it skips
    Event.__post_init__.

    Its checks hold already on both decode paths: the type tag and every
    param key matched _KEY_RE, no param key is reserved (the block regex
    refuses one, the line scanner pops "command", "id" and "time" or refuses
    them as duplicate keys), every value is a str, and ``params`` is a plain
    dict of the block's own, which the event takes as it is.  The copy
    Editor.execute stamps with an id and a time takes the tag and the
    params dict of an event that passed them already; the two events,
    being immutable, share that dict.
    """
    event = _new_object(Event)
    _set_tag(event, type_tag)
    _set_id(event, id)
    _set_time(event, time)
    _set_params(event, params)
    return event


def _finish(fields: dict[str, str], line: int) -> Event:
    tag = fields.pop("command")
    if not _KEY_RE.fullmatch(tag):
        raise DecodeError(line, f"invalid event type tag {tag!r}")
    return _event(tag, fields.pop("id", ""), fields.pop("time", ""), fields)


def _scan(text: str, start: int, lineno: int, events: list[Event]) -> int:
    """The line scanner: decode ``text`` from offset ``start``, on line
    ``lineno``, one line at a time, appending each event it completes to
    ``events``.  At the next well-formed ``- command`` line, and at the end of
    the text, it finishes its block (an invalid type tag raises there) and
    returns that offset, from which the one-match path resumes."""
    shared = _SHARED.get  # a hit costs one lookup; a miss goes to _shared
    fields: dict[str, str] | None = None  # the open block, from block_line on
    for lineno, match in enumerate(_LINE_RE.finditer(text, start), lineno):
        prefix, key, value, line = match.groups()
        if prefix is None:
            bad = _UNSUPPORTED.search(line)
            if bad is not None:
                raise DecodeError(lineno, f"unsupported control character {bad.group()!r}")
            if not line.strip():
                continue
            if line.startswith(("- ", "  ")) and not line.startswith("   "):
                if fields is None and line.startswith("  "):
                    raise DecodeError(lineno, "entry outside of an event block")
                raise DecodeError(lineno, f"expected 'key: value', got {line[2:]!r}")
            raise DecodeError(lineno, f"unrecognized line {line!r}")
        if fields is None and prefix == "  ":
            raise DecodeError(lineno, "entry outside of an event block")
        if value.startswith('"'):
            value = _parse_value(value, lineno)
        if prefix == "- ":
            if key != "command":
                raise DecodeError(lineno, "block must start with 'command'")
            if fields is not None:  # hand back, or raise: the tag is invalid
                events.append(_finish(fields, block_line))
                return match.start()
            fields = {"command": shared(value) or _shared(value)}
            block_line = lineno
        elif key in fields:
            raise DecodeError(lineno, f"duplicate key {key!r} in event block")
        elif key == "id" or key == "time":
            fields[key] = value
        else:
            fields[shared(key) or _shared(key)] = shared(value) or _shared(value)
    if fields is not None:
        events.append(_finish(fields, block_line))
    return len(text)


# A block exactly as encode writes it with every value plain, followed by
# the next block or the end of the text: one match decodes it, and
# _PARAM_RE's findall over its fourth group yields its params.  The param
# repeat takes only lines that start with two spaces, so it never reads into
# the next block, and each repeat stops at a fixed delimiter: a failed match
# backtracks over its own block only, in linear time.
_PLAIN = f"[^{_QUOTED}]+"
_BLOCK_RE = re.compile(
    rf"- command: ({_KEY_RE.pattern})\n"
    rf"(?:  id: ({_PLAIN})\n)?"
    rf"(?:  time: ({_PLAIN})\n)?"
    rf"((?:  (?!(?:{'|'.join(RESERVED_KEYS)}): ){_KEY_RE.pattern}: {_PLAIN}\n)*)"
    r"(?=- |\Z)"
)
_PARAM_RE = re.compile(rf"  ({_KEY_RE.pattern}): ({_PLAIN})\n")
_LINE_END_CRS = re.compile(r"(?<!\r)\r+$", re.MULTILINE)  # tried once per CR run


def decode(text: str) -> list[Event]:
    """Parse text produced by :func:`encode` (or hand-written in its format).

    Lines end at ``"\\n"``.  The carriage returns that end a line are
    dropped before any matching, so CRLF text decodes as LF text does; any
    other ``"\\r"`` is content.  Unknown keys become params; unknown type
    tags are preserved, dispatch happens in the editor.  Malformed lines and
    duplicate keys raise :class:`DecodeError` naming the offending line.

    A block exactly as :func:`encode` writes it, with every value plain, is
    decoded by one match of a block regex.  Any other block (a quoted value,
    a blank line, ``id`` or ``time`` after a param, a duplicate or reserved
    key, no final line break, a malformed line) goes to the line scanner,
    which finishes every block it opens and hands the text back at the next
    ``"- "`` line that follows a valid type tag.
    """
    if "\r" in text and "\r" in (text := text.replace("\r\n", "\n")):  # sweep alone: 1.8x on CRLF
        text = _LINE_END_CRS.sub("", text)
    events: list[Event] = []
    shared = _SHARED.get  # a hit costs one lookup; a miss goes to _shared
    block_at = _BLOCK_RE.match
    params_in = _PARAM_RE.findall
    size = len(text)
    pos = 0
    counted, line = 0, 1  # line is the line number of offset counted
    while pos < size:
        block = block_at(text, pos)
        if block is not None:
            tag, event_id, stamp, lines = block.groups()
            pairs = params_in(lines)
            params = {}
            for key, value in pairs:
                params[shared(key) or _shared(key)] = shared(value) or _shared(value)
            if len(params) == len(pairs):
                tag = shared(tag) or _shared(tag)
                events.append(_event(tag, event_id or "", stamp or "", params))
                pos = block.end()
                continue
        line += text.count("\n", counted, pos)
        counted = pos
        pos = _scan(text, pos, line, events)
    return events
