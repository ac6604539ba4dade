from __future__ import annotations

import copy
import re
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ces import events as events_module
from ces.events import (
    LAST_TIME,
    TIMESTAMP_RE,
    Clock,
    DecodeError,
    EncodeError,
    Event,
    OverwriteStrategy,
    compare_versions,
    decode,
    encode,
    format_timestamp,
    overwrites,
    parse_timestamp,
    stepping_clock,
)

T0 = "2020-01-01T13:36:00.000Z"
T1 = "2020-01-01T13:37:00.000Z"


def leaf(time, vtag, parent="serv"):
    return Event("HaveLeaf", id="Editor", time=time, params={"parent": parent, "vTag": vtag})


# -- clock -------------------------------------------------------------------


def test_fixed_clock_bumps_by_one_millisecond_per_call():
    frozen = datetime(2020, 1, 1, 13, 2, 0, tzinfo=timezone.utc)
    clock = Clock(source=lambda: frozen)
    assert clock.now() == "2020-01-01T13:02:00.000Z"
    assert clock.now() == "2020-01-01T13:02:00.001Z"
    assert clock.now() == "2020-01-01T13:02:00.002Z"


def test_advancing_clock_returns_wall_times_in_order():
    moments = iter(
        datetime(2020, 1, 1, 13, 2, second, tzinfo=timezone.utc) for second in (0, 1, 2)
    )
    clock = Clock(source=lambda: next(moments))
    stamps = [clock.now(), clock.now(), clock.now()]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == 3


def test_clock_never_steps_backwards():
    moments = iter(
        [
            datetime(2020, 1, 1, 13, 2, 5, tzinfo=timezone.utc),
            datetime(2020, 1, 1, 13, 2, 1, tzinfo=timezone.utc),  # wall clock jumped back
        ]
    )
    clock = Clock(source=lambda: next(moments))
    first = clock.now()
    assert clock.now() > first


def test_stepping_clock_is_deterministic():
    a = stepping_clock(T0, step_ms=10)
    b = stepping_clock(T0, step_ms=10)
    assert [a.now() for _ in range(3)] == [b.now() for _ in range(3)]


@pytest.mark.parametrize(
    "start, step_ms, first",
    [
        ("2020-01-01T00:00:00.000Z", 1000, ["2020-01-01T00:00:00.000Z", "2020-01-01T00:00:01.000Z", "2020-01-01T00:00:02.000Z"]),
        ("1999-12-31T23:59:58.500Z", 1000, ["1999-12-31T23:59:58.500Z", "1999-12-31T23:59:59.500Z", "2000-01-01T00:00:00.500Z"]),
        ("2020-02-28T23:59:59.998Z", 1, ["2020-02-28T23:59:59.998Z", "2020-02-28T23:59:59.999Z", "2020-02-29T00:00:00.000Z"]),
        ("0999-12-31T23:59:59.000Z", 500, ["0999-12-31T23:59:59.000Z", "0999-12-31T23:59:59.500Z", "1000-01-01T00:00:00.000Z"]),
        ("2021-03-04T05:06:07.089Z", 86_400_000, ["2021-03-04T05:06:07.089Z", "2021-03-05T05:06:07.089Z", "2021-03-06T05:06:07.089Z"]),
    ],
)
def test_stepping_clock_first_stamps(start, step_ms, first):
    # Pinned stamps, so a change of the clock's base cannot shift them.
    clock = stepping_clock(start, step_ms)
    assert [clock.now() for _ in first] == first


@pytest.mark.parametrize("start", ["9999-12-31T23:59:59.500Z", LAST_TIME])
def test_stepping_clock_near_the_last_time_stays_at_it(start):
    clock = stepping_clock(start)
    assert [clock.now() for _ in range(4)] == [start] + [LAST_TIME] * 3


def test_a_clock_stamps_utc_whatever_zone_its_source_reads():
    plus_two = timezone(timedelta(hours=2))
    clock = Clock(source=lambda: datetime(2020, 1, 1, 1, 30, 0, 250_000, tzinfo=plus_two))
    assert [clock.now(), clock.now()] == ["2019-12-31T23:30:00.250Z", "2019-12-31T23:30:00.251Z"]


@given(
    st.lists(
        st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2100, 1, 1)),
        min_size=2,
        max_size=20,
    )
)
def test_timestamp_string_order_is_chronological_order(moments):
    moments = [m.replace(microsecond=m.microsecond - m.microsecond % 1000) for m in moments]
    stamps = [format_timestamp(m.replace(tzinfo=timezone.utc)) for m in moments]
    assert (stamps == sorted(stamps)) == (moments == sorted(moments))
    for stamp in stamps:
        assert format_timestamp(parse_timestamp(stamp)) == stamp


@given(st.datetimes())
def test_every_formatted_timestamp_is_canonical(moment):
    assert TIMESTAMP_RE.fullmatch(format_timestamp(moment))
    assert TIMESTAMP_RE.fullmatch(format_timestamp(moment.replace(tzinfo=timezone.utc)))


# -- overwrites ----------------------------------------------------------------


def test_later_edit_overwrites_earlier():
    assert overwrites(leaf(T1, "1.1"), leaf(T0, "1.0")) is True
    assert overwrites(leaf(T0, "1.0"), leaf(T1, "1.1")) is False


def test_byte_identical_event_never_overwrites():
    event = leaf(T0, "1.0")
    twin = leaf(T0, "1.0")
    assert overwrites(event, twin) is False
    assert overwrites(twin, event) is False


def test_equal_times_break_tie_on_serialized_event():
    low, high = sorted([leaf(T0, "1.0"), leaf(T0, "1.1")], key=lambda e: encode([e]))
    assert overwrites(high, low) is True
    assert overwrites(low, high) is False


def test_highest_version_wins_compares_components_not_strings():
    new, old = leaf(T1, "1.2"), leaf(T0, "1.10")
    assert overwrites(new, old, OverwriteStrategy.HIGHEST_VERSION_WINS) is False
    assert overwrites(old, new, OverwriteStrategy.HIGHEST_VERSION_WINS) is True


def test_highest_version_ties_fall_back_to_last_edit_wins():
    newer, older = leaf(T1, "1.0", parent="a"), leaf(T0, "1.0", parent="b")
    assert overwrites(newer, older, OverwriteStrategy.HIGHEST_VERSION_WINS) is True


def test_first_edit_wins_mirrors():
    assert overwrites(leaf(T0, "1.0"), leaf(T1, "1.1"), OverwriteStrategy.FIRST_EDIT_WINS) is True
    assert overwrites(leaf(T1, "1.1"), leaf(T0, "1.0"), OverwriteStrategy.FIRST_EDIT_WINS) is False


def test_equal_events_short_circuit_without_encoding(monkeypatch):
    def refuse(events):
        raise AssertionError("encode called for a duplicate")

    monkeypatch.setattr(events_module, "encode", refuse)
    event = leaf(T0, "1.0")
    twin = Event(event.type_tag, id=event.id, time=event.time, params=dict(event.params))
    for strategy in OverwriteStrategy:
        assert overwrites(event, twin, strategy) is False
        assert overwrites(twin, event, strategy) is False


def test_mismatched_ids_are_rejected():
    with pytest.raises(ValueError):
        overwrites(Event("HaveRoot", id="a", time=T0), Event("HaveRoot", id="b", time=T0))


@given(
    vtag_a=st.sampled_from(["1.0", "1.1", "1.10", "2", ""]),
    vtag_b=st.sampled_from(["1.0", "1.1", "1.10", "2", ""]),
    time_a=st.sampled_from([T0, T1]),
    time_b=st.sampled_from([T0, T1]),
    strategy=st.sampled_from(list(OverwriteStrategy)),
)
def test_overwrites_is_a_strict_total_tiebroken_order(vtag_a, vtag_b, time_a, time_b, strategy):
    a, b = leaf(time_a, vtag_a), leaf(time_b, vtag_b)
    if a == b:
        assert not overwrites(a, b, strategy) and not overwrites(b, a, strategy)
    else:
        assert overwrites(a, b, strategy) != overwrites(b, a, strategy)
    assert overwrites(a, a, strategy) is False


# Rivals sharing an id and a time: tags one of which is a prefix of another,
# keys one of which is a prefix of another or sorts between it and its
# extension, and values empty, quoted, escaped or not ASCII, among them
# vTags of equal rank but other bytes ("1.0", "1.00", "01.0").
def _rival(tag, params=None):
    return Event(tag, id="Editor", time=T0, params=params or {})


_rival_value = st.sampled_from(["", "x", "xy", "a b", '"q"', "back\\slash", "t\tn\nr\r", "é", "ü…", "1.0"])
_rivals = st.builds(
    _rival,
    st.sampled_from(["Have", "HaveLeaf", "HaveLeaf2", "Hav"]),
    st.dictionaries(
        st.sampled_from(["a", "a-", "a.b", "vTag"]),
        st.one_of(_rival_value, st.sampled_from(["1.0", "1.00", "01.0", "1.1", "2"])),
        max_size=3,
    ),
)


# The tags decide against the param lines, both ways; then the param lines.
@example(_rival("Have", {"a": "y"}), _rival("HaveLeaf", {"a": "x"}))
@example(_rival("HaveLeaf"), _rival("Have", {"a": "x"}))
@example(_rival("HaveLeaf", {"a-": "x"}), _rival("HaveLeaf", {"a": "x"}))
@example(_rival("HaveLeaf", {"vTag": "1.0"}), _rival("HaveLeaf", {"vTag": "1.00"}))
@given(_rivals, _rivals)
def test_an_equal_time_tie_is_broken_by_the_encoded_bytes(new, old):
    for strategy in OverwriteStrategy:
        if strategy == OverwriteStrategy.HIGHEST_VERSION_WINS:
            rank = compare_versions(new.params.get("vTag", ""), old.params.get("vTag", ""))
            if rank != 0:
                assert overwrites(new, old, strategy) is (rank > 0)
                continue
        assert overwrites(new, old, strategy) is (encode([old]) < encode([new]))


def test_compare_versions_matches_numeric_tuple_order():
    corpus = ["1", "1.0", "1.2", "1.10", "2.0.1", "2.1"]
    for a in corpus:
        for b in corpus:
            expected = (tuple(map(int, a.split("."))) > tuple(map(int, b.split(".")))) - (
                tuple(map(int, a.split("."))) < tuple(map(int, b.split(".")))
            )
            assert compare_versions(a, b) == expected


# Digit runs with and without leading zeros, one of 5000 digits (past the
# 4300 that int() takes from a string), text, digits that are not ASCII
# ("²" passes str.isdigit but not int()), and empty components.
_version_part = st.sampled_from(
    ["", "0", "00", "7", "07", "9", "10", "010", "1" + "0" * 4999, "0" + "9" * 4999,
     "a", "1a", "9a", "a1", "Z", "-", "²", "١", "9²"]
)
_version = st.lists(_version_part, min_size=1, max_size=3).map(".".join)


@given(_version, _version, _version)
def test_compare_versions_is_a_total_order(a, b, c):
    ab, bc, ac = compare_versions(a, b), compare_versions(b, c), compare_versions(a, c)
    assert compare_versions(a, a) == 0
    assert compare_versions(b, a) == -ab
    if ab <= 0 and bc <= 0:
        assert ac <= 0
        if ab == bc == 0:
            assert ac == 0


def test_compare_versions_sorts_numbers_before_text_and_more_components_last():
    ordered = ["", "0", "1", "1.", "1.0", "1.9", "01.10", "1." + "9" * 5000, "1.1a", "1.²", "2", "a"]
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            assert compare_versions(a, b) == (i > j) - (i < j), (a, b)


# -- codec ---------------------------------------------------------------------


def test_encode_single_event_golden():
    text = encode([Event("HaveRoot", id="org", time=T0)])
    assert text == f"- command: HaveRoot\n  id: org\n  time: {T0}\n"


def test_encode_orders_params_and_quotes_reserved_text():
    event = Event("HaveContent", id="Editor", time=T0, params={"content": "hello world", "a": "x"})
    text = encode([event])
    assert text == (
        f'- command: HaveContent\n  id: Editor\n  time: {T0}\n  a: x\n  content: "hello world"\n'
    )


def test_encode_empty_sequence_is_empty_text():
    assert encode([]) == ""


def _scanned(text):
    """The events the line scanner alone decodes ``text`` to."""
    events, pos = [], 0
    while pos < len(text):
        pos = events_module._scan(text, pos, text.count("\n", 0, pos) + 1, events)
    return events


@pytest.mark.parametrize("count", [0, 1, 2, 3, 5])
def test_decode_round_trips_golden_block(count):
    event = Event("HaveRoot", id="org", time=T0, params={f"k{i}": f"v{i}" for i in range(count)})
    text = encode([event])
    with mock.patch.object(events_module, "_scan", _scanner_called):
        assert decode(text) == [event]
    assert _scanned(text) == [event]
    assert decode(text * 3) == _scanned(text * 3) == [event] * 3


def test_decode_preserves_block_order_and_unknown_keys():
    text = "- command: Strange\n  id: a\n  mystery: q\n- command: HaveRoot\n  id: b\n"
    first, second = decode(text)
    assert first == Event("Strange", id="a", params={"mystery": "q"})
    assert second == Event("HaveRoot", id="b")


def test_decode_rejects_block_not_starting_with_command():
    with pytest.raises(DecodeError, match="line 1"):
        decode("- id: org\n")
    with pytest.raises(DecodeError, match="line 1"):
        decode("  id: org\n")


@pytest.mark.parametrize(
    "lines, line",
    [
        (["  id: a", "  id: b"], 3),
        (["  p: 1", "  p: 2"], 3),  # within the pair of param lines the block regex reads itself
        (["  id: a", "  time: " + T0, "  p: 1", "  p: 2"], 5),
        (["  p: 1", "  q: 2", "  p: 3"], 4),  # between that pair and the lines after it
        (["  p: 1", "  q: 2", "  r: 3", "  s: 4", "  r: 5"], 6),  # among the lines after it
        (["  p: 1", "  q: 2", "  command: X"], 4),
    ],
)
def test_decode_rejects_duplicate_key(lines, line):
    text = "- command: HaveRoot\n" + "".join(entry + "\n" for entry in lines)
    key = lines[-1].split(":")[0].strip()
    expected = ("DecodeError", f"line {line}: duplicate key {key!r} in event block", line)
    assert _outcome(decode, text) == _outcome(_scanned, text) == expected
    after = encode([leaf(T0, "1.0")])
    assert _outcome(decode, after + text + after) == _outcome(_scanned, after + text + after)


def test_decode_rejects_malformed_lines_with_line_number():
    with pytest.raises(DecodeError, match="line 2"):
        decode("- command: HaveRoot\nnot a block\n")
    with pytest.raises(DecodeError, match="line 1"):
        decode('- command: "unterminated\n')
    with pytest.raises(DecodeError, match="line 3: invalid event type tag"):
        decode('- command: HaveRoot\n  id: x\n- command: "a b"\n  id: y\n')
    with pytest.raises(DecodeError, match="line 1: invalid event type tag"):
        decode("- command:\n  id: x\n")
    with pytest.raises(DecodeError, match="line 2: block must start with 'command'"):
        decode('- command: "a b"\n- id: y\n')
    # A block whose type tag is invalid is reported where it ends, after any
    # malformed line up to and including the line that ends it.
    with pytest.raises(DecodeError, match="line 1: invalid event type tag 'a b'"):
        decode('- command: "a b"\n' + encode([leaf(T0, "1.0")]))
    with pytest.raises(DecodeError, match="line 2: unterminated quoted value"):
        decode('- command: "a b"\n- command: "unterminated\n')
    with pytest.raises(DecodeError, match="line 3: expected 'key: value', got 'vTag 2.0'"):
        decode('- command: "a b"\n  id: x\n  vTag 2.0\n' + encode([leaf(T0, "1.0")]))


def test_decode_refuses_what_encode_refuses():
    for c in map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20)]):
        with pytest.raises(EncodeError):
            encode([Event("HaveRoot", id=f"a{c}b")])
        bare, quoted = f"  id: a{c}b\n", f'  id: "a{c}b"\n'
        for text in ("- command: HaveRoot\n" + bare, "- command: HaveRoot\n" + quoted, f"{c}\n"):
            with pytest.raises(DecodeError, match=f"line {text.count(chr(10))}: unsupported control"):
                decode(text)
    assert decode("- command: HaveRoot\n  id: a\tb\n  p: a\rb\n") == [
        Event("HaveRoot", id="a\tb", params={"p": "a\rb"})
    ]


def test_reserved_param_keys_are_rejected_at_construction():
    with pytest.raises(ValueError):
        Event("HaveRoot", id="x", params={"id": "y"})


@pytest.mark.parametrize(
    "params, message",
    [({"a b": "y"}, "invalid param key 'a b'"), ({"vTag": 1}, "param 'vTag' must be a string, got 1")],
)
def test_malformed_params_are_rejected_at_construction(params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Event("HaveRoot", id="x", params=params)


# C0 controls other than tab, newline and carriage return are the only
# characters encode refuses.  The listed ones are drawn often: they need
# quoting or escaping, and U+0085, U+2028 and U+2029 are line breaks to
# str.splitlines but not to the codec.
_C0_REFUSED = [chr(c) for c in range(0x20) if chr(c) not in "\t\n\r"]
_value = st.text(
    alphabet=st.one_of(
        st.sampled_from(list("ab XY0.:\"\\-~\n\t\r\x85\u2028\u2029\xa0\u3000")),
        st.characters(exclude_characters=_C0_REFUSED),
    ),
    min_size=0,
    max_size=12,
)
_events = st.builds(
    Event,
    type_tag=st.from_regex(r"[A-Za-z][A-Za-z0-9_.~-]{0,8}", fullmatch=True),
    id=st.one_of(st.just(""), _value),
    time=st.sampled_from(["", T0, T1]),
    params=st.dictionaries(
        st.from_regex(r"[a-z][A-Za-z0-9_.~-]{0,6}", fullmatch=True).filter(
            lambda key: key not in events_module.RESERVED_KEYS
        ),
        _value,
        max_size=4,
    ),
)


@given(st.lists(_events, max_size=5))
def test_codec_round_trip_identities(events):
    text = encode(events)
    decoded = decode(text)
    assert decoded == events
    assert encode(decoded) == text


@given(_events)
def test_serialization_is_deterministic_across_param_insertion_order(event):
    reordered = Event(
        event.type_tag,
        id=event.id,
        time=event.time,
        params=dict(reversed(list(event.params.items()))),
    )
    assert encode([event]) == encode([reordered])
    assert event == reordered and hash(event) == hash(reordered)


def test_events_are_equal_exactly_when_every_field_is():
    event = leaf(T0, "1.0")
    assert event == leaf(T0, "1.0") and not event != leaf(T0, "1.0")
    others = [
        leaf(T1, "1.0"),
        leaf(T0, "1.1"),
        Event("HaveLeaf", id="Other", time=T0, params=event.params),
        Event("HaveRoot", id="Editor", time=T0, params=event.params),
    ]
    for other in others:
        assert event != other and other != event

    class Subclass(Event):
        pass

    twin = Subclass(event.type_tag, event.id, event.time, event.params)
    for other in (twin, (event.type_tag, event.id, event.time, event.params)):
        assert event.__eq__(other) is NotImplemented
    assert event != (event.type_tag, event.id, event.time, event.params)


# -- differential checks against the previous codec ---------------------------------
#
# Frozen copies of the character-by-character codec that the regex-scanned one
# replaced; they serve only as references here.

_REF_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_REF_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_REF_KEY_RE = re.compile(r"[A-Za-z0-9_.~-]+")


def _ref_plain(value):
    if not value:
        return False
    return not any(c.isspace() or c in '"\\' or ord(c) < 0x20 for c in value)


def _ref_scalar(value):
    if _ref_plain(value):
        return value
    out = []
    for c in value:
        if c in _REF_ESCAPES:
            out.append(_REF_ESCAPES[c])
        elif ord(c) < 0x20:
            raise EncodeError(f"unsupported control character {c!r} in value")
        else:
            out.append(c)
    return '"' + "".join(out) + '"'


def _ref_encode(events):
    blocks = []
    for event in events:
        lines = [f"- command: {_ref_scalar(event.type_tag)}"]
        if event.id:
            lines.append(f"  id: {_ref_scalar(event.id)}")
        if event.time:
            lines.append(f"  time: {_ref_scalar(event.time)}")
        for key in sorted(event.params):
            lines.append(f"  {key}: {_ref_scalar(event.params[key])}")
        blocks.append("\n".join(lines) + "\n")
    return "".join(blocks)


def _ref_parse_value(raw, line):
    if not raw.startswith('"'):
        return raw
    out = []
    i = 1
    while i < len(raw):
        c = raw[i]
        if c == "\\":
            if i + 1 >= len(raw) or raw[i + 1] not in _REF_UNESCAPES:
                raise DecodeError(line, "bad escape sequence in quoted value")
            out.append(_REF_UNESCAPES[raw[i + 1]])
            i += 2
        elif c == '"':
            if raw[i + 1 :].strip():
                raise DecodeError(line, "trailing content after closing quote")
            return "".join(out)
        else:
            out.append(c)
            i += 1
    raise DecodeError(line, "unterminated quoted value")


@given(
    st.text(
        alphabet=st.one_of(st.sampled_from(list('"\\nrtq \r\t\x85\u2028')), st.characters()),
        max_size=12,
    )
)
def test_parse_value_agrees_with_the_reference(body):
    raw = '"' + body
    assert _outcome(events_module._parse_value, raw, 3) == _outcome(_ref_parse_value, raw, 3)


def _ref_parse_entry(text, line):
    key, sep, rest = text.partition(":")
    if not sep or not _REF_KEY_RE.fullmatch(key):
        raise DecodeError(line, f"expected 'key: value', got {text!r}")
    if rest.startswith(" "):
        rest = rest[1:]
    return key, _ref_parse_value(rest, line)


def _ref_decode(text):
    events = []
    fields = None
    block_line = 0

    def finish():
        if fields is None:
            return
        params = dict(fields)
        tag = params.pop("command")
        try:
            event = Event(tag, id=params.pop("id", ""), time=params.pop("time", ""), params=params)
        except ValueError as exc:
            raise DecodeError(block_line, str(exc)) from None
        events.append(event)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("- "):
            key, value = _ref_parse_entry(line[2:], lineno)
            if key != "command":
                raise DecodeError(lineno, "block must start with 'command'")
            finish()
            fields = {"command": value}
            block_line = lineno
        elif line.startswith("  ") and not line.startswith("   "):
            if fields is None:
                raise DecodeError(lineno, "entry outside of an event block")
            key, value = _ref_parse_entry(line[2:], lineno)
            if key in fields:
                raise DecodeError(lineno, f"duplicate key {key!r} in event block")
            fields[key] = value
        else:
            raise DecodeError(lineno, f"unrecognized line {line!r}")
    finish()
    return events


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (DecodeError, EncodeError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def test_plain_agrees_with_the_reference_on_every_code_point():
    assert events_module._plain("") is _ref_plain("") is False
    differing = [
        cp for cp in range(sys.maxunicode + 1) if events_module._plain(chr(cp)) != _ref_plain(chr(cp))
    ]
    assert differing == []


_any_value = st.text(
    alphabet=st.one_of(
        st.sampled_from(list('a "\\\n\r\t\x00\x0b\x1f\x85\u2028\xa0')), st.characters()
    ),
    max_size=10,
)


@given(st.lists(_events, max_size=4), _any_value)
def test_encode_is_byte_identical_to_the_reference(events, value):
    assert encode(events) == _ref_encode(events)
    assert _outcome(events_module._scalar, value) == _outcome(_ref_scalar, value)


# Lines the previous decoder split the same way: "\n" and CRLF breaks only,
# none of the other separators str.splitlines honours (a lone "\r", "\v",
# "\f", "\x1c"-"\x1e", U+0085, U+2028, U+2029).
_soup_key = st.sampled_from(["command", "id", "time", "parent", "vTag", "a.b~c-d_9", "", "b c", "x\"", "é"])
_soup_value = st.one_of(
    st.sampled_from(
        [
            "",
            "x",
            "HaveRoot",
            "a b",
            T0,
            '"quoted value"',
            '"esc \\" \\\\ \\n \\r \\t"',
            '"bad \\q escape"',
            '"dangling \\',
            '"unterminated',
            '"closed" trailing',
            '"closed"   ',
            '""',
            ' "lead"',
            "va:lue",
            "\u3000",
        ]
    ),
    st.text(alphabet=st.sampled_from(list('ab :"\\\t nrq')), max_size=8),
)
_soup_any = st.builds(
    lambda prefix, key, sep, value: prefix + key + sep + value,
    st.sampled_from(["- ", "  ", "   ", "", "-", "-  ", "\t", " "]),
    _soup_key,
    st.sampled_from([": ", ":", ":  ", " ", "", " : "]),
    _soup_value,
)
_soup_start = st.builds(
    lambda key, value: f"- {key}: {value}",
    st.sampled_from(["command", "id"]),
    st.sampled_from(["HaveRoot", "X.y", '"HaveRoot"', '"a b"', "", '"unterminated']),
)
_soup_entry = st.builds(
    lambda key, sep, value: "  " + key + sep + value,
    st.sampled_from(["id", "time", "parent", "vTag", "a.b~c-d_9", "command"]),
    st.sampled_from([": ", ":"]),
    st.one_of(st.sampled_from(["x", "a b", T0, '"quoted value"', '"esc \\" \\n"']), _soup_value),
)
_soup_blank = st.sampled_from(["", " ", "\t", "\u3000", "   "])
# Mostly well-formed blocks, so that errors also turn up deep in the text.
_soup_block = st.builds(
    lambda start, rest: [start] + rest,
    st.one_of(_soup_start, _soup_start, _soup_any),
    st.lists(st.one_of(_soup_entry, _soup_entry, _soup_blank, _soup_any), max_size=3),
)
_soup_ending = st.sampled_from(["\n", "\r\n"])


def _assert_built_as_by_the_constructor(outcome):
    """Decoded events equal, and hash like, the checked constructor's, and
    each holds a plain dict of its own as params."""
    if outcome[0] != "ok":
        return
    events = outcome[1]
    for e in events:
        built = Event(e.type_tag, e.id, e.time, dict(e.params))
        assert e == built and hash(e) == hash(built)
        assert type(e.params) is dict
    assert len({id(e.params) for e in events}) == len(events)


@settings(max_examples=400)
@given(st.lists(_soup_block, max_size=4), st.data())
def test_decode_matches_the_reference_on_line_soup(blocks, data):
    lines = [line for block in blocks for line in block]
    endings = data.draw(st.lists(_soup_ending, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + ending for line, ending in zip(lines, endings))
    if lines and data.draw(st.booleans()):
        text = text[: -len(endings[-1])]  # no break after the last line
    outcome = _outcome(decode, text)
    assert outcome == _outcome(_ref_decode, text)
    _assert_built_as_by_the_constructor(outcome)


@given(st.lists(_events, max_size=4), st.booleans())
def test_decode_matches_the_reference_on_encoded_text(events, crlf):
    text = encode(events)
    if crlf:
        text = text.replace("\n", "\r\n")
    if any(c in text for c in "\x85\u2028\u2029\x0b\x0c\x1c\x1d\x1e"):
        return  # the reference splits these; see test_codec_round_trip_identities
    outcome = _outcome(decode, text)
    assert outcome == _outcome(_ref_decode, text)
    _assert_built_as_by_the_constructor(outcome)


def test_decode_names_a_malformed_line_deep_in_a_large_crlf_text():
    events = [
        Event("HaveLeaf", id=f"C{i}", time=T0, params={"parent": f"p{i % 50}", "vTag": "1.0"})
        for i in range(2000)
    ]
    lines = []
    for event in events:
        lines += encode([event]).splitlines() + [""]  # five entries, then a blank line
    assert decode("\r\n".join(lines) + "\r\n") == events
    bad = 6 * 1500 + 2  # the third line of block 1501
    lines.insert(bad, "  vTag 2.0")
    with pytest.raises(DecodeError) as info:
        decode("\r\n".join(lines) + "\r\n")
    assert info.value.line == bad + 1
    assert str(info.value) == f"line {bad + 1}: expected 'key: value', got 'vTag 2.0'"


# -- the one-match path for canonical blocks and the line scanner -------------------

# Whatever splits lines for str.splitlines (and so for _ref_decode) but not for
# the codec; a quoted value may hold any of them.
_SPLITLINES_ONLY = "\x85\u2028\u2029\x0b\x0c\x1c\x1d\x1e"

# Any character but whitespace, controls, a quote and a backslash.
_plain_value = st.text(
    alphabet=st.one_of(
        st.sampled_from(list("aZ0.:-~/\x7fé")),
        st.characters(exclude_categories=("Cc", "Zs", "Zl", "Zp"), exclude_characters='"\\'),
    ),
    min_size=1,
    max_size=12,
)
_plain_events = st.builds(
    Event,
    type_tag=st.from_regex(r"[A-Za-z][A-Za-z0-9_.~-]{0,8}", fullmatch=True),
    id=st.one_of(st.just(""), _plain_value),
    time=st.sampled_from(["", T0, T1]),
    params=st.dictionaries(
        st.one_of(
            st.sampled_from(["parent", "vTag"]),
            st.from_regex(r"[a-z][A-Za-z0-9_.~-]{0,6}", fullmatch=True).filter(
                lambda key: key not in events_module.RESERVED_KEYS
            ),
        ),
        _plain_value,
        max_size=4,
    ),
)


_piece = st.one_of(
    st.tuples(st.just("encoded"), _events),
    st.tuples(st.just("crlf"), _events),
    st.tuples(st.just("soup"), _soup_block, st.lists(_soup_ending, min_size=4, max_size=4)),
    # a plain-valued block with one more plain line spliced in: often a
    # duplicate or reserved key, or id or time after a param
    st.tuples(
        st.just("spliced"),
        _plain_events,
        st.sampled_from(["id", "time", "command", "parent", "vTag"]),
        _plain_value,
        st.integers(1, 6),
    ),
)


def _piece_text(piece) -> str:
    kind = piece[0]
    if kind == "soup":
        return "".join(line + ending for line, ending in zip(piece[1], piece[2]))
    if kind == "spliced":
        _, event, key, value, at = piece
        lines = encode([event]).splitlines(keepends=True)
        lines.insert(min(at, len(lines)), f"  {key}: {value}\n")
        return "".join(lines)
    text = encode([piece[1]])
    return text.replace("\n", "\r\n") if kind == "crlf" else text


@settings(max_examples=200)
@given(st.lists(_piece, max_size=6), st.booleans())
def test_decode_matches_the_reference_on_canonical_blocks_among_others(pieces, cut_last_break):
    text = "".join(_piece_text(piece) for piece in pieces)
    if cut_last_break and text.endswith("\n"):
        text = text[:-1]
    if any(c in text for c in _SPLITLINES_ONLY):
        return
    outcome = _outcome(decode, text)
    assert outcome == _outcome(_ref_decode, text)
    _assert_built_as_by_the_constructor(outcome)


def _scanner_called(*args):
    raise AssertionError("a canonical block went to the line scanner")


@given(st.lists(_plain_events, max_size=5))
def test_text_as_encode_writes_it_with_plain_values_never_goes_line_by_line(events):
    assert all(events_module._plain(v) for e in events for v in e.params.values())
    text = encode(events)
    with mock.patch.object(events_module, "_scan", _scanner_called):
        decoded = decode(text)
    assert decoded == events
    _assert_built_as_by_the_constructor(("ok", decoded))


@given(st.lists(_plain_events, max_size=5))
def test_crlf_text_as_encode_writes_it_never_goes_line_by_line_either(events):
    text = encode(events)
    with mock.patch.object(events_module, "_scan", _scanner_called):
        assert decode(text.replace("\n", "\r\n")) == decode(text) == events


@settings(max_examples=200)
@given(st.lists(_soup_block, max_size=4), st.data())
def test_carriage_returns_that_end_a_line_change_no_outcome(blocks, data):
    # Any other carriage return is content, the same in both texts.
    lines = [
        line + data.draw(st.sampled_from(["", "", "\rb", ' "\r"', "\r "]))
        for block in blocks
        for line in block
    ]
    runs = data.draw(st.lists(st.sampled_from(["", "\r", "\r\r"]), min_size=len(lines), max_size=len(lines)))
    lf = "".join(line + "\n" for line in lines)
    crs = "".join(line + run + "\n" for line, run in zip(lines, runs))
    if lines and data.draw(st.booleans()):  # no break after the last line
        lf, crs = lf[:-1], crs[:-1]
    assert _outcome(decode, crs) == _outcome(decode, lf)


def test_only_the_block_of_another_form_goes_to_the_scanner(monkeypatch):
    scanned = []
    real_scan = events_module._scan

    def scan(text, start, *rest):
        returned = real_scan(text, start, *rest)
        scanned.append(text[start:returned])
        return returned

    monkeypatch.setattr(events_module, "_scan", scan)
    first, second = leaf(T0, "1.0"), leaf(T1, "2.0")
    quoted = encode([second]).replace("vTag: 2.0", 'vTag: "2.0"')
    assert decode(encode([first]) + quoted + encode([first])) == [first, second, first]
    assert scanned == [quoted]


def _decode_in(text: str, seconds: float):
    start = time.perf_counter()
    outcome = _outcome(decode, text)
    assert time.perf_counter() - start < seconds
    return outcome


def test_a_megabyte_of_hostile_text_decodes_in_linear_time():
    # A canonical block whose 50k param lines end without a final line
    # break: the block regex fails only at the last line, and must not
    # backtrack across the lines it matched.
    params = {f"k{i}": f"value{i:013}" for i in range(50_000)}
    text = encode([Event("HaveLeaf", id="C1", time=T0, params=params)])
    assert len(text) > 1_000_000
    assert _decode_in(text[:-1], 10) == ("ok", [Event("HaveLeaf", id="C1", time=T0, params=params)])
    # Canonical blocks with CRLF on every other line, then a bad last line.
    block = encode([leaf(T0, "1.0")]).split("\n")[:-1]
    lines = [line + ("\r\n" if i % 2 else "\n") for i, line in enumerate(block * 20_000)]
    bad = len(lines) + 1
    outcome = _decode_in("".join(lines) + "  vTag 2.0\n", 10)
    assert outcome == ("DecodeError", f"line {bad}: expected 'key: value', got 'vTag 2.0'", bad)
    # A run of CRs not followed by a line end stays content; the sweep that
    # drops the CRs ending a line must not retry the run at each of its CRs.
    run = "\r" * 100_000
    head = f"- command: HaveLeaf\n  id: C1\n  time: {T0}\n"
    leaf_with_note = Event("HaveLeaf", id="C1", time=T0, params={"note": f"a{run}b"})
    assert _decode_in(f"{head}  note: a{run}b\n", 10) == ("ok", [leaf_with_note])
    assert _decode_in(f"{head}{run}\n  note: a{run}b{run}", 10) == ("ok", [leaf_with_note])
    outcome = _decode_in(f"{run}x", 10)
    assert outcome == ("DecodeError", f"line 1: unrecognized line {run + 'x'!r}", 1)


# -- decode of arbitrary text --------------------------------------------------------

_codec_pieces = st.lists(
    st.sampled_from(list('- :"\\abcdi\t\r\n\x00\x0b\x85\u2028\u3000') + ["command", "id", "time", T0]),
    max_size=40,
).map("".join)


@st.composite
def _damaged_text(draw):
    """Encoded events with a few pieces cut out or spliced in."""
    text = encode(draw(st.lists(_events, min_size=1, max_size=3)))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + draw(st.text(alphabet='- :"\\a\t\r\n\x00\x0b\x85', max_size=4)) + text[end:]
    return text


@settings(max_examples=500)
@given(
    st.one_of(
        st.text(),
        _codec_pieces,
        st.lists(_soup_block, max_size=4).map(
            lambda blocks: "\n".join(line for block in blocks for line in block)
        ),
        _damaged_text(),
    )
)
def test_decode_of_any_text_is_an_error_or_round_trips(text):
    try:
        events = decode(text)
    except DecodeError:
        return
    assert decode(encode(events)) == events


# -- one shared copy of each decoded tag, key and short value ------------------------


def test_decoded_tags_keys_and_short_values_are_shared_across_decode_calls(monkeypatch):
    monkeypatch.setattr(events_module, "_SHARED", {})
    made = [Event("HaveLeaf", id=f"C{i}", time=T0, params={"parent": "p7"}) for i in range(2)]
    (a,), (b,) = decode(encode(made[:1])), decode(encode(made[1:]))
    assert [a, b] == made
    assert a.type_tag is b.type_tag
    (key_a, value_a), (key_b, value_b) = *a.params.items(), *b.params.items()
    assert key_a is key_b and value_a is value_b
    # Ids and times are unique per increment and stay out of the table.
    assert set(events_module._SHARED) == {"HaveLeaf", "parent", "p7"}


def test_a_value_over_the_length_limit_is_not_kept(monkeypatch):
    monkeypatch.setattr(events_module, "_SHARED", {})
    limit = events_module._SHARED_MAX_LENGTH
    short, long = "s" * limit, "l" * (limit + 1)
    event = Event("HaveLeaf", id="C1", time=T0, params={"short": short, "long": long})
    (a,), (b,) = decode(encode([event])), decode(encode([event]))
    assert a == b == event
    assert a.params["short"] is b.params["short"]
    assert a.params["long"] is not b.params["long"]
    assert short in events_module._SHARED and long not in events_module._SHARED


class _WatchedTable(dict):
    """A sharing table that records the most entries it ever held."""

    peak = 0

    def setdefault(self, key, default):
        value = super().setdefault(key, default)
        self.peak = max(self.peak, len(self))
        return value


def test_a_hostile_stream_of_distinct_keys_and_values_never_grows_the_table_past_its_bound(
    monkeypatch,
):
    table = _WatchedTable()
    monkeypatch.setattr(events_module, "_SHARED", table)
    for first in range(0, 20_000, 1_000):
        sent = [
            Event("HaveLeaf", id=f"C{n}", time=T0, params={f"k{n}_{j}": f"v{n}_{j}" for j in range(5)})
            for n in range(first, first + 1_000)
        ]
        assert decode(encode(sent)) == sent
        assert len(table) <= events_module._SHARED_MAX_ENTRIES
    # 100k distinct keys and 100k distinct values filled the table, and it
    # was emptied each time before it would exceed its bound.
    assert table.peak == events_module._SHARED_MAX_ENTRIES


def test_threads_decoding_at_once_get_their_own_events_and_keep_the_table_bounded(monkeypatch):
    table = _WatchedTable()
    monkeypatch.setattr(events_module, "_SHARED", table)
    monkeypatch.setattr(events_module, "_SHARED_MAX_ENTRIES", 500)
    workers = 4
    texts = [
        [
            [
                Event("HaveLeaf", id=f"C{w}_{n}", time=T0, params={f"k{w}_{n}": f"v{n % 300}"})
                for n in range(first, first + 200)
            ]
            for first in range(0, 2_000, 200)
        ]
        for w in range(workers)
    ]
    wrong: list[int] = []

    def work(w: int) -> None:
        for sent in texts[w]:
            if decode(encode(sent)) != sent:
                wrong.append(w)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    # A thread may be switched out between the size check and the insert,
    # so the bound may be overshot by at most one entry per other thread.
    assert table.peak <= 500 + workers - 1


# -- slotted records ---------------------------------------------------------------


def test_events_are_slotted():
    event = decode(encode([leaf(T0, "1.0")]))[0]
    for record in (event, leaf(T0, "1.0")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(record, "note", "ad hoc")
    assert copy.deepcopy(event) == event and hash(copy.deepcopy(event)) == hash(event)
