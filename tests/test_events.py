from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from ces.events import (
    Clock,
    DecodeError,
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


def test_compare_versions_matches_numeric_tuple_order():
    corpus = ["1", "1.0", "1.2", "1.10", "2.0.1", "2.1"]
    for a in corpus:
        for b in corpus:
            expected = (tuple(map(int, a.split("."))) > tuple(map(int, b.split(".")))) - (
                tuple(map(int, a.split("."))) < tuple(map(int, b.split(".")))
            )
            assert compare_versions(a, b) == expected


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


def test_decode_round_trips_golden_block():
    event = Event("HaveRoot", id="org", time=T0)
    assert decode(encode([event])) == [event]


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


def test_decode_rejects_duplicate_key():
    with pytest.raises(DecodeError, match="line 3"):
        decode("- command: HaveRoot\n  id: a\n  id: b\n")


def test_decode_rejects_malformed_lines_with_line_number():
    with pytest.raises(DecodeError, match="line 2"):
        decode("- command: HaveRoot\nnot a block\n")
    with pytest.raises(DecodeError, match="line 1"):
        decode('- command: "unterminated\n')
    with pytest.raises(DecodeError, match="line 3: invalid event type tag"):
        decode('- command: HaveRoot\n  id: x\n- command: "a b"\n  id: y\n')
    with pytest.raises(DecodeError, match="line 1: invalid event type tag"):
        decode("- command:\n  id: x\n")


def test_reserved_param_keys_are_rejected_at_construction():
    with pytest.raises(ValueError):
        Event("HaveRoot", id="x", params={"id": "y"})


_value = st.text(
    alphabet=st.sampled_from(list("ab XY0.:\"\\-~\n\t")), min_size=0, max_size=12
)
_events = st.builds(
    Event,
    type_tag=st.from_regex(r"[A-Za-z][A-Za-z0-9_.~-]{0,8}", fullmatch=True),
    id=st.one_of(st.just(""), _value),
    time=st.sampled_from(["", T0, T1]),
    params=st.dictionaries(
        st.from_regex(r"[a-z][A-Za-z0-9_.~-]{0,6}", fullmatch=True), _value, max_size=4
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
