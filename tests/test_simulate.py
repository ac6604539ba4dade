from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ces import Event, JAVA_DOC, JAVA_PACKAGES, dump_model, model_equal
from ces.cli import DOMAINS
from ces.simulate import Channel, ConvergenceReport, ScriptError, Session, run_script
from ces.editor import CommandError, LoadError
from ces.events import CesError, OverwriteStrategy, decode, encode
from ces.oracles import random_command_sequence

ALICE_EVENT = Event(
    "HaveLeaf", id="Editor", time="2020-01-01T13:36:00.000Z", params={"parent": "serv", "vTag": "1.0"}
)
BOB_EVENT = Event(
    "HaveLeaf", id="Editor", time="2020-01-01T13:37:00.000Z", params={"parent": "serv", "vTag": "1.1"}
)

ALICE_BOB_SCRIPT = """
editor alice javapackages
editor bob javapackages
submit alice HaveLeaf Editor parent=serv vTag=1.0 time=2020-01-01T13:36:00.000Z
submit bob HaveLeaf Editor parent=serv vTag=1.1 time=2020-01-01T13:37:00.000Z
flush
"""


# -- channel ------------------------------------------------------------------------


def test_equal_seeds_produce_identical_delivery_traces():
    def trace(seed):
        channel = Channel(drop=0.3, duplicate=0.4, reorder=True, seed=seed)
        out = []
        for round_no in range(5):
            for i in range(4):
                channel.submit(f"msg-{round_no}-{i}")
            out.append(tuple(channel.flush()))
        out.append(tuple(channel.drain()))
        return out

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_eventual_mode_defers_drops_instead_of_erasing():
    channel = Channel(drop=1.0, eventual=True, seed=1)
    channel.submit("a")
    channel.submit("b")
    assert channel.flush() == []
    assert channel.in_flight == ["a", "b"]
    assert channel.drain() == ["a", "b"]
    assert channel.in_flight == []


def test_lossy_mode_erases_drops():
    channel = Channel(drop=1.0, eventual=False, seed=1)
    channel.submit("a")
    assert channel.flush() == []
    assert channel.in_flight == []


@pytest.mark.parametrize(
    "faults", [{"duplicate": 1.0}, {"duplicate": -0.1}, {"drop": 1.5}, {"drop": float("nan")}]
)
def test_channel_refuses_shares_out_of_range(faults):
    # duplicate=1 would repeat a message forever: random() is always below 1.
    with pytest.raises(ValueError):
        Channel(**faults)


def test_duplicates_repeat_messages():
    channel = Channel(duplicate=0.9, seed=3)
    channel.submit("a")
    delivered = channel.flush()
    assert delivered.count("a") >= 2


# -- sessions ------------------------------------------------------------------------


def make_conflict_session(strategy=OverwriteStrategy.LAST_EDIT_WINS) -> Session:
    session = Session(seed=5, strategy=strategy)
    session.add_editor("alice", JAVA_PACKAGES)
    session.add_editor("bob", JAVA_PACKAGES)
    session.submit("alice", ALICE_EVENT)
    session.submit("bob", BOB_EVENT)
    session.flush()
    return session


def test_alice_and_bob_converge_to_the_later_edit():
    session = make_conflict_session()
    report = session.report()
    assert report.converged
    for editor in session.editors.values():
        assert editor.registry.model_objects["Editor"].attributes["vTag"] == "1.1"
        assert editor.get_active("Editor").time == BOB_EVENT.time


def test_first_edit_wins_converges_to_the_earlier_edit():
    session = make_conflict_session(OverwriteStrategy.FIRST_EDIT_WINS)
    assert session.report().converged
    for editor in session.editors.values():
        assert editor.registry.model_objects["Editor"].attributes["vTag"] == "1.0"


def test_duplication_and_reordering_do_not_change_the_outcome():
    clean = make_conflict_session().report()
    noisy = Session(seed=5, duplicate=0.8, reorder=True)
    noisy.add_editor("alice", JAVA_PACKAGES)
    noisy.add_editor("bob", JAVA_PACKAGES)
    for _ in range(3):  # resubmitting the same events duplicates them further
        noisy.submit("alice", ALICE_EVENT)
        noisy.submit("bob", BOB_EVENT)
        noisy.flush()
    report = noisy.report()
    assert report.converged
    assert report.digests == clean.digests


def test_cross_metamodel_session_converges_on_the_shared_store():
    session = Session(seed=9)
    session.add_editor("packages", JAVA_PACKAGES)
    session.add_editor("doc", JAVA_DOC)
    for event in [
        Event("HaveRoot", id="org", time="2020-01-01T13:00:00.000Z"),
        Event("HaveSubUnit", id="fulib", time="2020-01-01T13:01:00.000Z", params={"parent": "org"}),
    ]:
        session.submit("packages", event)
    session.submit("doc", Event("HaveContent", id="notes", time="2020-01-01T13:02:00.000Z", params={"content": "local"}))
    session.flush()
    report = session.report()
    assert report.converged  # HaveContent is not shared, so stores agree
    doc = session.editors["doc"]
    assert doc.registry.model_objects["fulib"].object_type == "Folder"
    assert "HaveContent" not in session.editors["packages"].export_active()


def test_settle_empties_every_channel_and_is_silent_when_idle():
    session = Session(seed=4, drop=1.0, eventual=True)  # every message deferred
    for name in ("alice", "bob", "carol"):
        session.add_editor(name, JAVA_PACKAGES)
    session.submit("alice", ALICE_EVENT)
    session.submit("bob", BOB_EVENT)
    session.flush()
    assert any(channel.in_flight for channel in session.channels.values())
    session.settle()
    assert not any(channel.in_flight for channel in session.channels.values())
    assert session.report().converged
    trace = list(session.trace)
    session.settle()
    assert session.trace == trace


def test_a_failing_message_loses_none_taken_with_it():
    session = Session(seed=0)
    session.add_editor("alice", JAVA_PACKAGES)
    session.add_editor("bob", JAVA_PACKAGES)
    session.submit("alice", Event("HaveLeaf", id="x", time="2020-01-01T00:00:01.000Z", params={"parent": "p"}))
    session.submit("bob", Event("HaveRoot", id="x", time="2020-01-01T00:00:02.000Z"))
    session.submit("bob", Event("HaveRoot", id="y", time="2020-01-01T00:00:03.000Z"))
    with pytest.raises(LoadError):  # alice's class x cannot become bob's package x
        session.flush()
    assert session.editors["alice"].get_active("y") is not None


def test_pure_loss_non_convergence_is_reported_not_thrown():
    session = Session(seed=2, drop=1.0, eventual=False)  # every message erased
    session.add_editor("alice", JAVA_PACKAGES)
    session.add_editor("bob", JAVA_PACKAGES)
    session.submit("alice", ALICE_EVENT)
    session.flush()
    report = session.report()
    assert not report.converged
    assert "converged: no" in report.to_text()
    assert report.pair_diffs[("alice", "bob")] != []


@pytest.mark.parametrize("eventual", [True, False])
def test_each_reported_dump_and_digest_is_its_editors_own(eventual):
    # Two editors per domain; lossy channels without eventual delivery
    # leave same-domain models apart, so the report renders each of them.
    session = Session(seed=4, drop=0.3, duplicate=0.3, reorder=True, eventual=eventual)
    for name, domain in [("pk0", JAVA_PACKAGES), ("doc0", JAVA_DOC), ("pk1", JAVA_PACKAGES), ("doc1", JAVA_DOC)]:
        session.add_editor(name, domain)
    names = list(session.editors)
    for index, event in enumerate(random_command_sequence(60, 8)):
        session.submit(names[index % len(names)], event)
        if index % 5 == 4:
            session.flush()
    session.settle()
    report = session.report()
    assert report.converged == eventual
    assert len(report.pair_diffs) == 2
    assert all(not diffs for diffs in report.pair_diffs.values()) == eventual
    for name, editor in session.editors.items():
        assert report.model_dumps[name] == dump_model(editor.registry)
        assert report.digests[name] == editor.digest(session.shared_filter())


def test_threaded_replay_of_the_delivery_log_matches_the_simulation():
    # Editors interact only through immutable events, which the channels
    # hand over as the sender stored them; so each editor's feed, encoded
    # and replayed on a thread of its own, must land in the same final state.
    import threading

    from ces import Editor

    session = Session(seed=13, duplicate=0.4, reorder=True)
    names = ["a", "b", "c"]
    feeds = {name: [] for name in names}
    for name in names:
        editor = session.add_editor(name, JAVA_PACKAGES)

        def recording_load(events, load=editor.load, feed=feeds[name]):
            feed.append(encode(events))
            return load(events)

        editor.load = recording_load
    import random as _random

    rng = _random.Random(13)

    for index, event in enumerate(random_command_sequence(30, 99)):
        name = rng.choice(names)
        applied = session.submit(name, event)
        if applied is not None:
            feeds[name].append(encode([applied]))
        if index % 7 == 6:
            session.flush()
    session.drain()
    assert sum(map(len, feeds.values())) > 30

    twins = {name: Editor(JAVA_PACKAGES) for name in names}

    def consume(name):
        for text in feeds[name]:
            twins[name].load_events(text)

    threads = [threading.Thread(target=consume, args=(name,)) for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for name in names:
        assert twins[name].active_commands == session.editors[name].active_commands
        assert model_equal(twins[name].registry, session.editors[name].registry)


def test_a_shared_submit_reaches_each_receiver_as_the_stored_event_with_no_codec_call(monkeypatch):
    # The channels carry the sender's stored event itself.  The events carry
    # no time, so the session's clocks stamp them and never tie: no
    # equal-time tie-break encodes either.
    from ces import editor as editor_module, events as events_module, simulate

    calls = []
    for module in (simulate, editor_module, events_module):
        for name in ("encode", "decode"):
            if hasattr(module, name):

                def counting(*args, _name=name, _codec=getattr(module, name), **kwargs):
                    calls.append(_name)
                    return _codec(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
    session = Session(seed=4, drop=0.3, duplicate=0.6, reorder=True)
    session.add_editor("p", JAVA_PACKAGES)
    session.add_editor("q", JAVA_PACKAGES)
    session.add_editor("d", JAVA_DOC)
    senders = {}
    for index, event in enumerate(random_command_sequence(40, 4)):
        name = "pqd"[index % 3]
        applied = session.submit(name, replace(event, time=""))
        if applied is not None:
            senders[applied] = name, applied
        if index % 5 == 4:
            session.flush()
    session.submit("d", Event("HaveContent", id="C0", params={"content": "local"}))
    session.settle()
    assert calls == []
    # No two stamps are equal, so a stored event equal to another editor's
    # submit is one that editor received.
    received = [
        (event, senders[event][1])
        for name, editor in session.editors.items()
        for event in editor.active_commands.values()
        if senders.get(event, (name,))[0] != name
    ]
    assert len(senders) > 10 and len(received) > 10
    assert all(event is stored for event, stored in received)
    assert session.report().converged


# Values and ids with every character the event text quotes or escapes.
_ODD_TEXT = st.text(alphabet='a "\\\t\r\n\x85\xa0\u2028', max_size=5)
_CONTAINER_IDS = ("org", "a b", "x\u2028")
_LEAF_IDS = ("Editor", 'q"t\\')
# Mostly the editor's own clock; two fixed stamps make equal-time ties.
_TIMES = ("", "", "", "2020-01-01T00:00:00.000Z", "2020-01-01T00:00:01.000Z")


@st.composite
def _commands(draw) -> Event:
    tag = draw(st.sampled_from(("HaveRoot", "HaveSubUnit", "HaveLeaf", "HaveContent", "RemoveCommand")))
    time = draw(st.sampled_from(_TIMES))
    if tag == "HaveRoot":
        return Event(tag, id=draw(st.sampled_from(_CONTAINER_IDS)), time=time)
    if tag == "HaveSubUnit":
        child, parent = draw(st.permutations(_CONTAINER_IDS))[:2]
        return Event(tag, id=child, time=time, params={"parent": parent})
    if tag == "HaveLeaf":
        params = {"parent": draw(st.sampled_from(_CONTAINER_IDS)), "vTag": draw(_ODD_TEXT)}
        return Event(tag, id=draw(st.sampled_from(_LEAF_IDS)), time=time, params=params)
    if tag == "HaveContent":
        return Event(tag, id=draw(st.sampled_from(_LEAF_IDS)), time=time, params={"content": draw(_ODD_TEXT)})
    return Event(tag, id=draw(st.sampled_from(_CONTAINER_IDS + _LEAF_IDS)), time=time)


def _run_session(domains, options, steps) -> str:
    """Submit each step's command, flushing after it when the step says
    so; log each failure, then settle and report."""
    session = Session(**options)
    for index, domain in enumerate(domains):
        session.add_editor(f"e{index}", DOMAINS[domain])
    failures = []

    def attempt(act, *args):
        try:
            act(*args)
        except CesError as exc:
            failures.append(str(exc))

    for editor, event, flush in steps:
        attempt(session.submit, f"e{editor % len(domains)}", event)
        if flush:
            attempt(session.flush)
    attempt(session.settle)
    return "\n".join(failures) + "\n" + session.report().to_text()


@settings(deadline=None, max_examples=60)
@given(
    domains=st.lists(st.sampled_from(("javapackages", "javadoc")), min_size=2, max_size=3),
    seed=st.integers(0, 99),
    strategy=st.sampled_from(list(OverwriteStrategy)),
    drop=st.floats(0.1, 0.5),
    duplicate=st.floats(0.1, 0.5),
    eventual=st.booleans(),
    steps=st.lists(st.tuples(st.integers(0, 2), _commands(), st.booleans()), min_size=4, max_size=25),
)
def test_a_session_reports_byte_for_byte_what_a_hop_through_the_text_reports(
    domains, seed, strategy, drop, duplicate, eventual, steps
):
    # The channels carry the sender's stored event; encoding it and decoding
    # that text before it goes on the wire must change nothing.
    options = dict(seed=seed, strategy=strategy, drop=drop, duplicate=duplicate, reorder=True, eventual=eventual)
    direct = _run_session(domains, options, steps)

    def text_hop(channel, message):
        channel.in_flight.append(decode(encode([message]))[0])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Channel, "submit", text_hop)
        hopped = _run_session(domains, options, steps)
    assert hopped == direct


def test_session_clocks_never_collide():
    session = Session(seed=1)
    session.add_editor("a", JAVA_PACKAGES)
    session.add_editor("b", JAVA_PACKAGES)
    stamps = set()
    for _ in range(5):
        for name in ("a", "b"):
            stamps.add(session.editors[name].clock.now())
    assert len(stamps) == 10


def test_a_submit_holding_a_control_character_is_refused_and_leaves_the_replica_whole():
    session = Session()
    alice = session.add_editor("alice", JAVA_PACKAGES)
    session.add_editor("bob", JAVA_PACKAGES)
    session.submit("alice", Event("HaveRoot", id="r"))
    with pytest.raises(CommandError, match="unsupported control character in the id or a param value of 'C'"):
        session.submit("alice", Event("HaveLeaf", id="C", params={"parent": "r", "vTag": "1\x01"}))
    assert alice.get_active("C") is None and alice.registry.find("C") is None
    session.settle()
    report = session.report()
    assert report.converged
    assert alice.digest() == session.editors["bob"].digest()


def test_a_submit_holding_a_lone_surrogate_is_refused_and_the_session_still_reports():
    session = Session()
    alice = session.add_editor("alice", JAVA_PACKAGES)
    session.add_editor("bob", JAVA_PACKAGES)
    with pytest.raises(CommandError, match="lone surrogate in the id or a param value of 'p\\\\udc80'"):
        session.submit("alice", Event("HaveRoot", id="p\udc80"))
    assert alice.active_commands == {} and alice.registry.find("p\udc80") is None
    session.settle()
    assert session.report().converged


# -- scripts --------------------------------------------------------------------------


def test_script_run_converges_and_reports_the_merged_vtag():
    report = run_script(ALICE_BOB_SCRIPT, DOMAINS, seed=0)
    assert report.converged
    text = report.to_text()
    assert "converged: yes" in text
    assert "vTag=1.1" in text


def test_script_reports_are_byte_reproducible():
    a = run_script(ALICE_BOB_SCRIPT, DOMAINS, seed=3).to_text()
    b = run_script(ALICE_BOB_SCRIPT, DOMAINS, seed=3).to_text()
    assert a == b


def test_script_channel_faults_still_converge():
    script = "channel drop=0.4 duplicate=0.5 reorder=on eventual=on\n" + ALICE_BOB_SCRIPT
    report = run_script(script, DOMAINS, seed=11)
    assert report.converged
    assert "vTag=1.1" in report.to_text()


def test_script_channel_without_eventual_delivery_reports_lost_messages():
    script = "channel drop=1 eventual=off\n" + ALICE_BOB_SCRIPT
    report = run_script(script, DOMAINS, seed=0)
    assert not report.converged
    assert "converged: no" in report.to_text()


def test_a_session_refuses_a_repeated_editor_name():
    session = Session()
    session.add_editor("alice", JAVA_PACKAGES)
    with pytest.raises(ScriptError, match="'alice' already exists"):
        session.add_editor("alice", JAVA_DOC)
    assert list(session.editors) == ["alice"]


def test_an_empty_session_shares_only_removals():
    assert Session().shared_filter() == frozenset({"RemoveCommand"})


def test_script_strategy_directive():
    script = "strategy first-edit-wins\n" + ALICE_BOB_SCRIPT
    report = run_script(script, DOMAINS, seed=0)
    assert report.converged
    assert "vTag=1.0" in report.to_text()


def test_script_lines_end_at_newline_only():
    # U+2028, U+0085 and a lone CR are text, as in the event format, so a
    # quoted value may hold them; a CR before a newline is stripped.
    script = ALICE_BOB_SCRIPT + (
        'submit alice HaveLeaf X parent=serv vTag="a\u2028b" note="c\x85d\re" time=2020-01-01T13:38:00.000Z\n'
    )
    for text in (script, script.replace("\n", "\r\n")):
        report = run_script(text, DOMAINS, seed=0)
        assert report.converged
        rows = report.to_text().split("\n")
        assert rows.count("  JavaClass X {vTag=a\u2028b} links{pack->serv}") == 2


def test_script_errors_count_lines_at_newlines_only():
    script = "editor alice javapackages\n# a comment \u2028 with a separator\r\nteleport alice\n"
    with pytest.raises(ScriptError, match="^line 3: unknown directive 'teleport'"):
        run_script(script, DOMAINS, seed=0)


def test_report_text_keeps_each_model_row_whole():
    dump = "JavaClass X {vTag=a\u2028b\x85c} links{pack->p}\nJavaPackage p {} links{classes->{X}}\n"
    report = ConvergenceReport(converged=True, digests={}, model_dumps={"alice": dump, "bob": ""})
    assert report.to_text().split("\n") == [
        "converged: yes",
        "model alice:",
        "  JavaClass X {vTag=a\u2028b\x85c} links{pack->p}",
        "  JavaPackage p {} links{classes->{X}}",
        "model bob:",
        "trace:",
        "",
    ]


@pytest.mark.parametrize(
    "bad",
    [
        "submit alice HaveRoot org\n",  # no editors declared
        "editor alice nowhere\n",
        "teleport alice\n",
        "editor alice javapackages\nsubmit alice HaveRoot\n",
        "strategy nonsense\n",
        "strategy first-edit-wins\nstrategy last-edit-wins\n" + ALICE_BOB_SCRIPT,
        "editor alice javapackages\n" + ALICE_BOB_SCRIPT,
        "channel reorder=maybe\n",
        "channel drop\n",
        "channel speed=1\n",
        "channel duplicate=1\n",
        "channel drop=abc\n",
        "channel drop=-0.5\n",
        "channel duplicate=nan\n",
        ALICE_BOB_SCRIPT + "channel drop=0.1\n",
        ALICE_BOB_SCRIPT + "editor carol javapackages\n",
        # Lines that read well but whose command fails as it runs.
        ALICE_BOB_SCRIPT + "submit bob HaveRoot x time=zzz\n",
        ALICE_BOB_SCRIPT + "submit alice Bogus x\n",
        ALICE_BOB_SCRIPT + "submit alice HaveSubUnit x\n",
    ],
)
def test_script_errors(bad):
    with pytest.raises(ScriptError, match=r"^line [1-9][0-9]*: "):
        run_script(bad, DOMAINS, seed=0)


@pytest.mark.parametrize(
    "failing, line",
    [
        ("submit alice Bogus x\n", 4),
        # bob's javadoc model holds x.Doc as a Folder, so the flush that
        # brings alice's HaveSubUnit x (whose DocFile is x.Doc) fails there.
        ("submit bob HaveRoot x.Doc\nsubmit alice HaveSubUnit x parent=r\nflush\n", 6),
    ],
)
def test_a_command_that_fails_as_it_runs_names_its_own_line(failing, line):
    script = "editor alice javapackages\neditor bob javadoc\nsubmit alice HaveRoot r\n" + failing + "flush\n"
    with pytest.raises(ScriptError, match=f"^line {line}: "):
        run_script(script, DOMAINS, seed=0)


def test_a_failure_in_the_final_delivery_names_the_end_of_the_script():
    script = (
        "editor alice javapackages\neditor bob javadoc\nsubmit bob HaveRoot x.Doc\n"
        "submit alice HaveRoot r\nsubmit alice HaveSubUnit x parent=r\n"
    )
    with pytest.raises(ScriptError) as raised:
        run_script(script, DOMAINS, seed=0)
    assert str(raised.value) == "end of script: HaveSubUnit 'x': id 'x.Doc' is a Folder, requested DocFile"
