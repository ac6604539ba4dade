from __future__ import annotations

import pytest

from ces import Event, JAVA_DOC, JAVA_PACKAGES, model_equal
from ces.cli import DOMAINS
from ces.simulate import Channel, ScriptError, Session, run_script
from ces.editor import CommandError, LoadError
from ces.events import OverwriteStrategy, encode
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


def test_threaded_replay_of_the_delivery_log_matches_the_simulation():
    # Editors interact only through encoded event text, so replaying each
    # editor's feed on its own thread must land in the same final state.
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


def test_each_shared_submit_is_decoded_once_whatever_the_copies(monkeypatch):
    from ces import editor as editor_module, simulate

    decoded = []

    def counting_decode(text, decode=simulate.decode):
        decoded.append(text)
        return decode(text)

    monkeypatch.setattr(simulate, "decode", counting_decode)
    monkeypatch.setattr(editor_module, "decode", counting_decode)
    session = Session(seed=4, drop=0.3, duplicate=0.6, reorder=True)
    session.add_editor("p", JAVA_PACKAGES)
    session.add_editor("q", JAVA_PACKAGES)
    session.add_editor("d", JAVA_DOC)
    shared = 0
    for index, event in enumerate(random_command_sequence(40, 4)):
        name = "pqd"[index % 3]
        applied = session.submit(name, event)
        shared += applied is not None
        if index % 5 == 4:
            session.flush()
    session.submit("d", Event("HaveContent", id="C0", params={"content": "local"}))
    session.settle()
    assert shared > 10
    assert len(decoded) == shared
    assert session.report().converged


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
    ],
)
def test_script_errors(bad):
    with pytest.raises(ScriptError):
        run_script(bad, DOMAINS, seed=0)

