"""Acceptance suite: one test per criterion, reported line by line in the
terminal summary (see conftest).

Replay oracles are independent of the editor's overwrite bookkeeping: they
rebuild models from scratch and compare registries structurally.
"""

from __future__ import annotations

import itertools
import random

from ces import Editor, Event, JAVA_DOC, JAVA_PACKAGES, model_diff, model_equal
from ces.objects import dump_model
from ces.oracles import (
    active_set,
    check_commutative,
    exhaustive_sequences,
    random_command_sequence,
    replay,
    stamp_events,
)
from ces.simulate import Session

from conftest import start_events

DOC_GOLDEN = """\
DocFile Editor {version=1.0} links{folder->serv}
Folder fulib {} links{files->{fulib.Doc},pFolder->org,subFolders->{serv}}
DocFile fulib.Doc {content=fulib docu} links{folder->fulib}
Folder org {} links{subFolders->{fulib}}
Folder serv {} links{files->{Editor,serv.Doc},pFolder->fulib}
DocFile serv.Doc {content=serv docu} links{folder->serv}
"""

DOMAINS = (JAVA_PACKAGES, JAVA_DOC)


def fresh_sync(events):
    packages = replay(events, JAVA_PACKAGES)
    doc = Editor(JAVA_DOC)
    doc.load_events(packages.export_active())
    return packages, doc


def garbage_ids(registry) -> list[str]:
    """Structural oracle for objects no command would recreate: isolated
    empty containers and unattached leaves."""
    bad = []
    for obj in registry.model_objects.values():
        ones = {k for k, v in obj.to_one.items() if v}
        manys = {k for k, v in obj.to_many.items() if v}
        if obj.object_type in ("JavaPackage", "Folder"):
            if not ones and not manys:
                bad.append(obj.id)
        elif obj.object_type == "JavaClass":
            if "pack" not in ones:
                bad.append(obj.id)
        elif obj.object_type == "DocFile" and not obj.id.endswith(".Doc"):
            if "folder" not in ones:
                bad.append(obj.id)
    return bad


def assert_parse_round_trip(editor):
    """Garbage-free models must parse back with zero store changes; models
    with garbage shed exactly the garbage, then reach a fixpoint."""
    garbage = set(garbage_ids(editor.registry))
    changed = editor.parse(list(editor.registry.model_objects.values()))
    if not garbage:
        assert changed == 0, f"parse changed {changed} commands on a garbage-free model"
    else:
        assert changed == len(garbage)
        for id in garbage:
            assert editor.get_active(id).type_tag == "RemoveCommand"
        assert editor.parse(list(editor.registry.model_objects.values())) == 0


def test_criterion_1_fig3_reproduction():
    packages, doc = fresh_sync(start_events())
    assert dump_model(doc.registry) == DOC_GOLDEN


def test_criterion_2_commutativity_forward_reverse_permuted():
    report = check_commutative(start_events(), JAVA_PACKAGES, trials=20, seed=0)
    assert report.passed
    for seed in range(200):
        length = random.Random(seed).randint(1, 100)
        events = random_command_sequence(length, seed)
        domain = DOMAINS[seed % 2]
        report = check_commutative(events, domain, trials=20, seed=seed)
        assert report.passed, f"seed {seed} ({domain.name}):\n{report.to_text()}"


def test_criterion_3_alice_bob_convergence_under_all_interleavings():
    alice = Event("HaveLeaf", id="Editor", time="2020-01-01T13:36:00.000Z",
                  params={"parent": "serv", "vTag": "1.0"})
    bob = Event("HaveLeaf", id="Editor", time="2020-01-01T13:37:00.000Z",
                params={"parent": "serv", "vTag": "1.1"})
    arrival_orders = set()
    for multiset in ([alice, bob], [alice, alice, bob], [alice, bob, bob]):
        arrival_orders.update(itertools.permutations(multiset))
    assert len(arrival_orders) >= 6  # all interleavings, including duplication

    from ces.events import OverwriteStrategy

    for strategy, expected in [
        (OverwriteStrategy.LAST_EDIT_WINS, "1.1"),
        (OverwriteStrategy.FIRST_EDIT_WINS, "1.0"),
    ]:
        stores = set()
        for order in arrival_orders:
            editor = Editor(JAVA_PACKAGES, strategy=strategy)
            for event in order:
                editor.execute(event)
            assert editor.registry.model_objects["Editor"].attributes["vTag"] == expected
            stores.add(editor.export_active())
        assert len(stores) == 1  # every editor converges to one store


def test_criterion_4_repair_without_cascading_delete():
    packages, doc = fresh_sync(start_events())
    doc_before = doc.clone()
    packages_before = packages.clone()

    packages.execute(Event("HaveRoot", id="fulib", time="2020-01-01T14:00:00.000Z"))
    doc.load_events(packages.export_active())

    packages_diff = model_diff(packages_before.registry, packages.registry)
    assert packages_diff.differences == [
        "fulib: link pPack differs: org != None",
        "org: link subPackages differs: {fulib} != None",
    ]
    doc_diff = model_diff(doc_before.registry, doc.registry)
    assert doc_diff.differences == [
        "only in a: DocFile fulib.Doc",
        "fulib: link files differs: {fulib.Doc} != None",
        "fulib: link pFolder differs: org != None",
        "org: link subFolders differs: {fulib} != None",
    ]
    # the subtree survived: serv, serv.Doc and Editor are untouched
    for id in ("serv", "serv.Doc", "Editor"):
        assert not any(d.startswith(f"{id}:") or d.endswith(f" {id}") for d in doc_diff.differences)


# Alphabets for the exhaustive sweeps: pairs run to length 10, the triple
# (which can strand an empty root, exercising garbage collection) to length 6.
PAIR_ALPHABETS = [
    [Event("HaveRoot", id="org"), Event("HaveSubUnit", id="org", params={"parent": "fulib"})],
    [Event("HaveSubUnit", id="fulib", params={"parent": "org"}), Event("RemoveCommand", id="fulib")],
    [Event("HaveLeaf", id="Editor", params={"parent": "serv", "vTag": "1.0"}), Event("RemoveCommand", id="Editor")],
    [Event("HaveSubUnit", id="fulib", params={"parent": "org"}), Event("HaveLeaf", id="Editor", params={"parent": "fulib", "vTag": "1.0"})],
]
TRIPLE_ALPHABET = [
    Event("HaveRoot", id="org"),
    Event("HaveSubUnit", id="fulib", params={"parent": "org"}),
    Event("RemoveCommand", id="fulib"),
]


def test_criterion_5_parse_round_trip():
    # Exhaustive sweeps over small alphabets, in both domains.
    for domain in DOMAINS:
        for alphabet in PAIR_ALPHABETS:
            for sequence in exhaustive_sequences(alphabet, 10):
                assert_parse_round_trip(replay(sequence, domain))
        for sequence in exhaustive_sequences(TRIPLE_ALPHABET, 6):
            assert_parse_round_trip(replay(sequence, domain))
    # Long random histories, 50 seeds.
    for seed in range(50):
        length = random.Random(seed).randint(1, 100)
        events = random_command_sequence(length, seed)
        assert_parse_round_trip(replay(events, DOMAINS[seed % 2]))
    # The manual-edit scenario parses to exactly the five-command set.
    editor = replay(start_events(), JAVA_PACKAGES)
    registry = editor.registry
    registry.clear_changes()
    from ces import ModelObject

    com = ModelObject("JavaPackage", "com")
    registry.add_to_many(com, "subPackages", registry.model_objects["org"])
    registry.set_link(registry.model_objects["fulib"], "pPack", None)
    command = ModelObject("JavaClass", "Command")
    registry.set_link(command, "pack", registry.model_objects["fulib"])
    registry.set_attribute(command, "vTag", "1.1")
    registry.set_attribute(registry.model_objects["Editor"], "vTag", "1.1")
    assert editor.parse(registry.changed_objects()) == 5
    parsed = {
        (e.type_tag, e.id, e.params.get("parent", ""), e.params.get("vTag", ""))
        for _, e in editor.active_commands.items()
    }
    assert parsed == {
        ("HaveRoot", "com", "", ""),
        ("HaveSubUnit", "org", "com", ""),
        ("HaveRoot", "fulib", "", ""),
        ("HaveLeaf", "Command", "fulib", "1.1"),
        ("HaveLeaf", "Editor", "serv", "1.1"),
        ("HaveSubUnit", "serv", "fulib", ""),  # untouched survivor
    }


def test_criterion_6_active_set_oracle_agreement():
    curated = [
        [],
        start_events(),
        stamp_events(
            [
                Event("HaveLeaf", id="Editor", params={"parent": "serv", "vTag": f"1.{i}"})
                for i in range(6)
            ]
        ),
        stamp_events(
            [
                Event("HaveLeaf", id="Editor", params={"parent": "serv", "vTag": "1.0"}),
                Event("RemoveCommand", id="Editor"),
                Event("HaveLeaf", id="Editor", params={"parent": "serv", "vTag": "2.0"}),
            ]
        ),
    ]
    generated = [random_command_sequence(random.Random(s).randint(0, 10), s) for s in range(40)]
    for index, events in enumerate(curated + generated):
        domain = DOMAINS[index % 2]
        active = active_set(events, domain)
        # replaying only the active set rebuilds the same model
        compact = sorted(active, key=lambda e: e.time)
        assert model_equal(
            replay(events, domain).registry, replay(compact, domain).registry
        ), f"sequence {index}"
        # and the active set is invariant under permutations
        rng = random.Random(index)
        for _ in range(3):
            shuffled = list(events)
            rng.shuffle(shuffled)
            assert active_set(shuffled, domain) == active, f"sequence {index}"


def test_criterion_7_tombstone_safety_across_arrival_orders():
    removed = Event("HaveLeaf", id="Editor", time="2020-01-01T13:00:00.000Z",
                    params={"parent": "serv", "vTag": "1.0"})
    tombstone = Event("RemoveCommand", id="Editor", time="2020-01-01T13:05:00.000Z")
    reference = replay([removed, tombstone], JAVA_PACKAGES)
    assert "Editor" not in reference.registry.model_objects
    for order in set(itertools.permutations([removed, tombstone, removed])):
        editor = replay(order, JAVA_PACKAGES)
        assert model_equal(editor.registry, reference.registry)
        assert editor.active_commands == reference.active_commands
    # focused: re-delivery against an established tombstone is a no-op
    editor = replay([removed, tombstone], JAVA_PACKAGES)
    store = dict(editor.active_commands)
    assert editor.execute(removed) is None
    assert editor.active_commands == store


def test_criterion_8_fault_injection_convergence():
    for seed in range(25):
        session = Session(seed=seed, drop=0.2, duplicate=0.3, reorder=True, eventual=True)
        names = [f"editor{i}" for i in range(3)]
        for name in names:
            session.add_editor(name, JAVA_PACKAGES)
        rng = random.Random(seed)
        for index, event in enumerate(random_command_sequence(50, 1000 + seed)):
            session.submit(rng.choice(names), event)
            if index % 10 == 9:
                session.flush()
        session.settle()
        report = session.report()
        assert report.converged, f"seed {seed}:\n{report.to_text()}"
        first, second, third = (session.editors[n] for n in names)
        assert first.active_commands == second.active_commands == third.active_commands
        assert model_equal(first.registry, second.registry)
        assert model_equal(first.registry, third.registry)
