from __future__ import annotations

import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from ces import Event, cli, decode, encode
from ces.cli import DOMAINS, main
from ces.editor import text_digest
from ces.events import OverwriteStrategy
from ces.objects import dump_model
from ces.oracles import random_command_sequence, replay

from conftest import start_events

SRC = str(Path(__file__).resolve().parent.parent / "src")

DOC_GOLDEN = """\
DocFile Editor {version=1.0} links{folder->serv}
Folder fulib {} links{files->{fulib.Doc},pFolder->org,subFolders->{serv}}
DocFile fulib.Doc {content=fulib docu} links{folder->fulib}
Folder org {} links{subFolders->{fulib}}
Folder serv {} links{files->{Editor,serv.Doc},pFolder->fulib}
DocFile serv.Doc {content=serv docu} links{folder->serv}
"""

PACKAGES_GOLDEN = """\
JavaClass Editor {vTag=1.0} links{pack->serv}
JavaPackage fulib {} links{pPack->org,subPackages->{serv}}
JavaPackage org {} links{subPackages->{fulib}}
JavaPackage serv {} links{classes->{Editor},pPack->fulib}
"""


@pytest.fixture
def start_file(tmp_path):
    path = tmp_path / "start.ces"
    path.write_text(encode(start_events()), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- replay -------------------------------------------------------------------------


def test_replay_dumps_the_model_and_a_digest(capsys, start_file):
    code, out, _ = run_cli(capsys, "replay", "--domain", "javapackages", "--in", start_file)
    assert code == 0
    assert out.startswith(PACKAGES_GOLDEN)
    assert "active-digest: " in out


def test_replay_reverse_and_permuted_match_forward(capsys, start_file):
    outputs = set()
    for extra in ([], ["--reverse"], ["--permute", "3"], ["--permute", "99"]):
        code, out, _ = run_cli(
            capsys, "replay", "--domain", "javapackages", "--in", start_file, *extra
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_replay_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.ces"
    empty.write_text("", encoding="utf-8")
    code, out, _ = run_cli(capsys, "replay", "--domain", "javadoc", "--in", str(empty))
    assert code == 0
    assert out.splitlines()[0].startswith("active-digest: ")


def test_replay_of_timeless_events_is_reproducible(capsys, tmp_path):
    timeless = tmp_path / "timeless.ces"
    timeless.write_text(
        "- command: HaveRoot\n  id: org\n- command: HaveSubUnit\n  id: serv\n  parent: org\n",
        encoding="utf-8",
    )
    argv = ["replay", "--domain", "javapackages", "--in", str(timeless)]
    first = run_cli(capsys, *argv)
    time.sleep(0.002)  # a wall clock would now stamp differently
    assert run_cli(capsys, *argv) == first
    assert first[0] == 0


def test_replay_at_the_end_of_time_exits_zero(capsys, tmp_path):
    late = tmp_path / "late.ces"
    late.write_text(
        "- command: HaveRoot\n  id: org\n  time: 9999-12-31T23:59:59.999Z\n"
        "- command: HaveSubUnit\n  id: serv\n  parent: org\n"
        "- command: HaveSubUnit\n  id: fulib\n  parent: serv\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "replay", "--domain", "javapackages", "--in", str(late))
    assert code == 0
    assert "JavaPackage fulib {} links{pPack->serv}" in out


# -- sync ---------------------------------------------------------------------------


def test_sync_packages_to_doc_matches_the_golden_dump(capsys, start_file, tmp_path):
    out_file = tmp_path / "synced.ces"
    code, out, _ = run_cli(
        capsys,
        "sync",
        "--from-domain", "javapackages",
        "--to-domain", "javadoc",
        "--in", start_file,
        "--out", str(out_file),
    )
    assert code == 0
    assert out.startswith(DOC_GOLDEN)
    assert len(decode(out_file.read_text(encoding="utf-8"))) == 4


def test_sync_round_trip_reproduces_the_direct_replay(capsys, start_file, tmp_path):
    doc_file = tmp_path / "doc.ces"
    back_file = tmp_path / "back.ces"
    run_cli(capsys, "sync", "--from-domain", "javapackages", "--to-domain", "javadoc",
            "--in", start_file, "--out", str(doc_file))
    code, out, _ = run_cli(capsys, "sync", "--from-domain", "javadoc", "--to-domain", "javapackages",
                           "--in", str(doc_file), "--out", str(back_file))
    assert code == 0
    direct_code, direct_out, _ = run_cli(
        capsys, "replay", "--domain", "javapackages", "--in", start_file
    )
    assert out == direct_out


def test_sync_filter_excludes_event_types_from_the_output(capsys, tmp_path):
    events_file = tmp_path / "doc.ces"
    events_file.write_text(
        "- command: HaveLeaf\n  id: Editor\n  time: 2020-01-01T13:00:00.000Z\n"
        "  parent: serv\n  vTag: 1.0\n"
        "- command: HaveContent\n  id: Editor\n  time: 2020-01-01T13:01:00.000Z\n"
        "  content: hello\n",
        encoding="utf-8",
    )
    out_file = tmp_path / "synced.ces"
    code, _, _ = run_cli(
        capsys, "sync", "--from-domain", "javadoc", "--to-domain", "javadoc",
        "--in", str(events_file), "--out", str(out_file), "--filter", "HaveLeaf",
    )
    assert code == 0
    synced = out_file.read_text(encoding="utf-8")
    assert "HaveContent" not in synced and "HaveLeaf" in synced


@pytest.mark.parametrize("strategy", list(OverwriteStrategy), ids=lambda s: s.value)
@pytest.mark.parametrize("source_domain, target_domain", [("javapackages", "javadoc"), ("javadoc", "javapackages")])
@pytest.mark.parametrize("sync_filter", [None, "HaveLeaf,HaveRoot"])
def test_sync_output_is_byte_identical_to_a_hop_through_the_text(
    capsys, tmp_path, strategy, source_domain, target_domain, sync_filter
):
    # The source's active events go to the target directly; encoding them
    # and decoding that text first must give the same model, store and digest.
    text = encode(random_command_sequence(60, 7))
    events_file = tmp_path / "in.ces"
    events_file.write_text(text, encoding="utf-8")
    out_file = tmp_path / "synced.ces"
    argv = ["sync", "--from-domain", source_domain, "--to-domain", target_domain,
            "--strategy", strategy.value, "--in", str(events_file), "--out", str(out_file)]
    if sync_filter is not None:
        argv += ["--filter", sync_filter]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0

    source = replay(decode(text), DOMAINS[source_domain], strategy=strategy)
    exported = source.export_active(None if sync_filter is None else frozenset(sync_filter.split(",")))
    target = replay(decode(exported), DOMAINS[target_domain], strategy=strategy)
    store = target.export_active(frozenset())
    # The file holds the digested bytes: no line end is translated on write.
    assert out_file.read_bytes() == store.encode("utf-8")
    assert out == dump_model(target.registry) + f"active-digest: {text_digest(store)}\n"


def test_sync_drops_the_source_model_before_the_target_replay(capsys, monkeypatch, start_file, tmp_path):
    # The source only settles which commands are active, so a cold
    # catch-up holds one replica at a time.
    built, alive = [], []

    def recording(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in built))
        editor = replay(*args, **kwargs)
        built.append(weakref.ref(editor))
        return editor

    monkeypatch.setattr(cli, "replay", recording)
    code, out, _ = run_cli(capsys, "sync", "--from-domain", "javapackages", "--to-domain", "javadoc",
                           "--in", start_file, "--out", str(tmp_path / "synced.ces"))
    assert code == 0 and out.startswith(DOC_GOLDEN)
    assert alive == [0, 0]


# -- diff ---------------------------------------------------------------------------


def test_diff_of_a_file_against_itself_exits_zero(capsys, start_file):
    code, out, _ = run_cli(
        capsys, "diff", "--domain", "javapackages", "--a", start_file, "--b", start_file
    )
    assert code == 0
    assert "models equal" in out


def test_diff_of_differing_files_exits_one(capsys, start_file, tmp_path):
    other = tmp_path / "other.ces"
    events = start_events()
    events[3] = events[3].__class__(
        "HaveLeaf", id="Editor", time=events[3].time, params={"parent": "serv", "vTag": "1.1"}
    )
    other.write_text(encode(events), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "diff", "--domain", "javapackages", "--a", start_file, "--b", str(other)
    )
    assert code == 1
    assert "Editor: attribute 'vTag' differs" in out


def test_diff_warns_of_frames_only_one_side_holds_and_exits_zero(capsys, tmp_path):
    root = Event("HaveRoot", id="r", time="2020-01-01T00:00:00.000Z")
    removed = [
        Event("HaveLeaf", id="x", time="2020-01-01T00:00:01.000Z", params={"parent": "p", "vTag": "1"}),
        Event("RemoveCommand", id="x", time="2020-01-01T00:00:02.000Z"),
    ]
    a, b = tmp_path / "a.ces", tmp_path / "b.ces"
    a.write_text(encode([root]), encoding="utf-8")
    b.write_text(encode([root, *removed]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "diff", "--domain", "javapackages", "--a", str(a), "--b", str(b))
    assert code == 0
    assert out == "warning: frame only in b: p\nwarning: frame only in b: x\nmodels equal\n"


# -- check-commute ---------------------------------------------------------------------


def test_check_commute_passes_on_the_start_situation(capsys, start_file):
    code, out, _ = run_cli(
        capsys, "check-commute", "--domain", "javapackages", "--in", start_file,
        "--trials", "20", "--seed", "5",
    )
    assert code == 0
    assert "commutative: yes" in out


def test_check_commute_refuses_a_negative_trial_count(capsys, start_file):
    argv = ["check-commute", "--domain", "javapackages", "--in", start_file, "--trials"]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "-5"])
    assert exit_info.value.code == 2
    assert "argument --trials: must be at least 0, got -5" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, *argv, "0")  # the reverse order only
    assert (code, out) == (0, "commutative: yes\nreverse: ok\n")


# -- simulate ---------------------------------------------------------------------------


def test_simulate_reports_convergence(capsys, tmp_path):
    script = tmp_path / "session.txt"
    script.write_text(
        "editor alice javapackages\n"
        "editor bob javapackages\n"
        "submit alice HaveLeaf Editor parent=serv vTag=1.0 time=2020-01-01T13:36:00.000Z\n"
        "submit bob HaveLeaf Editor parent=serv vTag=1.1 time=2020-01-01T13:37:00.000Z\n"
        "flush\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "simulate", "--script", str(script), "--seed", "4")
    assert code == 0
    assert "converged: yes" in out
    assert "vTag=1.1" in out


def test_simulate_of_the_alice_bob_script_prints_its_golden_report(capsys):
    root = Path(__file__).resolve().parent.parent
    code, out, _ = run_cli(capsys, "simulate", "--script", str(root / "scripts" / "alice_bob.session"), "--seed", "0")
    assert code == 0
    assert out == (root / "tests" / "golden" / "alice_bob.seed0.out").read_bytes().decode("utf-8")


def test_simulate_names_a_failure_in_the_final_delivery(capsys, tmp_path):
    # No flush: bob's refusal of alice's HaveSubUnit x comes in the drain
    # after the last line.
    script = tmp_path / "session.txt"
    script.write_text(
        "editor alice javapackages\neditor bob javadoc\nsubmit bob HaveRoot x.Doc\n"
        "submit alice HaveRoot r\nsubmit alice HaveSubUnit x parent=r\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "simulate", "--script", str(script))
    assert (code, out) == (2, "")
    assert err == "error: end of script: HaveSubUnit 'x': id 'x.Doc' is a Folder, requested DocFile\n"


def test_replay_under_highest_version_wins_takes_a_vtag_of_any_length(capsys, tmp_path):
    # int() refuses a string of more than 4300 digits; the comparison of two
    # versions must not depend on it.
    long = "1" + "0" * 4999
    path = tmp_path / "long.ces"
    path.write_text(
        encode(
            [
                Event("HaveRoot", id="p", time="2020-01-01T00:00:00.000Z"),
                Event("HaveLeaf", id="C", time="2020-01-01T00:00:01.000Z", params={"parent": "p", "vTag": long}),
                Event("HaveLeaf", id="C", time="2020-01-01T00:00:02.000Z", params={"parent": "p", "vTag": "9"}),
            ]
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys, "replay", "--domain", "javapackages", "--in", str(path),
        "--strategy", "highest-version-wins",
    )
    assert (code, err) == (0, "")
    assert f"JavaClass C {{vTag={long}}}" in out


# -- error handling -----------------------------------------------------------------------


def test_usage_errors_exit_two(capsys, start_file):
    with pytest.raises(SystemExit) as exit_info:
        main(["replay", "--domain", "nowhere", "--in", start_file])
    assert exit_info.value.code == 2


def test_strategy_choices_are_the_accepted_values(capsys, start_file):
    with pytest.raises(SystemExit) as exit_info:
        main(["replay", "--help"])
    assert exit_info.value.code == 0
    assert "{last-edit-wins,first-edit-wins,highest-version-wins}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(["replay", "--domain", "javapackages", "--in", start_file, "--strategy", "lww"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'lww'" in capsys.readouterr().err
    code, _, _ = run_cli(
        capsys, "replay", "--domain", "javapackages", "--in", start_file,
        "--strategy", "first-edit-wins",
    )
    assert code == 0


def test_format_errors_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.ces"
    for text in (
        "not an event file\n",
        '- command: "a b"\n  id: x\n',
        "- command: HaveRoot\n  id: org\n  time: zzz\n",
        "- command: HaveRoot\n  id: org\n  time: 2020-99-99T99:99:99.999Z\n",
        "- command: HaveRoot\n  id: a\x01b\n",
    ):
        bad.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "replay", "--domain", "javapackages", "--in", str(bad))
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize(
    "subcommand, content",
    [
        ("replay", None),  # a directory
        ("replay", b"\xff- command: HaveRoot\n"),  # not UTF-8
        ("check-commute", b"- command: HaveRoot\n  time: 2020-01-01T00:00:00.000Z\n"),  # no id
        ("simulate", b'editor a javapackages\nsubmit a HaveRoot "x\n'),  # unterminated quote
        ("simulate", b"editor a javapackages\nsubmit a Have@Root x\n"),
        ("simulate", b"editor a javapackages\nsubmit a HaveRoot x id=3\n"),
    ],
)
def test_malformed_inputs_exit_two(capsys, tmp_path, subcommand, content):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if subcommand == "simulate":
        argv = ["--script", str(path)]
    else:
        argv = ["--domain", "javapackages", "--in", str(path)]
    code, _, err = run_cli(capsys, subcommand, *argv)
    assert code == 2
    assert "error:" in err


def test_python_m_ces_runs_the_cli(capsys, start_file, tmp_path):
    def python_m_ces(*argv):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        command = [sys.executable, "-m", "ces", *argv]
        return subprocess.run(command, capture_output=True, text=True, env=env)

    argv = ["replay", "--domain", "javapackages", "--in", start_file]
    _, out, _ = run_cli(capsys, *argv)
    done = python_m_ces(*argv)
    assert (done.returncode, done.stdout) == (0, out)
    bad = tmp_path / "bad.ces"
    bad.write_text("not an event file\n", encoding="utf-8")
    done = python_m_ces("replay", "--domain", "javapackages", "--in", str(bad))
    assert done.returncode == 2
    assert "error:" in done.stderr


def test_the_package_runs_on_the_standard_library_alone():
    # -I ignores PYTHONPATH and the user site and -S skips site-packages, so
    # any import of a third-party module fails.
    program = "\n".join(
        [
            "import importlib, pkgutil, sys",
            f"sys.path.insert(0, {SRC!r})",
            "import ces",
            "for module in pkgutil.iter_modules(ces.__path__):",
            "    if module.name != '__main__':",
            "        importlib.import_module('ces.' + module.name)",
            "from ces.cli import main",
            "main(['--help'])",
        ]
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", program], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ces")


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "replay", "--domain", "javapackages", "--in", "no-such.ces")
    assert code == 2
