from __future__ import annotations

import copy

import pytest

from ces import Editor, Event, JAVA_DOC, JAVA_PACKAGES


def start_events() -> list[Event]:
    """The four-command start situation: org > fulib > serv > Editor(1.0)."""
    return [
        Event("HaveRoot", id="org", time="2020-01-01T13:00:00.000Z"),
        Event("HaveSubUnit", id="fulib", time="2020-01-01T13:01:00.000Z", params={"parent": "org"}),
        Event("HaveSubUnit", id="serv", time="2020-01-01T13:02:00.000Z", params={"parent": "fulib"}),
        Event("HaveLeaf", id="Editor", time="2020-01-01T13:03:00.000Z", params={"parent": "serv", "vTag": "1.0"}),
    ]


def snapshot(editor: Editor):
    """Copies of the registry's two maps, its changed ids and the store."""
    registry = editor.registry
    maps = (registry.model_objects, registry.frames)
    return copy.deepcopy((maps, registry.changed_ids, editor.active_commands))


def unchanged_and_unheld(registry, given, built) -> bool:
    """Whether ``given``, an instance handed to ``registry``, still equals
    ``built``, its copy from when it was built, stamp included, and neither
    map of ``registry`` holds it."""
    maps = (registry.model_objects, registry.frames)
    unheld = all(obj is not given for held in maps for obj in held.values())
    return unheld and given == built and given._owner == built._owner


@pytest.fixture
def packages_editor() -> Editor:
    editor = Editor(JAVA_PACKAGES)
    for event in start_events():
        editor.execute(event)
    return editor


@pytest.fixture
def doc_editor(packages_editor) -> Editor:
    editor = Editor(JAVA_DOC)
    editor.load_events(packages_editor.export_active())
    return editor


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            name = nodeid.split("::", 1)[1]
            verdict = "PASS" if outcome == "passed" else "FAIL"
            lines.append((name, verdict))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, verdict in sorted(lines):
        terminalreporter.write_line(f"{verdict}  {name}")
