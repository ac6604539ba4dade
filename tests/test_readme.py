"""The examples in README.md run as written."""

from __future__ import annotations

import re
from pathlib import Path

from ces import decode, encode
from ces.cli import DOMAINS
from ces.simulate import run_script

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# Each fenced block: its language tag (empty for none) and its text.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def block(language: str, start: str) -> str:
    """The one fenced block of ``language`` whose text begins with ``start``."""
    [found] = [text for tag, text in BLOCKS if tag == language and text.startswith(start)]
    return found


def test_the_library_quickstart_runs(capsys):
    exec(compile(block("python", "from ces import"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "Folder fulib" in out and "Folder org" in out


def test_the_event_text_example_decodes_and_encodes_byte_for_byte():
    text = block("", "- command: HaveLeaf")
    [event] = decode(text)
    assert (event.type_tag, event.id, event.params["vTag"]) == ("HaveLeaf", "Editor", "1.0")
    assert encode([event]) == text


def test_the_session_script_example_converges():
    report = run_script(block("", "channel "), DOMAINS)
    assert report.converged
