"""The conformance corpus of the event text format.

Each case is a pair in ``tests/conformance/``: ``NAME.ces``, the text as
bytes, and ``NAME.expect``, JSON holding either the decoded events or the
``DecodeError`` message with its line number.  Every case is read as bytes
and checked two ways: through :func:`decode`, and through ``ces replay``,
which must read the file exactly as ``decode`` reads its bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ces import Event, JAVA_PACKAGES, decode
from ces.cli import main
from ces.events import DecodeError
from ces.objects import dump_model
from ces.oracles import replay

CORPUS = Path(__file__).resolve().parent / "conformance"
CASES = sorted(path.stem for path in CORPUS.glob("*.ces"))


def test_every_case_has_an_expect_file():
    assert CASES
    assert sorted(path.stem for path in CORPUS.glob("*.expect")) == CASES


@pytest.mark.parametrize("name", CASES)
def test_decode_and_ces_replay_give_the_expected_outcome(name, capsys):
    path = CORPUS / f"{name}.ces"
    data = path.read_bytes()
    # A checkout that translated line ends would test nothing here.
    assert (b"\r" in data) == (name != "lf")
    expected = json.loads((CORPUS / f"{name}.expect").read_text(encoding="utf-8"))
    code = main(["replay", "--domain", "javapackages", "--in", str(path)])
    out, err = capsys.readouterr()
    if "error" in expected:
        with pytest.raises(DecodeError) as info:
            decode(data.decode("utf-8"))
        assert (info.value.line, str(info.value)) == (expected["line"], expected["error"])
        assert (code, out, err) == (2, "", f"error: {expected['error']}\n")
        return
    events = decode(data.decode("utf-8"))
    assert [
        {"command": e.type_tag, "id": e.id, "time": e.time, "params": e.params} for e in events
    ] == expected["events"]
    editor = replay(events, JAVA_PACKAGES)
    assert (code, err) == (0, "")
    assert out == dump_model(editor.registry) + f"active-digest: {editor.digest(frozenset())}\n"
