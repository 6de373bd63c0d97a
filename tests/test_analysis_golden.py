"""Golden analyzer output: ``repro analyze --json --catalog``.

The committed ``golden/analysis.json`` holds the JSON payload of all
four analysis aspects (effects, vectorize, streamable, concurrency) for
the stock registry and catalog.  Line numbers are normalised away --
every ``line`` value, every line number inside the concurrency
analyzer's ``[line, ...]`` evidence lists and every ``line N`` in
diagnostic text -- so an edit that only moves code does not churn the
golden file, while any change of verdict, finding, refusal or
diagnostic code does.

Regenerate after an intended verdict change with::

    PYTHONPATH=src python tests/test_analysis_golden.py
"""

import json
import re
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "analysis.json"

_LINE_IN_TEXT = re.compile(r"\bline \d+")


def normalise(value, *, in_list=False):
    """``value`` with every line number replaced by 0 / ``line N``."""
    if isinstance(value, dict):
        return {
            key: 0 if key == "line" else normalise(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        # evidence rows such as [line, detail] or [name, line, guard]
        # are lists nested in lists; their only ints are line numbers
        return [
            0 if in_list and type(item) is int
            else normalise(item, in_list=True)
            for item in value
        ]
    if isinstance(value, str):
        return _LINE_IN_TEXT.sub("line N", value)
    return value


def current_payload() -> dict:
    """The normalised ``repro analyze --json --catalog`` payload."""
    import contextlib
    import io

    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["analyze", "--json", "--catalog"]) == 0
    return normalise(json.loads(buffer.getvalue()))


def test_analyzer_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    current = current_payload()
    assert sorted(current) == sorted(golden)
    for aspect in golden:
        assert current[aspect] == golden[aspect], aspect


def test_normalise_covers_every_line_form():
    payload = {
        "findings": [{"line": 12, "kind": "k", "detail": "d"}],
        "shared_writes": [["X", 40, "_LOCK"]],
        "state": {"X": {"writes": [[7, "assignment"]]}},
        "diagnostics": ["L049 unguarded mutation (line 9: x)"],
        "summary": {"total": 32},
    }
    assert normalise(payload) == {
        "findings": [{"line": 0, "kind": "k", "detail": "d"}],
        "shared_writes": [["X", 0, "_LOCK"]],
        "state": {"X": {"writes": [[0, "assignment"]]}},
        "diagnostics": ["L049 unguarded mutation (line N: x)"],
        "summary": {"total": 32},
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(current_payload(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
