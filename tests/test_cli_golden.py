"""Byte-exact replay of the CLI against `cli_golden.json`.

Each entry holds an argv, its exit code and its exact stdout.  Entries run in
order inside one temporary directory, which "{tmp}" in an argv names; an
entry with "save_as" writes its stdout there, so probe files flow from
`counterexample` into `verify` and `decompose` as in the README.  An entry
with "files" first writes each named JSON object there, e.g. a hand-made
probe file.

To record the outputs of the current code after an intended change, run
`PYTHONPATH=src python3 tests/test_cli_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

from ultranorm.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")


def replay(entries, tmp: pathlib.Path) -> list[tuple[int, str]]:
    results = []
    for entry in entries:
        for name, obj in entry.get("files", {}).items():
            (tmp / name).write_text(json.dumps(obj), encoding="utf-8")
        argv = [arg.replace("{tmp}", str(tmp)) for arg in entry["argv"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        results.append((code, out.getvalue()))
        if "save_as" in entry:
            (tmp / entry["save_as"]).write_text(out.getvalue(), encoding="utf-8")
    return results


def test_cli_matches_golden_file(tmp_path):
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatches = [
        (entry["argv"], (entry["exit"], entry["stdout"]), got)
        for entry, got in zip(entries, replay(entries, tmp_path))
        if got != (entry["exit"], entry["stdout"])
    ]
    assert not mismatches


if __name__ == "__main__":
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        for entry, (code, out) in zip(entries, replay(entries, pathlib.Path(tmp))):
            entry["exit"], entry["stdout"] = code, out
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
