"""The README's library example runs, and prints what its comments say;
its "What checks what" table names every key of a `check --json` report."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from acmcheck import load_fixture, report_json, run_full_check
from acmcheck.cli import main

from conftest import FIXTURES

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    block = _library_block()
    # a commented print states its output before any ": " in the comment
    expected = [
        line.split("#", 1)[1].strip().split(": ", 1)[0]
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected == ["-4.0", "-0.5", "(128, 4, 4)", "True", "False", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines(keepends=True)
    assert [line.rstrip("\n") for line in lines[: len(expected)]] == expected
    rest = "".join(lines[len(expected):])
    assert rest == report_json(run_full_check(load_fixture("example3-qs"))) + "\n"


def _table_keys() -> set[str]:
    """The report keys in the first cell of each row of "What checks what"."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## What checks what\n"):].split("\n## ", 2)[1]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}


def _report_keys(report: dict) -> set[str]:
    """Each top-level key, or each entry ``section.name`` of a section."""
    return {f"{key}.{name}" if type(value) is dict else key
            for key, value in report.items()
            for name in (value if type(value) is dict else [None])}


TABLE_KEYS = _table_keys()


@pytest.mark.parametrize("name", FIXTURES)
def test_what_checks_what_names_every_report_key(name, capsys):
    assert main(["check", name, "--samples", "8", "--json"]) == 0
    keys = _report_keys(json.loads(capsys.readouterr().out))
    assert len(keys) >= 40  # guards the key collector
    assert keys <= TABLE_KEYS, sorted(keys - TABLE_KEYS)
    # and no row names a key that the report no longer has
    assert TABLE_KEYS <= keys, sorted(TABLE_KEYS - keys)
