"""The README's library example runs, and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from acmcheck import load_fixture, report_json, run_full_check

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
