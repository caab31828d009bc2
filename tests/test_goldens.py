"""Behaviour goldens: `acmcheck check <fixture> --json` at the manifest
defaults, compared with a tolerance.

Each `tests/goldens/<fixture>.json` holds the exit code and the report of
`acmcheck check <fixture> --json` (without the machine-specific `manifest`
path).  Exit codes, verdicts, `holds` flags, counts and the rank set must
match exactly; every residual must agree to rtol 1e-9, atol 1e-12, which
leaves room for last-ulp changes in the order of floating-point operations.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from acmcheck import structure
from acmcheck.checks import run_full_check
from acmcheck.cli import main
from acmcheck.manifest import load_fixture

from conftest import FIXTURES

GOLDENS = Path(__file__).parent / "goldens"
RTOL = 1e-9
ATOL = 1e-12


def _compare(expected, actual, where: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            _compare(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), where
        assert math.isclose(actual, expected, rel_tol=RTOL, abs_tol=ATOL), (
            f"{where}: {actual!r} != {expected!r}"
        )
    else:  # bool, int, str: verdicts, counts, the rank set
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


@pytest.mark.parametrize("name", FIXTURES)
def test_check_matches_golden(name):
    golden = json.loads((GOLDENS / f"{name}.json").read_text())
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["check", name, "--json"])
    report = json.loads(buf.getvalue())
    del report["manifest"]
    assert code == golden["exit_code"]
    _compare(golden["report"], report, name)


def test_one_evaluation_per_sampled_point(monkeypatch):
    # one evaluation over the whole block of sampled points: each point is
    # still evaluated exactly once
    blocks = []
    original = structure.StructureEval.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        blocks.append(self.p.shape)

    monkeypatch.setattr(structure.StructureEval, "__init__", counting)
    run_full_check(load_fixture("example3-qs"), samples=8)
    assert blocks == [(8, 5)]
