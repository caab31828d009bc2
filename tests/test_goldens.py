"""Behaviour goldens: `acmcheck check <fixture> --json` at the manifest
defaults, compared with a tolerance.

Each `tests/goldens/<fixture>.json` holds the exit code and the report of
`acmcheck check <fixture> --json` (without the machine-specific `manifest`
path).  Exit codes, verdicts, `holds` flags, counts and the rank set must
match exactly; every residual must agree to rtol 1e-9, atol 1e-12, which
leaves room for last-ulp changes in the order of floating-point operations.
The coordinate oracle's residual is the exception: it is the rounding error
of the oracle's own inverse, which the oracle's guard bounds by
``LC_ORACLE_TOL`` at every sample, so it agrees to atol ``LC_ORACLE_TOL``.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from acmcheck import structure
from acmcheck.checks import run_full_check
from acmcheck.cli import main
from acmcheck.connection import LC_ORACLE_TOL
from acmcheck.manifest import load_fixture

from conftest import FIXTURES

GOLDENS = Path(__file__).parent / "goldens"
RTOL = 1e-9
ATOL = 1e-12
# a residual that is rounding noise, with the bound its guard keeps it
# under: example2's lc_oracle reads 1.5e-12 to 4.6e-12 under reorderings of
# the same arithmetic, above ATOL
NOISE_ATOL = {"identities.lc_oracle.max_residual": LC_ORACLE_TOL}


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
        atol = NOISE_ATOL.get(where.split(".", 1)[1], ATOL)
        assert math.isclose(actual, expected, rel_tol=RTOL, abs_tol=atol), (
            f"{where}: {actual!r} != {expected!r}"
        )
    else:  # bool, int, str: verdicts, counts, the rank set
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


def _check_report(name: str) -> tuple[int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["check", name, "--json"])
    report = json.loads(buf.getvalue())
    del report["manifest"]
    return code, report


@pytest.mark.parametrize("name", FIXTURES)
def test_check_matches_golden(name):
    golden = json.loads((GOLDENS / f"{name}.json").read_text())
    code, report = _check_report(name)
    assert code == golden["exit_code"]
    _compare(golden["report"], report, name)


@pytest.mark.parametrize("name", ["example3-qs", "example3-aqs"])
def test_koszul_mutant_fails_the_oracles_golden(name, monkeypatch):
    # the oracle's residual is held to LC_ORACLE_TOL, not ATOL; a slip in
    # the adapted Koszul sums still moves it far past that
    def mutant(ev):
        E = ev.g_frame_d[..., : ev.m]
        return (np.einsum("...cdb->...bcd", E) + 0.9 * np.einsum("...bdc->...bcd", E)
                - np.einsum("...bcd->...bcd", E))

    where = "identities.lc_oracle.max_residual"
    golden = json.loads((GOLDENS / f"{name}.json").read_text())["report"]["identities"]["lc_oracle"]
    monkeypatch.setattr(structure.StructureEval, "koszul0", property(mutant))
    _, report = _check_report(name)
    with pytest.raises(AssertionError, match=where):
        _compare(golden["max_residual"], report["identities"]["lc_oracle"]["max_residual"], f"{name}.{where}")


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
