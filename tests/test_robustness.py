"""Robustness of `acmcheck check` on random manifests: every run ends in an
exit code (0, 1 or 2), never a traceback, and exit 0 never comes with a
non-finite residual."""

from __future__ import annotations

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from acmcheck.cli import main

COORDS = ("x", "y", "z", "u", "v")
PHI = [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]


def _monomial():
    return st.lists(st.sampled_from(COORDS), max_size=2).map(lambda names: "*".join(names) or "1")


def _polynomial():
    coefficient = st.integers(min_value=-3, max_value=3)
    term = st.tuples(coefficient, _monomial()).map(lambda t: f"{t[0]}*{t[1]}")
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


def _exponential():
    rate = st.integers(min_value=-1000, max_value=1000)
    return st.tuples(rate, st.sampled_from(COORDS)).map(lambda t: f"exp({t[0]}*{t[1]})")


def _field():
    return st.one_of(_polynomial(), _exponential())


def _conformal_factor():
    positive = _polynomial().map(lambda text: f"1 + ({text})^2")
    return st.one_of(_polynomial(), positive, _exponential())


def _manifest():
    return st.tuples(st.lists(_field(), min_size=4, max_size=4), _conformal_factor()).map(
        lambda t: {
            "dimension": 5,
            "coordinates": list(COORDS),
            "gamma": t[0],
            "metric_frame": [[t[1] if i == j else "0" for j in range(4)] for i in range(4)],
            "phi_frame": PHI,
            "domain": [[-2.0, 2.0]] * 5,
        }
    )


def _floats(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _floats(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _floats(value)
    elif isinstance(obj, float):
        yield obj


@given(_manifest())
@settings(max_examples=25, deadline=None)
def test_check_on_random_manifests_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.json"
        path.write_text(json.dumps(data))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["check", str(path), "--json", "--samples", "4"])
    assert code in (0, 1, 2)
    if code == 0:
        assert all(math.isfinite(x) for x in _floats(json.loads(out.getvalue())))
