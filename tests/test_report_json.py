"""Report text: checks.report_json against the standard library's
``json.dumps(obj, sort_keys=True, indent=2)``, on generated payloads and on
every ``--json`` output of the CLI."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from _helpers import reference_report_json, reference_tensor_text
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acmcheck.checks import (
    classification_summary,
    einstein_summary,
    report_json,
    run_full_check,
    sampled_evaluation,
)
from acmcheck.classify import classification_report
from acmcheck.cli import TENSOR_NAMES, _tensor_payload, main
from acmcheck.curvature import einstein_reports
from acmcheck.manifest import fixture_path, load_fixture, load_manifest

FIXTURES = ("flat", "example1", "example2", "example3-qs", "example3-aqs")

# ---------------------------------------------------------------------------
# Generated payloads
# ---------------------------------------------------------------------------

EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16)

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
text = st.text(max_size=6) | st.sampled_from(("", "é", "Ω_ab", " ", '"\\'))
scalars = (
    floats
    | floats.map(np.float64)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | text
)
arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=3),
    elements=floats,
)
payloads = st.recursive(
    scalars | arrays,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(text, inner, max_size=4),
    max_leaves=24,
)


def _tolists(obj):
    """The payload with every array as its nested list, for json.dumps."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _tolists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tolists(v) for v in obj]
    return obj


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_report_json_matches_json_dumps(obj):
    assert report_json(obj) == json.dumps(_tolists(obj), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (3, 1, 2), (1, 1, 1, 1), (0,), (2, 0), (2, 0, 3)])
def test_report_json_array_shapes(shape):
    arr = np.arange(float(np.prod(shape))).reshape(shape)
    arr.flat[:1] = -0.0
    for obj in (arr, {"a": [arr, arr.T]}):
        assert report_json(obj) == json.dumps(_tolists(obj), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    np.bool_(True), object(), np.int64(3), {1.5}, b"x", np.arange(3), np.array([True]), np.array(["a"]),
])
def test_report_json_rejects_other_values(value):
    with pytest.raises(TypeError):
        report_json({"value": [value]})


# ---------------------------------------------------------------------------
# CLI outputs against the standard library's text of the same payload
# ---------------------------------------------------------------------------


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _variant(tmp_path, base: str, name: str, edit) -> str:
    data = json.loads(fixture_path(base).read_text())
    edit(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def nan_manifest(tmp_path):
    # exp(x)^400 overflows for x > 1.78, so phi is NaN at those samples
    return _variant(tmp_path, "example1", "nan",
                    lambda data: data["phi_frame"][0].__setitem__(2, "-1 + 0*exp(x)^400"))


@pytest.fixture
def overflow_manifest(tmp_path):
    # exp(352*x) near x = 2 is finite, its second derivative is not: the
    # curvature tensors hold NaN, Infinity and -Infinity
    def edit(data):
        data["metric_frame"] = [["exp(352*x)" if i == j else "0" for j in range(4)] for i in range(4)]
        data["domain"] = [[1.95, 2.0]] + [[-2.0, 2.0]] * 4

    return _variant(tmp_path, "example1", "overflow", edit)


@pytest.mark.parametrize("name", FIXTURES)
def test_check_json_is_reference_text(name, capsys):
    for seed in (42, 7):
        report = run_full_check(load_fixture(name), seed=seed)
        assert report.to_json() == reference_report_json(report.data)
        code, out = _run(capsys, ["check", name, "--json", "--seed", str(seed)])
        assert code == 0 and out == report.to_json()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_check_json_is_reference_text(nan_manifest, capsys):
    report = run_full_check(load_manifest(nan_manifest))
    text = report.to_json()
    assert text == reference_report_json(report.data)
    assert "NaN" in text
    code, out = _run(capsys, ["check", nan_manifest, "--json"])
    assert code == 1 and out == text


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", [*FIXTURES, "nan"])
def test_classify_and_einstein_json_are_reference_text(name, nan_manifest, capsys):
    path = nan_manifest if name == "nan" else name
    ev, run = sampled_evaluation(load_manifest(path) if name == "nan" else load_fixture(name))
    classification = classification_summary(classification_report(ev, run["tolerance"]))
    einstein = {source: einstein_summary(report)
                for source, report in einstein_reports(ev, run["tolerance"]).items()}
    expected = 1 if name == "nan" else 0
    assert _run(capsys, ["classify", path, "--json"]) == (expected, reference_report_json(classification))
    assert _run(capsys, ["einstein", path, "--json"]) == (expected, reference_report_json(einstein))


def _points(manifest, count=2):
    points = manifest.chart().sample_points(count, 3)
    return [",".join(repr(float(x)) for x in p) for p in points]


@pytest.mark.parametrize("name", FIXTURES)
def test_tensor_outputs_are_reference_text(name, capsys):
    manifest = load_fixture(name)
    for at in _points(manifest):
        p = np.array([float(x) for x in at.split(",")])
        for tensor in TENSOR_NAMES:
            payload = _tensor_payload(tensor, manifest, p)
            argv = ["tensor", name, "--name", tensor, "--at", at]
            assert _run(capsys, [*argv, "--json"]) == (0, reference_report_json(payload))
            assert _run(capsys, argv) == (0, reference_tensor_text(payload))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_tensor_outputs_are_reference_text(overflow_manifest, capsys):
    manifest = load_manifest(overflow_manifest)
    at = "1.99,1.5,0,0,0"
    p = np.array([1.99, 1.5, 0.0, 0.0, 0.0])
    tokens = set()
    for tensor in TENSOR_NAMES:
        payload = _tensor_payload(tensor, manifest, p)
        argv = ["tensor", overflow_manifest, "--name", tensor, "--at", at]
        out = report_json(payload)
        assert out == reference_report_json(payload)
        found = {t for t in ("NaN", "-Infinity", "Infinity") if t in out}
        tokens.update(found)
        if found:  # the CLI reports a non-finite tensor as an input error
            assert _run(capsys, [*argv, "--json"]) == (2, "")
            assert _run(capsys, argv) == (2, "")
        else:
            assert _run(capsys, [*argv, "--json"]) == (0, out)
            assert _run(capsys, argv) == (0, reference_tensor_text(payload))
    assert tokens == {"NaN", "-Infinity", "Infinity"}
