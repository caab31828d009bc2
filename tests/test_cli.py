"""Manifest schema, CLI behaviour, exit codes, report determinism."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import acmcheck
from acmcheck import cli, structure
from acmcheck.chart import sample_points
from acmcheck.checks import report_json, run_full_check, sampled_evaluation
from acmcheck.cli import HESSIAN_TENSORS, TENSOR_NAMES, main
from acmcheck.curvature import ricci_wagner, schouten
from acmcheck.manifest import (
    ManifestError,
    fixture_path,
    load_fixture,
    load_manifest,
    manifest_from_dict,
)
from acmcheck.structure import StructureEval, TruncatedJetError

from _helpers import manifest_data, nan_manifest_data
from conftest import FIXTURES

BASE = {
    "dimension": 5,
    "coordinates": ["x", "y", "z", "u", "v"],
    "gamma": ["0", "0", "0", "0"],
    "metric_frame": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                     ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    "phi_frame": [["0", "0", "-1", "0"], ["0", "0", "0", "-1"],
                  ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    "domain": [[-2.0, 2.0]] * 5,
    "avoid": [],
}


# ---------------------------------------------------------------------------
# Manifest loading
# ---------------------------------------------------------------------------


def test_load_flat_fixture():
    mf = load_fixture("flat")
    assert mf.dimension == 5
    assert mf.samples == 32 and mf.seed == 42
    assert str(mf.gamma[0]) == "0.0"


def test_load_example1_fixture():
    mf = load_fixture("example1")
    assert [str(g) for g in mf.gamma] == ["y", "0.0", "0.0", "0.0"]
    assert str(mf.avoid[0]) == "y"


def test_manifest_by_path_and_by_name_agree(tmp_path):
    by_name = load_fixture("example2")
    by_path = load_manifest(fixture_path("example2"))
    assert [str(g) for g in by_path.gamma] == [str(g) for g in by_name.gamma]


def test_fixture_lookup(tmp_path, monkeypatch):
    bundled = Path(acmcheck.__file__).parent / "fixtures"
    assert fixture_path("example3-qs.json") == fixture_path("example3-qs") == bundled / "example3-qs.json"
    assert load_manifest("example2").source == str(bundled / "example2.json")
    with pytest.raises(ManifestError) as err:
        fixture_path("example4")
    assert str(err.value) == (
        "<file>: unknown fixture 'example4'; bundled: flat, example1, example2, example3-qs, example3-aqs"
    )
    # an existing path wins over the fixture of the same name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "example1").write_text(json.dumps(BASE))
    assert load_manifest("example1").source == "example1"
    assert [str(g) for g in load_manifest("example1").gamma] == ["0.0"] * 4


def test_manifests_compare_and_hash_by_identity():
    # two builds from equal data: load_manifest would return one cached object
    a, b = manifest_from_dict(BASE), manifest_from_dict(BASE)
    assert a == a
    assert a != b
    assert {a, b, a} == {a, b}
    assert len({a, b}) == 2


def test_gamma_length_error():
    bad = dict(BASE, gamma=["0", "0", "0"])
    with pytest.raises(ManifestError) as err:
        manifest_from_dict(bad)
    assert err.value.field == "gamma"


def test_expression_error_names_field_and_offset():
    bad = dict(BASE, gamma=["y +* 2", "0", "0", "0"])
    with pytest.raises(ManifestError) as err:
        manifest_from_dict(bad)
    assert err.value.field == "gamma[0]"
    assert "offset" in str(err.value)


def test_unknown_identifier_in_metric():
    bad = dict(BASE, metric_frame=[["1", "0", "0", "0"], ["0", "w", "0", "0"],
                                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    with pytest.raises(ManifestError) as err:
        manifest_from_dict(bad)
    assert err.value.field == "metric_frame[1][1]"


@pytest.mark.parametrize(
    "patch,field",
    [
        ({"dimension": 4}, "dimension"),
        ({"coordinates": ["x", "y", "z", "u"]}, "coordinates"),
        ({"domain": [[-1.0, 1.0]] * 4}, "domain"),
        ({"domain": [[2.0, -2.0]] + [[-2.0, 2.0]] * 4}, "domain[0]"),
        ({"samples": 0}, "samples"),
        ({"tolerance": -1.0}, "tolerance"),
        ({"omega_source": "volume"}, "omega_source"),
        ({"extra_key": 1}, "extra_key"),
        ({"pseudo": "no"}, "pseudo"),
        ({"coordinates": ["x", "y", "sin", "u", "v"]}, "coordinates"),
        ({"coordinates": ["x", ["y"], "z", "u", "v"]}, "coordinates"),
        ({"coordinates": [1, "1", "z", "u", "v"]}, "coordinates"),
        ({"seed": True}, "seed"),
        ({"metric_frame": [["1", "0", "0", "0"]] * 3}, "metric_frame"),
        ({"phi_frame": [["0", "0", "-1", "0"], ["0", "0", "0"],
                        ["1", "0", "0", "0"], ["0", "1", "0", "0"]]}, "phi_frame[1]"),
    ],
)
def test_schema_violations(patch, field):
    bad = dict(BASE, **patch)
    with pytest.raises(ManifestError) as err:
        manifest_from_dict(bad)
    assert err.value.field == field


@pytest.mark.parametrize("kwargs,field", [
    ({"seed": -1}, "seed"),
    ({"tol": float("nan")}, "tolerance"),
    ({"tol": 0.0}, "tolerance"),
    ({"samples": 0}, "samples"),
    ({"samples": 2**32}, "samples"),
])
def test_run_parameter_overrides_checked(kwargs, field, manifests):
    with pytest.raises(ManifestError) as err:
        run_full_check(manifests["flat"], **kwargs)
    assert err.value.field == field


def test_load_manifest_missing_file_errors():
    with pytest.raises(ManifestError):
        load_manifest("no-such-manifest.json")


def test_load_manifest_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError):
        load_manifest(path)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_reports_byte_identical(manifests):
    mf = manifests["example1"]
    first = report_json(run_full_check(mf)).encode()
    second = report_json(run_full_check(mf)).encode()
    assert first == second


def test_report_json_round_trips(manifests):
    report = run_full_check(manifests["flat"])
    parsed = json.loads(report_json(report))
    assert parsed["classification"]["quasi_sasakian"]["holds"] is True
    assert parsed["tool_version"] == "0.1.0"
    assert parsed["seed"] == 42


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_check_example1_exit_zero(capsys):
    code = main(["check", "example1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "almost_normal            yes" in out
    assert "normal                   no" in out
    assert "aqs                      yes" in out


def test_cli_check_json_deterministic(capsys):
    assert main(["check", "example2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "example2", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["classification"]["aqs"]["holds"] is False


def test_cli_check_all_fixtures_pass_hard_identities():
    for name in ("flat", "example1", "example2", "example3-qs", "example3-aqs"):
        assert main(["check", name]) == 0, name


def test_cli_classify(capsys):
    code = main(["classify", "example3-qs"])
    out = capsys.readouterr().out
    assert code == 0
    assert "quasi_sasakian           yes" in out


def test_cli_tensor_ricci_wagner_at_origin(capsys):
    code = main(["tensor", "example3-qs", "--name", "ricci-wagner", "--at", "0,0,0,0,0", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    grid = json.loads(out)["ricci_wagner"]
    assert grid[0][0] == pytest.approx(-4.0, abs=1e-7)


@pytest.mark.parametrize("fixture", ["example3-qs", "example3-aqs"])
@pytest.mark.parametrize("name", ["schouten", "ricci-wagner"])
def test_cli_tensor_at_a_sample_prints_its_row_of_the_evaluation(fixture, name, capsys):
    # a point is contracted as a batch of one, so `tensor --at p` prints the
    # bits that p's row of a sampled evaluation holds; repr round-trips p
    ev, _ = sampled_evaluation(load_fixture(fixture), 16, 3)
    rows = {"schouten": schouten, "ricci-wagner": ricci_wagner}[name](ev)
    key = name.replace("-", "_")
    for i, p in enumerate(ev.p):
        at = ",".join(map(repr, p.tolist()))
        assert main(["tensor", fixture, "--name", name, "--at", at, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)[key] == rows[i].tolist(), (i, at)


@pytest.mark.parametrize(
    "name",
    ["omega", "psi", "C", "lc-adapted", "n-connection", "torsion",
     "schouten", "K", "ricci-wagner", "ricci-k"],
)
def test_cli_tensor_every_name(name, capsys):
    code = main(["tensor", "example1", "--name", name, "--at", "0.5,1,0,0,0", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)


def test_cli_tensor_unknown_name(capsys):
    code = main(["tensor", "flat", "--name", "weyl", "--at", "0,0,0,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown tensor" in err


def test_cli_tensor_point_outside_domain(capsys):
    code = main(["tensor", "flat", "--name", "omega", "--at", "9,0,0,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "outside domain" in err


def test_cli_tensor_malformed_point(capsys):
    assert main(["tensor", "flat", "--name", "omega", "--at", "1,2"]) == 2
    assert main(["tensor", "flat", "--name", "omega", "--at", "a,b,c,d,e"]) == 2
    capsys.readouterr()


def test_cli_rank_example2_even(capsys):
    code = main(["rank", "example2", "--at", "1,3,0,0,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "2"


def test_cli_tensor_point_with_leading_minus(capsys):
    assert main(["tensor", "example1", "--name", "omega", "--at", "-0.5,1,0.1,0,0", "--json"]) == 0
    spaced = capsys.readouterr().out
    assert main(["tensor", "example1", "--name", "omega", "--at=-0.5,1,0.1,0,0", "--json"]) == 0
    assert spaced == capsys.readouterr().out
    assert json.loads(spaced)["omega"][0][1] == pytest.approx(-0.5, abs=1e-15)


def test_cli_rank_point_with_leading_minus(capsys):
    assert main(["rank", "example2", "--at", "-1,3,0,0,2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def _nan_manifest(tmp_path) -> str:
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(nan_manifest_data()))
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_check_fails_on_non_finite_residual(tmp_path, capsys):
    code = main(["check", _nan_manifest(tmp_path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    for name in ("projection_identity", "reeb_split_identity"):
        entry = report["identities"][name]
        assert not math.isfinite(entry["max_residual"]) and entry["holds"] is False
    for name in ("aqs_characterization", "qs_characterization", "canonical_nabla_phi"):
        assert not math.isfinite(report["identities"][name]["max_residual"])
    for name in ("phi_square", "compatibility"):
        assert not math.isfinite(report["axiom_residuals"][name])
    for name in ("normal", "almost_normal", "aqs", "d_Omega_zero"):
        entry = report["classification"][name]
        assert not math.isfinite(entry["max_residual"]) and entry["holds"] is False
    assert not math.isfinite(report["einstein"]["fundamental_form"]["max_residual"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["classify", "einstein"])
def test_cli_classify_and_einstein_fail_on_non_finite_residual(command, tmp_path, capsys):
    # the exit rule of check: a NaN or infinite reported residual exits 1,
    # in the JSON and the human output alike
    path = _nan_manifest(tmp_path)
    assert main([command, path, "--json"]) == 1
    out = capsys.readouterr().out
    assert "NaN" in out
    assert main([command, path]) == 1
    assert "nan" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "classify", "einstein"])
def test_cli_non_positive_definite_frame_metric_is_input_error(command, tmp_path, capsys):
    # the run driver checks the frame metric for every sampling command
    data = json.loads(fixture_path("example1").read_text())
    data["metric_frame"][0][0] = "-1"
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path), "--samples", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: frame metric non-positive-definite at sample 0, point ")
    assert captured.err.endswith("(eigenvalue -1.000e+00)\n") and captured.out == ""


def _example1_variant(tmp_path, gamma0: str, **overrides) -> str:
    data = json.loads(fixture_path("example1").read_text())
    data["gamma"][0] = gamma0
    data.update(overrides)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_check_exp_overflow_is_input_error(tmp_path, capsys):
    # exp(1000*x) leaves the doubles wherever x > 0.71: an input error that
    # names the expression and the first offending sample point
    code = main(["check", _example1_variant(tmp_path, "exp(1000*x)"), "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "exp overflows in 'exp(1000.0*x)' at sample" in err
    assert "Traceback" not in err


def test_cli_check_singular_oracle_metric_is_input_error(tmp_path, capsys):
    # with |gamma| ~ e^120 the coordinate metric g + eta (x) eta is singular
    # in floating point: an input error naming the first singular sample.
    # Which samples are exactly singular follows the rounding of exp(x)^60,
    # six jet products by squaring (samples 0 and 6 of the first 8)
    code = main(["check", _example1_variant(tmp_path, "y*exp(x)^60"), "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "coordinate metric g + eta (x) eta singular at sample 0, point" in err


def test_cli_check_ill_conditioned_oracle_metric_is_input_error(tmp_path, capsys):
    # gamma_4 = exp(-9*y) reaches ~7e7 at y = -2, where g + eta (x) eta is
    # too ill-conditioned for the oracle's 1e-8 tolerance: an input error
    # naming the first such sample, not a failed lc_oracle
    data = json.loads(fixture_path("example1").read_text())
    data["gamma"] = ["1 - 2*y", "1 - 2*y", "u", "exp(-9*y)"]
    data["metric_frame"] = [["1 + (v*u)^2" if i == j else "0" for j in range(4)] for i in range(4)]
    data["domain"] = [[-2.0, 2.0]] * 5
    path = tmp_path / "ill.json"
    path.write_text(json.dumps(data))
    code = main(["check", str(path), "--json", "--samples", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "coordinate metric g + eta (x) eta ill-conditioned at sample 1, point" in err
    assert "Traceback" not in err


def test_cli_check_names_the_first_refused_sample_at_any_sample_count(tmp_path, capsys):
    # gamma_4 = exp(-10*y), seed 1: sample 0 is ill-conditioned and sample
    # 53 exactly singular; every sample count names sample 0, with its cond
    data = json.loads(fixture_path("example1").read_text())
    data["gamma"] = ["1 - 2*y", "1 - 2*y", "u", "exp(-10*y)"]
    data["metric_frame"] = [["1 + (v*u)^2" if i == j else "0" for j in range(4)] for i in range(4)]
    data["domain"] = [[-2.0, 2.0]] * 5
    path = tmp_path / "ill.json"
    path.write_text(json.dumps(data))
    errors = []
    for samples in ("4", "64"):
        assert main(["check", str(path), "--json", "--samples", samples, "--seed", "1"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: coordinate metric g + eta (x) eta ill-conditioned at sample 0, point")
    assert errors[0].endswith("(cond 7.023e+11)\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_check_overflowing_nonholonomy_form_has_no_rank(tmp_path, capsys):
    # gamma * d_v gamma overflows near v = 2, so omega is not finite there:
    # the rank is reported as -1 and the residuals fail visibly
    domain = [[-2.0, 2.0]] * 4 + [[1.95, 2.0]]
    path = _example1_variant(tmp_path, "y*exp(200*v)", domain=domain)
    code = main(["check", path, "--json", "--samples", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["rank"] == [-1]
    assert not math.isfinite(report["identities"]["reeb_split_identity"]["max_residual"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_check_fails_on_non_finite_soft_residual(tmp_path, capsys):
    # a metric factor exp(352*x) near x = 2 is finite, but its second
    # derivative overflows: every hard identity holds, yet the Einstein
    # residuals are not finite, so the run may not exit 0
    data = json.loads(fixture_path("example1").read_text())
    data["metric_frame"] = [["exp(352*x)" if i == j else "0" for j in range(4)] for i in range(4)]
    data["domain"] = [[1.95, 2.0]] + [[-2.0, 2.0]] * 4
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    code = main(["check", str(path), "--json", "--samples", "4"])
    report = json.loads(capsys.readouterr().out)
    assert all(report["identities"][name]["holds"] for name in
               ("lc_oracle", "projection_identity", "reeb_split_identity", "torsion_direct"))
    assert not math.isfinite(report["einstein"]["d_eta"]["max_residual"])
    assert code == 1


def _overflow_metric_manifest(tmp_path) -> str:
    data = json.loads(fixture_path("example1").read_text())
    data["metric_frame"] = [["exp(352*x)" if i == j else "0" for j in range(4)] for i in range(4)]
    path = tmp_path / "overflow-metric.json"
    path.write_text(json.dumps(data))
    return str(path)


def _overflow_gamma_manifest(tmp_path) -> str:
    # (1e200*y)*1e200*y overflows to infinity at y = 0.5, and its gradient
    # to infinity and NaN
    data = json.loads(fixture_path("flat").read_text())
    data["gamma"][0] = "1e200*y*1e200*y"
    path = tmp_path / "overflow-gamma.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("as_json", [True, False])
def test_cli_tensor_non_finite_is_input_error(as_json, tmp_path, capsys):
    argv = ["tensor", _overflow_gamma_manifest(tmp_path), "--name", "omega", "--at", "0.1,0.5,0,0,0"]
    code = main(argv + ["--json"] * as_json)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: tensor 'omega' is not finite at point [0.1 0.5 0.  0.  0. ]\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_rank_non_finite_is_input_error(tmp_path, capsys):
    code = main(["rank", _overflow_gamma_manifest(tmp_path), "--at", "0.1,0.5,0,0,0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("error: rank undefined at point [0.1 0.5 0.  0.  0. ]: "
                   "omega or d(eta)(xi, .) is not finite\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["check", "classify", "einstein"])
def test_cli_sampled_commands_overflow_without_warnings(command, tmp_path, capsys):
    # the overflow shows as non-finite residuals, which fail the run; numpy
    # raises no RuntimeWarning on the way and nothing reaches stderr
    code = main([command, _overflow_gamma_manifest(tmp_path), "--json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert "NaN" in out or "Infinity" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["schouten", "K", "ricci-wagner", "ricci-k"])
def test_cli_tensor_overflowing_curvature_is_input_error(name, tmp_path, capsys):
    # exp(352*x) is finite at x = 1.99, its second derivative is not
    code = main(["tensor", _overflow_metric_manifest(tmp_path), "--name", name,
                 "--at", "1.99,1.5,0,0,0", "--json"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: tensor '{name}' is not finite at point [1.99 1.5  0.   0.   0.  ]\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["omega", "psi", "C", "lc-adapted", "n-connection", "torsion"])
def test_cli_tensor_finite_beside_overflowing_hessian(name, tmp_path, capsys):
    # tensors of first-order data stay finite and are printed, exit 0
    code = main(["tensor", _overflow_metric_manifest(tmp_path), "--name", name,
                 "--at", "1.99,1.5,0,0,0", "--json"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert "NaN" not in out and "Infinity" not in out


def test_cli_einstein_reports_both_sources(capsys):
    code = main(["einstein", "example3-qs", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"d_eta", "fundamental_form"}
    assert payload["fundamental_form"]["residual_grid"][2][2] == pytest.approx(4.0, abs=1e-9)


@pytest.mark.parametrize("name", ["flat", "example1", "example2", "example3-qs", "example3-aqs"])
def test_cli_commands_share_the_report_builders(name, capsys, monkeypatch):
    # classify and einstein print the sections of check at equal samples,
    # seed and tolerance; einstein evaluates both omega sources at once
    run = ["--json", "--samples", "12", "--seed", "5", "--tol", "1e-6"]
    assert main(["check", name, *run]) == 0
    check = json.loads(capsys.readouterr().out)
    assert main(["classify", name, *run]) == 0
    assert json.loads(capsys.readouterr().out) == check["classification"]

    blocks = []
    original = structure.StructureEval.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        blocks.append(self.p.shape)

    monkeypatch.setattr(structure.StructureEval, "__init__", counting)
    assert main(["einstein", name, *run]) == 0
    assert json.loads(capsys.readouterr().out) == check["einstein"]
    assert blocks == [(12, 5)]


def test_cli_missing_manifest_exit_two(capsys):
    assert main(["check", "definitely-not-here.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["check", "example1", "--seed", "-1", "--samples", "4"], "seed"),
    (["einstein", "example1", "--seed", "-1", "--samples", "4"], "seed"),
    (["check", "example1", "--tol", "-1"], "tolerance"),
    (["classify", "example1", "--tol", "nan"], "tolerance"),
    (["check", "example1", "--tol", "inf"], "tolerance"),
    (["check", "example1", "--samples", str(2**32)], "samples"),
    (["check", "flat", "--samples", "0"], "samples"),
])
def test_cli_bad_run_parameter_exit_two(argv, field, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("patch,field", [
    ({"seed": -3}, "seed"),
    ({"tolerance": float("nan")}, "tolerance"),
    ({"domain": [["a", 1.0]] + [[-2.0, 2.0]] * 4}, "domain[0]"),
    ({"domain": [[-2.0, 2.0], [None, 1.0]] + [[-2.0, 2.0]] * 3}, "domain[1]"),
    ({"domain": [[-2.0, 2.0]] * 2 + [[0.0, "inf"]] + [[-2.0, 2.0]] * 2}, "domain[2]"),
    ({"domain": [[-2.0, 2.0]] * 4 + [[-1e308, 1e308]]}, "domain[4]"),
])
def test_cli_bad_manifest_value_exit_two(patch, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BASE, **patch)))
    assert main(["check", str(path), "--samples", "4"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_cli_manifest_not_utf8_exit_two(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(BASE).encode("utf-16-le"))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: <file>: {path} is not UTF-8 text: ")


def test_cli_deeply_nested_json_exit_two(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: <file>: invalid JSON in {path}: nested too deeply\n"


POINT_COMMANDS = (["tensor", "--name", "omega", "--at", "0.1,0.5,0,0,0"], ["rank", "--at", "0.1,0.5,0,0,0"])


@pytest.mark.parametrize("text,message", [
    ("y" + " + y" * 2999, "expression tree deeper than 300 levels"),
    ("(" * 5000 + "y" + ")" * 5000, "more than 100 nested parentheses, calls, signs or powers (offset 100)"),
], ids=["long_sum", "parentheses"])
@pytest.mark.parametrize("command", [["check"], *POINT_COMMANDS], ids=["check", "tensor", "rank"])
def test_cli_deep_expression_exit_two(text, message, command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(dict(BASE, gamma=[text, "0", "0", "0"])))
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr().err == f"error: gamma[0]: {message}\n"


@pytest.mark.parametrize("text,message", [
    ("y^2^2^2^2^2", "exponent overflows (offset 2)"),
    ("y^0^-1", "exponent divides by zero (offset 2)"),
], ids=["power_tower", "zero_to_negative"])
@pytest.mark.parametrize("command", [["check"], *POINT_COMMANDS], ids=["check", "tensor", "rank"])
def test_cli_unfoldable_exponent_exit_two(text, message, command, tmp_path, capsys):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(dict(BASE, gamma=[text, "0", "0", "0"])))
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr().err == f"error: gamma[0]: {message}\n"


def test_cli_millionth_power_is_fast(tmp_path, capsys):
    # a million as the exponent costs 25 jet products, not a million
    path = tmp_path / "power.json"
    path.write_text(json.dumps(dict(BASE, gamma=["y^1000000", "0", "0", "0"])))
    start = time.perf_counter()
    assert main(["tensor", str(path), "--name", "omega", "--at", "0.1,0.5,0,0,0", "--json"]) == 0
    assert time.perf_counter() - start < 0.1
    assert json.loads(capsys.readouterr().out) == {"omega": [[0.0] * 4] * 4}


def test_cli_frame_metric_at_the_largest_float(tmp_path, capsys):
    # halves are summed before the eigenvalues, so the largest finite metric
    # runs (its residuals overflow: exit 1); an infinite one is an input error
    path = tmp_path / "huge.json"
    for factor, code in (("1.7976931348623157e308", 1), ("1e308*10", 2)):
        path.write_text(json.dumps(dict(BASE, metric_frame=[[factor if i == j else "0" for j in range(4)]
                                                             for i in range(4)])))
        assert main(["check", str(path), "--samples", "4"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: frame metric not finite at sample 0, point [") if code == 2 else err == ""


@pytest.mark.parametrize("text", ["sqrt(x)", "ln(x)"])
def test_cli_hessian_of_an_underflowed_square_is_silent(text, tmp_path, capsys):
    # at x = 1e-300, x*x (in the Hessian of sqrt and ln) underflows to 0
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(dict(BASE, gamma=["0", "0", "0", text])))
    assert main(["rank", str(path), "--at", "1e-300,0,0,0,0"]) == 0
    assert capsys.readouterr() == ("3\n", "")


@pytest.mark.parametrize("command", [["check"], *POINT_COMMANDS], ids=["check", "tensor", "rank"])
def test_cli_300_term_sum_runs(command, tmp_path, capsys):
    # y - y + y - ... over 300 terms is 0 exactly, a tree 300 levels deep
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(dict(BASE, gamma=["y" + " - y + y" * 149 + " - y", "0", "0", "0"])))
    assert main([command[0], str(path), *command[1:]]) == 0
    assert capsys.readouterr().err == ""


def test_cli_schema_error_exit_two(tmp_path, capsys):
    bad = dict(BASE, gamma=["0", "0", "0"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["check", str(path)]) == 2
    assert "gamma" in capsys.readouterr().err


def test_cli_identity_failure_exit_one(monkeypatch, capsys):
    # hard identities are universal, so force a failing report to pin the
    # exit-code contract
    doctored = {
        "identities": {name: {"holds": name != "lc_oracle", "max_residual": 1.0,
                              "samples": 1, "tolerance": 1e-8}
                       for name in ("lc_oracle", "projection_identity",
                                    "reeb_split_identity", "torsion_direct")},
        "classification": {},
        "rank": [3],
        "metricity": {"max_abs": 0.0, "reeb_row_max": 0.0},
        "einstein": {},
        "manifest": "doctored",
        "samples": 1,
        "seed": 0,
    }
    monkeypatch.setattr("acmcheck.cli.run_full_check", lambda *a, **k: doctored)
    assert main(["check", "flat"]) == 1
    capsys.readouterr()


def test_cli_classification_negatives_do_not_gate():
    # example1 is not normal and not Einstein, yet check exits 0
    assert main(["check", "example1", "--json"]) == 0


def test_cli_custom_samples_and_seed(capsys):
    code = main(["check", "flat", "--samples", "8", "--seed", "7", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 8 and payload["seed"] == 7


def test_cli_avoid_domain_error_names_its_sample(tmp_path, capsys):
    # every candidate clears 'y'; sample 8's first candidate has x + 1.9 < 0
    domain = [[-2.0, 2.0], [-1e-6, 1e-5], [-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]]
    path = tmp_path / "avoid.json"
    path.write_text(json.dumps(dict(BASE, domain=domain, avoid=["y", "ln(x + 1.9)"])))
    code = main(["check", str(path), "--json", "--samples", "64", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ln of non-positive value in 'ln(x + 1.9)' at sample 8, point" in err


def test_cli_input_error_point_is_one_line(tmp_path, capsys):
    # seven coordinates printed by str() wrap onto a second line
    m = 6
    manifest = {
        "dimension": 7,
        "coordinates": [f"x{i}" for i in range(7)],
        "gamma": ["ln(x0)"] + ["0"] * (m - 1),
        "metric_frame": [["1" if i == j else "0" for j in range(m)] for i in range(m)],
        "phi_frame": [["-1" if j == i + 3 else "1" if i == j + 3 else "0" for j in range(m)]
                      for i in range(m)],
        "domain": [[-2.0, 2.0]] * 7,
        "avoid": [],
    }
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(manifest))
    assert main(["check", str(path), "--json", "--samples", "16", "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ln of non-positive value in 'ln(x0)' at sample ")
    assert err.count("\n") == 1 and err.endswith("]\n")


# ---------------------------------------------------------------------------
# Repeated calls in one process: one parser, no state carried between calls
# ---------------------------------------------------------------------------


def test_cli_builds_no_parser_per_call(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("argument parser built during a call")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert main(["check", "flat", "--samples", "2", "--json"]) == 0
    assert main(["rank", "example2", "--at=0,0.5,0,0,0"]) == 0
    capsys.readouterr()


def test_cli_options_do_not_carry_over_between_calls(capsys):
    assert main(["check", "flat", "--samples", "2", "--json", "--tol", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-3
    assert main(["check", "flat", "--samples", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == load_fixture("flat").tolerance

    at = ["--name", "omega", "--at", "0.5,1,0,0,0"]
    assert main(["tensor", "example1", *at, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["omega"]
    assert main(["tensor", "example1", *at]) == 0
    assert capsys.readouterr().out.startswith("omega:\n[[")


def test_cli_usage_error_leaves_next_call_intact(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["tensor", "example2", "--at", "1,3,0,0,2"])  # no --name
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert main(["rank", "example2", "--at", "1,3,0,0,2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n" and captured.err == ""


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    """Runs ``script`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(acmcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


def test_cli_check_does_not_import_numpy_random():
    # pytest and Hypothesis import numpy.random themselves, so a fresh
    # interpreter runs the check
    script = (
        "import sys\n"
        "from acmcheck.cli import main\n"
        "assert main(['check', 'example1', '--json', '--samples', '8']) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    done = _run_fresh(script)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# The CLI process keeps the heap a check call frees
# ---------------------------------------------------------------------------


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_cli_check_takes_no_zero_fill_faults_at_128_samples():
    # With glibc's defaults the freed heap top goes back to the OS after
    # each call, and the next call faults it in again. `import acmcheck`
    # keeps those defaults, `import acmcheck.cli` keeps the freed heap, and
    # with the defaults restored in the same process the count is back to
    # hundreds, so the bound can fail.
    script = (
        "import contextlib, ctypes, io, resource, statistics\n"
        "import acmcheck\n"
        "def median_faults(call):\n"
        "    faults = []\n"
        "    for i in range(13):\n"
        "        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "        call()\n"
        "        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "    return statistics.median(faults[3:])\n"
        "manifest = acmcheck.load_fixture('example3-qs')\n"
        "library = median_faults(lambda: acmcheck.run_full_check(manifest, samples=128))\n"
        "from acmcheck.cli import main\n"
        "def check():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['check', 'example3-qs', '--json', '--samples', '128']) == 0\n"
        "kept = median_faults(check)\n"
        "mallopt = ctypes.CDLL(None).mallopt\n"
        "mallopt(-3, 128 << 10)  # M_MMAP_THRESHOLD\n"
        "mallopt(-1, 128 << 10)  # M_TRIM_THRESHOLD\n"
        "print(library, kept, median_faults(check))\n"
    )
    done = _run_fresh(script)
    assert done.returncode == 0, done.stderr
    library, kept, trimmed = map(float, done.stdout.split())
    assert library > 100, done.stdout
    assert kept <= 16, done.stdout
    assert trimmed > 100, done.stdout


def test_keep_freed_heap_sets_both_thresholds():
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    cli._keep_freed_heap(lambda name: Libc())
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("failure", [OSError, AttributeError, TypeError])
def test_keep_freed_heap_without_glibc_mallopt_leaves_the_cli_working(failure, capsys):
    def cdll(name):
        if failure is AttributeError:
            return object()  # a libc without mallopt
        raise failure("no such library")

    assert cli._keep_freed_heap(cdll) is None
    assert main(["check", "example3-qs", "--json", "--samples", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"]["aqs"]["holds"] is True


# ---------------------------------------------------------------------------
# Order on demand: a single-point tensor stops its jets at the order it reads
# ---------------------------------------------------------------------------


def _deep_tree(rng: random.Random, depth: int) -> str:
    """A seeded sin/cos/exp/polynomial tree over the five coordinates."""
    if depth == 0:
        return rng.choice(["x", "y", "z", "u", "v", f"{rng.uniform(0.2, 0.9):.3f}"])
    a, b = _deep_tree(rng, depth - 1), _deep_tree(rng, depth - 1)
    return rng.choice([f"sin({a})", f"cos({a})", f"exp(0.3*sin({a}))", f"({a})*({b})", f"{a} + 0.5*{b}"])


def _deep_manifest() -> dict:
    rng = random.Random(19)
    factor = f"exp(0.2*sin({_deep_tree(rng, 4)}))"
    angle = _deep_tree(rng, 3)
    c, s = f"cos({angle})", f"sin({angle})"
    return dict(
        BASE,
        gamma=[_deep_tree(rng, 4) for _ in range(4)],
        metric_frame=[[factor if i == j else "0" for j in range(4)] for i in range(4)],
        # a rotation of example1's phi by a varying angle in the (e1, e3) plane
        phi_frame=[[f"-{s}", "0", f"-{c}", "0"], ["0", "0", "0", "-1"],
                   [c, "0", f"-{s}", "0"], ["0", "1", "0", "0"]],
    )


def _manifest_path(name: str, tmp_path) -> str:
    if name in FIXTURES:
        return name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_deep_manifest() if name == "deep" else manifest_data(name)))
    return str(path)


@pytest.mark.parametrize("name", FIXTURES + ("twisted", "deep"))
def test_cli_tensor_at_its_order_prints_what_order_two_prints(name, tmp_path, capsys, monkeypatch):
    path = _manifest_path(name, tmp_path)
    manifest = load_manifest(path)
    orders = []

    class Recorded(StructureEval):
        def __init__(self, manifest, points, order=2):
            orders.append(order)
            super().__init__(manifest, points, order)

    def full(manifest, points, order=2):
        return StructureEval(manifest, points)

    for point in sample_points(manifest, 2, 5):
        at = ",".join(repr(float(x)) for x in point)
        for tensor in TENSOR_NAMES:
            for flags in ([], ["--json"]):
                argv = ["tensor", path, "--name", tensor, "--at", at, *flags]
                monkeypatch.setattr(cli, "StructureEval", Recorded)
                picked = main(argv), *capsys.readouterr()
                monkeypatch.setattr(cli, "StructureEval", full)
                want = main(argv), *capsys.readouterr()
                assert picked == want, (tensor, flags)
                assert picked[0] == 0 and picked[1] and not picked[2]
    assert orders == [2 if tensor in HESSIAN_TENSORS else 1 for _ in range(2)
                      for tensor in TENSOR_NAMES for _ in range(2)]


@pytest.mark.parametrize("prop", ["g2", "gam2", "omega1", "psi1", "Gamma1"])
def test_hessian_read_from_an_order_one_evaluation_is_named(prop, manifests):
    p = sample_points(manifests["example2"], 1, 3)[0]
    ev = StructureEval(manifests["example2"], p, order=1)
    assert ev.g1.shape == (4, 4, 5) and ev.gam1.shape == (4, 5)
    with pytest.raises(TruncatedJetError, match="is a Hessian, and this evaluation stops at order 1"):
        getattr(ev, prop)
    assert getattr(StructureEval(manifests["example2"], p), prop) is not None


@pytest.mark.parametrize("order", [0, 3, None])
def test_structure_eval_order_is_one_or_two(order, manifests):
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        StructureEval(manifests["flat"], np.zeros(5), order=order)
