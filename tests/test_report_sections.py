"""Report sections as plain data: every leaf a plain Python value, a
non-finite residual in any reported slot failing its command's exit status
and printed in that slot, and one reduction per section."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from acmcheck import checks, classify, curvature, residuals
from acmcheck.checks import run_full_check, sampled_evaluation
from acmcheck.classify import classification_report
from acmcheck.cli import main
from acmcheck.curvature import einstein_reports
from acmcheck.manifest import OMEGA_SOURCES, manifest_from_dict

from _helpers import nan_manifest_data
from conftest import FIXTURES

LEAF_TYPES = {str, int, float, bool}


def _leaves(obj):
    if type(obj) is dict:
        assert all(type(key) is str for key in obj)
        obj = list(obj.values())
    if type(obj) is list:
        for value in obj:
            yield from _leaves(value)
    else:
        yield obj


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", FIXTURES + ("nan",))
def test_every_report_leaf_is_a_plain_python_value(name, manifests):
    s = manifest_from_dict(nan_manifest_data()) if name == "nan" else manifests[name]
    ev, run = sampled_evaluation(s)
    reports = {
        "check": run_full_check(s),
        "classification": classification_report(ev, run["tolerance"]),
        "einstein": einstein_reports(ev, run["tolerance"]),
    }
    for what, report in reports.items():
        types = {type(leaf) for leaf in _leaves(report)}
        assert types <= LEAF_TYPES, (what, types - LEAF_TYPES)


# ---------------------------------------------------------------------------
# A non-finite value at one sample of one row, injected into its builder
# ---------------------------------------------------------------------------


def _poisoned(value, bad: float, index: int = 1) -> np.ndarray:
    """A copy of ``value`` with its flat entry ``index`` (sample 1 of a
    per-sample row) replaced by ``bad``."""
    out = np.array(value, dtype=float)
    out.flat[index] = bad
    return out


def _in_table(name: str):
    def edit(tables: dict, bad: float) -> dict:
        return {**tables, name: _poisoned(tables[name], bad)}
    return edit


def _in_criterion(name: str, part: int):
    def edit(rows: dict, bad: float) -> dict:
        pair = list(rows[name])
        pair[part] = _poisoned(pair[part], bad)
        return {**rows, name: tuple(pair)}
    return edit


def _patch(monkeypatch, modules, builder: str, edit, bad: float) -> None:
    """``builder`` edited under its name in ``modules`` (a module or a tuple
    of modules that import it by name)."""
    modules = modules if type(modules) is tuple else (modules,)
    build = getattr(modules[0], builder)
    for module in modules:
        monkeypatch.setattr(module, builder, lambda *args: edit(build(*args), bad))


def _einstein_rhs_edit(rhs: np.ndarray, bad: float) -> np.ndarray:
    # sample 1, component (0, 1) of a (samples, m, m) array
    return _poisoned(rhs, bad, rhs.shape[-1] * rhs.shape[-2] + 1)


# check imports the criteria's row builder by name, classify looks it up
CRITERIA_HOLDERS = (checks, classify)

SOFT_IDENTITIES = ("torsion_skew", "aqs_characterization", "qs_characterization",
                   "canonical_nabla_phi", "nabla_psi")

# slot of the check report, (module, builder, edit), and the command and
# slot of its own section where classify or einstein reports it too
INJECTIONS = {
    ("axiom_residuals", "phi_square"): ((checks, "validate_axioms", _in_table("phi_square")), None),
    **{
        ("identities", name, "max_residual"): ((checks, "identity_residuals", _in_table(name)), None)
        for name in SOFT_IDENTITIES
    },
    ("metricity", "max_abs"): ((checks, "identity_residuals", _in_table("metricity_defect")), None),
    ("metricity", "reeb_row_max"): (
        (checks, "identity_residuals", _in_table("metricity_defect_reeb_row")), None),
    ("classification", "contact_metric", "max_residual"): (
        (CRITERIA_HOLDERS, "criterion_residuals", _in_criterion("contact_metric", 0)),
        ("classify", ("contact_metric", "max_residual"))),
    ("classification", "aqs", "max_residual"): (
        (CRITERIA_HOLDERS, "criterion_residuals", _in_criterion("d_Omega_zero", 0)),
        ("classify", ("aqs", "max_residual"))),
    ("quasi_sasakian_conditions", "phi_psi_commute", "max_residual"): (
        (CRITERIA_HOLDERS, "criterion_residuals", _in_criterion("phi_psi_commute", 0)),
        ("classify", ("quasi_sasakian", "max_residual"))),
    ("einstein", "d_eta", "max_residual"): (
        (curvature, "einstein_rhs", _einstein_rhs_edit),
        ("einstein", ("d_eta", "max_residual"))),
    ("einstein", "d_eta", "residual_grid", 0, 1): (
        (curvature, "einstein_rhs", _einstein_rhs_edit),
        ("einstein", ("d_eta", "residual_grid", 0, 1))),
    # the one nabla omega row of einstein_rows: check reports its maximum
    # under identities and as each omega source's parallel torsion
    **{
        slot: ((curvature, "nabla_omega", _poisoned),
               ("einstein", ("fundamental_form", "parallel_torsion_residual")))
        for slot in (("identities", "nabla_omega", "max_residual"),
                     ("einstein", "fundamental_form", "parallel_torsion_residual"))
    },
}


def _at(report, slot):
    for key in slot:
        report = report[key]
    return report


def _same_token(value: float, bad: float) -> bool:
    return math.isnan(value) if math.isnan(bad) else value == bad


def _run(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("slot", INJECTIONS, ids=lambda slot: ".".join(map(str, slot)))
def test_a_non_finite_residual_in_any_slot_fails_the_exit_status(slot, bad, monkeypatch, capsys):
    # example1 is almost quasi-Sasakian and fails all three quasi-Sasakian
    # conditions, so a poisoned condition still agrees with the other two
    (module, builder, edit), own = INJECTIONS[slot]
    _patch(monkeypatch, module, builder, edit, bad)
    token = "NaN" if math.isnan(bad) else "Infinity"
    argv = ["example1", "--samples", "8"]

    code, out = _run(capsys, ["check", *argv, "--json"])
    assert code == 1 and token in out
    assert _same_token(_at(json.loads(out), slot), bad)
    assert _run(capsys, ["check", *argv])[0] == 1
    if own is not None:
        command, own_slot = own
        code, out = _run(capsys, [command, *argv, "--json"])
        assert code == 1 and _same_token(_at(json.loads(out), own_slot), bad)
        code, out = _run(capsys, [command, *argv])
        assert code == 1 and ("nan" if math.isnan(bad) else "inf") in out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_scale_alone_fails_only_its_verdict(bad, monkeypatch, capsys):
    # scales are not reported: a NaN or infinite one fails its verdict and
    # leaves the exit status alone; the flat model is normal, and no
    # conjunction reads that criterion
    argv = ["flat", "--samples", "8", "--json"]
    before = json.loads(_run(capsys, ["check", *argv])[1])
    _patch(monkeypatch, CRITERIA_HOLDERS, "criterion_residuals", _in_criterion("normal", 1), bad)
    code, out = _run(capsys, ["check", *argv])
    after = json.loads(out)
    assert code == 0 and before["classification"]["normal"]["holds"]
    assert not after["classification"]["normal"]["holds"]
    before["classification"]["normal"]["holds"] = False
    assert after == before
    code, out = _run(capsys, ["classify", *argv])
    assert code == 0 and json.loads(out) == before["classification"]


# the rows of each command: check's are the Einstein rows (nabla omega,
# then a residual and a scale per omega source), the axiom and identity
# tables (6 + 12 rows) and the criteria (8 residuals and scales)
PARTS = {"check": 5 + 6 + 12 + 16, "classify": 16, "einstein": 5}


@pytest.mark.parametrize("command", PARTS)
@pytest.mark.parametrize("name", FIXTURES)
def test_one_command_makes_one_reduction(name, command, monkeypatch, capsys):
    # every per-sample row of a command goes through one worst and no other
    reduced = []

    def counted(rows):
        reduced.append(sum(len(row) if type(row) is tuple else 1 for row in rows.values()))
        return reduce(rows)

    reduce = residuals.worst
    for module in (checks, classify, curvature):
        monkeypatch.setattr(module, "worst", counted)
    main([command, name, "--samples", "16", "--json"])
    capsys.readouterr()
    assert reduced == [PARTS[command]]


# ---------------------------------------------------------------------------
# The one reduction and the section builders, on hand-written rows and maxima
# ---------------------------------------------------------------------------


def test_worst_keeps_names_and_order_of_rows_and_pairs():
    rows = {
        "b": np.array([1.0, -3.0, 2.0]),
        "a": (np.array([0.5, 4.0, -1.0]), np.array([7.0, 6.0, 5.0])),
        "c": np.array([-1.0, -2.0, -0.5]),
    }
    maxima = residuals.worst(rows)
    assert list(maxima) == ["b", "a", "c"]
    assert maxima == {"b": 2.0, "a": (4.0, 7.0), "c": 0.0}  # the floor is 0
    assert type(maxima["b"]) is float and type(maxima["a"]) is tuple
    assert all(type(x) is float for x in maxima["a"])


def test_worst_lets_nan_beat_infinity_and_infinity_beat_finite():
    inf, nan = math.inf, math.nan
    maxima = residuals.worst({
        "nan_over_inf": np.array([inf, nan, 1.0]),
        "nan_over_minus_inf": np.array([-inf, 2.0, nan]),
        "inf_over_finite": np.array([3.0, inf, 1e308]),
        "minus_inf": np.array([-inf, -inf, -inf]),
        "pair": (np.array([1.0, nan, 2.0]), np.array([inf, 0.0, 1.0])),
    })
    assert math.isnan(maxima["nan_over_inf"]) and math.isnan(maxima["nan_over_minus_inf"])
    assert maxima["inf_over_finite"] == inf
    assert maxima["minus_inf"] == 0.0
    assert math.isnan(maxima["pair"][0]) and maxima["pair"][1] == inf


def test_worst_reduces_a_one_sample_batch():
    assert residuals.worst({"row": np.array([2.5]), "pair": (np.array([-1.0]), np.array([3.0]))}) == {
        "row": 2.5, "pair": (0.0, 3.0)}
    # a single point's rows have batch shape ()
    assert residuals.worst({"row": np.array(1.5), "pair": (np.array(0.5), np.array(-2.0))}) == {
        "row": 1.5, "pair": (0.5, 0.0)}


def _criterion_maxima(**edits) -> dict:
    """Worst (residual, scale) of every criterion of an almost
    quasi-Sasakian structure whose three quasi-Sasakian conditions fail,
    as example1 reports it, with ``edits`` replacing some."""
    maxima = {name: (0.0, 1.0) for name in classify.BASE_CRITERIA}
    maxima.update({name: (0.5, 1.0) for name in classify.QS_CONDITIONS})
    maxima["contact_metric"] = (2.0, 1.0)
    maxima.update(edits)
    return maxima


def test_classification_sections_of_hand_written_maxima():
    sections = classify.classification_sections(_criterion_maxima(), 1e-9, 7)
    verdicts = sections["classification"]
    assert [name for name in classify.CRITERIA if verdicts[name]["holds"]] == [
        "normal", "almost_normal", "almost_contact_kahler", "aqs", "d_eta_xi_zero", "d_Omega_zero"]
    assert all(entry["samples"] == 7 for entry in verdicts.values())
    assert verdicts["quasi_sasakian"]["max_residual"] == 0.5
    assert sections["quasi_sasakian_conditions"]["phi_psi_commute"] == {"holds": False, "max_residual": 0.5}


def test_a_nan_conjunct_makes_aqs_nan_and_false():
    sections = classify.classification_sections(_criterion_maxima(d_Omega_zero=(math.nan, 1.0)), 1e-9, 7)
    aqs = sections["classification"]["aqs"]
    assert math.isnan(aqs["max_residual"]) and aqs["holds"] is False
    assert math.isnan(sections["classification"]["quasi_sasakian"]["max_residual"])
    assert not checks.finite(sections["classification"])


def test_aqs_with_disagreeing_qs_conditions_is_inconsistent():
    maxima = _criterion_maxima(phi_psi_commute=(0.0, 1.0))
    with pytest.raises(classify.InternalConsistencyError, match="disagree on an AQS structure"):
        classify.classification_sections(maxima, 1e-9, 7)
    # off AQS the disagreement is no contradiction
    maxima["d_eta_xi_zero"] = (1.0, 1.0)
    sections = classify.classification_sections(maxima, 1e-9, 7)
    assert not sections["classification"]["aqs"]["holds"]
    assert sections["quasi_sasakian_conditions"]["phi_psi_commute"]["holds"]


def test_an_infinite_einstein_scale_fails_only_its_source():
    grids = {source: [[0.0]] for source in OMEGA_SOURCES}
    maxima = {"nabla_omega": 0.25, "d_eta": (1e-12, math.inf), "fundamental_form": (1e-12, 2.0)}
    section = curvature.einstein_section(maxima, grids, 1e-9)
    assert section["d_eta"]["verdict"] is False and section["fundamental_form"]["verdict"] is True
    assert {entry["max_residual"] for entry in section.values()} == {1e-12}
    assert {entry["parallel_torsion_residual"] for entry in section.values()} == {0.25}
    assert section["d_eta"]["residual_grid"] is grids["d_eta"]
    assert checks.finite(section)  # the scale is not reported


@pytest.mark.parametrize("name", FIXTURES)
def test_one_nabla_omega_row_feeds_both_sections(name, monkeypatch, capsys):
    # identities.nabla_omega and every source's parallel_torsion_residual
    # are the maximum of one row, unpoisoned and with a finite value at
    # sample 1 that exceeds every fixture's own
    def slots(report):
        return {report["identities"]["nabla_omega"]["max_residual"],
                *(entry["parallel_torsion_residual"] for entry in report["einstein"].values())}

    argv = ["check", name, "--samples", "8", "--json"]
    assert len(slots(json.loads(_run(capsys, argv)[1]))) == 1
    _patch(monkeypatch, curvature, "nabla_omega", _poisoned, 1e3)
    assert slots(json.loads(_run(capsys, argv)[1])) == {1e3}


def test_a_finite_n_connection_formula_failure_does_not_gate(monkeypatch, capsys):
    # reported with a tolerance, a holds and a PASS/FAIL line, but not one
    # of the hard identities, so the exit status stays 0
    _patch(monkeypatch, checks, "identity_residuals", _in_table("n_connection_formula"), 1.0)
    code, out = _run(capsys, ["check", "example1", "--samples", "8", "--json"])
    entry = json.loads(out)["identities"]["n_connection_formula"]
    assert code == 0 and entry["max_residual"] == 1.0 and entry["holds"] is False
    code, out = _run(capsys, ["check", "example1", "--samples", "8"])
    assert code == 0
    assert [line.split()[-1] for line in out.splitlines() if "n_connection_formula" in line] == ["FAIL"]
