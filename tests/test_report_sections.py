"""Report sections as plain data: every leaf a plain Python value, a
non-finite residual in any reported slot failing its command's exit status
and printed in that slot, and one reduction per section."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from acmcheck import checks, classify, curvature
from acmcheck.checks import run_full_check, sampled_evaluation
from acmcheck.classify import classification_report
from acmcheck.cli import main
from acmcheck.curvature import einstein_reports
from acmcheck.manifest import manifest_from_dict

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


def _patch(monkeypatch, module, builder: str, edit, bad: float) -> None:
    build = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda *args: edit(build(*args), bad))


def _einstein_rhs_edit(rhs: np.ndarray, bad: float) -> np.ndarray:
    # sample 1, component (0, 1) of a (samples, m, m) array
    return _poisoned(rhs, bad, rhs.shape[-1] * rhs.shape[-2] + 1)


SOFT_IDENTITIES = ("torsion_skew", "aqs_characterization", "qs_characterization",
                   "canonical_nabla_phi", "nabla_omega", "nabla_psi")

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
        (classify, "criterion_residuals", _in_criterion("contact_metric", 0)),
        ("classify", ("contact_metric", "max_residual"))),
    ("classification", "aqs", "max_residual"): (
        (classify, "criterion_residuals", _in_criterion("d_Omega_zero", 0)),
        ("classify", ("aqs", "max_residual"))),
    ("quasi_sasakian_conditions", "phi_psi_commute", "max_residual"): (
        (classify, "criterion_residuals", _in_criterion("phi_psi_commute", 0)),
        ("classify", ("quasi_sasakian", "max_residual"))),
    ("einstein", "d_eta", "max_residual"): (
        (curvature, "einstein_rhs", _einstein_rhs_edit),
        ("einstein", ("d_eta", "max_residual"))),
    ("einstein", "d_eta", "residual_grid", 0, 1): (
        (curvature, "einstein_rhs", _einstein_rhs_edit),
        ("einstein", ("d_eta", "residual_grid", 0, 1))),
    ("einstein", "fundamental_form", "parallel_torsion_residual"): (
        (curvature, "nabla_omega", lambda value, bad: _poisoned(value, bad)),
        ("einstein", ("fundamental_form", "parallel_torsion_residual"))),
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
    _patch(monkeypatch, classify, "criterion_residuals", _in_criterion("normal", 1), bad)
    code, out = _run(capsys, ["check", *argv])
    after = json.loads(out)
    assert code == 0 and before["classification"]["normal"]["holds"]
    assert not after["classification"]["normal"]["holds"]
    before["classification"]["normal"]["holds"] = False
    assert after == before
    code, out = _run(capsys, ["classify", *argv])
    assert code == 0 and json.loads(out) == before["classification"]


@pytest.mark.parametrize("name", FIXTURES)
def test_one_check_makes_one_reduction_per_section(name, manifests, monkeypatch):
    # the Einstein section (parallel torsion, then a residual and a scale
    # per omega source), the axiom and identity tables (6 + 13 rows) and
    # the criteria (8 residuals and scales): every per-sample row of a check
    # goes through these three reductions and no other
    reduced = []

    def counted(rows):
        reduced.append(len(rows))
        return reduce(rows)

    reduce = checks.worst
    for module in (checks, classify, curvature):
        monkeypatch.setattr(module, "worst", counted)
    run_full_check(manifests[name], samples=16)
    assert reduced == [5, 19, 16]
