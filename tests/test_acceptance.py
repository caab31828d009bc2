"""Acceptance suite: one test per criterion, at the stated tolerances.

Two sub-claims about the bundled conformal example are strict xfails with
the blocking analysis in their reasons: the redefined-endomorphism variant
does not have a closed fundamental form under the shipped metric (so it is
genuinely not almost quasi-Sasakian), and the Einstein verdict under the
fundamental-form substitution cannot extend to the Ricci-flat block.  The
toolkit reports both facts honestly; the xfail markers record that the
stated expectations are unattainable rather than weakening any check.
"""

from __future__ import annotations

import numpy as np
import pytest

from _helpers import (
    classify_run,
    einstein_run,
    fd_gradient,
    fd_hessian,
    field_jet,
    perturbed_flat,
    random_poly_text,
    trace_psi_sq,
)

from acmcheck.chart import rank_at
from acmcheck.classify import reeb_split_identity_residual, projection_identity_residual, canonical_nabla_phi_residual, aqs_characterization_residual
from acmcheck.connection import (
    coordinate_to_adapted,
    lc_adapted,
    lc_coordinate,
    metricity_defect,
    nabla_omega,
    torsion,
)
from acmcheck.checks import run_full_check, sampled_evaluation
from acmcheck.curvature import einstein_reports, einstein_rhs, ricci_wagner, schouten
from acmcheck.expr import parse
from acmcheck.classify import nijenhuis_tensors
from acmcheck.structure import StructureEval

ALL = ("flat", "example1", "example2", "example3-qs", "example3-aqs")


def _record(log, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    log.append(f"[{label}] {status}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. Oracle equivalence for the adapted Levi-Civita form
# ---------------------------------------------------------------------------


def test_criterion_1_lc_oracle(structures, sample_sets, acceptance_log):
    worst = 0.0
    for name in ALL:
        s = structures[name]
        for p in sample_sets[name]:
            ev = StructureEval(s, p)
            adapted = lc_adapted(ev).full
            converted = coordinate_to_adapted(ev, lc_coordinate(ev))
            worst = max(worst, float(np.abs(adapted - converted).max()))
    _record(acceptance_log, "criterion 1", worst < 1e-8,
            f"adapted vs coordinate Levi-Civita, max residual {worst:.3e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 2. Skew-torsion biconditional
# ---------------------------------------------------------------------------


def test_criterion_2_skew_torsion(structures, sample_sets, acceptance_log):
    eps = 0.05
    worst_canonical = 0.0
    ok_perturbed = True
    for name in ALL:
        s = structures[name]
        for p in sample_sets[name]:
            ev = StructureEval(s, p)
            canonical = torsion(ev, ev.canonical_N)
            worst_canonical = max(worst_canonical, canonical.skew_residual)
            off = torsion(ev, 2.0 * ev.psi0 + eps * np.eye(4))
            if off.is_skew or off.skew_residual < eps:
                ok_perturbed = False
    ok = worst_canonical < 1e-9 and ok_perturbed
    _record(acceptance_log, "criterion 2", ok,
            f"N = 2psi skew residual {worst_canonical:.3e} (tol 1e-9); "
            f"perturbed N detected non-skew with residual >= {eps}")


# ---------------------------------------------------------------------------
# 3. Universal identities, fixtures + random perturbations
# ---------------------------------------------------------------------------


def test_criterion_3_universal_identities(structures, sample_sets, acceptance_log):
    worst = 0.0
    for name in ALL:
        for p in sample_sets[name]:
            ev = StructureEval(structures[name], p)
            worst = max(worst, projection_identity_residual(ev), reeb_split_identity_residual(ev))
    rng = np.random.default_rng(321)
    for _ in range(10):
        s = perturbed_flat(structures["flat"], rng)
        for p in s.chart.sample_points(4, seed=int(rng.integers(0, 10_000))):
            ev = StructureEval(s, p)
            worst = max(worst, projection_identity_residual(ev), reeb_split_identity_residual(ev))
    _record(acceptance_log, "criterion 3", worst < 1e-9,
            f"projection/split identities, max residual {worst:.3e} over fixtures "
            f"+ 10 random perturbations (tol 1e-9)")


# ---------------------------------------------------------------------------
# 4. Example 1 reproduction
# ---------------------------------------------------------------------------


def test_criterion_4_example1(manifests, structures, sample_sets, acceptance_log):
    s = structures["example1"]
    points = sample_sets["example1"]
    bundle = nijenhuis_tensors(StructureEval(s, points[0]))
    n1_ok = abs(bundle.n1[0, 1, 4] + 1.0) < 1e-9 and np.abs(bundle.n1[0, 1, :4]).max() < 1e-9
    ntilde_ok = np.abs(bundle.n_tilde[0, 1]).max() < 1e-9
    report = classify_run(manifests["example1"])
    verdicts_ok = (report.holds("almost_normal") and not report.holds("normal")
                   and report.holds("aqs"))
    nabla_ok = all(np.abs(nabla_omega(StructureEval(s, p))).max() < 1e-12 for p in points)
    traces = [trace_psi_sq(StructureEval(s, p)) for p in points]
    trace_ok = max(traces) - min(traces) < 1e-12
    ok = n1_ok and ntilde_ok and verdicts_ok and nabla_ok and trace_ok
    _record(acceptance_log, "criterion 4", ok,
            "N1(e1,e2) = -xi, N~(e1,e2) = 0, almost normal & not normal & AQS, "
            f"nabla omega = 0, tr(psi^2) spread {max(traces) - min(traces):.2e}")


# ---------------------------------------------------------------------------
# 5. Example 2 reproduction
# ---------------------------------------------------------------------------


def test_criterion_5_example2(manifests, structures, sample_sets, acceptance_log):
    s = structures["example2"]
    points = sample_sets["example2"]
    deta_ok = True
    defect_ok = True
    rank_ok = True
    for p in points:
        ev = StructureEval(s, p)
        y = p[1]
        # d(eta)(xi, e_1) = y/2 under the 1/2 convention
        value = 0.5 * ev.d_eta_xi[0]
        if abs(value - y / 2) > 1e-9 * abs(y / 2):
            deta_ok = False
        defect = metricity_defect(ev, ev.canonical_N)
        if abs(defect[4, 4, 0] - y) > 1e-9:
            defect_ok = False
        if rank_at(s.chart, p) % 2 != 0:
            rank_ok = False
    report = classify_run(manifests["example2"])
    ok = deta_ok and defect_ok and rank_ok and not report.holds("aqs")
    _record(acceptance_log, "criterion 5", ok,
            "d(eta)(xi, e1) = y/2, not AQS, metricity defect (n,n,1) = y, rank even")


# ---------------------------------------------------------------------------
# 6. Example 3, solid half
# ---------------------------------------------------------------------------

_U = parse("0 - ln(1 + x^2 + y^2)", ("x", "y", "z", "u", "v"))


def _gauss_oracle(p: np.ndarray) -> float:
    jet = field_jet(_U, p)
    return float(-np.exp(-2.0 * jet.value) * (jet.hess[0, 0] + jet.hess[1, 1]))


def test_criterion_6_example3_ricci_wagner(structures, sample_sets, acceptance_log):
    s = structures["example3-qs"]
    worst_r = 0.0
    worst_K = 0.0
    for p in sample_sets["example3-qs"]:
        ev = StructureEval(s, p)
        r = ricci_wagner(StructureEval(s, p))
        worst_r = max(worst_r, float(np.abs(r[:2, :2] + 4.0 * ev.g0[:2, :2]).max()))
        R = schouten(StructureEval(s, p))
        sectional = float(
            np.einsum("d,d->", R[:, 0, 1, 1], ev.g0[:, 0])
            / (ev.g0[0, 0] * ev.g0[1, 1] - ev.g0[0, 1] ** 2)
        )
        worst_K = max(worst_K, abs(sectional - _gauss_oracle(p)), abs(_gauss_oracle(p) - 4.0))
    ok = worst_r < 1e-7 and worst_K < 1e-7
    _record(acceptance_log, "criterion 6", ok,
            f"r = -4g on the conformal block (max {worst_r:.3e}), "
            f"Gaussian-curvature oracle K = 4 (max dev {worst_K:.3e})")


# ---------------------------------------------------------------------------
# 7. Example 3, flagged half
# ---------------------------------------------------------------------------


def test_criterion_7_fundamental_form_block_and_profile(manifests, acceptance_log):
    ev, run = sampled_evaluation(manifests["example3-qs"])
    reports = einstein_reports(ev, run["tolerance"])
    fund, deta = reports["fundamental_form"], reports["d_eta"]
    block_ok = float(fund.residual_grid[:2, :2].max()) < 1e-7
    # the substitution makes the right-hand side equal -4g identically
    identity_ok = all(
        np.abs(rhs + 4.0 * StructureEval(ev.structure, point).g0).max() < 1e-12
        for point, rhs in zip(ev.p, einstein_rhs(ev, "fundamental_form"))
    )
    profile_ok = True
    for point, r, rhs in zip(ev.p, ricci_wagner(ev), einstein_rhs(ev, "d_eta")):
        s_val = point[0] ** 2 + point[1] ** 2
        predicted = abs(-4.0 / (1 + s_val) ** 2 + (1 + s_val) ** 2)
        if abs(abs(r[0, 0] - rhs[0, 0]) - predicted) > 1e-6:
            profile_ok = False
    ok = block_ok and identity_ok and profile_ok and not deta.verdict
    _record(acceptance_log, "criterion 7", ok,
            "fundamental-form Einstein residual < 1e-7 on the conformal block; "
            "default-source residual matches |-4(1+s)^-2 + (1+s)^2| to 1e-6")


@pytest.mark.xfail(
    strict=True,
    reason="r vanishes on the flat (3,4)-block while the fundamental-form "
    "substitution forces the right-hand side to -4g there, so the verdict "
    "over the whole distribution is genuinely negative (residual 4)",
)
def test_criterion_7_fundamental_form_full_verdict(manifests, acceptance_log):
    report = einstein_run(manifests["example3-qs"])["fundamental_form"]
    if not report.verdict:
        acceptance_log.append(
            "[criterion 7, full-grid reading] FAIL (expected): fundamental-form "
            f"Einstein verdict over all of D is negative (flat-block residual "
            f"{report.residual_grid[2, 2]:.3e})"
        )
    assert report.verdict


# ---------------------------------------------------------------------------
# 8. Canonical nabla phi biconditional
# ---------------------------------------------------------------------------


def test_criterion_8_canonical_nabla_phi(manifests, structures, sample_sets, acceptance_log):
    qs = structures["example3-qs"]
    worst_qs = max(canonical_nabla_phi_residual(StructureEval(qs, p)) for p in sample_sets["example3-qs"])
    report_qs = classify_run(manifests["example3-qs"])
    aqs = structures["example3-aqs"]
    worst_aqs = max(canonical_nabla_phi_residual(StructureEval(aqs, p)) for p in sample_sets["example3-aqs"])
    report_aqs = classify_run(manifests["example3-aqs"])
    ok = (worst_qs < 1e-8 and report_qs.holds("quasi_sasakian")
          and worst_aqs > 1e-3 and not report_aqs.holds("quasi_sasakian"))
    _record(acceptance_log, "criterion 8", ok,
            f"canonical nabla phi: {worst_qs:.3e} on the quasi-Sasakian variant "
            f"(classified QS), {worst_aqs:.3e} on the redefined variant (not QS)")


@pytest.mark.xfail(
    strict=True,
    reason="the redefined endomorphism pairs the conformal block with the flat "
    "one, so the fundamental form is neither compatible with the metric nor "
    "closed; the AQS verdict for that variant is genuinely negative",
)
def test_criterion_8_redefined_variant_classified_aqs(manifests, acceptance_log):
    report = classify_run(manifests["example3-aqs"])
    if not report.holds("aqs"):
        residual = report.verdicts["d_Omega_zero"].max_residual
        acceptance_log.append(
            "[criterion 8, AQS verdict for the redefined variant] FAIL (expected): "
            f"d(fundamental form) residual {residual:.3e}, so not AQS"
        )
    assert report.holds("aqs")


# ---------------------------------------------------------------------------
# 9. AQS characterization biconditional across the corpus
# ---------------------------------------------------------------------------


def test_criterion_9_characterization_biconditional(manifests, structures, sample_sets, acceptance_log):
    classified_aqs = set()
    below_tol = set()
    for name in ALL:
        report = classify_run(manifests[name])
        if report.holds("aqs"):
            classified_aqs.add(name)
        worst = max(aqs_characterization_residual(StructureEval(structures[name], p)) for p in sample_sets[name])
        if worst < 1e-7:
            below_tol.add(name)
    ex2 = [aqs_characterization_residual(StructureEval(structures["example2"], p)) for p in sample_sets["example2"]]
    generic = sum(1 for r in ex2 if r > 1e-3)
    ok = classified_aqs == below_tol and max(ex2) > 1e-3 and generic >= 30
    _record(acceptance_log, "criterion 9", ok,
            f"residual < 1e-7 exactly on {sorted(classified_aqs)}; "
            f"violated at {generic}/32 samples of example2 (max {max(ex2):.3e})")


# ---------------------------------------------------------------------------
# 10. Differentiation correctness
# ---------------------------------------------------------------------------


def test_criterion_10_jets_vs_finite_differences(acceptance_log):
    coords = ("x", "y", "z", "u", "v")
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        f = parse(random_poly_text(rng), coords)
        p = rng.uniform(-1, 1, size=5)
        jet = field_jet(f, p)
        g, H = fd_gradient(f, p), fd_hessian(f, p)
        rel_g = np.abs(jet.grad - g).max() / (1.0 + np.abs(jet.grad).max())
        rel_h = np.abs(jet.hess - H).max() / (1.0 + np.abs(jet.hess).max())
        worst = max(worst, float(rel_g), float(rel_h))
    _record(acceptance_log, "criterion 10", worst < 1e-5,
            f"100 random polynomial fields vs central differences, worst "
            f"relative error {worst:.3e} (tol 1e-5)")


# ---------------------------------------------------------------------------
# 11. Determinism
# ---------------------------------------------------------------------------


def test_criterion_11_byte_identical_reports(manifests, acceptance_log):
    ok = True
    for name in ALL:
        first = run_full_check(manifests[name]).to_json().encode()
        second = run_full_check(manifests[name]).to_json().encode()
        if first != second:
            ok = False
    _record(acceptance_log, "criterion 11", ok,
            "repeated check runs produce byte-identical machine reports")
