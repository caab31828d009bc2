"""Classification tests: Nijenhuis tensors, universal identities, verdicts."""

from __future__ import annotations

import numpy as np
import pytest

from acmcheck.chart import sample_points
from acmcheck.classify import (
    InternalConsistencyError,
    reeb_split_identity_residual,
    projection_identity_residual,
    qs_characterization_residual,
    canonical_nabla_phi_residual,
    aqs_characterization_residual,
    nijenhuis_tensors,
    qs_condition_residuals,
)
from acmcheck.connection import cov_phi
from acmcheck.manifest import manifest_from_dict
from acmcheck.structure import StructureEval
from _helpers import (
    classify_run,
    deep_tree_manifest_data,
    four_bracket_nijenhuis,
    manifest_data,
    perturbed_flat,
)

ALL = ("flat", "example1", "example2", "example3-qs", "example3-aqs")
ORIGIN = np.zeros(5)
P1 = np.array([0.4, 1.3, -0.6, 0.2, 0.8])


# ---------------------------------------------------------------------------
# Nijenhuis tensors
# ---------------------------------------------------------------------------


def test_nijenhuis_example1_values(manifests):
    bundle = nijenhuis_tensors(StructureEval(manifests["example1"], P1))
    # N1(e_1, e_2) = -xi: Reeb component -1, horizontal components 0
    assert bundle.n1[0, 1, 4] == pytest.approx(-1.0, abs=1e-12)
    assert np.abs(bundle.n1[0, 1, :4]).max() < 1e-12
    # N~(e_1, e_2) = 0
    assert np.abs(bundle.n_tilde[0, 1]).max() < 1e-12


def test_nijenhuis_flat_all_vanish(manifests):
    bundle = nijenhuis_tensors(StructureEval(manifests["flat"], ORIGIN))
    for grid in (bundle.n_phi, bundle.n1, bundle.n_tilde):
        assert np.abs(grid).max() == 0.0


def test_nijenhuis_antisymmetric_in_arguments(manifests, sample_sets):
    # every grid of the bundle, and both d(eta) inputs of N1 and N~: a sign
    # slip in one mirrored entry keeps the max-abs residuals the identities
    # read, but not the skewness
    for name in ALL:
        for p in sample_sets[name][:4]:
            bundle = nijenhuis_tensors(StructureEval(manifests[name], p))
            for grid in ("n_phi", "n1", "n_tilde", "d_eta", "d_eta_phi"):
                value = getattr(bundle, grid)
                assert np.abs(value + np.swapaxes(value, 0, 1)).max() < 1e-12, (name, grid)


@pytest.mark.parametrize("batch", [(), (16,)], ids=["point", "block"])
@pytest.mark.parametrize("name", ALL + ("twisted", "deep"))
def test_nijenhuis_three_brackets_equal_four(name, batch):
    # [E_i, E_j] is shared with the torsion and [E_i, phi E_j] read off
    # [phi E_i, E_j]; the reference brackets all four pairs on their own.
    # d(eta)(phi ., phi .) is the evaluation's one pull-back, which the
    # quasi-Sasakian conditions read too
    data = deep_tree_manifest_data() if name == "deep" else manifest_data(name)
    manifest = manifest_from_dict(data)
    points = sample_points(manifest, 16, seed=9)
    points = points[0] if batch == () else points
    bundle = nijenhuis_tensors(StructureEval(manifest, points))
    n_phi, d_eta_phi = four_bracket_nijenhuis(StructureEval(manifest, points))
    assert bundle.n_phi.shape == n_phi.shape == batch + (5, 5, 5)
    assert np.abs(bundle.n_phi - n_phi).max() <= 1e-13 * (1.0 + np.abs(bundle.n_phi).max())
    assert np.abs(bundle.d_eta_phi - d_eta_phi).max() <= 1e-13 * (1.0 + np.abs(d_eta_phi).max())


def levi_civita_nijenhuis(ev) -> np.ndarray:
    """N_phi on all basis pairs from the Levi-Civita nabla phi, with no
    bracket: N_phi(X, Y) = (nabla_{phi X} phi) Y - (nabla_{phi Y} phi) X
    - phi (nabla_X phi) Y + phi (nabla_Y phi) X, which holds for any
    torsion-free connection.  D[..., i, k, j] = (nabla_{E_i} phi)^k_j."""
    D, P = cov_phi(ev, "levi_civita"), ev.phi_full
    return (np.einsum("...ci,...ckj->...ijk", P, D) - np.einsum("...cj,...cki->...ijk", P, D)
            - np.einsum("...kb,...ibj->...ijk", P, D) + np.einsum("...kb,...jbi->...ijk", P, D))


@pytest.mark.parametrize("batch", [(), (32,)], ids=["point", "block"])
@pytest.mark.parametrize("name", ALL + ("twisted", "deep"))
def test_nijenhuis_brackets_equal_the_levi_civita_form(name, batch):
    # N_phi from the brackets of the frame fields against N_phi from nabla
    # phi and phi alone: the two share no bracket code, so a slip in
    # connection.bracket shows here, which reeb_split_identity cannot see
    data = deep_tree_manifest_data() if name == "deep" else manifest_data(name)
    manifest = manifest_from_dict(data)
    points = sample_points(manifest, 32, seed=1)
    ev = StructureEval(manifest, points[0] if batch == () else points)
    n_phi, reference = nijenhuis_tensors(ev).n_phi, levi_civita_nijenhuis(ev)
    assert n_phi.shape == reference.shape == batch + (5, 5, 5)
    assert np.abs(n_phi - reference).max() <= 1e-13 * (1.0 + np.abs(reference).max())


# ---------------------------------------------------------------------------
# Universal identities (Prop. 3 and Eq. (1) analogues)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL)
def test_projection_identity_on_fixtures(name, manifests, sample_sets):
    for p in sample_sets[name][:8]:
        assert projection_identity_residual(StructureEval(manifests[name], p)) < 1e-9, name


@pytest.mark.parametrize("name", ALL)
def test_reeb_split_identity_on_fixtures(name, manifests, sample_sets):
    for p in sample_sets[name][:8]:
        assert reeb_split_identity_residual(StructureEval(manifests[name], p)) < 1e-9, name


def test_identities_survive_random_perturbations(manifests):
    # the projection/split identities do not depend on the axioms, so they
    # must survive arbitrary horizontal perturbations of phi and g
    rng = np.random.default_rng(99)
    for _ in range(10):
        s = perturbed_flat(manifests["flat"], rng)
        for p in sample_points(s, 4, seed=int(rng.integers(0, 10_000))):
            assert projection_identity_residual(StructureEval(s, p)) < 1e-9
            assert reeb_split_identity_residual(StructureEval(s, p)) < 1e-9


# ---------------------------------------------------------------------------
# Theorem-1-type characterization
# ---------------------------------------------------------------------------


def test_aqs_characterization_example1(manifests, sample_sets):
    for p in sample_sets["example1"]:
        assert aqs_characterization_residual(StructureEval(manifests["example1"], p)) < 1e-8


def test_aqs_characterization_example2_violated(manifests):
    p = np.array([1.0, 3.0, 0.0, 0.0, 2.0])
    assert aqs_characterization_residual(StructureEval(manifests["example2"], p)) > 0.1


def test_aqs_characterization_flat_trivial(manifests):
    assert aqs_characterization_residual(StructureEval(manifests["flat"], ORIGIN)) == 0.0


def test_aqs_characterization_biconditional(manifests, sample_sets):
    # residual below tolerance exactly on the fixtures classified AQS
    for name in ALL:
        mf = manifests[name]
        points = sample_sets[name]
        report = classify_run(mf)
        worst = max(aqs_characterization_residual(StructureEval(manifests[name], p)) for p in points)
        assert report["classification"]["aqs"]["holds"] == (worst < mf.tolerance), (name, worst)


# ---------------------------------------------------------------------------
# Prop. 4 / Prop. 5 / Prop. 6 style checks
# ---------------------------------------------------------------------------


def test_qs_characterization_example3_qs_holds(manifests, sample_sets):
    for p in sample_sets["example3-qs"][:8]:
        assert qs_characterization_residual(StructureEval(manifests["example3-qs"], p)) < 1e-8


def test_qs_characterization_example1_fails(manifests):
    assert qs_characterization_residual(StructureEval(manifests["example1"], P1)) > 0.1


@pytest.mark.parametrize("batch", [(), (32,)], ids=["point", "block"])
def test_qs_characterization_per_point_on_a_deep_tree_manifest(batch):
    # A = phi psi is g-symmetric on every fixture, where a transposed A
    # changes no residual; on a deep-tree manifest it is not.  The reference
    # builds (nabla~_X phi) Y = g(A Y, X) xi - eta(Y) A X with np.einsum,
    # from the Levi-Civita table and the frame derivatives of phi
    manifest = manifest_from_dict(deep_tree_manifest_data(0))
    points = sample_points(manifest, 32, seed=1)
    ev = StructureEval(manifest, points if batch else points[3])
    n, m = ev.n, ev.m
    lc, phi = ev.lc_full, ev.phi_full
    nabla_phi = np.einsum("...icb,...ca->...iba", lc, phi) - np.einsum("...iac,...bc->...iba", lc, phi)
    nabla_phi[..., :m, :m] += np.einsum("...bai->...iba", ev.phi_frame_d)  # E_i phi^b_a
    A = np.einsum("...bc,...ca->...ba", ev.phi0, ev.psi0)
    rhs = np.zeros(ev.batch + (n, n, n))  # rhs[i, j, b]: component b at (X, Y) = (E_i, E_j)
    rhs[..., :m, :m, -1] = np.einsum("...cj,...ci->...ij", A, ev.g0)
    rhs[..., :m, -1, :m] = -np.einsum("...bi->...ib", A)
    diff = np.abs(np.einsum("...ibj->...ijb", nabla_phi) - rhs)
    want = diff.reshape(ev.batch + (-1,)).max(axis=-1)
    got = qs_characterization_residual(ev)
    assert got.shape == batch
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + want))
    assert want.max() > 0.1  # not quasi-Sasakian


def test_qs_conditions_agree_on_aqs_fixtures(manifests, sample_sets):
    for name in ("flat", "example1", "example3-qs"):
        for p in sample_sets[name][:8]:
            residuals = qs_condition_residuals(StructureEval(manifests[name], p))
            flags = {cond: r < 1e-7 * (1 + s) for cond, (r, s) in residuals.items()}
            assert len(set(flags.values())) == 1, (name, residuals)


def test_canonical_nabla_phi_matches_quasi_sasakian(manifests, sample_sets):
    worst_qs = max(canonical_nabla_phi_residual(StructureEval(manifests["example3-qs"], p))
                for p in sample_sets["example3-qs"])
    assert worst_qs < 1e-8
    worst_aqs = max(canonical_nabla_phi_residual(StructureEval(manifests["example3-aqs"], p))
                 for p in sample_sets["example3-aqs"])
    assert worst_aqs > 1e-3


# ---------------------------------------------------------------------------
# Classification verdicts
# ---------------------------------------------------------------------------


def test_classify_example1(manifests):
    report = classify_run(manifests["example1"])
    assert report["classification"]["almost_normal"]["holds"]
    assert not report["classification"]["normal"]["holds"]
    assert report["classification"]["aqs"]["holds"]
    assert report["classification"]["almost_contact_kahler"]["holds"]
    assert not report["classification"]["quasi_sasakian"]["holds"]
    assert not report["classification"]["contact_metric"]["holds"]


def test_classify_example2(manifests):
    report = classify_run(manifests["example2"])
    assert not report["classification"]["aqs"]["holds"]
    assert not report["classification"]["d_eta_xi_zero"]["holds"]
    assert report["classification"]["almost_normal"]["holds"]
    assert report["classification"]["almost_contact_kahler"]["holds"]


def test_classify_example3_qs(manifests):
    report = classify_run(manifests["example3-qs"])
    assert report["classification"]["quasi_sasakian"]["holds"]
    assert report["classification"]["aqs"]["holds"]
    # quasi-Sasakian forces normality: N1 = N~ + 2(d eta - phi* d eta) xi = 0
    assert report["classification"]["normal"]["holds"]


def test_classify_ladder_implications(manifests):
    # normal => almost_normal; aqs => almost_normal, dOmega = 0, d eta(xi,.) = 0;
    # quasi_sasakian => aqs
    for name in ALL:
        report = classify_run(manifests[name])
        if report["classification"]["normal"]["holds"]:
            assert report["classification"]["almost_normal"]["holds"], name
        if report["classification"]["aqs"]["holds"]:
            assert report["classification"]["almost_normal"]["holds"], name
            assert report["classification"]["d_Omega_zero"]["holds"], name
            assert report["classification"]["d_eta_xi_zero"]["holds"], name
        if report["classification"]["quasi_sasakian"]["holds"]:
            assert report["classification"]["aqs"]["holds"], name


def test_classify_example3_aqs_not_quasi_sasakian(manifests):
    report = classify_run(manifests["example3-aqs"])
    assert not report["classification"]["quasi_sasakian"]["holds"]
    assert report["classification"]["almost_normal"]["holds"]
    assert report["classification"]["d_eta_xi_zero"]["holds"]
    # the redefined endomorphism does not close the fundamental form under
    # the conformal metric, so the AQS verdict is negative
    assert not report["classification"]["d_Omega_zero"]["holds"]
    assert not report["classification"]["aqs"]["holds"]


def test_classify_flat_quasi_sasakian(manifests):
    report = classify_run(manifests["flat"])
    assert report["classification"]["quasi_sasakian"]["holds"]
    assert report["classification"]["normal"]["holds"]
    assert report["classification"]["contact_metric"]["holds"] is False  # Omega != 0 = d(eta)


def test_classify_verdicts_stable_32_to_128(manifests):
    for name in ALL:
        small = classify_run(manifests[name], samples=32, seed=42)
        large = classify_run(manifests[name], samples=128, seed=42)
        for criterion, verdict in small["classification"].items():
            assert verdict["holds"] == large["classification"][criterion]["holds"], (name, criterion)


def test_classify_monotone_under_tolerance(manifests):
    tight = classify_run(manifests["example1"], tol=1e-9)
    loose = classify_run(manifests["example1"], tol=1e-5)
    for criterion in tight["classification"]:
        if tight["classification"][criterion]["holds"]:
            assert loose["classification"][criterion]["holds"]


def test_classify_samples_recorded(manifests):
    report = classify_run(manifests["flat"])
    assert all(v["samples"] == 32 for v in report["classification"].values())


def test_disagreeing_qs_conditions_raise(manifests, monkeypatch):
    # the three quasi-Sasakian conditions are provably equivalent on AQS
    # structures; a disagreement there is an internal error, not a verdict
    import sys

    def doctored(ev):
        def rows(residual, scale):
            return np.full(ev.batch, residual), np.full(ev.batch, scale)

        return {
            "d_eta_phi_invariant": rows(0.0, 1.0),
            "phi_psi_commute": rows(1.0, 1.0),
            "A_g_symmetric": rows(0.0, 1.0),
        }

    monkeypatch.setattr(sys.modules["acmcheck.classify"], "qs_condition_residuals", doctored)
    with pytest.raises(InternalConsistencyError):
        classify_run(manifests["example1"], samples=2)
