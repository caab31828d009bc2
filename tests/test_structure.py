"""Structure assembly: axioms, derived tensors, exterior derivatives."""

from __future__ import annotations

import numpy as np
import pytest

from acmcheck.expr import Const, Mul, ScalarField, parse
from acmcheck.structure import (
    AdaptedStructure,
    SingularMetricError,
    StructureError,
    StructureEval,
    d_fundamental_form,
    ext_d_from_grad,
    metric_definiteness,
    validate_axioms,
)

from _helpers import trace_psi_sq

ALL = ("flat", "example1", "example2", "example3-qs", "example3-aqs")
COMPATIBLE = ("flat", "example1", "example2", "example3-qs")

ORIGIN = np.zeros(5)


def test_structure_shape_validation(structures):
    s = structures["flat"]
    with pytest.raises(StructureError):
        AdaptedStructure(chart=s.chart, g=s.g[:3, :3], phi=s.phi)


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------


def test_axioms_flat_all_zero(structures):
    report = validate_axioms(StructureEval(structures["flat"], ORIGIN))
    assert all(v == 0.0 for v in report.values())


def test_axioms_example1_below_1e12(structures, sample_sets):
    for p in sample_sets["example1"]:
        report = validate_axioms(StructureEval(structures["example1"], p))
        assert max(report.values()) < 1e-12


def test_axioms_hold_on_compatible_fixtures(structures, sample_sets):
    for name in COMPATIBLE:
        for p in sample_sets[name]:
            report = validate_axioms(StructureEval(structures[name], p))
            assert max(report.values()) < 1e-12, name


def test_axioms_representation_identities_exact(structures):
    report = validate_axioms(StructureEval(structures["example2"], np.array([1.0, 3.0, 0.0, 0.0, 2.0])))
    for key in ("eta_xi", "phi_xi", "eta_circ_phi", "eta_metric_dual"):
        assert report[key] == 0.0


def test_axiom1_residual_for_doubled_phi(structures):
    s = structures["example1"]
    doubled = np.empty_like(s.phi)
    for idx in np.ndindex(s.phi.shape):
        doubled[idx] = ScalarField(Mul(Const(2.0), s.phi[idx].ast), s.phi[idx].coords)
    scaled = AdaptedStructure(chart=s.chart, g=s.g, phi=doubled)
    report = validate_axioms(StructureEval(scaled, np.array([0.5, 1.0, 0.0, 0.0, 0.0])))
    # (2 phi)^2 = -4 id, so the defect against -id has magnitude 3
    assert report["phi_square"] == pytest.approx(3.0, abs=1e-14)


def test_example3_aqs_phi_not_metric_compatible(structures, sample_sets):
    # the redefined endomorphism pairs the conformal block with the flat one,
    # so g(phi X, phi Y) = g(X, Y) fails wherever the conformal factor is not 1
    s = structures["example3-aqs"]
    residuals = [validate_axioms(StructureEval(s, p))["compatibility"] for p in sample_sets["example3-aqs"]]
    assert max(residuals) > 0.5
    # while phi^2 = -id still holds exactly
    assert all(validate_axioms(StructureEval(s, p))["phi_square"] < 1e-14 for p in sample_sets["example3-aqs"])


# ---------------------------------------------------------------------------
# Metric definiteness
# ---------------------------------------------------------------------------


def test_metric_positive_definite_everywhere(structures, sample_sets):
    for name in ALL:
        for p in sample_sets[name]:
            assert metric_definiteness(StructureEval(structures[name], p)) > 1e-9


def test_singular_metric_raises(structures):
    s = structures["flat"]
    degenerate = s.g.copy()
    degenerate[0, 0] = parse("0", s.chart.coords)
    bad = AdaptedStructure(chart=s.chart, g=degenerate, phi=s.phi)
    with pytest.raises(SingularMetricError):
        metric_definiteness(StructureEval(bad, ORIGIN))


def test_pseudo_flag_relaxes_definiteness(structures):
    # an indefinite but nondegenerate metric passes only with pseudo: true
    s = structures["flat"]
    indefinite = s.g.copy()
    indefinite[0, 0] = parse("-1", s.chart.coords)
    strict = AdaptedStructure(chart=s.chart, g=indefinite, phi=s.phi)
    with pytest.raises(SingularMetricError):
        metric_definiteness(StructureEval(strict, ORIGIN))
    relaxed = AdaptedStructure(chart=s.chart, g=indefinite, phi=s.phi, pseudo=True)
    assert metric_definiteness(StructureEval(relaxed, ORIGIN)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Derived tensors
# ---------------------------------------------------------------------------


def test_derived_flat(structures):
    ev = StructureEval(structures["flat"], ORIGIN)
    expected_Omega = np.zeros((4, 4))
    expected_Omega[0, 2], expected_Omega[2, 0] = -1.0, 1.0
    expected_Omega[1, 3], expected_Omega[3, 1] = -1.0, 1.0
    assert np.array_equal(ev.Omega0, expected_Omega)
    assert np.array_equal(ev.omega0, np.zeros((4, 4)))
    assert np.array_equal(ev.psi0, np.zeros((4, 4)))
    assert np.array_equal(ev.C0, np.zeros((4, 4)))
    assert trace_psi_sq(ev) == 0.0


def test_derived_example1(structures, sample_sets):
    traces = []
    for p in sample_sets["example1"]:
        ev = StructureEval(structures["example1"], p)
        assert ev.psi0[1, 0] == pytest.approx(-0.5, abs=1e-15)
        assert ev.psi0[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert np.array_equal(ev.C0, np.zeros((4, 4)))
        traces.append(trace_psi_sq(ev))
    assert traces[0] == pytest.approx(-0.5, abs=1e-15)
    assert max(traces) - min(traces) < 1e-12  # tr(psi^2) constant


def test_derived_example3_at_origin(structures):
    ev = StructureEval(structures["example3-qs"], ORIGIN)
    assert ev.g0[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert ev.psi0[1, 0] == pytest.approx(-0.5, abs=1e-15)


def test_psi_lowering_consistency(structures, sample_sets):
    # g_bd psi^d_a = omega_ab at every sample
    for name in ALL:
        for p in sample_sets[name]:
            ev = StructureEval(structures[name], p)
            lowered = np.einsum("bd,da->ab", ev.g0, ev.psi0)
            assert np.abs(lowered - ev.omega0).max() < 1e-12, name


def test_C_zero_on_shipped_fixtures(structures, sample_sets):
    # no shipped metric depends on the Reeb coordinate
    for name in ALL:
        for p in sample_sets[name][:8]:
            assert np.array_equal(StructureEval(structures[name], p).C0, np.zeros((4, 4))), name


# ---------------------------------------------------------------------------
# Exterior derivative
# ---------------------------------------------------------------------------


def test_d_eta_matches_bracket_oracle(structures, sample_sets):
    # cross-oracle: d(eta) via coordinate partials vs omega/d_eta_xi via brackets;
    # eta = (gamma_a, 1), so its gradient is the gamma gradient over a zero row
    for name in ALL:
        ev = StructureEval(structures[name], sample_sets[name])
        grads = ev.zeros(5, 5)
        grads[:, :4] = ev.gam1
        deta = ext_d_from_grad(grads, 1)
        E, _ = ev.frame
        on_frame = np.einsum("sij,sai,sbj->sab", deta, E, E)
        assert np.abs(on_frame[:, :4, :4] - ev.omega0).max() < 1e-10, name
        assert np.abs(2 * on_frame[:, 4, :4] - ev.d_eta_xi).max() < 1e-10, name


def _ext_d_case(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Component gradients grads[..., j] = d_j alpha_{...} of a hand-made
    rank-form on R^5 at one point, and d alpha under the 1/2-alternation
    normalisation (d alpha)_{i0..ip} = (rank+1)^{-1} sum_k (-1)^k
    d_{i_k} alpha_{..no i_k..}."""
    if rank == 0:
        # f = x*y at (2, 3): d f is the gradient
        grads = np.array([3.0, 2.0, 0.0, 0.0, 0.0])
        return grads, grads.copy()
    if rank == 1:
        # alpha = x dy: (d alpha)_{xy} = (d_x alpha_y - d_y alpha_x) / 2
        grads = np.zeros((5, 5))
        grads[1, 0] = 1.0
        expected = np.zeros((5, 5))
        expected[0, 1], expected[1, 0] = 0.5, -0.5
        return grads, expected
    # beta = x dy^dz with beta_yz = -beta_zy = x: (d beta)_{xyz} = 1/3, skew
    grads = np.zeros((5, 5, 5))
    grads[1, 2, 0], grads[2, 1, 0] = 1.0, -1.0
    expected = np.zeros((5, 5, 5))
    for (i, j, k), sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                            ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]:
        expected[i, j, k] = sign / 3.0
    return grads, expected


@pytest.mark.parametrize("rank", [0, 1, 2], ids=["rank0", "rank1", "rank2"])
def test_ext_d_from_grad(rank):
    grads, expected = _ext_d_case(rank)
    assert np.allclose(ext_d_from_grad(grads, rank), expected, rtol=0.0, atol=1e-15)
    # batch axes in front are carried through
    batched = ext_d_from_grad(np.stack([grads, -2.0 * grads]), rank)
    assert np.allclose(batched, np.stack([expected, -2.0 * expected]), rtol=0.0, atol=1e-15)


def test_d_Omega_zero_on_example1(structures, sample_sets):
    for p in sample_sets["example1"]:
        ev = StructureEval(structures["example1"], p)
        assert np.abs(d_fundamental_form(ev)).max() == 0.0


def test_d_Omega_zero_on_example3_qs(structures, sample_sets):
    for p in sample_sets["example3-qs"]:
        ev = StructureEval(structures["example3-qs"], p)
        assert np.abs(d_fundamental_form(ev)).max() < 1e-12


def test_d_Omega_nonzero_on_example3_aqs(structures, sample_sets):
    # the redefined endomorphism couples the conformal factor to the flat
    # block, so the fundamental form is no longer closed (nor even skew)
    worst = 0.0
    for p in sample_sets["example3-aqs"]:
        ev = StructureEval(structures["example3-aqs"], p)
        worst = max(worst, float(np.abs(d_fundamental_form(ev)).max()))
    assert worst > 1e-3
