"""Structure assembly: axioms, derived tensors, exterior derivatives."""

from __future__ import annotations

import numpy as np
import pytest

from acmcheck.chart import d_eta_xi, omega_frame
from acmcheck.expr import Const, Mul, ScalarField, parse
from acmcheck.structure import (
    AdaptedStructure,
    SingularMetricError,
    StructureError,
    StructureEval,
    d_fundamental_form,
    derived,
    exterior_derivative,
    metric_definiteness,
    validate_axioms,
)

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
    d = derived(StructureEval(structures["flat"], ORIGIN))
    expected_Omega = np.zeros((4, 4))
    expected_Omega[0, 2], expected_Omega[2, 0] = -1.0, 1.0
    expected_Omega[1, 3], expected_Omega[3, 1] = -1.0, 1.0
    assert np.array_equal(d.Omega, expected_Omega)
    assert np.array_equal(d.omega, np.zeros((4, 4)))
    assert np.array_equal(d.psi, np.zeros((4, 4)))
    assert np.array_equal(d.C, np.zeros((4, 4)))
    assert d.trace_psi_sq == 0.0


def test_derived_example1(structures, sample_sets):
    traces = []
    for p in sample_sets["example1"]:
        d = derived(StructureEval(structures["example1"], p))
        assert d.psi[1, 0] == pytest.approx(-0.5, abs=1e-15)
        assert d.psi[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert np.array_equal(d.C, np.zeros((4, 4)))
        traces.append(d.trace_psi_sq)
    assert traces[0] == pytest.approx(-0.5, abs=1e-15)
    assert max(traces) - min(traces) < 1e-12  # tr(psi^2) constant


def test_derived_example3_at_origin(structures):
    d = derived(StructureEval(structures["example3-qs"], ORIGIN))
    ev = StructureEval(structures["example3-qs"], ORIGIN)
    assert ev.g0[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert d.psi[1, 0] == pytest.approx(-0.5, abs=1e-15)


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
            assert np.array_equal(derived(StructureEval(structures[name], p)).C, np.zeros((4, 4))), name


# ---------------------------------------------------------------------------
# Exterior derivative
# ---------------------------------------------------------------------------


def test_d_eta_matches_bracket_oracle(structures, sample_sets):
    # cross-oracle: d(eta) via coordinate partials vs omega/d_eta_xi via brackets
    for name in ALL:
        s = structures[name]
        for p in sample_sets[name]:
            ev = StructureEval(s, p)
            deta = exterior_derivative(ev, s.eta_coordinate_form())
            E, _ = ev.frame
            on_frame = np.einsum("ij,ai,bj->ab", deta, E, E)
            omega = omega_frame(s.chart, p).components
            assert np.abs(on_frame[:4, :4] - omega).max() < 1e-10, name
            assert np.abs(2 * on_frame[4, :4] - d_eta_xi(s.chart, p)).max() < 1e-10, name


def test_d_of_constant_two_form(structures):
    s = structures["flat"]
    coords = s.chart.coords
    comps = np.empty((5, 5), dtype=object)
    vals = np.zeros((5, 5))
    vals[0, 1], vals[1, 0] = 2.0, -2.0
    vals[2, 4], vals[4, 2] = -0.5, 0.5
    for idx in np.ndindex(5, 5):
        comps[idx] = ScalarField(Const(float(vals[idx])), coords)
    d = exterior_derivative(StructureEval(s, ORIGIN), comps)
    assert np.array_equal(d, np.zeros((5, 5, 5)))


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


def test_exterior_derivative_rejects_non_skew(structures):
    s = structures["flat"]
    comps = np.empty((5, 5), dtype=object)
    for idx in np.ndindex(5, 5):
        comps[idx] = ScalarField(Const(1.0), s.chart.coords)
    with pytest.raises(ValueError):
        exterior_derivative(StructureEval(s, ORIGIN), comps)


def test_exterior_derivative_of_function(structures):
    s = structures["flat"]
    f = np.array(parse("x*y", s.chart.coords), dtype=object).reshape(())
    # 0-form: d f = gradient as a 1-form
    out = exterior_derivative(StructureEval(s, np.array([2.0, 3.0, 0, 0, 0])), f.reshape(()))
    assert np.allclose(out, [3.0, 2.0, 0, 0, 0])
