"""Curvature tests: Schouten vs a 2D constant-curvature oracle, canonical
curvature blocks vs the direct nonholonomic computation, Ricci tensors, and
the Einstein criterion with both omega sources."""

from __future__ import annotations

import numpy as np
import pytest

from acmcheck.connection import nabla_psi
from acmcheck.curvature import (
    curvature_K,
    curvature_canonical_direct,
    einstein_check,
    ricci_k,
    ricci_wagner,
    schouten,
)
from acmcheck.expr import parse
from acmcheck.structure import StructureEval

ORIGIN = np.zeros(5)
ODD_RANK = ("flat", "example1", "example3-qs", "example3-aqs")
ALL = ODD_RANK + ("example2",)


# ---------------------------------------------------------------------------
# Independent 2D oracle: K = -e^{-2u} (u_xx + u_yy) for g = e^{2u} (dx^2 + dy^2)
# ---------------------------------------------------------------------------

_U = parse("0 - ln(1 + x^2 + y^2)", ("x", "y", "z", "u", "v"))


def gauss_curvature_conformal(p: np.ndarray) -> float:
    jet = _U.jet(p)
    lap = jet.hess[0, 0] + jet.hess[1, 1]
    return float(-np.exp(-2.0 * jet.value) * lap)


def test_gauss_oracle_is_constant_4():
    rng = np.random.default_rng(5)
    for _ in range(16):
        p = rng.uniform(-2, 2, size=5)
        assert gauss_curvature_conformal(p) == pytest.approx(4.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Schouten tensor
# ---------------------------------------------------------------------------


def test_schouten_flat_zero(structures):
    assert np.array_equal(schouten(StructureEval(structures["flat"], ORIGIN)), np.zeros((4, 4, 4, 4)))


def test_schouten_example1_zero(structures, sample_sets):
    for p in sample_sets["example1"][:8]:
        assert np.abs(schouten(StructureEval(structures["example1"], p))).max() < 1e-15


def test_schouten_example3_block_constant_curvature(structures, sample_sets):
    # sectional curvature of the conformal block equals the oracle value 4
    s = structures["example3-qs"]
    for p in sample_sets["example3-qs"]:
        ev = StructureEval(s, p)
        R = schouten(StructureEval(s, p))
        sectional = float(
            np.einsum("d,d->", R[:, 0, 1, 1], ev.g0[:, 0])
            / (ev.g0[0, 0] * ev.g0[1, 1] - ev.g0[0, 1] ** 2)
        )
        assert sectional == pytest.approx(gauss_curvature_conformal(p), abs=1e-7)


def test_schouten_antisymmetry(structures, sample_sets):
    for name in ALL:
        for p in sample_sets[name][:6]:
            R = schouten(StructureEval(structures[name], p))
            assert np.abs(R + np.swapaxes(R, 1, 2)).max() < 1e-12, name


# ---------------------------------------------------------------------------
# Canonical curvature K
# ---------------------------------------------------------------------------


def test_K_example1_frame_block(structures):
    p = np.array([0.2, 1.4, -0.1, 0.6, 0.0])
    K = curvature_K(StructureEval(structures["example1"], p))
    # Schouten vanishes, so K^d_{abc} = 4 omega_ab psi^d_c
    assert K.frame[1, 0, 1, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(K.mixed).max() < 1e-15  # psi parallel


def test_K_flat_zero(structures):
    K = curvature_K(StructureEval(structures["flat"], ORIGIN))
    assert np.array_equal(K.frame, np.zeros((4, 4, 4, 4)))
    assert np.array_equal(K.mixed, np.zeros((4, 4, 4)))


@pytest.mark.parametrize("name", ALL)
def test_K_minus_R_is_4_omega_psi(name, structures, sample_sets):
    # checked through the direct curvature of the canonical connection, so
    # the identity is not circular
    s = structures[name]
    for p in sample_sets[name][:8]:
        ev = StructureEval(s, p)
        direct = curvature_canonical_direct(StructureEval(s, p))
        R = schouten(StructureEval(s, p))
        lhs = np.einsum("abcd->dabc", direct[:4, :4, :4, :4]) - R
        rhs = 4.0 * np.einsum("ab,dc->dabc", ev.omega0, ev.psi0)
        assert np.abs(lhs - rhs).max() < 1e-9, name


@pytest.mark.parametrize("name", ALL)
def test_K_frame_block_matches_direct(name, structures, sample_sets):
    s = structures[name]
    for p in sample_sets[name][:8]:
        K = curvature_K(StructureEval(s, p))
        direct = curvature_canonical_direct(StructureEval(s, p))
        assert np.abs(np.einsum("abcd->dabc", direct[:4, :4, :4, :4]) - K.frame).max() < 1e-9, name


@pytest.mark.parametrize("name", ODD_RANK)
def test_K_mixed_block_matches_direct_odd_rank(name, structures, sample_sets):
    s = structures[name]
    for p in sample_sets[name][:8]:
        K = curvature_K(StructureEval(s, p))
        direct = curvature_canonical_direct(StructureEval(s, p))
        mixed_direct = np.einsum("acd->dac", direct[:4, 4, :4, :4])
        assert np.abs(mixed_direct - K.mixed).max() < 1e-9, name


def test_K_mixed_block_even_rank_extra_term(structures, sample_sets):
    # for even rank the direct mixed block picks up -2 (d_n gamma_a) psi^d_c
    # on top of 2 nabla_a psi^d_c (the horizontal symbols are constant here)
    s = structures["example2"]
    for p in sample_sets["example2"][:8]:
        ev = StructureEval(s, p)
        K = curvature_K(StructureEval(s, p))
        direct = np.einsum("acd->dac", curvature_canonical_direct(StructureEval(s, p))[:4, 4, :4, :4])
        extra = -2.0 * np.einsum("a,dc->dac", ev.d_eta_xi, ev.psi0)
        assert np.abs(direct - (K.mixed + extra)).max() < 1e-9


def test_K_mixed_block_reeb_dependent_metric_extra_term(twisted):
    # a Reeb-dependent metric makes the horizontal symbols Reeb-dependent,
    # and the direct mixed block then differs from 2 nabla psi by -d_n Gamma
    for p in twisted.chart.sample_points(6, seed=8):
        ev = StructureEval(twisted, p)
        K = curvature_K(StructureEval(twisted, p))
        direct = np.einsum("acd->dac", curvature_canonical_direct(StructureEval(twisted, p))[:4, 4, :4, :4])
        extra = -ev.Gamma1[:, :, :, -1]
        assert np.abs(ev.Gamma1[:, :, :, -1]).max() > 1e-3  # the term is active here
        assert np.abs(direct - (K.mixed + extra)).max() < 1e-9


def test_twisted_K_frame_block_still_matches_direct(twisted):
    for p in twisted.chart.sample_points(6, seed=9):
        K = curvature_K(StructureEval(twisted, p))
        direct = curvature_canonical_direct(StructureEval(twisted, p))
        assert np.abs(np.einsum("abcd->dabc", direct[:4, :4, :4, :4]) - K.frame).max() < 1e-9


# ---------------------------------------------------------------------------
# Ricci-Wagner and Ricci tensors
# ---------------------------------------------------------------------------


def test_ricci_wagner_example3_is_minus_4g_on_conformal_block(structures, sample_sets):
    # r = -4 g holds on the conformal (1,2)-block; the flat (3,4)-block is
    # Ricci-flat, so r = -4 g cannot extend to all of the distribution
    s = structures["example3-qs"]
    for p in sample_sets["example3-qs"]:
        ev = StructureEval(s, p)
        r = ricci_wagner(StructureEval(s, p))
        assert np.abs(r[:2, :2] - (-4.0) * ev.g0[:2, :2]).max() < 1e-7
        assert np.abs(r[2:, :]).max() < 1e-12
        assert np.abs(r[:, 2:]).max() < 1e-12


def test_ricci_wagner_trace_convention_lock(structures):
    # r_11 at the origin is -4, not +4; this pins the trace slot convention
    r = ricci_wagner(StructureEval(structures["example3-qs"], ORIGIN))
    assert r[0, 0] == pytest.approx(-4.0, abs=1e-9)


def test_ricci_wagner_example1_zero(structures, sample_sets):
    for p in sample_sets["example1"][:8]:
        assert np.abs(ricci_wagner(StructureEval(structures["example1"], p))).max() < 1e-15


def test_ricci_k_example1(structures):
    p = np.array([0.2, 1.4, -0.1, 0.6, 0.0])
    k = ricci_k(StructureEval(structures["example1"], p))
    assert k[0, 0] == pytest.approx(1.0, abs=1e-14)  # 4 omega_{12} psi^2_1
    assert np.abs(k[4, :4]).max() < 1e-15  # psi parallel
    assert np.abs(k[:4, 4]).max() == 0.0  # zero by construction
    assert k[4, 4] == 0.0


def test_ricci_k_flat_zero(structures):
    assert np.array_equal(ricci_k(StructureEval(structures["flat"], ORIGIN)), np.zeros((5, 5)))


def test_ricci_k_example3_origin(structures):
    k = ricci_k(StructureEval(structures["example3-qs"], ORIGIN))
    assert k[0, 0] == pytest.approx(-3.0, abs=1e-9)  # r_11 + 4 omega_{12} psi^2_1 = -4 + 1


def test_ricci_k_reeb_row_zero_when_psi_parallel(structures, sample_sets):
    for name in ("flat", "example1"):
        for p in sample_sets[name][:8]:
            ev = StructureEval(structures[name], p)
            assert np.abs(nabla_psi(ev)).max() < 1e-15
            assert np.abs(ricci_k(StructureEval(structures[name], p))[4, :4]).max() < 1e-15


# ---------------------------------------------------------------------------
# Einstein criterion
# ---------------------------------------------------------------------------


def test_einstein_flat_holds(structures, sample_sets):
    report = einstein_check(structures["flat"], points=sample_sets["flat"])
    assert report.verdict
    assert report.max_residual == 0.0
    assert report.parallel_torsion_residual == 0.0


def test_einstein_example1_fails_with_residual_one(structures, sample_sets):
    report = einstein_check(structures["example1"], points=sample_sets["example1"])
    assert not report.verdict
    assert report.max_residual == pytest.approx(1.0, abs=1e-12)
    assert report.residual_grid[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert report.parallel_torsion_residual < 1e-15  # torsion parallel here


def test_einstein_example3_d_eta_profile(structures, sample_sets):
    # closed-form residual (1,1)-component: |-4 (1+s)^-2 + (1+s)^2|, s = x^2+y^2
    report = einstein_check(structures["example3-qs"], points=sample_sets["example3-qs"])
    assert not report.verdict
    samples = report.samples
    for point, r, rhs in zip(samples.point, samples.r, samples.rhs):
        s_val = point[0] ** 2 + point[1] ** 2
        predicted = abs(-4.0 / (1 + s_val) ** 2 + (1 + s_val) ** 2)
        assert abs(abs(r[0, 0] - rhs[0, 0]) - predicted) < 1e-6


def test_einstein_example3_fundamental_form_block_structure(structures, sample_sets):
    # with omega and psi built from the fundamental form, the right-hand side
    # is -4 g identically, so the conformal block matches r exactly while the
    # flat block (where r = 0) is off by 4
    s = structures["example3-qs"]
    report = einstein_check(s, omega_source="fundamental_form", points=sample_sets["example3-qs"])
    assert report.residual_grid[:2, :2].max() < 1e-7
    assert report.residual_grid[2, 2] == pytest.approx(4.0, abs=1e-9)
    assert report.residual_grid[3, 3] == pytest.approx(4.0, abs=1e-9)
    assert not report.verdict
    for point, rhs in zip(report.samples.point, report.samples.rhs):
        ev = StructureEval(s, point)
        assert np.abs(rhs + 4.0 * ev.g0).max() < 1e-12


def test_einstein_example3_parallel_torsion_hypothesis_fails(structures, sample_sets):
    # the conformal example does not even satisfy the parallel-torsion
    # hypothesis; reported, not gated
    report = einstein_check(structures["example3-qs"], points=sample_sets["example3-qs"])
    assert report.parallel_torsion_residual > 1e-3


def test_einstein_rejects_unknown_source(structures):
    with pytest.raises(ValueError):
        einstein_check(structures["flat"], omega_source="volume")
