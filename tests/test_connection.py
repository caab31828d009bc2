"""Connection tests: adapted vs coordinate oracle, N-connections, torsion,
metricity, covariant derivatives."""

from __future__ import annotations

import math

import numpy as np
import pytest

from acmcheck.chart import sample_points
from acmcheck.checks import run_full_check
from acmcheck.classify import _phi_basis_fields
from acmcheck.connection import (
    FRAME_LOWER,
    FRAME_UPPER,
    ORACLE_COND_LIMIT,
    _cleared,
    bracket,
    canonical_connection,
    coordinate_to_adapted,
    cov_phi,
    internal_cov_deriv,
    lc_adapted,
    lc_coordinate,
    metricity_defect,
    n_connection,
    n_connection_formula_residual,
    nabla_omega,
    nabla_psi,
    torsion,
)
from acmcheck.expr import field_jets, parse
from acmcheck.manifest import manifest_from_dict
from acmcheck.structure import SingularMetricError, StructureEval, contract

from _helpers import (
    coordinate_metric,
    deep_tree_manifest_data,
    einsum_coordinate_to_adapted,
    einsum_lc_coordinate,
    full_cond_guard_error,
    manifest_data,
)

ALL = ("flat", "example1", "example2", "example3-qs", "example3-aqs")
ORIGIN = np.zeros(5)
Y3 = np.array([1.0, 3.0, 0.5, -0.5, 2.0])


# endomorphisms N0[..., b, a] = N^b_a of the N-connections under test
def canonical_N(ev):
    return ev.canonical_N


def zero_N(ev):
    return ev.zeros(4, 4)


def perturbed_N(ev):
    return 2.0 * ev.psi0 + 0.05 * np.eye(4)


# ---------------------------------------------------------------------------
# Adapted Levi-Civita blocks
# ---------------------------------------------------------------------------


def test_lc_adapted_flat_all_zero(manifests):
    coeffs = lc_adapted(StructureEval(manifests["flat"], ORIGIN))
    assert np.array_equal(coeffs.full, np.zeros((5, 5, 5)))


def test_lc_adapted_example1_blocks(manifests, sample_sets):
    for p in sample_sets["example1"][:8]:
        coeffs = lc_adapted(StructureEval(manifests["example1"], p))
        assert coeffs.n_ab[0, 1] == pytest.approx(0.5, abs=1e-15)  # omega_{21} - C_12
        assert coeffs.mixed_an[1, 0] == pytest.approx(-0.5, abs=1e-15)  # psi^2_1, C = 0
        assert np.array_equal(coeffs.n_na, np.zeros(4))
        assert np.array_equal(coeffs.frame, np.zeros((4, 4, 4)))


def test_lc_adapted_example2_reeb_block(manifests):
    coeffs = lc_adapted(StructureEval(manifests["example2"], Y3))
    assert coeffs.n_na[0] == pytest.approx(-3.0, abs=1e-15)  # -d_n gamma_1 = -y
    assert coeffs.a_nn[0] == pytest.approx(3.0, abs=1e-15)  # g^{ab} d_n gamma_b


def test_lc_adapted_blocks_are_read_only_views_of_the_cached_array(manifests, sample_sets):
    ev = StructureEval(manifests["example2"], sample_sets["example2"][:4])
    coeffs = lc_adapted(ev)
    assert np.array_equal(coeffs.frame, ev.Gamma0)
    assert np.array_equal(coeffs.mixed_an, ev.Cmix0 + ev.psi0)
    for block in (coeffs.full, coeffs.frame, coeffs.mixed_an, coeffs.n_ab, coeffs.n_na, coeffs.a_nn):
        assert np.shares_memory(block, ev.lc_full)
        with pytest.raises(ValueError):
            block[...] = 0.0


def test_lc_coordinate_flat_zero(manifests):
    assert np.array_equal(lc_coordinate(StructureEval(manifests["flat"], ORIGIN)), np.zeros((5, 5, 5)))


def test_lc_coordinate_example3_frame_block_conformal(manifests):
    # the horizontal block must reproduce the 2D conformal symbols of
    # f^2 (dx^2 + dy^2) with f = 1/(1+x^2+y^2): Gamma^1_11 = l_x etc., l = ln f
    s = manifests["example3-qs"]
    p = np.array([0.7, -1.1, 0.3, 0.2, 1.4])
    x, y = p[0], p[1]
    denom = 1 + x * x + y * y
    lx, ly = -2 * x / denom, -2 * y / denom
    frame = lc_adapted(StructureEval(s, p)).frame
    assert frame[0, 0, 0] == pytest.approx(lx, rel=1e-12)
    assert frame[0, 0, 1] == pytest.approx(ly, rel=1e-12)
    assert frame[0, 1, 1] == pytest.approx(-lx, rel=1e-12)
    assert frame[1, 0, 0] == pytest.approx(-ly, rel=1e-12)
    assert frame[1, 0, 1] == pytest.approx(lx, rel=1e-12)
    assert frame[1, 1, 1] == pytest.approx(ly, rel=1e-12)
    # at the origin all horizontal symbols vanish (critical point of f)
    assert np.abs(lc_adapted(StructureEval(s, ORIGIN)).frame).max() == 0.0


@pytest.mark.parametrize("name", ALL)
def test_oracle_equivalence(name, manifests, sample_sets):
    # adapted-form blocks vs frame-converted coordinate Christoffel symbols
    s = manifests[name]
    for p in sample_sets[name]:
        ev = StructureEval(s, p)
        adapted = lc_adapted(ev).full
        converted = coordinate_to_adapted(ev, lc_coordinate(ev))
        assert np.abs(adapted - converted).max() < 1e-8, name


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("batch", ["samples", "point"])
def test_oracle_products_match_the_einsum_reference(name, batch, manifests):
    # the batched products only reorder the sums of the einsum form: both
    # outputs agree with it to rounding, on the scale of the coordinate
    # coefficients the oracle computes
    points = sample_points(manifests[name], 128, manifests[name].seed)
    ev = StructureEval(manifests[name], points if batch == "samples" else points[0])
    coeffs, expected = lc_coordinate(ev), einsum_lc_coordinate(ev)
    assert coeffs.shape == ev.batch + (5, 5, 5)
    bound = 1e-13 * (1.0 + np.abs(expected).max())
    assert np.abs(coeffs - expected).max() <= bound
    adapted = coordinate_to_adapted(ev, coeffs)
    assert np.abs(adapted - einsum_coordinate_to_adapted(ev, expected)).max() <= bound


def test_lc_frame_block_symmetric(manifests, sample_sets):
    for name in ALL:
        for p in sample_sets[name][:8]:
            frame = lc_adapted(StructureEval(manifests[name], p)).frame
            assert np.abs(frame - np.swapaxes(frame, 1, 2)).max() < 1e-12, name


# ---------------------------------------------------------------------------
# N-connection
# ---------------------------------------------------------------------------


def test_n_connection_flat_constant_N(manifests):
    ev = StructureEval(manifests["flat"], ORIGIN)
    coeffs = n_connection(ev, np.diag([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(coeffs.frame, np.zeros((4, 4, 4)))
    assert np.array_equal(coeffs.mixed_an, np.diag([1.0, 2.0, 3.0, 4.0]))
    assert coeffs.full[4, 0, 0] == 1.0  # G^b_{na} = N^b_a


def test_n_connection_example1_canonical(manifests):
    coeffs = canonical_connection(StructureEval(manifests["example1"], np.array([0.2, 1.5, 0.0, 0.0, 0.3])))
    assert coeffs.full[4, 0, 1] == pytest.approx(-1.0, abs=1e-15)  # G^2_{n1} = 2 psi^2_1


def test_n_connection_example2_reeb_row(manifests):
    ev = StructureEval(manifests["example2"], Y3)
    coeffs = n_connection(ev, ev.zeros(4, 4))
    assert coeffs.full[4, 0, 4] == pytest.approx(-3.0, abs=1e-15)  # G^n_{n1} = -y


def test_endomorphism_scalar_fields(manifests):
    s = manifests["flat"]
    fields = np.empty((4, 4), dtype=object)
    zero = parse("0", s.coordinates)
    for idx in np.ndindex(4, 4):
        fields[idx] = zero
    fields[0, 1] = parse("x*y", s.coordinates)
    p = np.array([2.0, 3.0, 0.0, 0.0, 0.0])
    ev = StructureEval(s, p)
    coeffs = n_connection(ev, field_jets(fields, ev.p, order=1)[0])
    assert coeffs.mixed_an[0, 1] == 6.0
    assert coeffs.full[4, 1, 0] == 6.0  # G^1_{n2} = N^1_2


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("endo", [canonical_N, zero_N], ids=["2psi", "zero"])
def test_n_connection_matches_defining_formula(name, endo, manifests, sample_sets):
    # the coefficient table reproduces the Levi-Civita-based expression on
    # basis pairs, for odd and even rank alike
    s = manifests[name]
    for p in sample_sets[name][:8]:
        ev = StructureEval(s, p)
        assert n_connection_formula_residual(ev, endo(ev)) < 1e-9, name


# ---------------------------------------------------------------------------
# Torsion
# ---------------------------------------------------------------------------


def test_torsion_example1_canonical_components(manifests):
    p = np.array([0.4, 1.1, -0.2, 0.0, 0.9])
    ev = StructureEval(manifests["example1"], p)
    result = torsion(ev, ev.canonical_N)
    assert result.components[0, 1, 4] == pytest.approx(-1.0, abs=1e-15)  # 2 omega_12
    assert result.components[0, 4, 1] == pytest.approx(1.0, abs=1e-15)  # -g(2 psi e_1, e_2)
    assert result.components[4, 0, 1] == pytest.approx(-1.0, abs=1e-15)
    assert result.is_skew
    assert result.direct_residual < 1e-12


def test_torsion_example1_N_zero_not_skew(manifests):
    p = np.array([0.4, 1.1, -0.2, 0.0, 0.9])
    ev = StructureEval(manifests["example1"], p)
    result = torsion(ev, ev.zeros(4, 4))
    assert not result.is_skew
    assert result.skew_residual == pytest.approx(1.0, abs=1e-12)  # mixed parts vanish, 2 omega stays


def test_torsion_flat_canonical_zero(manifests):
    ev = StructureEval(manifests["flat"], ORIGIN)
    result = torsion(ev, ev.canonical_N)
    assert np.array_equal(result.components, np.zeros((5, 5, 5)))
    assert result.is_skew


@pytest.mark.parametrize("name", ALL)
def test_torsion_direct_cross_check(name, manifests, sample_sets):
    s = manifests[name]
    for p in sample_sets[name][:8]:
        ev = StructureEval(s, p)
        for endo in (canonical_N, zero_N, perturbed_N):
            assert torsion(ev, endo(ev)).direct_residual < 1e-9, name


@pytest.mark.parametrize("name", ALL)
def test_skew_iff_N_is_2psi(name, manifests, sample_sets):
    # biconditional: total antisymmetry holds exactly when g(N e_a, e_b) = 2 omega_ab
    s = manifests[name]
    for p in sample_sets[name][:8]:
        ev = StructureEval(s, p)
        for endo in (canonical_N, zero_N, perturbed_N):
            N0 = endo(ev)
            criterion = np.abs(2 * ev.omega0 - N0.T @ ev.g0).max()
            result = torsion(StructureEval(s, p), N0)
            assert result.is_skew == bool(criterion < 1e-9 * (1 + np.abs(result.components).max())), name


# ---------------------------------------------------------------------------
# Metricity defect
# ---------------------------------------------------------------------------


def test_metricity_defect_example1_zero(manifests, sample_sets):
    for p in sample_sets["example1"][:8]:
        ev = StructureEval(manifests["example1"], p)
        defect = metricity_defect(ev, ev.canonical_N)
        assert np.abs(defect).max() < 1e-15


def test_metricity_defect_example2_reeb_component(manifests):
    ev = StructureEval(manifests["example2"], Y3)
    defect = metricity_defect(ev, ev.canonical_N)
    assert defect[4, 4, 0] == pytest.approx(3.0, abs=1e-15)  # (n, n, 1) component = y


def test_metricity_defect_flat_skew_N(manifests):
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    ev = StructureEval(manifests["flat"], ORIGIN)
    defect = metricity_defect(ev, skew)
    assert np.abs(defect).max() == 0.0


def test_metricity_defect_flat_symmetric_N(manifests):
    ev = StructureEval(manifests["flat"], ORIGIN)
    defect = metricity_defect(ev, np.eye(4))
    # (nabla_n g)_{ab} = -g(N e_a, e_b) - g(e_a, N e_b) = -2 delta_ab here
    assert np.allclose(defect[4, :4, :4], -2 * np.eye(4))


# ---------------------------------------------------------------------------
# Internal covariant derivative
# ---------------------------------------------------------------------------


def test_nabla_omega_and_psi_vanish_example1(manifests, sample_sets):
    for p in sample_sets["example1"]:
        ev = StructureEval(manifests["example1"], p)
        assert np.abs(nabla_omega(ev)).max() < 1e-15
        assert np.abs(nabla_psi(ev)).max() < 1e-15


def test_nabla_omega_iff_nabla_psi(manifests, sample_sets):
    for name in ALL:
        for p in sample_sets[name][:8]:
            ev = StructureEval(manifests[name], p)
            w = np.abs(nabla_omega(ev)).max()
            s_ = np.abs(nabla_psi(ev)).max()
            assert (w < 1e-9) == (s_ < 1e-9), name


def test_internal_cov_deriv_constant_tensor_flat(manifests):
    s = manifests["flat"]
    fields = np.empty((4, 4), dtype=object)
    for idx in np.ndindex(4, 4):
        fields[idx] = parse(repr(float(idx[0] - idx[1])), s.coordinates)
    out = internal_cov_deriv(StructureEval(s, ORIGIN), fields, (FRAME_UPPER, FRAME_LOWER))
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, np.zeros((4, 4, 4)))


def test_internal_cov_deriv_matches_derived_route(manifests, sample_sets):
    # field route (ScalarFields through jets) vs derived route (omega0/omega1)
    s = manifests["example2"]
    gam = s.gamma[0]
    coords = s.coordinates
    # omega_{01} = e_0 gamma_1 - ... = v/2 for gamma = (y v, 0, 0, 0): build it explicitly
    fields = np.empty((4, 4), dtype=object)
    zero = parse("0", coords)
    for idx in np.ndindex(4, 4):
        fields[idx] = zero
    fields[0, 1] = parse("0 - v/2", coords)
    fields[1, 0] = parse("v/2", coords)
    for p in sample_sets["example2"][:6]:
        ev = StructureEval(s, p)
        via_fields = internal_cov_deriv(StructureEval(s, p), fields, (FRAME_LOWER, FRAME_LOWER))
        assert np.abs(via_fields - nabla_omega(ev)).max() < 1e-12


def test_internal_cov_deriv_over_a_block_is_the_stack_of_points(manifests, sample_sets):
    s = manifests["example2"]
    coords = s.coordinates
    fields = np.empty((4, 4), dtype=object)
    for a, b in np.ndindex(4, 4):
        fields[a, b] = parse(f"{a + 1}*y*v - {b}*x^2 + sin(u)*{a - b}", coords)
    points = sample_sets["example2"][:8]
    for valence in [(FRAME_LOWER, FRAME_LOWER), (FRAME_UPPER, FRAME_LOWER)]:
        block = internal_cov_deriv(StructureEval(s, points), fields, valence)
        singles = [internal_cov_deriv(StructureEval(s, p), fields, valence) for p in points]
        for one in singles:
            assert isinstance(one, np.ndarray) and one.shape == (4, 4, 4)
        assert isinstance(block, np.ndarray) and block.shape == (8, 4, 4, 4)
        stacked = np.stack(singles)
        assert np.allclose(block, stacked, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize(
    "valence, match",
    [
        ((FRAME_LOWER,), "valence length"),
        (("coord", "coord"), "admissible"),
        ((FRAME_LOWER,) * 3, "valence length"),
    ],
    ids=["one-tag", "coordinate", "three-tags"],
)
def test_internal_cov_deriv_rejects_wrong_valence(valence, match, manifests):
    # the metric is a (4, 4) admissible tensor: one frame tag per axis, no other
    s = manifests["example3-qs"]
    with pytest.raises(ValueError, match=match):
        internal_cov_deriv(StructureEval(s, np.array([0.7, -1.1, 0.3, 0.2, 1.4])), s.metric_frame, valence)


# ---------------------------------------------------------------------------
# Covariant derivative of phi
# ---------------------------------------------------------------------------


def test_cov_phi_flat_zero(manifests):
    for which in ("levi_civita", "canonical"):
        assert np.array_equal(cov_phi(StructureEval(manifests["flat"], ORIGIN), which), np.zeros((5, 5, 5)))


def test_cov_phi_canonical_example3_qs_vanishes(manifests, sample_sets):
    for p in sample_sets["example3-qs"]:
        assert np.abs(cov_phi(StructureEval(manifests["example3-qs"], p), "canonical")).max() < 1e-8


def test_cov_phi_canonical_example3_aqs_nonzero(manifests, sample_sets):
    worst = 0.0
    for p in sample_sets["example3-aqs"]:
        worst = max(worst, float(np.abs(cov_phi(StructureEval(manifests["example3-aqs"], p), "canonical")).max()))
    assert worst > 1e-3


def test_cov_phi_rejects_unknown_connection(manifests):
    with pytest.raises(ValueError):
        cov_phi(StructureEval(manifests["flat"], ORIGIN), "weyl")


def test_cov_phi_built_once_per_connection(manifests, sample_sets):
    ev = StructureEval(manifests["example2"], sample_sets["example2"])
    lc, canonical = cov_phi(ev, "levi_civita"), cov_phi(ev, "canonical")
    assert cov_phi(ev, "levi_civita") is lc and cov_phi(ev, "canonical") is canonical
    assert np.array_equal(cov_phi(ev, which="canonical"), canonical)
    assert not np.array_equal(lc, canonical)
    fresh = StructureEval(manifests["example2"], sample_sets["example2"])
    assert cov_phi(fresh, "canonical").tobytes() == canonical.tobytes()


def test_reeb_eta_parallel_iff_odd_rank(manifests, sample_sets):
    # Gamma~^n_{na} = 0 exactly on the odd-rank fixtures
    for name in ALL:
        odd = name != "example2"
        for p in sample_sets[name][:8]:
            n_na = lc_adapted(StructureEval(manifests[name], p)).n_na
            assert (np.abs(n_na).max() < 1e-15) == odd, name


# ---------------------------------------------------------------------------
# A Reeb-dependent metric (C != 0), absent from the bundled fixtures
# ---------------------------------------------------------------------------


def test_twisted_C_nonzero(twisted):
    p = np.array([0.4, 1.2, 0.0, 0.0, 0.9])
    ev = StructureEval(twisted, p)
    assert abs(ev.C0[0, 0] - 0.15 * np.cos(0.9)) < 1e-15
    assert ev.C0[1, 1] == 0.0


def test_twisted_oracle_equivalence(twisted):
    for p in sample_points(twisted, 16, seed=3):
        ev = StructureEval(twisted, p)
        adapted = lc_adapted(ev).full
        converted = coordinate_to_adapted(ev, lc_coordinate(ev))
        assert np.abs(adapted - converted).max() < 1e-8


def test_twisted_n_connection_formula(twisted):
    for p in sample_points(twisted, 8, seed=4):
        ev = StructureEval(twisted, p)
        for endo in (canonical_N, zero_N):
            assert n_connection_formula_residual(ev, endo(ev)) < 1e-9


def test_twisted_torsion_cross_check(twisted):
    for p in sample_points(twisted, 8, seed=5):
        ev = StructureEval(twisted, p)
        assert torsion(ev, ev.canonical_N).direct_residual < 1e-9


def test_twisted_metricity_reeb_direction_is_2C(twisted):
    # with N = 2 psi the only defect contribution on horizontal slots is
    # (nabla^N_n g)_ab = 2 C_ab
    for p in sample_points(twisted, 8, seed=6):
        ev = StructureEval(twisted, p)
        defect = metricity_defect(ev, ev.canonical_N)
        assert np.abs(defect[4, :4, :4] - 2.0 * ev.C0).max() < 1e-12
        assert np.abs(defect[:4]).max() < 1e-12  # horizontal directions stay metric


# ---------------------------------------------------------------------------
# The oracle's conditioning guard: a norm screen, then np.linalg.cond
# ---------------------------------------------------------------------------


def _exp_family(k: float):
    """example1 with gamma_4 = exp(-k*y): g + eta (x) eta grows ill-conditioned
    towards y = -2, crossing the oracle's limit for k near 4 (k = 9 is the
    ill-conditioned CLI case of test_cli.py)."""
    data = manifest_data("example1")
    data["gamma"] = ["1 - 2*y", "1 - 2*y", "u", f"exp(-{k}*y)"]
    data["metric_frame"] = [["1 + (v*u)^2" if i == j else "0" for j in range(4)] for i in range(4)]
    data["domain"] = [[-2.0, 2.0]] * 5
    return manifest_from_dict(data)


def _guard_error(ev) -> str | None:
    try:
        lc_coordinate(ev)
    except SingularMetricError as err:
        return str(err)
    return None


def _cond_spy(monkeypatch) -> list[int]:
    """Patches np.linalg.cond to record how many matrices each call sees."""
    seen: list[int] = []
    cond = np.linalg.cond

    def spy(x, *args, **kwargs):
        seen.append(math.prod(np.shape(x)[:-2]))
        return cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", spy)
    return seen


def test_screened_guard_equals_full_cond_guard_across_the_limit(monkeypatch):
    # the decision, the first sample named and the printed cond, at every
    # k, batch size and seed; the family has passing and failing members
    outcomes = set()
    for k in (3, 3.5, 4, 4.25, 4.5, 5, 6, 7, 9):
        manifest = _exp_family(k)
        for count, seed in ((4, 42), (64, 1), (128, 7)):
            ev = StructureEval(manifest, sample_points(manifest, count, seed))
            want = full_cond_guard_error(ev)
            assert _guard_error(ev) == want, (k, count, seed)
            for p in ev.p[:4]:  # batch shape ()
                one = StructureEval(manifest, p)
                assert _guard_error(one) == full_cond_guard_error(one), (k, p)
            outcomes.add(want is None)
    assert outcomes == {True, False}
    # the screen hands the ill-conditioned samples to the SVD
    seen = _cond_spy(monkeypatch)
    ev = StructureEval(_exp_family(9), sample_points(_exp_family(9), 4, 42))
    assert "ill-conditioned at sample 1, point" in _guard_error(ev)
    assert 0 < sum(seen) < 4


def test_guard_names_the_first_refused_sample_whatever_the_batch_size():
    # exp(-10*y), seed 1: sample 0 is ill-conditioned, sample 1 passes and
    # sample 53 is exactly singular, so batches of 54 and more fail the
    # batched inverse; the sample named is the first refused one all the
    # same
    manifest = _exp_family(10)
    points = sample_points(manifest, 64, 1)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(coordinate_metric(StructureEval(manifest, points))[0])
    first = _guard_error(StructureEval(manifest, points[:1]))
    assert "ill-conditioned at sample 0, point" in first and first.endswith("(cond 7.023e+11)")
    for count in (4, 53, 54, 64):
        assert _guard_error(StructureEval(manifest, points[:count])) == first, count
    # the message is the first refused sample's own, whichever it is
    singular = _guard_error(StructureEval(manifest, points[53]))
    assert singular.startswith("coordinate metric g + eta (x) eta singular at point")
    assert _guard_error(StructureEval(manifest, points[[1, 53, 0]])) == singular.replace(
        "at point", "at sample 1, point")
    assert _guard_error(StructureEval(manifest, points[[1, 0, 53]])) == first.replace(
        "sample 0", "sample 1")


def _spd(rng, log_cond: float, n: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric positive definite matrix with eigenvalues spread
    logarithmically from 1 to 10**-log_cond, and its eigenvector basis."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * np.logspace(0.0, -log_cond, n)) @ q.T
    return 0.5 * (a + a.T), q


def test_norm_screen_clears_only_what_the_svd_passes():
    rng = np.random.default_rng(2024)
    A = np.array([_spd(rng, log_cond)[0] for log_cond in np.repeat(np.linspace(2.0, 16.0, 57), 4)])
    cond = np.linalg.cond(A)
    assert cond.min() < 1e3 and cond.max() > 1e15
    cleared = _cleared(A, np.linalg.inv(A))
    assert not np.any(cleared & (cond >= ORACLE_COND_LIMIT))
    # well inside the limit the screen does clear
    assert cleared[cond < ORACLE_COND_LIMIT / 1e3].all()


def test_norm_screen_reads_the_residual_not_the_inverse_norm_alone():
    # near-singular matrices with an approximate inverse of small norm (the
    # inverse of a well-conditioned neighbour): n ||A|| ||X|| clears them
    # by far, but I - A X is of order one, so the screen does not
    rng = np.random.default_rng(7)
    for log_cond in (8.0, 10.0, 12.0, 16.0):
        a, q = _spd(rng, log_cond)
        neighbour = (q * np.logspace(0.0, -3.0, 5)) @ q.T
        x = np.linalg.inv(0.5 * (neighbour + neighbour.T))
        assert np.linalg.cond(a) >= ORACLE_COND_LIMIT
        norms = np.abs(a).sum(axis=0).max() * np.abs(x).sum(axis=0).max()
        assert 5 * norms < ORACLE_COND_LIMIT / 1e3
        assert not _cleared(a, x)


@pytest.mark.parametrize("name", ALL + tuple(f"heavy{k}" for k in range(4)))
def test_oracle_runs_no_svd_on_well_conditioned_metrics(name, manifests, monkeypatch):
    manifest = manifest_from_dict(deep_tree_manifest_data(int(name[5:]))) if name.startswith("heavy") \
        else manifests[name]
    seen = _cond_spy(monkeypatch)
    run_full_check(manifest, samples=128)
    assert sum(seen) == 0


@pytest.mark.parametrize("name", ["example1", "example3-aqs", "twisted", "heavy3"])
def test_a_self_bracket_is_the_two_contraction_form(name, manifests, twisted):
    # a family bracketed with itself takes one contraction and subtracts
    # its transpose: the bits of the two planned contractions, for the
    # frame fields and for the fields phi(E_i), at a batch and at a point
    manifest = {**manifests, "twisted": twisted}.get(name) or manifest_from_dict(deep_tree_manifest_data(3))
    points = sample_points(manifest, 32, seed=6)
    for at in (points, points[9]):
        ev = StructureEval(manifest, at)
        for V0, V1 in (ev.frame, _phi_basis_fields(ev)):
            two = contract("...ip,...jqp->...ijq", V0, V1) - contract("...jp,...iqp->...ijq", V0, V1)
            assert np.abs(two).max() > 0.0
            assert bracket(V0, V1, V0, V1).tobytes() == two.tobytes()
            # two families that are equal but not the same arrays
            assert bracket(V0, V1, V0.copy(), V1.copy()).tobytes() == two.tobytes()
