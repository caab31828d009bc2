"""Structure evaluation: axioms, derived tensors, exterior derivatives."""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import acmcheck
from acmcheck.expr import Binary, Const, ScalarField, parse
from acmcheck.residuals import per_point
from acmcheck.structure import (
    SingularMetricError,
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


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------


def test_axioms_flat_all_zero(manifests):
    report = validate_axioms(StructureEval(manifests["flat"], ORIGIN))
    assert all(v == 0.0 for v in report.values())


def test_axioms_example1_below_1e12(manifests, sample_sets):
    for p in sample_sets["example1"]:
        report = validate_axioms(StructureEval(manifests["example1"], p))
        assert max(report.values()) < 1e-12


def test_axioms_hold_on_compatible_fixtures(manifests, sample_sets):
    for name in COMPATIBLE:
        for p in sample_sets[name]:
            report = validate_axioms(StructureEval(manifests[name], p))
            assert max(report.values()) < 1e-12, name


def test_axioms_representation_identities_exact(manifests):
    report = validate_axioms(StructureEval(manifests["example2"], np.array([1.0, 3.0, 0.0, 0.0, 2.0])))
    for key in ("eta_xi", "phi_xi", "eta_circ_phi", "eta_metric_dual"):
        assert report[key] == 0.0


def test_axiom1_residual_for_doubled_phi(manifests):
    s = manifests["example1"]
    doubled = np.empty_like(s.phi_frame)
    for idx in np.ndindex(s.phi_frame.shape):
        doubled[idx] = ScalarField(Binary("*", Const(2.0), s.phi_frame[idx].ast), s.phi_frame[idx].coords)
    scaled = dataclasses.replace(s, phi_frame=doubled)
    report = validate_axioms(StructureEval(scaled, np.array([0.5, 1.0, 0.0, 0.0, 0.0])))
    # (2 phi)^2 = -4 id, so the defect against -id has magnitude 3
    assert report["phi_square"] == pytest.approx(3.0, abs=1e-14)


def test_example3_aqs_phi_not_metric_compatible(manifests, sample_sets):
    # the redefined endomorphism pairs the conformal block with the flat one,
    # so g(phi X, phi Y) = g(X, Y) fails wherever the conformal factor is not 1
    s = manifests["example3-aqs"]
    residuals = [validate_axioms(StructureEval(s, p))["compatibility"] for p in sample_sets["example3-aqs"]]
    assert max(residuals) > 0.5
    # while phi^2 = -id still holds exactly
    assert all(validate_axioms(StructureEval(s, p))["phi_square"] < 1e-14 for p in sample_sets["example3-aqs"])


# ---------------------------------------------------------------------------
# Metric definiteness
# ---------------------------------------------------------------------------


def test_metric_positive_definite_everywhere(manifests, sample_sets):
    for name in ALL:
        for p in sample_sets[name]:
            assert metric_definiteness(StructureEval(manifests[name], p)) > 1e-9


def test_singular_metric_raises(manifests):
    s = manifests["flat"]
    degenerate = s.metric_frame.copy()
    degenerate[0, 0] = parse("0", s.coordinates)
    bad = dataclasses.replace(s, metric_frame=degenerate)
    with pytest.raises(SingularMetricError):
        metric_definiteness(StructureEval(bad, ORIGIN))


def test_pseudo_flag_relaxes_definiteness(manifests):
    # an indefinite but nondegenerate metric passes only with pseudo: true
    s = manifests["flat"]
    indefinite = s.metric_frame.copy()
    indefinite[0, 0] = parse("-1", s.coordinates)
    strict = dataclasses.replace(s, metric_frame=indefinite)
    with pytest.raises(SingularMetricError):
        metric_definiteness(StructureEval(strict, ORIGIN))
    relaxed = dataclasses.replace(s, metric_frame=indefinite, pseudo=True)
    assert metric_definiteness(StructureEval(relaxed, ORIGIN)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Derived tensors
# ---------------------------------------------------------------------------


def test_derived_flat(manifests):
    ev = StructureEval(manifests["flat"], ORIGIN)
    expected_Omega = np.zeros((4, 4))
    expected_Omega[0, 2], expected_Omega[2, 0] = -1.0, 1.0
    expected_Omega[1, 3], expected_Omega[3, 1] = -1.0, 1.0
    assert np.array_equal(ev.Omega0, expected_Omega)
    assert np.array_equal(ev.omega0, np.zeros((4, 4)))
    assert np.array_equal(ev.psi0, np.zeros((4, 4)))
    assert np.array_equal(ev.C0, np.zeros((4, 4)))
    assert trace_psi_sq(ev) == 0.0


def test_derived_example1(manifests, sample_sets):
    traces = []
    for p in sample_sets["example1"]:
        ev = StructureEval(manifests["example1"], p)
        assert ev.psi0[1, 0] == pytest.approx(-0.5, abs=1e-15)
        assert ev.psi0[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert np.array_equal(ev.C0, np.zeros((4, 4)))
        traces.append(trace_psi_sq(ev))
    assert traces[0] == pytest.approx(-0.5, abs=1e-15)
    assert max(traces) - min(traces) < 1e-12  # tr(psi^2) constant


def test_derived_example3_at_origin(manifests):
    ev = StructureEval(manifests["example3-qs"], ORIGIN)
    assert ev.g0[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert ev.psi0[1, 0] == pytest.approx(-0.5, abs=1e-15)


def test_psi_lowering_consistency(manifests, sample_sets):
    # g_bd psi^d_a = omega_ab at every sample
    for name in ALL:
        for p in sample_sets[name]:
            ev = StructureEval(manifests[name], p)
            lowered = np.einsum("bd,da->ab", ev.g0, ev.psi0)
            assert np.abs(lowered - ev.omega0).max() < 1e-12, name


def test_C_zero_on_shipped_fixtures(manifests, sample_sets):
    # no shipped metric depends on the Reeb coordinate
    for name in ALL:
        for p in sample_sets[name][:8]:
            assert np.array_equal(StructureEval(manifests[name], p).C0, np.zeros((4, 4))), name


# ---------------------------------------------------------------------------
# Exterior derivative
# ---------------------------------------------------------------------------


def test_d_eta_matches_bracket_oracle(manifests, sample_sets):
    # cross-oracle: d(eta) via coordinate partials vs omega/d_eta_xi via brackets;
    # eta = (gamma_a, 1), so its gradient is the gamma gradient over a zero row
    for name in ALL:
        ev = StructureEval(manifests[name], sample_sets[name])
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


def test_d_Omega_zero_on_example1(manifests, sample_sets):
    for p in sample_sets["example1"]:
        ev = StructureEval(manifests["example1"], p)
        assert np.abs(d_fundamental_form(ev)).max() == 0.0


def test_d_Omega_zero_on_example3_qs(manifests, sample_sets):
    for p in sample_sets["example3-qs"]:
        ev = StructureEval(manifests["example3-qs"], p)
        assert np.abs(d_fundamental_form(ev)).max() < 1e-12


def test_d_Omega_nonzero_on_example3_aqs(manifests, sample_sets):
    # the redefined endomorphism couples the conformal factor to the flat
    # block, so the fundamental form is no longer closed (nor even skew)
    worst = 0.0
    for p in sample_sets["example3-aqs"]:
        ev = StructureEval(manifests["example3-aqs"], p)
        worst = max(worst, float(np.abs(d_fundamental_form(ev)).max()))
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# Per-point reductions
# ---------------------------------------------------------------------------


def _with_nan(batch: tuple[int, ...], layout: tuple[int, ...], component: int) -> np.ndarray:
    """Random components with a NaN in the given component of the first
    point (``component`` 0) or of the last point (any other)."""
    arr = np.random.default_rng(len(batch) + sum(layout)).standard_normal(batch + layout)
    flat = arr.reshape(-1, math.prod(layout))
    flat[0 if component == 0 else -1, component] = np.nan
    return arr


@pytest.mark.parametrize("batch", [(), (1,), (128,), (2, 3)])
@pytest.mark.parametrize("layout", [(4,), (4, 4), (5, 5, 5)])
@pytest.mark.parametrize("component", [0, -2])
def test_per_point_is_the_row_wise_reduce_bit_for_bit(batch, layout, component):
    arr = _with_nan(batch, layout, component)
    for a in (arr, np.abs(arr), np.swapaxes(arr, -1, -len(layout))):
        for ufunc in (np.maximum, np.minimum):
            want = ufunc.reduce(a.reshape(batch + (-1,)), axis=-1)
            got = per_point(ufunc, a, batch)
            assert got.shape == batch and got.tobytes() == want.tobytes(), (ufunc, a.strides)
        finite = np.isfinite(a)
        want = finite.reshape(batch + (-1,)).all(axis=-1)
        got = per_point(np.logical_and, finite, batch)
        assert got.dtype == bool and got.shape == batch and np.array_equal(got, want)
        assert not want.all()


def test_max_abs_is_the_row_wise_maximum(manifests, sample_sets):
    ev = StructureEval(manifests["example2"], sample_sets["example2"])
    for component in (0, -2):
        table = _with_nan(ev.batch, (5, 5, 5), component)
        want = np.abs(table - ev.lc_full).reshape(ev.batch + (-1,)).max(axis=-1)
        assert ev.max_abs(table, ev.lc_full).tobytes() == want.tobytes()
        assert np.isnan(want).sum() == 1


def _trailing_reductions(tree: ast.AST) -> list[int]:
    """Line numbers of ``.max``, ``.min``, ``.all`` and ``.any`` calls in
    ``tree`` that reduce over trailing axes (a negative axis)."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("max", "min", "all", "any")):
            continue
        given = [k.value for k in node.keywords if k.arg == "axis"] + node.args[:1]
        for axis in given:
            axes = axis.elts if isinstance(axis, ast.Tuple) else [axis]
            if any(isinstance(a, ast.UnaryOp) for a in axes):
                lines.append(node.lineno)
    return lines


def test_per_point_reductions_have_one_path():
    # every per-point reduction over trailing axes is a per_point call
    caught = "a.max(axis=-1)\nb.all(axis=(-2, -1))\nc.min(-1)\nd.max(axis=0)\ne.max()"
    assert _trailing_reductions(ast.parse(caught)) == [1, 2, 3]
    library = sorted(Path(acmcheck.__file__).parent.glob("*.py"))
    offenders = [f"{path.name}:{line}" for path in library
                 for line in _trailing_reductions(ast.parse(path.read_text()))]
    assert not offenders, "a second per-point reduction path: " + ", ".join(offenders)
