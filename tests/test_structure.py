"""Structure evaluation: axioms, derived tensors, exterior derivatives."""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import acmcheck
from acmcheck.chart import sample_points
from acmcheck.expr import Binary, Const, ScalarField, parse
from acmcheck.manifest import manifest_from_dict
from acmcheck.residuals import per_point
from acmcheck.structure import (
    SingularMetricError,
    StructureEval,
    d_fundamental_form,
    ext_d_from_grad,
    metric_definiteness,
    validate_axioms,
)

from _helpers import TWISTED_MANIFEST, deep_tree_manifest_data, trace_psi_sq

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
# Frame derivatives
# ---------------------------------------------------------------------------

FRAME_MANIFESTS = ALL + ("twisted", "heavy0")
FRAME_BATCHES = ((), (1,), (32,), (2, 3))
# a rounding-error allowance per unit of the terms' magnitudes: each side
# rounds a product and a difference or two at most
FRAME_ULPS = 4 * np.finfo(float).eps


def _frame_manifest(name, manifests=None):
    """A fixture; the twisted manifest, whose gamma entries all vary; or
    manifest 0 of the heavy-expr pool."""
    if name == "heavy0":
        return manifest_from_dict(deep_tree_manifest_data(0))
    return manifest_from_dict(TWISTED_MANIFEST) if name == "twisted" else manifests[name]


def _frame_points(manifest, batch):
    points = sample_points(manifest, 32, seed=1)
    return points[0] if batch == () else points[: math.prod(batch)].reshape(batch + (5,))


def _frame_inputs(ev):
    """(F1, F2) pairs the library differentiates: each input gradient with
    its Hessian where it has one, and the gradient of Gamma."""
    return (ev.gam1, ev.gam2), (ev.g1, ev.g2), (ev.phi1, None), (ev.Gamma1, None)


def _rows(ev, F, tail):
    """``F`` viewed as batch + (rows,) + its last ``tail`` axes."""
    return F.reshape(ev.batch + (-1,) + F.shape[F.ndim - tail:])


def _frame_d_reference(ev, F1):
    """E_i F term by term: d_a F - gamma_a d_n F, and d_n F for xi; with the
    magnitude of the terms of each entry."""
    R = _rows(ev, F1, 1)
    along_n = np.einsum("...a,...r->...ra", ev.gam0, R[..., -1])
    ref, scale = R.copy(), np.abs(R)
    ref[..., : ev.m] -= along_n
    scale[..., : ev.m] += np.abs(along_n)
    return ref.reshape(F1.shape), scale.reshape(F1.shape)


def _frame_d_grad_reference(ev, F1, F2):
    """d_j (e_a F) = d_j d_a F - d_j gamma_a d_n F - gamma_a d_j d_n F, term
    by term, with the magnitude of the terms of each entry."""
    R1, R2 = _rows(ev, F1, 1), _rows(ev, F2, 2)
    terms = (
        R2[..., : ev.m, :],
        np.einsum("...aj,...r->...raj", ev.gam1, R1[..., -1]),
        np.einsum("...a,...rj->...raj", ev.gam0, R2[..., -1, :]),
    )
    shape = F2.shape[:-2] + (ev.m, ev.n)
    return (terms[0] - terms[1] - terms[2]).reshape(shape), sum(map(np.abs, terms)).reshape(shape)


@pytest.mark.parametrize("batch", FRAME_BATCHES, ids=str)
@pytest.mark.parametrize("name", FRAME_MANIFESTS)
def test_frame_derivatives_are_the_term_by_term_sums(name, batch, manifests):
    manifest = _frame_manifest(name, manifests)
    ev = StructureEval(manifest, _frame_points(manifest, batch))
    for F1, F2 in _frame_inputs(ev):
        got = ev.frame_d(F1)
        ref, scale = _frame_d_reference(ev, F1)
        assert got.shape == F1.shape and np.all(np.abs(got - ref) <= FRAME_ULPS * scale)
        if F2 is not None:
            got = ev.frame_d_grad(F1, F2)
            ref, scale = _frame_d_grad_reference(ev, F1, F2)
            assert got.shape == ref.shape and np.all(np.abs(got - ref) <= FRAME_ULPS * scale)


@pytest.mark.parametrize("name", FRAME_MANIFESTS)
def test_a_frame_derivative_row_is_its_point_bit_for_bit(name, manifests):
    manifest = _frame_manifest(name, manifests)
    for batch in ((32,), (2, 3)):
        points = _frame_points(manifest, batch)
        block = StructureEval(manifest, points)
        got = [block.frame_d(F1) for F1, _ in _frame_inputs(block)]
        got += [block.frame_d_grad(F1, F2) for F1, F2 in _frame_inputs(block) if F2 is not None]
        for at in np.ndindex(batch):
            ev = StructureEval(manifest, points[at])
            want = [ev.frame_d(F1) for F1, _ in _frame_inputs(ev)]
            want += [ev.frame_d_grad(F1, F2) for F1, F2 in _frame_inputs(ev) if F2 is not None]
            for g, w in zip(got, want):
                assert g[at].tobytes() == w.tobytes(), at


@pytest.mark.parametrize("name", ("twisted", "heavy0"))
def test_a_finite_row_of_a_mixed_batch_is_its_point_bit_for_bit(name):
    # points 3 and 17 hold an infinite and a NaN entry; every other point
    # takes the product alone or in the batch, not the term-by-term form
    manifest = _frame_manifest(name)
    points = _frame_points(manifest, (32,))
    block = StructureEval(manifest, points)
    inputs = [(F1.copy(), None if F2 is None else F2.copy()) for F1, F2 in _frame_inputs(block)]
    for F1, F2 in inputs:
        F1[3].flat[-1], F1[17].flat[0] = np.inf, np.nan
        if F2 is not None:
            F2[3].flat[-1], F2[17].flat[0] = -np.inf, np.nan
    with np.errstate(invalid="ignore"):  # inf * 0 where a gamma entry is 0
        got = [block.frame_d(F1) for F1, _ in inputs]
        got += [block.frame_d_grad(F1, F2) for F1, F2 in inputs if F2 is not None]
        for at in range(32):
            ev = StructureEval(manifest, points[at])
            want = [ev.frame_d(F1[at]) for F1, _ in inputs]
            want += [ev.frame_d_grad(F1[at], F2[at]) for F1, F2 in inputs if F2 is not None]
            for g, w in zip(got, want):
                assert g[at].tobytes() == w.tobytes(), at


def test_frame_matrix_operand_is_kept_read_only():
    twisted = _frame_manifest("twisted")
    ev = StructureEval(twisted, _frame_points(twisted, (2, 3)))
    assert ev.frame_t is ev.frame_t
    assert ev.frame_t.flags.c_contiguous and not ev.frame_t.flags.writeable
    assert np.array_equal(ev.frame_t, np.swapaxes(ev.frame[0], -1, -2))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_an_infinite_reeb_derivative_keeps_its_sign(sign):
    twisted = _frame_manifest("twisted")
    ev = StructureEval(twisted, _frame_points(twisted, (2, 3)))
    F1 = ev.g1.copy()
    F1[1, 2, 0, 1, -1] = sign * np.inf  # d_n g_01 at point (1, 2)
    got = ev.frame_d(F1)
    row, gam = got[1, 2, 0, 1], ev.gam0[1, 2]
    assert np.all(gam != 0.0)
    assert np.array_equal(row[: ev.m], -sign * np.sign(gam) * np.inf) and row[-1] == sign * np.inf
    # every other row, at that point and elsewhere, is the finite derivative
    ref, scale = _frame_d_reference(ev, F1)
    others = np.isfinite(ref)
    others[1, 2, 0, 1] = False
    assert np.all(np.isfinite(got[others]))
    assert np.all(np.abs(got[others] - ref[others]) <= FRAME_ULPS * scale[others])


def test_a_nan_derivative_stays_nan():
    twisted = _frame_manifest("twisted")
    ev = StructureEval(twisted, _frame_points(twisted, (32,)))
    F1, F2 = ev.gam1.copy(), ev.gam2.copy()
    F1[5, 2, 0] = np.nan  # d_0 gamma_2 at point 5
    F2[7, 1, 3, -1] = F2[7, 1, -1, 3] = np.nan  # d_3 d_n gamma_1 at point 7
    got = ev.frame_d(F1)
    assert np.isnan(got[5, 2, 0]) and np.isfinite(np.delete(got[5, 2], 0)).all()
    D1 = ev.frame_d_grad(F1, F2)
    assert np.isnan(D1[7, 1, :, 3]).all()
    finite = np.ones(D1.shape, dtype=bool)
    finite[7, 1, :, 3] = finite[7, 1, 3, -1] = False
    assert np.isfinite(D1[finite]).all()


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
