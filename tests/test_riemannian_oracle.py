"""The Riemannian Ricci tensor of G = g + eta (x) eta against the curvature
of the canonical connection and against the Einstein criterion.

:func:`_helpers.ricci_coordinate` builds Ric^G in coordinates from the jets
of g and gamma, with no adapted formula; sympy checks it at exact points.
Where the canonical connection is metric with totally skew torsion T, the
skew-torsion identity (Friedrich and Ivanov, Asian J. Math. 6, 2002)

    Ric^G(X, Y) = Sym Ric^nabla(X, Y) + 1/4 sum_ij T(X, e_i, e_j) T(Y, e_i, e_j)

ties it to :func:`curvature_K`, whose traces give Ric^nabla.  The round
spheres S^3 and S^5 are Einstein (Ric = 2p G on S^(2p+1)); the Einstein
criterion r_ab = 4 omega_{da} psi^d_b says so on S^3 and not on S^5, and
says yes on a scaled S^5 that is only eta-Einstein.  Both findings are
pinned as asserted values.
"""

from __future__ import annotations

import numpy as np
import pytest

from acmcheck.chart import sample_points
from acmcheck.checks import identity_residuals, run_full_check
from acmcheck.connection import torsion
from acmcheck.curvature import curvature_K, einstein_rhs, ricci_wagner
from acmcheck.manifest import manifest_from_dict
from acmcheck.structure import StructureEval

from _helpers import coordinate_metric, manifest_data, ricci_coordinate, sphere_manifest_data, sympy_reader
from conftest import FIXTURES

SPHERES = {
    "S3": sphere_manifest_data(1),
    "S5": sphere_manifest_data(2),
    "S5-scaled": sphere_manifest_data(2, "2/3"),  # frame metric times 2/3
}
# the structures whose canonical connection is metric (zero metricity
# defect) with totally skew torsion
METRIC_SKEW = ("flat", "example1", "example3-qs", "example3-aqs", *SPHERES)
SAMPLES = 16
# largest |Ric^G - right-hand side| over 1 + the largest |Ric^G|: example3
# reaches 9e-12 against |Ric^G| ~ 1e3, the spheres 5e-15 against 4 to 9
IDENTITY_RTOL = 1e-12


def _data(name: str) -> dict:
    return SPHERES[name] if name in SPHERES else manifest_data(name)


def _evaluation(name: str) -> StructureEval:
    manifest = manifest_from_dict(_data(name))
    return StructureEval(manifest, sample_points(manifest, SAMPLES, seed=3))


def _eta(ev) -> np.ndarray:
    eta = ev.zeros(ev.n)
    eta[..., : ev.m] = ev.gam0
    eta[..., -1] = 1.0
    return eta


def _on_frame(ev, T: np.ndarray) -> np.ndarray:
    """A coordinate 2-tensor on the adapted frame: T(E_i, E_j)."""
    E0 = ev.frame[0]  # E0[i, q]: coordinate q of E_i
    return np.einsum("...ip,...jq,...pq->...ij", E0, E0, T)


def _ricci_nabla(ev) -> np.ndarray:
    """Ric^nabla(Y, Z) = trace of X -> K(X, Y) Z on the full frame, from the
    blocks of :func:`curvature_K`: K(e_a, e_b) e_c and K(e_a, xi) e_c.  The
    canonical connection keeps xi and the distribution parallel, so Ric^nabla
    is zero wherever Z = xi."""
    K = curvature_K(ev)
    out = ev.zeros(ev.n, ev.n)
    out[..., : ev.m, : ev.m] = np.einsum("...aabc->...bc", K.frame)
    out[..., -1, : ev.m] = np.einsum("...aac->...c", K.mixed)
    return out


def skew_torsion_identity_residual(ev) -> tuple[float, float]:
    """max |Ric^G - Sym Ric^nabla - 1/4 T.T| on the frame, and max |Ric^G|."""
    G0, _ = coordinate_metric(ev)
    metric_inverse = np.linalg.inv(_on_frame(ev, G0))
    ric_g = _on_frame(ev, ricci_coordinate(ev))
    ric_nabla = _ricci_nabla(ev)
    T = torsion(ev, ev.canonical_N).components  # T[i, j, k] = G(T(E_i, E_j), E_k)
    squares = np.einsum("...xij,...ykl,...ik,...jl->...xy", T, T, metric_inverse, metric_inverse)
    rhs = 0.5 * (ric_nabla + np.swapaxes(ric_nabla, -1, -2)) + 0.25 * squares
    return float(np.abs(ric_g - rhs).max()), float(np.abs(ric_g).max())


def test_metric_skew_structures_are_those_with_zero_metricity_defect():
    for name in (*FIXTURES, "twisted", *SPHERES):
        rows = identity_residuals(_evaluation(name))
        defect = max(rows["metricity_defect"].max(), rows["torsion_skew"].max())
        assert (defect < 1e-12) == (name in METRIC_SKEW), (name, defect)


@pytest.mark.parametrize("name", METRIC_SKEW)
def test_skew_torsion_identity(name):
    residual, scale = skew_torsion_identity_residual(_evaluation(name))
    assert residual < IDENTITY_RTOL * (1.0 + scale), (residual, scale)
    if name != "flat":
        assert scale > 0.4  # Ric^G is not zero, so the identity is not vacuous


@pytest.mark.parametrize("name", ("example2", "twisted"))
def test_skew_torsion_identity_needs_a_metric_connection(name):
    # where nabla g != 0 the identity does not apply, and fails
    residual, scale = skew_torsion_identity_residual(_evaluation(name))
    assert residual > 1.0


# ---------------------------------------------------------------------------
# The spheres, derived with sympy at exact points
# ---------------------------------------------------------------------------


def _symbolic_ricci(data: dict, point: tuple[str, ...]):
    """Ric^G, G and eta at ``point``, exactly, from the manifest strings:
    the Christoffel symbols of G and their derivatives by sympy, then the
    formula of :func:`ricci_coordinate`."""
    sp = pytest.importorskip("sympy")
    coords, expr = sympy_reader(data["coordinates"])
    n, m = len(coords), len(coords) - 1
    at = {c: sp.Rational(q) for c, q in zip(coords, point)}
    eta = [expr(t) for t in data["gamma"]] + [sp.Integer(1)]
    G = [[(expr(data["metric_frame"][i][j]) if i < m and j < m else 0) + eta[i] * eta[j]
          for j in range(n)] for i in range(n)]
    # d_k G_ij and d_k d_l G_ij at the point, each entry differentiated once
    dG, ddG = {}, {}
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                first = sp.diff(G[i][j], coords[k])
                dG[i, j, k] = dG[j, i, k] = first.subs(at)
                for q in range(k, n):
                    ddG[i, j, k, q] = ddG[j, i, k, q] = ddG[i, j, q, k] = ddG[j, i, q, k] = (
                        sp.diff(first, coords[q]).subs(at))
    G0 = sp.Matrix(n, n, lambda i, j: sp.sympify(G[i][j]).subs(at))
    Gi = G0.inv()
    r = range(n)
    first = {(i, j, l): (dG[j, l, i] + dG[i, l, j] - dG[i, j, l]) / 2 for i in r for j in r for l in r}
    d_first = {(i, j, l, q): (ddG[j, l, i, q] + ddG[i, l, j, q] - ddG[i, j, l, q]) / 2
               for i in r for j in r for l in r for q in r}
    d_Gi = {(k, l, q): -sum(Gi[k, a] * dG[a, b, q] * Gi[b, l] for a in r for b in r)
            for k in r for l in r for q in r}
    Gamma = {(k, i, j): sum(Gi[k, l] * first[i, j, l] for l in r) for k in r for i in r for j in r}
    d_Gamma = {(k, i, j, q): sum(d_Gi[k, l, q] * first[i, j, l] + Gi[k, l] * d_first[i, j, l, q] for l in r)
               for k in r for i in r for j in r for q in r}
    ric = sp.Matrix(n, n, lambda i, j: sum(d_Gamma[k, i, j, k] - d_Gamma[k, i, k, j] for k in r) + sum(
        Gamma[k, k, l] * Gamma[l, i, j] - Gamma[k, j, l] * Gamma[l, i, k] for k in r for l in r))
    return ric, G0, sp.Matrix([e.subs(at) for e in eta])


# dyadic rationals, so the float point is the exact point sympy evaluates at
SPHERE_POINTS = {
    "S3": ("1/4", "-1/2", "3/8"),
    "S5": ("1/4", "-1/2", "3/8", "1/8", "-3/4"),
    "S5-scaled": ("-3/8", "1/4", "1/2", "-1/8", "5/8"),
}


@pytest.mark.parametrize("name", SPHERES)
def test_sphere_ricci_tensor_by_sympy(name):
    sp = pytest.importorskip("sympy")
    data, point = SPHERES[name], SPHERE_POINTS[name]
    ric, G, eta = _symbolic_ricci(data, point)
    n = len(point)
    if name == "S5-scaled":
        # eta-Einstein, not Einstein: Ricci operator 9/2 on the distribution, 9 on xi
        assert sp.simplify(ric - sp.Rational(9, 2) * (G + eta * eta.T)) == sp.zeros(n)
    else:
        assert sp.simplify(ric - (n - 1) * G) == sp.zeros(n)  # Ric = 2p G
    ev = StructureEval(manifest_from_dict(data), np.array([float(sp.Rational(q)) for q in point]))
    expected = np.array(ric.evalf(30).tolist(), dtype=float)
    assert np.allclose(ricci_coordinate(ev), expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", SPHERES)
def test_sphere_ricci_tensor_at_sampled_points(name):
    ev = _evaluation(name)
    G0, _ = coordinate_metric(ev)
    ric = ricci_coordinate(ev)
    if name == "S5-scaled":
        eta = _eta(ev)
        assert np.allclose(ric, 4.5 * (G0 + eta[..., :, None] * eta[..., None, :]), rtol=0, atol=1e-12)
    else:
        assert np.allclose(ric, (ev.n - 1) * G0, rtol=0, atol=1e-12)


# r_ab and the Einstein right-hand side 4 omega_{da} psi^d_b for omega =
# d(eta), each a multiple of g on every sphere: (r / g, rhs / g)
WAGNER_MULTIPLES = {"S3": (-4.0, -4.0), "S5": (-6.0, -4.0), "S5-scaled": (-9.0, -9.0)}


@pytest.mark.parametrize("name", SPHERES)
def test_einstein_criterion_on_the_spheres(name):
    # S^3 and S^5 are Sasakian and Einstein, the scaled S^5 is QS and only
    # eta-Einstein; the criterion holds on S^3, fails on S^5 (r = -6g against
    # -4g) and holds on the scaled S^5, so at n = 5 it is neither necessary
    # nor sufficient for Ric^G = lambda G on these structures
    ev = _evaluation(name)
    r_multiple, rhs_multiple = WAGNER_MULTIPLES[name]
    assert np.allclose(ricci_wagner(ev), r_multiple * ev.g0, rtol=0, atol=1e-12)
    assert np.allclose(einstein_rhs(ev, "d_eta"), rhs_multiple * ev.g0, rtol=0, atol=1e-12)
    report = run_full_check(manifest_from_dict(SPHERES[name]), samples=SAMPLES, seed=3)
    assert report["classification"]["quasi_sasakian"]["holds"]
    assert report["classification"]["contact_metric"]["holds"] == (name != "S5-scaled")
    einstein = report["einstein"]["d_eta"]
    assert einstein["verdict"] == (r_multiple == rhs_multiple)
    assert einstein["parallel_torsion_residual"] < 1e-12
    # the residual is 2 max |g_ab| on S^5 and rounding elsewhere
    expected = 2.0 * np.abs(ev.g0).max() if name == "S5" else 0.0
    assert einstein["max_residual"] == pytest.approx(expected, abs=1e-12)
