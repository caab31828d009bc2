"""Shared test oracles and builders (independent of the library's own
differentiation paths wherever they serve as oracles)."""

from __future__ import annotations

import dataclasses
import json
import operator
import random
import runpy
from pathlib import Path

import numpy as np

from acmcheck import classification_report, einstein_reports, sampled_evaluation
from acmcheck.chart import AVOID_EPS, MAX_REDRAWS, ChartError, frame_gradient, frame_matrix
from acmcheck.connection import (
    LC_ORACLE_TOL,
    ORACLE_COND_LIMIT,
    ORACLE_ROUNDING_C,
    basis_brackets_frame,
    bracket,
    to_frame_components,
)
from acmcheck.expr import (
    Binary,
    Const,
    ExprDomainError,
    ExprSyntaxError,
    Jet,
    Node,
    Pow,
    ScalarField,
    Unary,
    Var,
    _Token,
    describe_first,
    field_jets,
    parse,
)
from acmcheck.manifest import Manifest, fixture_path
from acmcheck.structure import contract, mat_t

COORDS = ("x", "y", "z", "u", "v")

# a manifest whose fields leave no term of the symbolic and chart oracles at
# zero: gamma depends on the Reeb coordinate, the metric on it and off the
# diagonal
TWISTED_MANIFEST = {
    "dimension": 5,
    "coordinates": list(COORDS),
    "gamma": ["y + x*z", "u^2 - v", "sin(v)*x", "exp(z)/2"],
    "metric_frame": [["1 + x^2", "0.25*y", "0", "0"], ["0.25*y", "2", "0", "0"],
                     ["0", "0", "1 + v^2", "0"], ["0", "0", "0", "3"]],
    "phi_frame": [["0", "0", "-1", "0"], ["0", "0", "0", "-1"],
                  ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    "domain": [[-2.0, 2.0]] * 5,
    "avoid": [],
}


def manifest_data(name: str) -> dict:
    """The JSON data of a bundled fixture, or of ``TWISTED_MANIFEST`` for
    'twisted'."""
    return TWISTED_MANIFEST if name == "twisted" else json.loads(fixture_path(name).read_text())


def nan_manifest_data() -> dict:
    """example1 with phi^1_3 = -1 + 0*exp(x)^400: exp(x)^400 overflows to
    inf for x > 1.78, so 0*exp(x)^400 is NaN there, and phi and every
    residual that reads it are NaN at those samples."""
    data = manifest_data("example1")
    data["phi_frame"][0][2] = "-1 + 0*exp(x)^400"
    return data


def deep_tree_manifest_data(k: int = 0) -> dict:
    """Manifest k of the benchmark's seeded heavy-expr pool: every gamma
    entry, the metric's conformal factor and the angle of a rotating phi
    are depth-4 sin/cos/exp/polynomial trees."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    return workloads["heavy_manifest"](random.Random(f"heavy-expr:pool:{k}"))


def heisenberg_manifest_data(n: int, c: float = 1.0) -> dict:
    """The Heisenberg group of odd dimension n = 2k + 1 in coordinates
    x1..xk, y1..yk, t (t the Reeb coordinate): gamma = (c*y_i, -c*x_i), the
    unit frame metric, and phi pairing x_i with y_i, phi e_{x_i} = e_{y_i}
    and phi e_{y_i} = -e_{x_i}, that is phi^{y_i}_{x_i} = 1 and
    phi^{x_i}_{y_i} = -1.

    Worked by hand from the chart's conventions: gamma does not depend on
    t, so e_a gamma_b = d_a gamma_b and d(eta)(xi, .) = 0; omega_{x_i y_i}
    = (-c - c)/2 = -c, so omega = c Omega with Omega_ab = phi^a_b (g = 1),
    omega has rank 2k and the structure rank n; psi = omega^T = -c phi;
    the constant metric gives Gamma = 0 and r = 0."""
    k = (n - 1) // 2
    xs, ys = [f"x{i}" for i in range(1, k + 1)], [f"y{i}" for i in range(1, k + 1)]
    phi = [["0"] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        phi[k + i][i], phi[i][k + i] = "1", "-1"
    return {
        "dimension": n,
        "coordinates": xs + ys + ["t"],
        "gamma": [f"{c!r}*{y}" for y in ys] + [f"-{c!r}*{x}" for x in xs],
        "metric_frame": [["1" if a == b else "0" for b in range(2 * k)] for a in range(2 * k)],
        "phi_frame": phi,
        "domain": [[-2.0, 2.0]] * n,
    }


def trace_psi_sq(ev) -> np.ndarray:
    """tr(psi^2) at the evaluated points."""
    return np.einsum("...ab,...ba->...", ev.psi0, ev.psi0)


def classify_run(manifest, **overrides):
    """Classification verdicts over a manifest's sampled points, through the
    run driver the CLI uses (``overrides``: ``samples``, ``seed``, ``tol``)."""
    ev, run = sampled_evaluation(manifest, **overrides)
    return classification_report(ev, run["tolerance"])


def einstein_run(manifest, **overrides):
    """The Einstein report of each omega source over a manifest's sampled
    points, through the run driver the CLI uses."""
    ev, run = sampled_evaluation(manifest, **overrides)
    return einstein_reports(ev, run["tolerance"])


def frame_bracket(manifest: Manifest, a: int, b: int, p: np.ndarray) -> np.ndarray:
    """Coordinate components of [e_a, e_b], computed from jets of gamma.

    [V, W]^i = V^j d_j W^i - W^j d_j V^i with V = e_a, W = e_b.  Serves as
    the independent oracle for :func:`nonholonomy`.
    """
    gam0, gam1 = field_jets(manifest.plans["gamma"], p, order=1)
    E0, E1 = mat_t(frame_matrix(gam0)), frame_gradient(gam1)
    return (E1[..., b, :, :] @ E0[..., a, :, None] - E1[..., a, :, :] @ E0[..., b, :, None])[..., 0]


def field_jet(field: ScalarField, p: np.ndarray) -> Jet:
    """Second-order jet of one field at a point or over a block of points:
    :func:`field_jets` of the field alone (a 0-d block)."""
    return Jet(*field_jets(np.array(field, dtype=object), p))


def fd_gradient(field: ScalarField, p: np.ndarray, h: float = 1e-4) -> np.ndarray:
    n = len(p)
    g = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (field.value(p + e) - field.value(p - e)) / (2 * h)
    return g


def fd_hessian(field: ScalarField, p: np.ndarray, h: float = 1e-4) -> np.ndarray:
    n = len(p)
    H = np.zeros((n, n))
    f0 = field.value(p)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (field.value(p + ei) - 2 * f0 + field.value(p - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = H[j, i] = (
                field.value(p + ei + ej)
                - field.value(p + ei - ej)
                - field.value(p - ei + ej)
                + field.value(p - ei - ej)
            ) / (4 * h * h)
    return H


def random_poly_text(rng: np.random.Generator, max_degree: int = 4) -> str:
    terms = []
    for _ in range(rng.integers(1, 6)):
        coeff = round(float(rng.uniform(-2, 2)), 3)
        degree = int(rng.integers(0, max_degree + 1))
        exps = np.zeros(5, dtype=int)
        for _ in range(degree):
            exps[rng.integers(0, 5)] += 1
        factors = [repr(coeff)]
        for name, e in zip(COORDS, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def perturbed_flat(base: Manifest, rng: np.random.Generator) -> Manifest:
    """Random low-degree polynomial perturbations of phi and g; the
    projection/split identities are representation-level, so they must
    survive these."""
    coords = base.coordinates
    monomials = ["x", "y", "z", "u", "v", "x*y", "y*z", "x^2", "v*u", "z^2"]

    def bump(f: ScalarField) -> ScalarField:
        term = parse(monomials[rng.integers(0, len(monomials))], coords)
        eps = float(rng.uniform(-0.02, 0.02))
        return ScalarField(Binary("+", f.ast, Binary("*", Const(eps), term.ast)), coords)

    phi = np.empty_like(base.phi_frame)
    for idx in np.ndindex(phi.shape):
        phi[idx] = bump(base.phi_frame[idx])
    g = base.metric_frame.copy()
    m = base.dimension - 1
    for a in range(m):
        for b in range(a, m):
            g[a, b] = g[b, a] = bump(base.metric_frame[a, b])
    return dataclasses.replace(base, metric_frame=g, phi_frame=phi)


# ---------------------------------------------------------------------------
# Per-pair loop forms of the basis brackets and the Nijenhuis bundle, at a
# single point: the reference for the library's pairwise bracket einsums
# ---------------------------------------------------------------------------


def _bracket(V0, V1, W0, W1) -> np.ndarray:
    """[V, W]^q = V^p d_p W^q - W^p d_p V^q from components and gradients."""
    return np.einsum("p,qp->q", V0, W1) - np.einsum("p,qp->q", W0, V1)


def _to_frame(ev, V: np.ndarray) -> np.ndarray:
    out = V.copy()
    out[..., -1] = V[..., : ev.m] @ ev.gam0 + V[..., -1]
    return out


def _phi_apply(ev, V: np.ndarray) -> np.ndarray:
    u = ev.phi0 @ V[: ev.m]
    out = np.zeros(ev.n)
    out[: ev.m] = u
    out[-1] = -float(np.dot(u, ev.gam0))
    return out


def loop_basis_brackets_frame(ev) -> np.ndarray:
    """Frame components of [E_i, E_j], one bracket per basis pair."""
    B0, B1 = ev.frame
    out = np.empty((ev.n, ev.n, ev.n))
    for i in range(ev.n):
        for j in range(ev.n):
            out[i, j] = _to_frame(ev, _bracket(B0[i], B1[i], B0[j], B1[j]))
    return out


def _phi_fields(ev) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate components P0[..., i, q] and gradients P1[..., i, q, j] of
    the fields phi(E_i), with the Reeb column -phi^b_i gamma_b written out
    from the gamma jets, not pushed through the frame matrix."""
    n, m = ev.n, ev.m
    P0 = ev.zeros(n, n)
    P1 = ev.zeros(n, n, n)
    P0[..., :m, :m] = mat_t(ev.phi0)
    P0[..., :m, -1] = -np.einsum("...bi,...b->...i", ev.phi0, ev.gam0)
    P1[..., :m, :m, :] = np.einsum("...bij->...ibj", ev.phi1)
    P1[..., :m, -1, :] = -np.einsum("...bij,...b->...ij", ev.phi1, ev.gam0) - np.einsum(
        "...bi,...bj->...ij", ev.phi0, ev.gam1
    )
    return P0, P1


def loop_nijenhuis_phi(ev) -> np.ndarray:
    """N_phi(E_i, E_j) in frame components, four brackets per basis pair."""
    n = ev.n
    B0, B1 = ev.frame
    P0, P1 = _phi_fields(ev)
    out = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            term = _bracket(P0[i], P1[i], P0[j], P1[j])
            term += _phi_apply(ev, _phi_apply(ev, _bracket(B0[i], B1[i], B0[j], B1[j])))
            term -= _phi_apply(ev, _bracket(P0[i], P1[i], B0[j], B1[j]))
            term -= _phi_apply(ev, _bracket(B0[i], B1[i], P0[j], P1[j]))
            out[i, j] = _to_frame(ev, term)
    return out


# ---------------------------------------------------------------------------
# Four-bracket form of the batched Nijenhuis tensor, each bracket and each
# phi image computed on its own: the reference for
# classify.nijenhuis_tensors, which shares [E_i, E_j] with the torsion and
# reads [E_i, phi E_j] off [phi E_i, E_j]
# ---------------------------------------------------------------------------


def _lifted_phi_apply(ev, V: np.ndarray) -> np.ndarray:
    """phi of coordinate vectors (last axis): frame-split, apply, push back."""
    u = V[..., : ev.m] @ ev.lift(mat_t(ev.phi0), V.ndim)  # u^b = phi^b_a V^a
    out = np.zeros(V.shape)
    out[..., : ev.m] = u
    out[..., -1] = -contract("...b,...b->...", u, ev.lift(ev.gam0, V.ndim))
    return out


def four_bracket_nijenhuis(ev) -> tuple[np.ndarray, np.ndarray]:
    """(N_phi, d(eta)(phi ., phi .)) on all basis pairs: N_phi from four
    pairwise brackets of its own fields phi(E_i), each phi image applied on
    its own, and the pull-back of d(eta) in ``np.einsum``, outside the
    planner."""
    m = ev.m
    B0, B1 = ev.frame
    P0, P1 = _phi_fields(ev)

    term = bracket(P0, P1, P0, P1)
    term += _lifted_phi_apply(ev, _lifted_phi_apply(ev, bracket(B0, B1, B0, B1)))
    term -= _lifted_phi_apply(ev, bracket(P0, P1, B0, B1))
    term -= _lifted_phi_apply(ev, bracket(B0, B1, P0, P1))
    n_phi = to_frame_components(ev, term)

    d_eta_phi = ev.zeros(ev.n, ev.n)
    d_eta_phi[..., :m, :m] = np.einsum("...ci,...dj,...cd->...ij", ev.phi0, ev.phi0, ev.omega0)
    return n_phi, d_eta_phi


# ---------------------------------------------------------------------------
# Unplanned np.einsum form of the coordinate oracle: the reference for the
# broadcasting and matmul products of connection.lc_coordinate and
# connection.coordinate_to_adapted (without the conditioning guard)
# ---------------------------------------------------------------------------


def einsum_lc_coordinate(ev) -> np.ndarray:
    """Coordinate Christoffel symbols coeff[i, j, k] of g + eta (x) eta."""
    G0, G1 = coordinate_metric(ev)
    return 0.5 * np.einsum(
        "...km,...ijm->...ijk",
        np.linalg.inv(G0),
        np.einsum("...jmi->...ijm", G1) + np.einsum("...imj->...ijm", G1) - G1,
    )


def coordinate_metric(ev) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate metric G = g + eta (x) eta and its derivatives
    G1[i, j, k] = d_k G[i, j]."""
    n, m = ev.n, ev.m
    eta0 = ev.zeros(n)
    eta0[..., :m] = ev.gam0
    eta0[..., -1] = 1.0
    eta1 = ev.zeros(n, n)
    eta1[..., :m, :] = ev.gam1
    G0 = ev.zeros(n, n)
    G0[..., :m, :m] = ev.g0
    G0 += eta0[..., :, None] * eta0[..., None, :]
    G1 = ev.zeros(n, n, n)
    G1[..., :m, :m, :] = ev.g1
    G1 += np.einsum("...ik,...j->...ijk", eta1, eta0) + np.einsum("...i,...jk->...ijk", eta0, eta1)
    return G0, G1


def full_cond_guard_error(ev) -> str | None:
    """The message of the coordinate oracle's conditioning guard with
    ``np.linalg.cond`` run on every point, None where it passes: the
    reference for ``connection.lc_oracle``, which screens points by a norm
    bound first.  G is scaled to unit diagonal by the same operations, and
    a non-finite point counts as the identity.  A point is refused where
    cond reaches ``ORACLE_COND_LIMIT``, or where the rounding estimate
    c * cond * eps * (1 + max|Gamma|) reaches ``LC_ORACLE_TOL``, Gamma being
    the oracle's coefficients on the adapted frame (by ``np.einsum`` here).
    Every point must be invertible."""
    G0, _ = coordinate_metric(ev)
    diag = np.abs(np.diagonal(G0, axis1=-2, axis2=-1))
    with np.errstate(all="ignore"):
        unit = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        scaled = G0 * unit[..., :, None] * unit[..., None, :]
    finite = np.isfinite(scaled).all(axis=(-2, -1))
    cond = np.linalg.cond(np.where(finite[..., None, None], scaled, np.eye(ev.n)))
    gamma = np.abs(einsum_coordinate_to_adapted(ev, einsum_lc_coordinate(ev))).max(axis=(-3, -2, -1))
    estimate = ORACLE_ROUNDING_C * cond * np.finfo(float).eps * (1.0 + gamma)
    ill = (cond >= ORACLE_COND_LIMIT) | (estimate >= LC_ORACLE_TOL)
    if not np.any(ill):
        return None
    what, where = "coordinate metric g + eta (x) eta", describe_first(ev.p, ill)
    at = np.unravel_index(np.argmax(ill), ev.batch)
    if cond[at] >= ORACLE_COND_LIMIT:
        return f"{what} ill-conditioned at {where} (cond {cond[at]:.3e})"
    return (f"{what} ill-conditioned for the oracle's tolerance at {where} (cond {cond[at]:.3e},"
            f" max |Gamma| {gamma[at]:.3e}: rounding estimate {estimate[at]:.3e} >= 1e-08)")


def einsum_coordinate_to_adapted(ev, coord_coeffs: np.ndarray) -> np.ndarray:
    """Coordinate connection coefficients on the adapted frame."""
    E, dE = ev.frame
    W = np.einsum("...ip,...jqp->...ijq", E, dE) + np.einsum(
        "...ip,...jr,...prq->...ijq", E, E, coord_coeffs
    )
    return to_frame_components(ev, W)


# ---------------------------------------------------------------------------
# Riemannian Ricci tensor of the coordinate metric: an oracle for the
# paper's Einstein claim that shares no adapted formula with the library
# ---------------------------------------------------------------------------


def ricci_coordinate(ev) -> np.ndarray:
    """Ricci tensor Ric[i, j] of G = g + eta (x) eta in coordinates, from
    the first and second derivatives of G, which come from the jets of g and
    gamma alone (no adapted formula, no ``contract``):

        Ric_ij = d_k Gamma^k_ij - d_j Gamma^k_ik
                 + Gamma^k_kl Gamma^l_ij - Gamma^k_jl Gamma^l_ik,

    the sign under which the unit sphere S^n has Ric = (n - 1) G."""
    n, m = ev.n, ev.m
    G0, G1 = coordinate_metric(ev)
    eta0 = ev.zeros(n)
    eta0[..., :m] = ev.gam0
    eta0[..., -1] = 1.0
    eta1 = ev.zeros(n, n)
    eta1[..., :m, :] = ev.gam1
    eta2 = ev.zeros(n, n, n)
    eta2[..., :m, :, :] = ev.gam2
    G2 = ev.zeros(n, n, n, n)  # G2[i, j, k, l] = d_k d_l G_ij
    G2[..., :m, :m, :, :] = ev.g2
    G2 += np.einsum("...ikl,...j->...ijkl", eta2, eta0) + np.einsum("...i,...jkl->...ijkl", eta0, eta2)
    G2 += np.einsum("...ik,...jl->...ijkl", eta1, eta1) + np.einsum("...il,...jk->...ijkl", eta1, eta1)
    Ginv = np.linalg.inv(G0)
    # Christoffel symbols of the first kind [ij, l] and their derivatives
    first = 0.5 * (np.einsum("...jli->...ijl", G1) + np.einsum("...ilj->...ijl", G1) - G1)
    d_first = 0.5 * (np.einsum("...jliq->...ijlq", G2) + np.einsum("...iljq->...ijlq", G2) - G2)
    Gamma = np.einsum("...kl,...ijl->...kij", Ginv, first)  # Gamma[k, i, j] = Gamma^k_ij
    d_Ginv = -np.einsum("...ka,...abq,...bl->...klq", Ginv, G1, Ginv)
    d_Gamma = np.einsum("...klq,...ijl->...kijq", d_Ginv, first) + np.einsum(
        "...kl,...ijlq->...kijq", Ginv, d_first
    )
    return (np.einsum("...kijk->...ij", d_Gamma) - np.einsum("...kikj->...ij", d_Gamma)
            + np.einsum("...kkl,...lij->...ij", Gamma, Gamma)
            - np.einsum("...kjl,...lik->...ij", Gamma, Gamma))


def sphere_manifest_data(p: int, scale: str = "1") -> dict:
    """The unit sphere S^(2p+1) in an affine chart of its Hopf fibration,
    with the frame metric multiplied by ``scale``: coordinates x_j, y_j and
    v, w = 1 + |z|^2, gamma = (-y_j, x_j) / w on (x_j, y_j), the
    Fubini-Study frame metric (w delta_ab - u_a u_b - s_a s_b) / w^2 with
    u = (x_j, y_j) and s = (-y_j, x_j), and phi e_x_j = -e_y_j.  At scale 1,
    G = g + eta (x) eta is the round metric, so Ric = 2p G."""
    xy = [f"{c}{j}" for j in range(1, p + 1) for c in "xy"]
    turned = [f"-y{j}" if c == "x" else f"x{j}" for j in range(1, p + 1) for c in "xy"]
    w = "(1 + " + " + ".join(f"{c}^2" for c in xy) + ")"
    m = 2 * p
    phi = [["0"] * m for _ in range(m)]
    for a in range(0, m, 2):
        phi[a][a + 1], phi[a + 1][a] = "1", "-1"
    return {
        "dimension": m + 1,
        "coordinates": xy + ["v"],
        "gamma": [f"({s})/{w}" for s in turned],
        "metric_frame": [[f"{scale}*({w}*{int(a == b)} - {xy[a]}*{xy[b]} - ({turned[a]})*({turned[b]}))/{w}^2"
                          for b in range(m)] for a in range(m)],
        "phi_frame": phi,
        "domain": [[-1.0, 1.0]] * (m + 1),
        "avoid": [],
    }


# ---------------------------------------------------------------------------
# Curvature of the canonical connection from its coefficient table: the
# reference for curvature.curvature_K
# ---------------------------------------------------------------------------


def curvature_canonical_direct(ev) -> np.ndarray:
    """Curvature of the canonical connection computed directly from its
    coefficient table on the nonholonomic frame:

        K(E_i, E_j) E_k = nabla_i nabla_j E_k - nabla_j nabla_i E_k
                          - nabla_{[E_i, E_j]} E_k.

    Returns K[..., i, j, k, q] over the full frame.
    """
    n, m, last = ev.n, ev.m, ev.n - 1
    coeff = ev.canonical_full

    # coordinate gradients of every nonzero coefficient block
    grad = ev.zeros(n, n, n, n)  # grad[j, k, q, r] = d_r coeff[j, k, q]
    grad[..., :m, :m, :m, :] = np.moveaxis(ev.Gamma1, -4, -2)
    grad[..., last, :m, :m, :] = 2.0 * np.einsum("...bar->...abr", ev.psi1)
    grad[..., last, :m, last, :] = -ev.gam2[..., :, last, :]

    Ecoeff = ev.frame_d(grad)  # [j, k, q, i] = E_i coeff[j, k, q]
    nonholonomy = basis_brackets_frame(ev)  # [i, j, m]

    K = np.einsum("...jkqi->...ijkq", Ecoeff) - np.einsum("...ikqj->...ijkq", Ecoeff)
    K += contract("...jkl,...ilq->...ijkq", coeff, coeff) - contract(
        "...ikl,...jlq->...ijkq", coeff, coeff
    )
    K -= contract("...ijm,...mkq->...ijkq", nonholonomy, coeff)
    return K


# ---------------------------------------------------------------------------
# Per-index loop form of the point sampler: the reference for
# chart.sample_points, which evaluates the avoid fields per block
# ---------------------------------------------------------------------------


def loop_sample_points(manifest: Manifest, count: int, seed: int) -> np.ndarray:
    """One generator per index, one candidate and one avoid test at a time."""
    n = manifest.dimension
    lo = np.array([iv[0] for iv in manifest.domain])
    hi = np.array([iv[1] for iv in manifest.domain])
    points = np.empty((count, n))
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        for _ in range(MAX_REDRAWS):
            p = lo + (hi - lo) * rng.random(n)
            if all(abs(f.value(p)) >= AVOID_EPS for f in manifest.avoid):
                points[i] = p
                break
        else:
            raise ChartError(f"could not sample point {i} clear of 'avoid' loci")
    return points


# ---------------------------------------------------------------------------
# Recursive, unshared jet evaluator with powers by repeated multiplication:
# the reference for expr.field_jets, which evaluates each distinct node
# object of a block once, and for Jet.ipow
# ---------------------------------------------------------------------------


def repeated_ipow(jet: Jet, k: int) -> Jet:
    """Integer power by |k| - 1 repeated multiplications, ((x * x) * x) ...,
    the constant 1 for k = 0: the reference for :meth:`Jet.ipow`, which
    squares once per exponent bit and so agrees bit for bit up to the cube."""
    if k < 0:
        return repeated_ipow(jet, -k).reciprocal()
    if k == 0:
        return Jet.constant(1.0, jet.grad.shape[-1], 1 if jet.hess is None else 2)
    out = jet
    for _ in range(k - 1):
        out = out * jet
    return out


def symmetrised_unary(self: Jet, f0, f1, f2) -> Jet:
    """``Jet._unary`` with the Hessian's second-derivative term written as
    (f2/2) times the symmetrised outer product of the gradient,
    (f2/2) (du du^T + (du du^T)^T): the reference for the term
    f2 du du^T, which rounds alike wherever 2 du du^T does not overflow and
    f2/2 is exact."""
    grad = f1[..., None] * self.grad
    if self.hess is None:
        return Jet(f0, grad, None)
    outer = self.grad[..., :, None] * self.grad[..., None, :]
    return Jet(
        f0,
        grad,
        f1[..., None, None] * self.hess + (f2 * 0.5)[..., None, None] * (outer + np.swapaxes(outer, -1, -2)),
    )


def general_product(self: Jet, other: Jet) -> Jet:
    """``Jet.__mul__`` by the full product rule whatever the operands: the
    reference for the products by a constant, which skip the terms whose
    entries they know."""
    value = self.value * other.value
    grad = self.grad * other.value[..., None] + self.value[..., None] * other.grad
    if self.hess is None:
        return Jet(value, grad, None)
    cross = self.grad[..., :, None] * other.grad[..., None, :]
    return Jet(
        value,
        grad,
        self.hess * other.value[..., None, None]
        + self.value[..., None, None] * other.hess
        + cross
        + np.swapaxes(cross, -1, -2),
    )


# the binary operators by their own dispatch, not the library's table
_BINARY_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def unshared_eval_node(node: Node, points: np.ndarray, n: int) -> Jet:
    """Jet of ``node`` over a block of points, every subtree evaluated anew
    wherever it occurs; a subtree without a Var keeps batch shape ()."""
    if isinstance(node, Const):
        return Jet.constant(node.value, n)
    if isinstance(node, Var):
        return Jet.variable(points[..., node.index], node.index, n)
    if isinstance(node, Unary):
        arg = unshared_eval_node(node.arg, points, n)
        return operator.neg(arg) if node.op == "-" else getattr(arg, node.op)()
    if isinstance(node, Binary):
        left = unshared_eval_node(node.left, points, n)
        return _BINARY_OPERATORS[node.op](left, unshared_eval_node(node.right, points, n))
    if isinstance(node, Pow):
        return repeated_ipow(unshared_eval_node(node.base, points, n), node.exponent)
    raise TypeError(f"unexpected node {node!r}")


def unshared_field_jets(fields: np.ndarray, points, order: int = 2) -> tuple[np.ndarray, ...]:
    """``field_jets`` with each field's tree evaluated on its own, a domain
    error naming the field and its first offending point."""
    p = np.asarray(points, dtype=float)
    batch, n = p.shape[:-1], p.shape[-1]
    parts = ([], [], [])
    for f in fields.flat:
        try:
            jet = unshared_eval_node(f.ast, p, n)
        except ExprDomainError as err:
            raise ExprDomainError(f"{err} in '{f}' at {describe_first(p, err.where)}") from None
        for k, part in enumerate((jet.value, jet.grad, jet.hess)):
            parts[k].append(np.broadcast_to(part, batch + (n,) * k))
    return tuple(
        np.moveaxis(np.array(part), 0, len(batch)).reshape(batch + fields.shape + (n,) * k)
        for k, part in enumerate(parts[: order + 1])
    )


# ---------------------------------------------------------------------------
# Character-by-character scanner: the reference for expr._tokenize, whose
# regex scan must give the same tokens, offsets and errors
# ---------------------------------------------------------------------------


def reference_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad numeric literal '{lit}'", i) from None
            tokens.append(_Token("num", lit, i, val))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Standard-library report text: the reference for checks.report_json, which
# must print the same bytes without the pure-Python indenting encoder
# ---------------------------------------------------------------------------


def _rounded(obj):
    """Normalize floats through 17-significant-digit formatting (a lossless
    round trip for doubles); arrays become nested lists, as ``tolist`` makes
    them."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(format(float(obj), ".17g"))
    if isinstance(obj, (int, np.integer, bool, str)) or obj is None:
        return obj
    raise TypeError(f"unexpected report value {obj!r}")


def reference_report_json(obj) -> str:
    return json.dumps(_rounded(obj), sort_keys=True, indent=2) + "\n"


def reference_tensor_text(payload: dict) -> str:
    """The human ``tensor`` output, each array printed from its nested list."""
    lines = []
    for key, value in payload.items():
        lines.append(f"{key}:")
        lines.append(np.array2string(np.asarray(value.tolist()), precision=10, suppress_small=True)
                     if isinstance(value, np.ndarray) else f"  {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Manifest-grammar text to sympy and back, and the pull-back of a manifest
# through an adapted change of chart: the builders of the symbolic and the
# chart-invariance oracles
# ---------------------------------------------------------------------------


def sympy_reader(coordinates: list[str] | tuple[str, ...]):
    """The coordinate symbols, and a reader of manifest-grammar text into a
    sympy expression over them."""
    import sympy as sp

    coords = sp.symbols(coordinates)
    names = {str(c): c for c in coords}
    names.update(sin=sp.sin, cos=sp.cos, exp=sp.exp, ln=sp.log, sqrt=sp.sqrt)

    def expr(text: str):
        return sp.parse_expr(text.replace("^", "**"), local_dict=names)

    return coords, expr


def pulled_back_manifest(data: dict, frame_maps: tuple[str, ...], shift: str) -> tuple[dict, object]:
    """The manifest ``data`` in the chart x' of the adapted transition
    x^a = F^a(x'), x^n = x'^n + s(x'), with the maps F^a (``frame_maps``)
    and s (``shift``) written in the manifest grammar over the primed
    coordinates, which keep the manifest's names; none may involve the Reeb
    coordinate.

    With A = dF/dx' the horizontal frames satisfy e'_a' = A^a_a' e_a and the
    Reeb field stays, so the pulled-back fields are gamma' = ds + (gamma o
    Phi) A, g' = A^T (g o Phi) A, phi' = A^-1 (phi o Phi) A and avoid' =
    avoid o Phi, printed in the manifest grammar (``^``, ``ln``).  The domain
    box is kept.  Also returns ``transition(p')``, the image point Phi(p')
    and A at one primed point, as floats."""
    import sympy as sp

    coords, expr = sympy_reader(data["coordinates"])
    m, reeb = len(coords) - 1, coords[-1]
    F, s = [expr(t) for t in frame_maps], expr(shift)
    if len(F) != m or any(reeb in f.free_symbols for f in (*F, s)):
        raise ValueError(f"expected {m} frame maps and a shift free of {reeb}")
    image = {**dict(zip(coords, F)), reeb: reeb + s}

    def pulled(text: str):
        return expr(text).xreplace(image)

    A = sp.Matrix(m, m, lambda a, b: sp.diff(F[a], coords[b]))
    gamma = sp.Matrix([[sp.diff(s, c) for c in coords[:m]]]) + sp.Matrix([[pulled(t) for t in data["gamma"]]]) * A
    g = A.T * sp.Matrix(m, m, lambda a, b: pulled(data["metric_frame"][a][b])) * A
    phi = A.inv() * sp.Matrix(m, m, lambda a, b: pulled(data["phi_frame"][a][b])) * A

    printer = grammar_printer()

    def rows(matrix) -> list[list[str]]:
        return [[printer.doprint(matrix[a, b]) for b in range(m)] for a in range(m)]

    out = dict(
        data,
        gamma=[printer.doprint(f) for f in gamma],
        metric_frame=rows(g),
        phi_frame=rows(phi),
        avoid=[printer.doprint(pulled(t)) for t in data.get("avoid", [])],
    )
    numeric = sp.lambdify([coords], ([*F, reeb + s], A.tolist()), "math")

    def transition(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        point, jacobian = numeric(list(map(float, p)))
        return np.array(point, dtype=float), np.array(jacobian, dtype=float)

    return out, transition


def grammar_printer():
    """sympy's expression text in the manifest grammar: ``^`` with an integer
    exponent, ``ln``, ``sqrt`` for half-integer powers, and every float
    printed as its shortest round-trip decimal."""
    from sympy.printing.precedence import PRECEDENCE
    from sympy.printing.str import StrPrinter

    class GrammarPrinter(StrPrinter):
        def _print_Float(self, expr):
            return repr(float(expr))

        def _print_log(self, expr):
            return f"ln({self._print(expr.args[0])})"

        def _print_Pow(self, expr, rational=False):
            base, k = expr.as_base_exp()
            if k.is_Rational and k.q == 2:
                text, k = f"sqrt({self._print(base)})", int(k.p)
            elif k.is_Integer:
                text, k = self.parenthesize(base, PRECEDENCE["Pow"], strict=True), int(k)
            else:
                raise ValueError(f"no manifest grammar for the power {expr}")
            return text if k == 1 else f"{text}^{k}" if k > 0 else f"{text}^({k})"

    return GrammarPrinter()
