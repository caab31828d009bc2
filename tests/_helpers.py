"""Shared test oracles and builders (independent of the library's own
differentiation paths wherever they serve as oracles)."""

from __future__ import annotations

import json

import numpy as np

from acmcheck import classification_report, einstein_reports, sampled_evaluation
from acmcheck.chart import AVOID_EPS, MAX_REDRAWS, AdaptedChart, ChartError, adapted_frame, gamma_jets
from acmcheck.connection import basis_brackets_frame, to_frame_components
from acmcheck.expr import (
    Add,
    Call,
    Const,
    Div,
    ExprDomainError,
    ExprSyntaxError,
    Jet,
    Mul,
    Neg,
    Node,
    Pow,
    ScalarField,
    Sub,
    Var,
    _Token,
    describe_first,
    field_jets,
    parse,
)
from acmcheck.structure import AdaptedStructure, contract

COORDS = ("x", "y", "z", "u", "v")


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


def frame_bracket(chart: AdaptedChart, a: int, b: int, p: np.ndarray) -> np.ndarray:
    """Coordinate components of [e_a, e_b], computed from jets of gamma.

    [V, W]^i = V^j d_j W^i - W^j d_j V^i with V = e_a, W = e_b.  Serves as
    the independent oracle for :func:`nonholonomy`.
    """
    E0, E1 = adapted_frame(*gamma_jets(chart, p, order=1))
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


def perturbed_flat(base: AdaptedStructure, rng: np.random.Generator) -> AdaptedStructure:
    """Random low-degree polynomial perturbations of phi and g; the
    projection/split identities are representation-level, so they must
    survive these."""
    coords = base.chart.coords
    monomials = ["x", "y", "z", "u", "v", "x*y", "y*z", "x^2", "v*u", "z^2"]

    def bump(f: ScalarField) -> ScalarField:
        term = parse(monomials[rng.integers(0, len(monomials))], coords)
        eps = float(rng.uniform(-0.02, 0.02))
        return ScalarField(Add(f.ast, Mul(Const(eps), term.ast)), coords)

    phi = np.empty_like(base.phi)
    for idx in np.ndindex(phi.shape):
        phi[idx] = bump(base.phi[idx])
    g = base.g.copy()
    for a in range(base.chart.m):
        for b in range(a, base.chart.m):
            g[a, b] = g[b, a] = bump(base.g[a, b])
    return AdaptedStructure(chart=base.chart, g=g, phi=phi)


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


def loop_nijenhuis_phi(ev) -> np.ndarray:
    """N_phi(E_i, E_j) in frame components, four brackets per basis pair."""
    n, m = ev.n, ev.m
    B0, B1 = ev.frame
    P0 = np.zeros((n, n))
    P1 = np.zeros((n, n, n))
    P0[:m, :m] = ev.phi0.T
    P0[:m, -1] = -ev.phi0.T @ ev.gam0
    P1[:m, :m, :] = np.einsum("bij->ibj", ev.phi1)
    P1[:m, -1, :] = -np.einsum("bij,b->ij", ev.phi1, ev.gam0) - np.einsum(
        "bi,bj->ij", ev.phi0, ev.gam1
    )
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
# Unplanned np.einsum form of the coordinate oracle: the reference for the
# broadcasting and matmul products of connection.lc_coordinate and
# connection.coordinate_to_adapted (without the conditioning guard)
# ---------------------------------------------------------------------------


def einsum_lc_coordinate(ev) -> np.ndarray:
    """Coordinate Christoffel symbols coeff[i, j, k] of g + eta (x) eta."""
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
    return 0.5 * np.einsum(
        "...km,...ijm->...ijk",
        np.linalg.inv(G0),
        np.einsum("...jmi->...ijm", G1) + np.einsum("...imj->...ijm", G1) - G1,
    )


def einsum_coordinate_to_adapted(ev, coord_coeffs: np.ndarray) -> np.ndarray:
    """Coordinate connection coefficients on the adapted frame."""
    E, dE = ev.frame
    W = np.einsum("...ip,...jqp->...ijq", E, dE) + np.einsum(
        "...ip,...jr,...prq->...ijq", E, E, coord_coeffs
    )
    return to_frame_components(ev, W)


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
# AdaptedChart.sample_points, which evaluates the avoid fields per block
# ---------------------------------------------------------------------------


def loop_sample_points(chart: AdaptedChart, count: int, seed: int) -> np.ndarray:
    """One generator per index, one candidate and one avoid test at a time."""
    lo = np.array([iv[0] for iv in chart.domain])
    hi = np.array([iv[1] for iv in chart.domain])
    points = np.empty((count, chart.n))
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        for _ in range(MAX_REDRAWS):
            p = lo + (hi - lo) * rng.random(chart.n)
            if all(abs(f.value(p)) >= AVOID_EPS for f in chart.avoid):
                points[i] = p
                break
        else:
            raise ChartError(f"could not sample point {i} clear of 'avoid' loci")
    return points


# ---------------------------------------------------------------------------
# Recursive, unshared jet evaluator: the reference for expr.field_jets, which
# evaluates each distinct node object of a block once
# ---------------------------------------------------------------------------


def unshared_eval_node(node: Node, points: np.ndarray, n: int) -> Jet:
    """Jet of ``node`` over a block of points, every subtree evaluated anew
    wherever it occurs; a subtree without a Var keeps batch shape ()."""
    if isinstance(node, Const):
        return Jet.constant(node.value, n)
    if isinstance(node, Var):
        return Jet.variable(points[..., node.index], node.index, n)
    if isinstance(node, Neg):
        return -unshared_eval_node(node.arg, points, n)
    if isinstance(node, Add):
        return unshared_eval_node(node.left, points, n) + unshared_eval_node(node.right, points, n)
    if isinstance(node, Sub):
        return unshared_eval_node(node.left, points, n) - unshared_eval_node(node.right, points, n)
    if isinstance(node, Mul):
        return unshared_eval_node(node.left, points, n) * unshared_eval_node(node.right, points, n)
    if isinstance(node, Div):
        return unshared_eval_node(node.left, points, n) / unshared_eval_node(node.right, points, n)
    if isinstance(node, Pow):
        return unshared_eval_node(node.base, points, n).ipow(node.exponent)
    if isinstance(node, Call):
        return getattr(unshared_eval_node(node.arg, points, n), node.func)()
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
