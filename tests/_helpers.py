"""Shared test oracles and builders (independent of the library's own
differentiation paths wherever they serve as oracles)."""

from __future__ import annotations

import numpy as np

from acmcheck.chart import AVOID_EPS, MAX_REDRAWS, AdaptedChart, ChartError
from acmcheck.expr import (
    Add,
    Call,
    Const,
    Div,
    ExprDomainError,
    Jet,
    Mul,
    Neg,
    Node,
    Pow,
    ScalarField,
    Sub,
    Var,
    describe_first,
    parse,
)
from acmcheck.structure import AdaptedStructure

COORDS = ("x", "y", "z", "u", "v")


def trace_psi_sq(ev) -> np.ndarray:
    """tr(psi^2) at the evaluated points."""
    return np.einsum("...ab,...ba->...", ev.psi0, ev.psi0)


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
