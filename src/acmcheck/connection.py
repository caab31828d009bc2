"""Connections: Levi-Civita (coordinate oracle and adapted form), the
internal connection, N-connections with their torsion and metricity defect,
and covariant derivatives of admissible tensors and of phi.

Coefficient arrays follow the project convention coeff[i, j, k]:
nabla_{E_i} E_j = coeff[i, j, k] E_k over the adapted frame (e_a, xi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import describe_first, field_jets
from .residuals import holds_within, nanmax, per_point
from .structure import (
    SingularMetricError, StructureEval, contract, frozen, inverse_by_point, mat_t, memoised, moveaxis,
)

# relative tolerance of the torsion table's skew-symmetry flag
TORSION_SKEW_TOL = 1e-9

# absolute tolerance of the coordinate-oracle comparison; a coordinate
# metric whose condition number (scaled to unit diagonal) reaches
# LC_ORACLE_TOL / eps cannot be inverted to that accuracy, so the oracle
# refuses it
LC_ORACLE_TOL = 1e-8
_EPS = np.finfo(float).eps
ORACLE_COND_LIMIT = LC_ORACLE_TOL / _EPS
# c of the oracle's rounding estimate c * cond * eps * (1 + max|Gamma|) at a
# point: over ten flat variants with gamma = k*y, k*y^2, k*exp(y) and
# k*sin(3y)*x at 64 samples, the lc_oracle residual is a median 0.09-0.13
# and at most 0.96 of the estimate with c = 1
ORACLE_ROUNDING_C = 1.0


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Connection coefficients at the evaluated points: the assembled array
    ``full[..., i, j, k]`` on the frame (e_a, xi) and its adapted blocks,
    which are views of it (each with the evaluation's batch axes in front).
    The Levi-Civita and canonical tables are the evaluation's read-only
    ones; the table of any other N is new, and the caller's own.

    ``frame[a, b, c]`` is Gamma^a_{bc} (direction b).  ``mixed_an[b, a]``
    carries the horizontal-vertical block with the upper index first: for
    the Levi-Civita form it is C^b_a + psi^b_a (the same in both mixed
    slots), for an N-connection it is N^b_a (direction xi).  ``n_ab`` and
    ``a_nn`` are zero for an N-connection.
    """

    full: np.ndarray

    @property
    def frame(self) -> np.ndarray:
        return moveaxis(self.full[..., :-1, :-1, :-1], -1, -3)

    @property
    def mixed_an(self) -> np.ndarray:
        return mat_t(self.full[..., -1, :-1, :-1])

    @property
    def n_na(self) -> np.ndarray:
        return self.full[..., -1, :-1, -1]

    @property
    def n_ab(self) -> np.ndarray:
        return self.full[..., :-1, :-1, -1]

    @property
    def a_nn(self) -> np.ndarray:
        return self.full[..., -1, -1, :-1]


def lc_adapted(ev: StructureEval) -> ConnectionCoeffs:
    """Levi-Civita coefficients in adapted form: the horizontal block shared
    with the internal connection plus the four mixed blocks."""
    return ConnectionCoeffs(ev.lc_full)


def n_connection(ev: StructureEval, N0: np.ndarray) -> ConnectionCoeffs:
    """The N-connection of the horizontal endomorphism N0[..., b, a] = N^b_a
    (batch shape + (m, m), N xi = 0)."""
    return ConnectionCoeffs(ev.n_full(N0))


def canonical_connection(ev: StructureEval) -> ConnectionCoeffs:
    """The N-connection with N = 2 psi, the unique skew-torsion choice."""
    return ConnectionCoeffs(ev.canonical_full)


# ---------------------------------------------------------------------------
# Coordinate oracle
# ---------------------------------------------------------------------------


def lc_coordinate(ev: StructureEval) -> np.ndarray:
    """Coordinate Christoffel symbols of g = g_ab dx^a dx^b + eta (x) eta.

    Standard formula on the full coordinate metric, read from the input jets
    alone; independent of the adapted-form decomposition, hence the oracle
    for :func:`lc_adapted`.  Returns coeff[i, j, k] with coordinate-frame
    indices, under the guard of :func:`lc_oracle`.
    """
    return _guarded_oracle(ev)[0]


def lc_oracle(ev: StructureEval) -> np.ndarray:
    """The coordinate oracle on the adapted frame: :func:`lc_coordinate`
    re-expressed by :func:`coordinate_to_adapted`, coeff[i, j, k].

    A singular coordinate metric, or one too ill-conditioned for the
    oracle's tolerance, is a :class:`SingularMetricError` naming the first
    point, in sample order, where it is so (a non-finite one is left to the
    residuals).  The guard estimates the oracle's forward rounding error at
    each point as ``ORACLE_ROUNDING_C * cond * eps * (1 + max|Gamma|)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 7), Gamma being these coefficients, and refuses a point where that
    reaches ``LC_ORACLE_TOL``, or where cond alone reaches
    ``ORACLE_COND_LIMIT``.  cond is the 2-norm condition number of G scaled
    to unit diagonal, as ``np.linalg.cond`` (an SVD) computes it.  A point
    is cleared without the SVD where a norm bound, read from the inverse
    the oracle computes anyway, proves cond below the point's limit (see
    :func:`_cleared`); only the other points go through ``np.linalg.cond``.
    On well-conditioned metrics that is none of them.  The decision, the
    first point named and the numbers printed are those of
    ``np.linalg.cond`` on every point.  ``metric_frame`` is not checked to
    be symmetric, so a symmetric eigenvalue shortcut would change what the
    guard measures.
    """
    return _guarded_oracle(ev)[1]


def _guarded_oracle(ev: StructureEval) -> tuple[np.ndarray, np.ndarray]:
    """(coordinate, adapted-frame) coefficients of the coordinate oracle,
    after its guard.

    The products are plain NumPy broadcasting and one batched ``matmul``
    written out here, never :func:`contract`, so the oracle does not share
    the planner it checks."""
    n, m = ev.n, ev.m
    eta0 = ev.zeros(n)
    eta0[..., :m] = ev.gam0
    eta0[..., -1] = 1.0
    eta1 = ev.zeros(n, n)
    eta1[..., :m, :] = ev.gam1

    G0 = ev.zeros(n, n)
    G0[..., :m, :m] = ev.g0
    G0 += eta0[..., :, None] * eta0[..., None, :]
    G1 = ev.zeros(n, n, n)  # G1[i, j, k] = d_k G[i, j]
    G1[..., :m, :m, :] = ev.g1
    G1 += eta1[..., :, None, :] * eta0[..., None, :, None]
    G1 += eta0[..., :, None, None] * eta1[..., None, :, :]

    # a diagonal scaling does not cost the inverse accuracy (exp(352*x) on
    # the metric diagonal is harmless), so G is scaled to unit diagonal first
    diag = np.abs(np.diagonal(G0, axis1=-2, axis2=-1))
    with np.errstate(all="ignore"):
        root = np.sqrt(np.where(diag > 0.0, diag, 1.0))
        unit = 1.0 / root
        scaled = G0 * unit[..., :, None] * unit[..., None, :]
    try:
        Ginv = np.linalg.inv(G0)
        singular = np.zeros(ev.batch, dtype=bool)
    except np.linalg.LinAlgError:
        Ginv, singular = inverse_by_point(G0)
    # first kind[i, j, m] = d_i G_jm + d_j G_im - d_m G_ij; coeff[i, j, k] is
    # half its product with G^km, one (n*n, n) @ (n, n) matmul per point
    first = np.einsum("...jmi->...ijm", G1) + np.einsum("...imj->...ijm", G1) - G1
    lowered = first.reshape(first.shape[:-3] + (n * n, n)) @ np.swapaxes(Ginv, -1, -2)
    coord = 0.5 * lowered.reshape(first.shape)
    adapted = coordinate_to_adapted(ev, coord)

    with np.errstate(all="ignore"):
        # a point whose coefficients are not finite is held to cond alone
        gamma_max = per_point(np.maximum, np.abs(adapted), ev.batch)
        limit = ORACLE_COND_LIMIT / np.fmax(ORACLE_ROUNDING_C * (1.0 + gamma_max), 1.0)
        # a non-finite point is left to the residuals
        unsure = per_point(np.logical_and, np.isfinite(scaled), ev.batch) & ~singular
        unsure &= ~_cleared(scaled, Ginv * root[..., :, None] * root[..., None, :], limit)
    refused = singular.copy()
    cond = ev.zeros()
    if np.any(unsure):
        cond[unsure] = np.linalg.cond(scaled[unsure])
        refused |= unsure & (cond >= limit)
    if np.any(refused):
        raise _refusal(ev, refused, singular, cond, gamma_max)
    return coord, adapted


def _refusal(
    ev: StructureEval, refused: np.ndarray, singular: np.ndarray, cond: np.ndarray, gamma_max: np.ndarray
) -> SingularMetricError:
    """The guard's error for the first refused point in sample order, so
    the point named does not depend on the batch size."""
    at = np.unravel_index(np.argmax(refused), ev.batch)
    where = describe_first(ev.p, refused)
    what = "coordinate metric g + eta (x) eta"
    if singular[at]:
        return SingularMetricError(f"{what} singular at {where}")
    if cond[at] >= ORACLE_COND_LIMIT:
        return SingularMetricError(f"{what} ill-conditioned at {where} (cond {cond[at]:.3e})")
    estimate = ORACLE_ROUNDING_C * cond[at] * _EPS * (1.0 + gamma_max[at])
    return SingularMetricError(
        f"{what} ill-conditioned for the oracle's tolerance at {where} (cond {cond[at]:.3e},"
        f" max |Gamma| {gamma_max[at]:.3e}: rounding estimate {estimate:.3e} >= {LC_ORACLE_TOL:.0e})"
    )


def _cleared(A: np.ndarray, X: np.ndarray, limit=ORACLE_COND_LIMIT) -> np.ndarray:
    """Where the batch of n x n matrices ``A`` is proved to have
    ``np.linalg.cond(A) < limit`` (a limit per matrix, at most
    ``ORACLE_COND_LIMIT``), from ``X``, any
    approximation of its inverse (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., chs. 6 and 14).

    With R = I - A X and ||R||_1 < 1, A^-1 = X (I - R)^-1, so
    ||A^-1||_1 <= ||X||_1 / (1 - ||R||_1), and kappa_2 <= n kappa_1.
    R is computed as fl(A X) - I: each entry is off by at most
    gamma_n (|A||X|) + u |fl(A X) - I|, and each computed 1-norm (a sum of
    n non-negative terms) by a factor 1 + gamma_n, with u = eps / 2 and
    gamma_n = n u / (1 - n u).  So for n >= 2, rho = r + n eps (r + a x),
    where a, x and r are the computed norms of A, X and R, bounds the exact
    ||R||_1.  A point is cleared where rho <= 1/2 and
    n a x / (1 - rho) <= limit / 2.  The factor 2 covers the
    norms' own rounding, the rounding of this test, and the error of the
    SVD's condition number: its singular values are those of A + E with
    ||E||_2 <= p(n) u ||A||_2, so below the limit it exceeds the exact
    kappa_2 by a relative p(n) u kappa_2 < 1e-5 even for p(n) = 1000.
    A NaN or infinity anywhere clears nothing."""
    n = A.shape[-1]
    # the largest column sums of |A|, |X| and |R|, stacked
    sums = np.ones(n) @ np.abs(np.stack([A, X, A @ X - np.eye(n)]))
    a, x, r = per_point(np.maximum, sums, sums.shape[:-1])
    ax = a * x
    rho = r + n * _EPS * (r + ax)
    return (rho <= 0.5) & (n * ax <= (1.0 - rho) * (limit / 2))


def coordinate_to_adapted(ev: StructureEval, coord_coeffs: np.ndarray) -> np.ndarray:
    """Re-express coordinate connection coefficients on the adapted frame:
    nabla_{E_i} E_j = E_i^p (d_p E_j^q + coeff[p, r, q] E_j^r) d_q, split
    into frame components.

    Three batched ``matmul`` products written out here, never
    :func:`contract` nor :func:`to_frame_components`, so the oracle does not
    share the planner it checks.
    """
    n, m = ev.n, ev.m
    E, dE = ev.frame  # E[i, p] = E_i^p, dE[j, q, p] = d_p E[j, q]
    # D[p, j, q]: the coordinate covariant derivative along d_p of E_j
    D = np.moveaxis(dE, -1, -3) + E[..., None, :, :] @ coord_coeffs
    W = E @ D.reshape(D.shape[:-3] + (n, n * n))  # W[i, (j, q)] = E_i^p D[p, j, q]
    out = W.reshape(D.shape)
    # the frame components are the horizontal ones and eta(V) = gamma_a V^a
    # + V^n, one (n*n, m) @ (m, 1) matmul per point
    eta_h = out[..., :m].reshape(D.shape[:-3] + (n * n, m)) @ ev.gam0[..., :, None]
    out[..., -1] += eta_h.reshape(D.shape[:-1])
    return out


# ---------------------------------------------------------------------------
# Brackets of the adapted basis (shared with the Nijenhuis machinery)
# ---------------------------------------------------------------------------


def bracket(V0, V1, W0, W1) -> np.ndarray:
    """Pairwise brackets of two families of vector fields,
    out[..., i, j, q] = [V_i, W_j]^q = V_i^p d_p W_j^q - W_j^p d_p V_i^q,
    from components V0[..., i, q] and gradients V1[..., i, q, p].

    A family with itself (the same arrays) takes one contraction: its
    second term is the first read with i and j swapped, the same matmul."""
    first = contract("...ip,...jqp->...ijq", V0, W1)
    if V0 is W0 and V1 is W1:
        return first - np.swapaxes(first, -3, -2)
    return first - contract("...jp,...iqp->...ijq", W0, V1)


def to_frame_components(ev: StructureEval, V: np.ndarray) -> np.ndarray:
    """Split coordinate vectors (last axis) into (horizontal components, eta(V))."""
    out = V.copy()
    out[..., -1] = contract("...ija,...a->...ij", V[..., : ev.m], ev.gam0) + V[..., -1]
    return out


@memoised
def basis_brackets_frame(ev: StructureEval) -> np.ndarray:
    """Frame components of [E_i, E_j] for all basis pairs, out[..., i, j, k]:
    one coordinate bracket per evaluation, split once (read-only), the form
    in which the torsion and the Nijenhuis tensor read it."""
    B0, B1 = ev.frame
    return frozen(to_frame_components(ev, bracket(B0, B1, B0, B1)))


# ---------------------------------------------------------------------------
# Torsion and metricity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionResult:
    """Torsion at the evaluated points; the flags and residuals have the
    evaluation's batch shape."""

    components: np.ndarray  # S~[i, j, k] = g(S(E_i, E_j), E_k), from the component table
    is_skew: np.ndarray
    skew_residual: np.ndarray
    direct_residual: np.ndarray  # table vs nabla^N_X Y - nabla^N_Y X - [X, Y], lowered


def torsion(ev: StructureEval, N0: np.ndarray) -> TorsionResult:
    m, last = ev.m, ev.n - 1
    GN = mat_t(N0) @ ev.g0  # GN[a, b] = g(N e_a, e_b)

    table = ev.zeros(ev.n, ev.n, ev.n)
    table[..., :m, :m, last] = 2.0 * ev.omega0
    table[..., :m, last, :m] = -GN
    table[..., last, :m, :m] = GN

    # direct definition from coefficients and honest coordinate brackets
    coeff = ev.n_full(N0)
    S_upper = coeff - np.swapaxes(coeff, -3, -2) - basis_brackets_frame(ev)
    direct = contract("...ijl,...lk->...ijk", S_upper, ev.g_full)
    direct_residual = ev.max_abs(direct, table)

    skew_residual = nanmax(
        ev.max_abs(table + np.swapaxes(table, -3, -2)),
        ev.max_abs(table + np.swapaxes(table, -2, -1)),
        ev.max_abs(table + np.swapaxes(table, -3, -1)),
    )
    return TorsionResult(
        components=table,
        is_skew=holds_within(skew_residual, ev.max_abs(table), TORSION_SKEW_TOL),
        skew_residual=skew_residual,
        direct_residual=direct_residual,
    )


def metricity_defect(ev: StructureEval, N0: np.ndarray) -> np.ndarray:
    """Full covariant derivative of the metric under the N-connection:
    out[..., i, j, k] = (nabla^N_{E_i} g)(E_j, E_k)."""
    n, m = ev.n, ev.m
    coeff = ev.n_full(N0)
    dG = ev.zeros(n, n, n)  # dG[j, k, i] = E_i g~_jk
    dG[..., :m, :m, :] = ev.g_frame_d
    out = np.einsum("...jki->...ijk", dG)
    out -= contract("...ijl,...lk->...ijk", coeff, ev.g_full)
    out -= contract("...ikl,...jl->...ijk", coeff, ev.g_full)
    return out


def n_connection_formula_residual(ev: StructureEval, N0: np.ndarray) -> np.ndarray:
    """Consistency of the N-connection coefficient table with its defining
    expression in terms of the Levi-Civita connection, evaluated on basis
    pairs: nabla^N_X Y = nabla~_X Y + (nabla~_X eta)(Y) xi - eta(Y) nabla~_X xi
    - eta(X) (nabla~_xi eta)(Y) xi - eta(X) (C + psi - N) Y."""
    m, last = ev.m, ev.n - 1
    lc = ev.lc_full

    formula = lc.copy()
    # + (nabla~_X eta)(E_j) xi, with (nabla~_{E_i} eta)(E_j) = -lc[i, j, last]
    formula[..., last] -= lc[..., last]
    # - eta(E_j) nabla~_{E_i} xi
    formula[..., last, :] -= lc[..., last, :]
    # - eta(E_i) (nabla~_xi eta)(E_j) xi, with (nabla~_xi eta)(E_j) = -lc[last, j, last]
    formula[..., last, :, last] += lc[..., last, :, last]
    # - eta(E_i) (C + psi - N) E_j
    formula[..., last, :m, :m] -= mat_t(ev.Cmix0 + ev.psi0 - N0)

    return ev.max_abs(formula, ev.n_full(N0))


# ---------------------------------------------------------------------------
# Covariant derivatives
# ---------------------------------------------------------------------------

# index valence tags of admissible tensors, which carry frame indices only
FRAME_LOWER = "frame_lower"
FRAME_UPPER = "frame_upper"


def check_valence(valence: tuple[str, ...], rank: int) -> None:
    """An admissible tensor's valence: one FRAME_LOWER or FRAME_UPPER tag per
    component axis, else ``ValueError``."""
    if any(v not in (FRAME_LOWER, FRAME_UPPER) for v in valence):
        raise ValueError("only admissible (frame-index) tensors are handled")
    if len(valence) != rank:
        raise ValueError(f"valence length {len(valence)} does not match component rank {rank}")


def _cov_deriv_from_data(
    ev: StructureEval, T0: np.ndarray, T1: np.ndarray, valence: tuple[str, ...]
) -> np.ndarray:
    """Internal covariant derivative of an admissible tensor from its values
    and coordinate gradients: out[..., c, ...] = (nabla_{e_c} t)_{...}."""
    nb = len(ev.batch)
    eT = ev.frame_d(T1)[..., : ev.m]  # [..., c]
    out = moveaxis(eT, -1, nb).copy()
    for slot, v in enumerate(valence):
        moved = moveaxis(T0, nb + slot, -1)  # [rest..., d], rest in original order
        rest = moved.shape[nb:-1]
        flat = moved.reshape(ev.batch + (-1, ev.m))
        if v == FRAME_UPPER:
            corr = contract("...acd,...rd->...car", ev.Gamma0, flat)  # +Gamma^a_{cd} t^{..d..}
        else:
            corr = -contract("...dca,...rd->...car", ev.Gamma0, flat)  # -Gamma^d_{ca} t_{..d..}
        corr = corr.reshape(ev.batch + (ev.m, ev.m) + rest)
        out += moveaxis(corr, nb + 1, nb + slot + 1)
    return out


def internal_cov_deriv(ev: StructureEval, fields: np.ndarray, valence: tuple[str, ...]) -> np.ndarray:
    """nabla of an admissible tensor field given as ScalarField components:
    ``fields`` is an object array in frame indices of the given valences,
    and out[..., c, ...] = (nabla_{e_c} t)_{...} gains a frame-lower
    direction index after the batch axes."""
    check_valence(valence, np.ndim(fields))
    T0, T1 = field_jets(fields, ev.p, order=1)
    return _cov_deriv_from_data(ev, T0, T1, tuple(valence))


@memoised
def nabla_omega(ev: StructureEval) -> np.ndarray:
    """Internal covariant derivative of omega: out[..., c, a, b] = nabla_c omega_ab."""
    return _cov_deriv_from_data(ev, ev.omega0, ev.omega1, (FRAME_LOWER, FRAME_LOWER))


def nabla_psi(ev: StructureEval) -> np.ndarray:
    """Internal covariant derivative of psi: out[..., c, b, a] = nabla_c psi^b_a."""
    return _cov_deriv_from_data(ev, ev.psi0, ev.psi1, (FRAME_UPPER, FRAME_LOWER))


@memoised
def cov_phi(ev: StructureEval, which: str) -> np.ndarray:
    """Covariant derivative of phi (extended by phi xi = 0) under the chosen
    connection: out[..., i, b, a] = (nabla_{E_i} phi)^b_a over the full frame.

    ``which`` is 'levi_civita' or 'canonical'; each is built once per
    evaluation and kept."""
    if which == "levi_civita":
        coeff = ev.lc_full
    elif which == "canonical":
        coeff = ev.canonical_full
    else:
        raise ValueError(f"unknown connection '{which}'")
    return _cov_phi(ev, coeff)


def _cov_phi(ev: StructureEval, coeff: np.ndarray) -> np.ndarray:
    """nabla phi under the connection of the coefficient table ``coeff``,
    not kept.  Every connection reads the evaluation's one ``phi_frame_d``,
    which is read-only: the sum starts from a new array, not from a view
    of it."""
    m, phi = ev.m, ev.phi_full
    out = contract("...icb,...ca->...iba", coeff, phi)
    out[..., :m, :m] += np.einsum("...bai->...iba", ev.phi_frame_d)  # E_i phi^b_a
    out -= contract("...iac,...bc->...iba", coeff, phi)
    return out
