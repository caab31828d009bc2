"""Connections: Levi-Civita (coordinate oracle and adapted form), the
internal connection, N-connections with their torsion and metricity defect,
and covariant derivatives of admissible tensors and of phi.

Coefficient arrays follow the project convention coeff[i, j, k]:
nabla_{E_i} E_j = coeff[i, j, k] E_k over the adapted frame (e_a, xi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import FRAME_LOWER, FRAME_UPPER, check_valence
from .expr import describe_first, field_jets
from .residuals import nanmax
from .structure import SingularMetricError, StructureEval, contract, mat_t, memoised

# relative tolerance of the torsion table's skew-symmetry flag
TORSION_SKEW_TOL = 1e-9

# absolute tolerance of the coordinate-oracle comparison; a coordinate
# metric whose condition number (scaled to unit diagonal) reaches
# LC_ORACLE_TOL / eps cannot be inverted to that accuracy, so the oracle
# refuses it
LC_ORACLE_TOL = 1e-8
ORACLE_COND_LIMIT = LC_ORACLE_TOL / np.finfo(float).eps


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Connection coefficients at the evaluated points: the assembled array
    ``full[..., i, j, k]`` on the frame (e_a, xi) and its adapted blocks,
    which are read-only views of it (each with the evaluation's batch axes
    in front).

    ``frame[a, b, c]`` is Gamma^a_{bc} (direction b).  ``mixed_an[b, a]``
    carries the horizontal-vertical block with the upper index first: for
    the Levi-Civita form it is C^b_a + psi^b_a (the same in both mixed
    slots), for an N-connection it is N^b_a (direction xi).  ``n_ab`` and
    ``a_nn`` are zero for an N-connection.
    """

    full: np.ndarray

    def __post_init__(self):
        full = self.full.view()
        full.flags.writeable = False
        object.__setattr__(self, "full", full)

    @property
    def frame(self) -> np.ndarray:
        return np.moveaxis(self.full[..., :-1, :-1, :-1], -1, -3)

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
    indices.  A singular coordinate metric, or one too ill-conditioned for
    the oracle's tolerance, is a :class:`SingularMetricError` naming the
    first point where it is so (a non-finite one is left to the residuals).

    The products are plain NumPy broadcasting and one batched ``matmul``
    written out here, never :func:`contract`, so the oracle does not share
    the planner it checks.  The condition number is ``np.linalg.cond``, an
    SVD of each point's G: ``metric_frame`` is not checked to be symmetric,
    so a symmetric eigenvalue shortcut would change what the guard measures
    and the condition number its error names.
    """
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

    what = "coordinate metric g + eta (x) eta"
    Ginv = ev.inverse(G0, what)
    # a diagonal scaling does not cost the inverse accuracy (exp(352*x) on
    # the metric diagonal is harmless), so G is scaled to unit diagonal first
    diag = np.abs(np.diagonal(G0, axis1=-2, axis2=-1))
    with np.errstate(all="ignore"):
        unit = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        scaled = G0 * unit[..., :, None] * unit[..., None, :]
    finite = np.isfinite(scaled).all(axis=(-2, -1))
    cond = np.linalg.cond(np.where(finite[..., None, None], scaled, np.eye(n)))
    ill = cond >= ORACLE_COND_LIMIT
    if np.any(ill):
        raise SingularMetricError(
            f"{what} ill-conditioned at {describe_first(ev.p, ill)} (cond {cond[ill][0]:.3e})"
        )
    # first kind[i, j, m] = d_i G_jm + d_j G_im - d_m G_ij; coeff[i, j, k] is
    # half its product with G^km, one (n*n, n) @ (n, n) matmul per point
    first = np.einsum("...jmi->...ijm", G1) + np.einsum("...imj->...ijm", G1) - G1
    lowered = first.reshape(first.shape[:-3] + (n * n, n)) @ np.swapaxes(Ginv, -1, -2)
    return 0.5 * lowered.reshape(first.shape)


def coordinate_to_adapted(ev: StructureEval, coord_coeffs: np.ndarray) -> np.ndarray:
    """Re-express coordinate connection coefficients on the adapted frame:
    nabla_{E_i} E_j = E_i^p (d_p E_j^q + coeff[p, r, q] E_j^r) d_q, split
    into frame components.

    Two batched ``matmul`` products written out here, never
    :func:`contract`, so the oracle does not share the planner it checks.
    """
    n = ev.n
    E, dE = ev.frame  # E[i, p] = E_i^p, dE[j, q, p] = d_p E[j, q]
    # D[p, j, q]: the coordinate covariant derivative along d_p of E_j
    D = np.moveaxis(dE, -1, -3) + E[..., None, :, :] @ coord_coeffs
    W = E @ D.reshape(D.shape[:-3] + (n, n * n))  # W[i, (j, q)] = E_i^p D[p, j, q]
    return to_frame_components(ev, W.reshape(D.shape))


# ---------------------------------------------------------------------------
# Brackets of the adapted basis (shared with the Nijenhuis machinery)
# ---------------------------------------------------------------------------


def bracket(V0, V1, W0, W1) -> np.ndarray:
    """Pairwise brackets of two families of vector fields,
    out[..., i, j, q] = [V_i, W_j]^q = V_i^p d_p W_j^q - W_j^p d_p V_i^q,
    from components V0[..., i, q] and gradients V1[..., i, q, p]."""
    return contract("...ip,...jqp->...ijq", V0, W1) - contract("...jp,...iqp->...ijq", W0, V1)


def to_frame_components(ev: StructureEval, V: np.ndarray) -> np.ndarray:
    """Split coordinate vectors (last axis) into (horizontal components, eta(V))."""
    out = V.copy()
    eta_h = contract("...a,...a->...", V[..., : ev.m], ev.lift(ev.gam0, V.ndim))
    out[..., -1] = eta_h + V[..., -1]
    return out


def basis_brackets_frame(ev: StructureEval) -> np.ndarray:
    """Frame components of [E_i, E_j] for all basis pairs: out[..., i, j, k]."""
    B0, B1 = ev.frame
    return to_frame_components(ev, bracket(B0, B1, B0, B1))


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
    direct_residual = ev.max_abs(direct - table)

    skew_residual = nanmax(
        ev.max_abs(table + np.swapaxes(table, -3, -2)),
        ev.max_abs(table + np.swapaxes(table, -2, -1)),
        ev.max_abs(table + np.swapaxes(table, -3, -1)),
    )
    scale = 1.0 + ev.max_abs(table)
    return TorsionResult(
        components=table,
        is_skew=skew_residual < TORSION_SKEW_TOL * scale,
        skew_residual=skew_residual,
        direct_residual=direct_residual,
    )


def metricity_defect(ev: StructureEval, N0: np.ndarray) -> np.ndarray:
    """Full covariant derivative of the metric under the N-connection:
    out[..., i, j, k] = (nabla^N_{E_i} g)(E_j, E_k)."""
    n, m = ev.n, ev.m
    coeff = ev.n_full(N0)
    dG = ev.zeros(n, n, n)  # dG[j, k, i] = E_i g~_jk
    dG[..., :m, :m, :] = ev.frame_d(ev.g1)
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

    return ev.max_abs(formula - ev.n_full(N0))


# ---------------------------------------------------------------------------
# Covariant derivatives
# ---------------------------------------------------------------------------


def _cov_deriv_from_data(
    ev: StructureEval, T0: np.ndarray, T1: np.ndarray, valence: tuple[str, ...]
) -> np.ndarray:
    """Internal covariant derivative of an admissible tensor from its values
    and coordinate gradients: out[..., c, ...] = (nabla_{e_c} t)_{...}."""
    nb = len(ev.batch)
    eT = ev.frame_d(T1)[..., : ev.m]  # [..., c]
    out = np.moveaxis(eT, -1, nb).copy()
    for slot, v in enumerate(valence):
        moved = np.moveaxis(T0, nb + slot, -1)  # [rest..., d], rest in original order
        rest = moved.shape[nb:-1]
        flat = moved.reshape(ev.batch + (-1, ev.m))
        if v == FRAME_UPPER:
            corr = contract("...acd,...rd->...car", ev.Gamma0, flat)  # +Gamma^a_{cd} t^{..d..}
        else:
            corr = -contract("...dca,...rd->...car", ev.Gamma0, flat)  # -Gamma^d_{ca} t_{..d..}
        corr = corr.reshape(ev.batch + (ev.m, ev.m) + rest)
        out += np.moveaxis(corr, nb + 1, nb + slot + 1)
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
    evaluation."""
    if which == "levi_civita":
        coeff = ev.lc_full
    elif which == "canonical":
        coeff = ev.canonical_full
    else:
        raise ValueError(f"unknown connection '{which}'")
    ephi = ev.phi_frame_d()  # [b, a, i]
    phi = ev.phi_full
    out = np.einsum("...bai->...iba", ephi)
    out += contract("...icb,...ca->...iba", coeff, phi)
    out -= contract("...iac,...bc->...iba", coeff, phi)
    return out
