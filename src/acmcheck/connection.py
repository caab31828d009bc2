"""Connections: Levi-Civita (coordinate oracle and adapted form), the
internal connection, N-connections with their torsion and metricity defect,
and covariant derivatives of admissible tensors and of phi.

Coefficient arrays follow the project convention coeff[i, j, k]:
nabla_{E_i} E_j = coeff[i, j, k] E_k over the adapted frame (e_a, xi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import FRAME_LOWER, FRAME_UPPER, TensorGrid
from .expr import describe_first, field_jets
from .residuals import nanmax
from .structure import SingularMetricError, StructureEval, contract, mat_t, memoised

DEFAULT_TOL = 1e-9

# absolute tolerance of the coordinate-oracle comparison; a coordinate
# metric whose condition number (scaled to unit diagonal) reaches
# LC_ORACLE_TOL / eps cannot be inverted to that accuracy, so the oracle
# refuses it
LC_ORACLE_TOL = 1e-8
ORACLE_COND_LIMIT = LC_ORACLE_TOL / np.finfo(float).eps


@dataclass(frozen=True)
class Endomorphism:
    """A horizontal endomorphism N (N xi = 0, N(D) in D by representation).

    The value at a point is psi_multiple * psi + constant + fields, where
    ``fields`` is an object array of ScalarFields with fields[b, a] = N^b_a.
    The canonical choice N = 2 psi is expressed through ``psi_multiple`` so
    there is a single code path for all N-connections.
    """

    fields: np.ndarray | None = None
    psi_multiple: float = 0.0
    offset: np.ndarray | None = None

    @staticmethod
    def canonical() -> "Endomorphism":
        """The unique skew-torsion choice N = 2 psi."""
        return Endomorphism(psi_multiple=2.0)

    @staticmethod
    def zero() -> "Endomorphism":
        return Endomorphism()

    @staticmethod
    def constant(matrix: np.ndarray, psi_multiple: float = 0.0) -> "Endomorphism":
        return Endomorphism(psi_multiple=psi_multiple, offset=np.asarray(matrix, dtype=float))

    def value_at(self, ev: StructureEval) -> np.ndarray:
        out = ev.zeros(ev.m, ev.m)
        if self.psi_multiple:
            out += self.psi_multiple * ev.psi0
        if self.offset is not None:
            out += self.offset
        if self.fields is not None:
            out += field_jets(self.fields, ev.p, order=0)[0]
        return out


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
    ``a_nn`` exist for the Levi-Civita form only.
    """

    which: str
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
    def n_ab(self) -> np.ndarray | None:
        return self.full[..., :-1, :-1, -1] if self.which == "levi_civita" else None

    @property
    def a_nn(self) -> np.ndarray | None:
        return self.full[..., -1, -1, :-1] if self.which == "levi_civita" else None


def lc_adapted(ev: StructureEval) -> ConnectionCoeffs:
    """Levi-Civita coefficients in adapted form: the horizontal block shared
    with the internal connection plus the four mixed blocks."""
    return ConnectionCoeffs("levi_civita", ev.lc_full)


def n_connection(ev: StructureEval, N: Endomorphism) -> ConnectionCoeffs:
    return ConnectionCoeffs("n_connection", ev.n_full(N.value_at(ev)))


def canonical_connection(ev: StructureEval) -> ConnectionCoeffs:
    """The N-connection with N = 2 psi, the unique skew-torsion choice."""
    return n_connection(ev, Endomorphism.canonical())


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
    G1 = ev.zeros(n, n, n)
    G1[..., :m, :m, :] = ev.g1
    G1 += np.einsum("...ik,...j->...ijk", eta1, eta0) + np.einsum("...i,...jk->...ijk", eta0, eta1)

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
    return 0.5 * np.einsum(
        "...km,...ijm->...ijk",
        Ginv,
        np.einsum("...jmi->...ijm", G1) + np.einsum("...imj->...ijm", G1) - G1,
    )


def coordinate_to_adapted(ev: StructureEval, coord_coeffs: np.ndarray) -> np.ndarray:
    """Re-express coordinate connection coefficients on the adapted frame."""
    E, dE = ev.frame  # dE[j, q, p] = d_p E[j, q]
    W = np.einsum("...ip,...jqp->...ijq", E, dE) + np.einsum(
        "...ip,...jr,...prq->...ijq", E, E, coord_coeffs
    )
    return to_frame_components(ev, W)


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


def torsion(ev: StructureEval, N: Endomorphism, tol: float = DEFAULT_TOL) -> TorsionResult:
    m, last = ev.m, ev.n - 1
    N0 = N.value_at(ev)
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
        is_skew=skew_residual < tol * scale,
        skew_residual=skew_residual,
        direct_residual=direct_residual,
    )


def metricity_defect(ev: StructureEval, N: Endomorphism) -> np.ndarray:
    """Full covariant derivative of the metric under the N-connection:
    out[..., i, j, k] = (nabla^N_{E_i} g)(E_j, E_k)."""
    n, m = ev.n, ev.m
    coeff = ev.n_full(N.value_at(ev))
    dG = ev.zeros(n, n, n)  # dG[j, k, i] = E_i g~_jk
    dG[..., :m, :m, :] = ev.frame_d(ev.g1)
    out = np.einsum("...jki->...ijk", dG)
    out -= contract("...ijl,...lk->...ijk", coeff, ev.g_full)
    out -= contract("...ikl,...jl->...ijk", coeff, ev.g_full)
    return out


def n_connection_formula_residual(ev: StructureEval, N: Endomorphism) -> np.ndarray:
    """Consistency of the N-connection coefficient table with its defining
    expression in terms of the Levi-Civita connection, evaluated on basis
    pairs: nabla^N_X Y = nabla~_X Y + (nabla~_X eta)(Y) xi - eta(Y) nabla~_X xi
    - eta(X) (nabla~_xi eta)(Y) xi - eta(X) (C + psi - N) Y."""
    N0 = N.value_at(ev)
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


def internal_cov_deriv(
    ev: StructureEval, t: TensorGrid | np.ndarray, valence: tuple[str, ...] | None = None
) -> TensorGrid | np.ndarray:
    """nabla of an admissible tensor field given as ScalarField components.

    ``t`` is an object array (or a TensorGrid of one) in frame indices; the
    result gains a leading frame-lower direction index.  At a single point
    (batch shape ()) it is a TensorGrid; over a block of points it is the
    plain array out[..., c, ...] with the batch axes in front, since a
    TensorGrid holds one point."""
    if isinstance(t, TensorGrid):
        fields, valence = t.components, t.valence
    else:
        fields = t
        if valence is None:
            raise ValueError("valence required when passing a bare component array")
    T0, T1 = field_jets(fields, ev.p, order=1)
    out = _cov_deriv_from_data(ev, T0, T1, tuple(valence))
    if ev.batch:
        return out
    return TensorGrid(out, (FRAME_LOWER,) + tuple(valence))


@memoised
def nabla_omega(ev: StructureEval) -> np.ndarray:
    """Internal covariant derivative of omega: out[..., c, a, b] = nabla_c omega_ab."""
    return _cov_deriv_from_data(ev, ev.omega0, ev.omega1, (FRAME_LOWER, FRAME_LOWER))


def nabla_psi(ev: StructureEval) -> np.ndarray:
    """Internal covariant derivative of psi: out[..., c, b, a] = nabla_c psi^b_a."""
    return _cov_deriv_from_data(ev, ev.psi0, ev.psi1, (FRAME_UPPER, FRAME_LOWER))


def cov_phi(ev: StructureEval, which: str) -> np.ndarray:
    """Covariant derivative of phi (extended by phi xi = 0) under the chosen
    connection: out[..., i, b, a] = (nabla_{E_i} phi)^b_a over the full frame.

    ``which`` is 'levi_civita' or 'canonical'."""
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
