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
from .residuals import holds_within, nanmax
from .structure import SingularMetricError, StructureEval, contract, frozen, mat_t, memoised

# relative tolerance of the torsion table's skew-symmetry flag
TORSION_SKEW_TOL = 1e-9

# absolute tolerance of the coordinate-oracle comparison; a coordinate
# metric whose condition number (scaled to unit diagonal) reaches
# LC_ORACLE_TOL / eps cannot be inverted to that accuracy, so the oracle
# refuses it
LC_ORACLE_TOL = 1e-8
_EPS = np.finfo(float).eps
ORACLE_COND_LIMIT = LC_ORACLE_TOL / _EPS


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
    the planner it checks.

    The guard measures the 2-norm condition number of G scaled to unit
    diagonal, as ``np.linalg.cond`` (an SVD) computes it.  A point is
    cleared without the SVD where a norm bound, read from the inverse the
    oracle computes anyway, proves that condition number below the limit
    (see :func:`_cleared`); only the other points go through
    ``np.linalg.cond``.  On well-conditioned metrics that is none of them.
    The decision, the first point named and the condition number printed
    are those of ``np.linalg.cond`` on every point.  ``metric_frame`` is not
    checked to be symmetric, so a symmetric eigenvalue shortcut would
    change what the guard measures.
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
    # a diagonal scaling does not cost the inverse accuracy (exp(352*x) on
    # the metric diagonal is harmless), so G is scaled to unit diagonal first
    diag = np.abs(np.diagonal(G0, axis1=-2, axis2=-1))
    with np.errstate(all="ignore"):
        root = np.sqrt(np.where(diag > 0.0, diag, 1.0))
        unit = 1.0 / root
        scaled = G0 * unit[..., :, None] * unit[..., None, :]
    try:
        Ginv = np.linalg.inv(G0)
    except np.linalg.LinAlgError:
        raise _first_refused(ev, G0, scaled, what) from None
    with np.errstate(all="ignore"):
        # a non-finite point is left to the residuals
        unsure = np.isfinite(scaled).all(axis=(-2, -1))
        unsure &= ~_cleared(scaled, Ginv * root[..., :, None] * root[..., None, :])
    if np.any(unsure):
        cond = np.linalg.cond(scaled[unsure])
        ill = np.zeros(ev.batch, dtype=bool)
        ill[unsure] = cond >= ORACLE_COND_LIMIT
        if np.any(ill):
            raise SingularMetricError(
                f"{what} ill-conditioned at {describe_first(ev.p, ill)}"
                f" (cond {cond[cond >= ORACLE_COND_LIMIT][0]:.3e})"
            )
    # first kind[i, j, m] = d_i G_jm + d_j G_im - d_m G_ij; coeff[i, j, k] is
    # half its product with G^km, one (n*n, n) @ (n, n) matmul per point
    first = np.einsum("...jmi->...ijm", G1) + np.einsum("...imj->...ijm", G1) - G1
    lowered = first.reshape(first.shape[:-3] + (n * n, n)) @ np.swapaxes(Ginv, -1, -2)
    return 0.5 * lowered.reshape(first.shape)


def _first_refused(ev: StructureEval, G0: np.ndarray, scaled: np.ndarray, what: str) -> SingularMetricError:
    """The guard's error for a batch with a singular point: the first point
    that is singular, or finite and ill-conditioned, with its own message,
    so the point named does not depend on the batch size.  Points are
    checked one at a time in sample order, as :meth:`StructureEval.inverse`
    does, and ``np.linalg.cond`` sees only invertible finite ones."""
    first = np.zeros(ev.batch, dtype=bool)
    for at in np.ndindex(ev.batch):
        first[at] = True
        try:
            np.linalg.inv(G0[at])
        except np.linalg.LinAlgError:
            break
        if np.isfinite(scaled[at]).all():
            cond = np.linalg.cond(scaled[at])
            if cond >= ORACLE_COND_LIMIT:
                return SingularMetricError(
                    f"{what} ill-conditioned at {describe_first(ev.p, first)} (cond {cond:.3e})"
                )
        first[at] = False
    return SingularMetricError(f"{what} singular at {describe_first(ev.p, first)}")


def _cleared(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Where the batch of n x n matrices ``A`` is proved to have
    ``np.linalg.cond(A) < ORACLE_COND_LIMIT``, from ``X``, any
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
    n a x / (1 - rho) <= ORACLE_COND_LIMIT / 2.  The factor 2 covers the
    norms' own rounding, the rounding of this test, and the error of the
    SVD's condition number: its singular values are those of A + E with
    ||E||_2 <= p(n) u ||A||_2, so below the limit it exceeds the exact
    kappa_2 by a relative p(n) u kappa_2 < 1e-5 even for p(n) = 1000.
    A NaN or infinity anywhere clears nothing."""
    n = A.shape[-1]
    # the largest column sums of |A|, |X| and |R|, stacked
    a, x, r = (np.ones(n) @ np.abs(np.stack([A, X, A @ X - np.eye(n)]))).max(axis=-1)
    ax = a * x
    rho = r + n * _EPS * (r + ax)
    return (rho <= 0.5) & (n * ax <= (1.0 - rho) * (ORACLE_COND_LIMIT / 2))


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


@memoised
def basis_brackets(ev: StructureEval) -> np.ndarray:
    """Coordinate components of [E_i, E_j] for all basis pairs,
    out[..., i, j, q]: one bracket per evaluation (read-only), shared by the
    torsion and the Nijenhuis tensor."""
    B0, B1 = ev.frame
    return frozen(bracket(B0, B1, B0, B1))


def basis_brackets_frame(ev: StructureEval) -> np.ndarray:
    """Frame components of [E_i, E_j] for all basis pairs: out[..., i, j, k]."""
    return to_frame_components(ev, basis_brackets(ev))


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
