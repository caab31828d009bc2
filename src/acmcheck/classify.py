"""Nijenhuis-type tensors and the classification ladder.

All brackets are computed honestly in coordinates from jets and read in
frame components (horizontal slots, then the Reeb slot), where phi acts as
phi^b_a with phi(xi) = 0.  Verdicts follow the residual rule: a criterion
holds when its max residual over the samples stays below tol * (1 + max
magnitude of the tensors the criterion compares).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import _cov_phi, basis_brackets_frame, bracket, cov_phi, to_frame_components
from .residuals import holds_within, nanmax, top, worst
from .structure import StructureEval, contract, d_fundamental_form, frozen, mat_t, memoised

CRITERIA = (
    "contact_metric",
    "normal",
    "almost_normal",
    "almost_contact_kahler",
    "aqs",
    "quasi_sasakian",
    "d_eta_xi_zero",
    "d_Omega_zero",
)

# the criteria that are not conjunctions of others
BASE_CRITERIA = ("contact_metric", "normal", "almost_normal", "d_eta_xi_zero", "d_Omega_zero")

QS_CONDITIONS = ("d_eta_phi_invariant", "phi_psi_commute", "A_g_symmetric")


class InternalConsistencyError(Exception):
    """The three equivalent quasi-Sasakian conditions disagreed."""


@dataclass(frozen=True)
class NijenhuisBundle:
    """The three Nijenhuis-type tensors on basis pairs, and the two d(eta)
    grids that set them apart: grid[..., i, j, k] is the k-th frame
    component of T(E_i, E_j), index n-1 being the Reeb slot, and
    d_eta[..., i, j] is a scalar on the pair.  N1 = N_phi + 2 d(eta) xi and
    N~ = N_phi + 2 d(eta)(phi ., phi .) xi differ from N_phi only in the
    Reeb slot.  :func:`nijenhuis_tensors` builds every grid once per
    evaluation, read-only, since it serves every reader."""

    n_phi: np.ndarray
    n1: np.ndarray
    n_tilde: np.ndarray
    d_eta: np.ndarray  # d(eta)(E_i, E_j)
    d_eta_phi: np.ndarray  # d(eta)(phi E_i, phi E_j)


def _phi_apply(ev: StructureEval, V: np.ndarray) -> np.ndarray:
    """phi of the frame-component vectors V[..., i, j, k] of a pair grid:
    u^b = phi^b_a V^a on the horizontal slots, and an exact 0 in the Reeb
    slot, since phi(xi) = 0 and phi maps into the horizontal distribution."""
    out = np.empty(V.shape)
    out[..., : ev.m] = contract("...ija,...ba->...ijb", V[..., : ev.m], ev.phi0)
    out[..., -1] = 0.0
    return out


def _phi_basis_fields(ev: StructureEval) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate components P0[..., i, q] and gradients P1[..., i, q, j] of
    the fields phi(E_i) = phi^b_i E_b: P0 = phi^T E0 and P1 = phi1^T E0 +
    phi^T E1, zero for phi(xi)."""
    m = ev.m
    E0, E1 = ev.frame
    E0, E1 = E0[..., :m, :], E1[..., :m, :, :]  # the fields e_b
    P0 = ev.zeros(ev.n, ev.n)
    P1 = ev.zeros(ev.n, ev.n, ev.n)
    P0[..., :m, :] = contract("...bi,...bq->...iq", ev.phi0, E0)
    P1[..., :m, :, :] = contract("...bij,...bq->...iqj", ev.phi1, E0) + contract(
        "...bi,...bqj->...iqj", ev.phi0, E1
    )
    return P0, P1


def _d_eta_pairs(ev: StructureEval) -> np.ndarray:
    """d(eta)(E_i, E_j) on basis pairs under the 1/2 convention."""
    m = ev.m
    out = ev.zeros(ev.n, ev.n)
    out[..., :m, :m] = ev.omega0
    out[..., -1, :m] = 0.5 * ev.d_eta_xi
    out[..., :m, -1] = -0.5 * ev.d_eta_xi
    return out


@memoised
def nijenhuis_tensors(ev: StructureEval) -> NijenhuisBundle:
    """The bundle on all basis pairs at once, with N_phi(X, Y) =
    phi^2 [X, Y] + [phi X, phi Y] - phi [phi X, Y] - phi [X, phi Y].

    Three pairwise brackets of the frame fields E_i and the fields
    phi(E_i), each computed in coordinates and read in frame components:
    [E_i, E_j] (the torsion's table), [phi E_i, phi E_j] and
    [phi E_i, E_j].  The fourth term is the third with its pair transposed,
    since [E_i, phi E_j] = -[phi E_j, E_i], and so is its image under
    phi."""
    m = ev.m
    B0, B1 = ev.frame
    P0, P1 = _phi_basis_fields(ev)

    n_phi = to_frame_components(ev, bracket(P0, P1, P0, P1))
    n_phi += _phi_apply(ev, _phi_apply(ev, basis_brackets_frame(ev)))
    mixed = _phi_apply(ev, to_frame_components(ev, bracket(P0, P1, B0, B1)))  # phi [phi E_i, E_j]
    n_phi -= mixed
    n_phi += np.swapaxes(mixed, -3, -2)  # - phi [E_i, phi E_j]

    d_eta = _d_eta_pairs(ev)
    d_eta_phi = ev.zeros(ev.n, ev.n)
    d_eta_phi[..., :m, :m] = ev.omega_phi0
    n1, n_tilde = n_phi.copy(), n_phi.copy()
    n1[..., -1] += 2.0 * d_eta
    n_tilde[..., -1] += 2.0 * d_eta_phi
    return NijenhuisBundle(*map(frozen, (n_phi, n1, n_tilde, d_eta, d_eta_phi)))


# ---------------------------------------------------------------------------
# Universal identities
# ---------------------------------------------------------------------------


def projection_identity_residual(ev: StructureEval) -> np.ndarray:
    """Residual of P(N1(X, Y)) = N~(X, Y) over all basis pairs.  N1 and N~
    share N_phi's horizontal components and P drops the Reeb one, so the
    difference is the Reeb component of N~."""
    return ev.max_abs(nijenhuis_tensors(ev).n_tilde[..., -1])


def reeb_split_identity_residual(ev: StructureEval) -> np.ndarray:
    """Residual of N1 = N~ + 2 (d(eta)(X,Y) - d(eta)(phi X, phi Y)) xi over
    all basis pairs, in the Reeb slot, the only one where the two sides
    differ."""
    bundle = nijenhuis_tensors(ev)
    rhs = bundle.n_tilde[..., -1] + 2.0 * (bundle.d_eta - bundle.d_eta_phi)
    return ev.max_abs(bundle.n1[..., -1], rhs)


def _phi_characterization_residual(
    ev: StructureEval, B: np.ndarray, A: np.ndarray, C: np.ndarray | None = None
) -> np.ndarray:
    """Residual of (nabla~_X phi) Y = g(B Y, X) xi - eta(Y) A X - eta(X) C Y
    over all basis pairs (X, Y) = (E_i, E_j), for horizontal endomorphisms
    B, A and C (C = 0 when None), under the Levi-Civita connection.  The
    right-hand side is laid out as :func:`cov_phi` is: rhs[i, k, j] is
    component k of the value on (E_i, E_j)."""
    n, m = ev.n, ev.m
    rhs = ev.zeros(n, n, n)
    rhs[..., :m, -1, :m] = contract("...cj,...ci->...ij", B, ev.g0)  # g(B E_j, E_i) xi
    rhs[..., :m, :m, -1] = -mat_t(A)  # -A E_i, at Y = xi
    if C is not None:
        rhs[..., -1, :m, :m] = -C  # -C E_j, at X = xi
    return ev.max_abs(cov_phi(ev, "levi_civita"), rhs)


def aqs_characterization_residual(ev: StructureEval) -> np.ndarray:
    """Residual of the almost-quasi-Sasakian characterization
    (nabla~_X phi) Y = g((psi o phi) Y, X) xi - eta(Y) (phi o psi) X
    - eta(X) (phi o psi - psi o phi) Y over all basis pairs."""
    psiphi, phipsi = ev.psi_phi0, ev.phi_psi0
    return _phi_characterization_residual(ev, psiphi, phipsi, phipsi - psiphi)


def qs_characterization_residual(ev: StructureEval) -> np.ndarray:
    """Residual of the quasi-Sasakian characterization
    (nabla~_X phi) Y = g(A Y, X) xi - eta(Y) A X with A = phi o psi: the
    almost-quasi-Sasakian one where psi o phi = phi o psi."""
    return _phi_characterization_residual(ev, ev.phi_psi0, ev.phi_psi0)


@memoised
def omega_max(ev: StructureEval) -> np.ndarray:
    """max |omega_ab| at each point, read by three scales."""
    return ev.max_abs(ev.omega0)


def qs_condition_residuals(ev: StructureEval) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(residual, scale) of the three equivalent quasi-Sasakian conditions."""
    phi_star_omega, phipsi, psiphi = ev.omega_phi0, ev.phi_psi0, ev.psi_phi0
    gA = ev.g0 @ phipsi  # gA[a, b] = g(e_a, A e_b)
    mag = ev.max_abs
    return {
        "d_eta_phi_invariant": (
            mag(ev.omega0, phi_star_omega),
            nanmax(omega_max(ev), mag(phi_star_omega)),
        ),
        "phi_psi_commute": (mag(phipsi, psiphi), nanmax(mag(phipsi), mag(psiphi))),
        "A_g_symmetric": (mag(gA, mat_t(gA)), mag(gA)),
    }


def canonical_nabla_phi_residual(ev: StructureEval) -> np.ndarray:
    """Max component of nabla phi under the canonical connection, which
    nothing else in a check reads, so it is not kept."""
    return ev.max_abs(_cov_phi(ev, ev.canonical_full))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def criterion_residuals(ev: StructureEval) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(residual, scale) at each evaluated point of every criterion that is
    not a conjunction of others, and of the three quasi-Sasakian conditions."""
    bundle = nijenhuis_tensors(ev)
    mag = ev.max_abs
    n_phi, n1, n_tilde = mag(bundle.n_phi), mag(bundle.n1), mag(bundle.n_tilde)
    nij_scale = nanmax(n_phi, 2.0 * mag(bundle.d_eta), 2.0 * mag(bundle.d_eta_phi))
    omega, Omega, d_eta_xi = omega_max(ev), mag(ev.Omega0), mag(ev.d_eta_xi)
    return {
        "contact_metric": (mag(ev.Omega0, ev.omega0), nanmax(Omega, omega)),
        "normal": (n1, nij_scale),
        "almost_normal": (n_tilde, nij_scale),
        "d_eta_xi_zero": (d_eta_xi, nanmax(omega, 0.5 * d_eta_xi)),
        "d_Omega_zero": (mag(d_fundamental_form(ev)), nanmax(Omega, mag(ev.Omega1))),
        **qs_condition_residuals(ev),
    }


def classification_report(ev: StructureEval, tol: float) -> dict:
    """The ``classification`` and ``quasi_sasakian_conditions`` sections."""
    return classification_sections(worst(criterion_residuals(ev)), tol, int(np.prod(ev.batch)))


def classification_sections(maxima: dict, tol: float, samples: int) -> dict:
    """The two sections from the :func:`worst` (residual, scale) of each of
    :func:`criterion_residuals`: each criterion's ``holds``, ``max_residual``
    and ``samples``, and each quasi-Sasakian condition's ``holds`` and
    ``max_residual``.

    Raises :class:`InternalConsistencyError` if the structure classifies as
    almost quasi-Sasakian while the three equivalent quasi-Sasakian
    conditions disagree (they are provably equivalent in that regime).
    """
    def verdict(*names: str) -> dict:
        parts = [maxima[name] for name in names]
        return {
            "holds": all(holds_within(residual, scale, tol) for residual, scale in parts),
            "max_residual": top(residual for residual, _ in parts),
        }

    verdicts = {name: verdict(name) for name in BASE_CRITERIA}
    qs_verdicts = {name: verdict(name) for name in QS_CONDITIONS}
    verdicts["almost_contact_kahler"] = verdict("almost_normal", "d_Omega_zero")
    verdicts["aqs"] = verdict("almost_normal", "d_Omega_zero", "d_eta_xi_zero")

    qs_flags = [v["holds"] for v in qs_verdicts.values()]
    if verdicts["aqs"]["holds"] and len(set(qs_flags)) != 1:
        detail = {name: (v["holds"], v["max_residual"]) for name, v in qs_verdicts.items()}
        raise InternalConsistencyError(
            f"equivalent quasi-Sasakian conditions disagree on an AQS structure: {detail}"
        )
    verdicts["quasi_sasakian"] = {
        "holds": verdicts["aqs"]["holds"] and all(qs_flags),
        "max_residual": top(v["max_residual"] for v in (verdicts["aqs"], *qs_verdicts.values())),
    }

    return {
        "classification": {name: {**verdicts[name], "samples": samples} for name in CRITERIA},
        "quasi_sasakian_conditions": qs_verdicts,
    }
