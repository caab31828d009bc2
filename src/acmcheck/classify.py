"""Nijenhuis-type tensors and the classification ladder.

All brackets are computed honestly in coordinates from jets; the tensors are
then reported in frame components (horizontal slots, then the Reeb slot).
Verdicts follow the residual rule: a criterion holds when its max residual
over the samples stays below tol * (1 + max magnitude of the tensors the
criterion compares).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import _cov_phi, basis_brackets, bracket, cov_phi, to_frame_components
from .residuals import holds_within, nanmax, top, worst
from .structure import (
    StructureEval,
    contract,
    d_fundamental_form,
    frozen,
    mat_t,
    memoised,
)

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
    """The three Nijenhuis-type tensors on basis pairs: grid[..., i, j, k] is
    the k-th frame component of T(E_i, E_j); index n-1 is the Reeb slot.
    N1 and N~ differ from N_phi only in the Reeb slot, so the identities and
    criteria read their Reeb components ``n1_reeb`` and ``n_tilde_reeb``;
    the full grids ``n1`` and ``n_tilde`` are assembled on first access.
    The arrays of the bundle that :func:`nijenhuis_tensors` keeps are
    read-only, since it serves every reader of an evaluation."""

    n_phi: np.ndarray
    d_eta: np.ndarray  # d(eta)(E_i, E_j)
    d_eta_phi: np.ndarray  # d(eta)(phi E_i, phi E_j)

    @cached_property
    def n1_reeb(self) -> np.ndarray:
        """Reeb component of N1 = N_phi + 2 d(eta) xi."""
        return frozen(self.n_phi[..., -1] + 2.0 * self.d_eta)

    @cached_property
    def n_tilde_reeb(self) -> np.ndarray:
        """Reeb component of N~ = N_phi + 2 d(eta)(phi ., phi .) xi."""
        return frozen(self.n_phi[..., -1] + 2.0 * self.d_eta_phi)

    @cached_property
    def n1(self) -> np.ndarray:
        """N1 = N_phi + 2 d(eta) xi."""
        return self._with_reeb(self.n1_reeb)

    @cached_property
    def n_tilde(self) -> np.ndarray:
        """N~ = N_phi + 2 d(eta)(phi ., phi .) xi."""
        return self._with_reeb(self.n_tilde_reeb)

    def _with_reeb(self, reeb: np.ndarray) -> np.ndarray:
        out = self.n_phi.copy()
        out[..., -1] = reeb
        return frozen(out)


def _phi_apply(ev: StructureEval, V: np.ndarray) -> np.ndarray:
    """phi of the coordinate vectors V[..., i, j, q] of a pair grid:
    frame-split, apply, push back."""
    u = contract("...ija,...ba->...ijb", V[..., : ev.m], ev.phi0)  # u^b = phi^b_a V^a
    out = np.empty(V.shape)
    out[..., : ev.m] = u
    out[..., -1] = -contract("...ijb,...b->...ij", u, ev.gam0)
    return out


def _phi_basis_fields(ev: StructureEval) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate components and gradients of the fields phi(E_i)."""
    n, m = ev.n, ev.m
    P0 = ev.zeros(n, n)
    P1 = ev.zeros(n, n, n)
    P0[..., :m, :m] = mat_t(ev.phi0)  # (phi e_i)^b = phi0[b, i]
    P0[..., :m, -1] = -contract("...bi,...b->...i", ev.phi0, ev.gam0)
    P1[..., :m, :m, :] = np.einsum("...bij->...ibj", ev.phi1)
    P1[..., :m, -1, :] = -contract("...bij,...b->...ij", ev.phi1, ev.gam0) - contract(
        "...bi,...bj->...ij", ev.phi0, ev.gam1
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
    phi(E_i), each computed in coordinates: [E_i, E_j] (the one the torsion
    reads too), [phi E_i, phi E_j] and [phi E_i, E_j].  The fourth term is
    the third with its pair transposed, since [E_i, phi E_j] =
    -[phi E_j, E_i], and so is its image under phi."""
    m = ev.m
    B0, B1 = ev.frame
    P0, P1 = _phi_basis_fields(ev)

    term = bracket(P0, P1, P0, P1)
    term += _phi_apply(ev, _phi_apply(ev, basis_brackets(ev)))
    mixed = _phi_apply(ev, bracket(P0, P1, B0, B1))  # phi [phi E_i, E_j]
    term -= mixed
    term += np.swapaxes(mixed, -3, -2)  # - phi [E_i, phi E_j]
    n_phi = to_frame_components(ev, term)

    d_eta_phi = ev.zeros(ev.n, ev.n)
    d_eta_phi[..., :m, :m] = ev.omega_phi0
    return NijenhuisBundle(
        n_phi=frozen(n_phi), d_eta=frozen(_d_eta_pairs(ev)), d_eta_phi=frozen(d_eta_phi)
    )


# ---------------------------------------------------------------------------
# Universal identities
# ---------------------------------------------------------------------------


def projection_identity_residual(ev: StructureEval) -> np.ndarray:
    """Residual of P(N1(X, Y)) = N~(X, Y) over all basis pairs.  N1 and N~
    share N_phi's horizontal components and P drops the Reeb one, so the
    difference is the Reeb component of N~."""
    return ev.max_abs(nijenhuis_tensors(ev).n_tilde_reeb)


def reeb_split_identity_residual(ev: StructureEval) -> np.ndarray:
    """Residual of N1 = N~ + 2 (d(eta)(X,Y) - d(eta)(phi X, phi Y)) xi over
    all basis pairs, in the Reeb slot, the only one where the two sides
    differ."""
    bundle = nijenhuis_tensors(ev)
    rhs = bundle.n_tilde_reeb + 2.0 * (bundle.d_eta - bundle.d_eta_phi)
    return ev.max_abs(bundle.n1_reeb, rhs)


def aqs_characterization_residual(ev: StructureEval) -> np.ndarray:
    """Residual of the almost-quasi-Sasakian characterization
    (nabla~_X phi) Y = g((psi o phi) Y, X) xi - eta(Y) (phi o psi) X
    - eta(X) (phi o psi - psi o phi) Y over all basis pairs."""
    lhs = cov_phi(ev, "levi_civita")  # lhs[i, b, a]: (nabla_{E_i} phi)^b_a
    n, m = ev.n, ev.m
    psiphi, phipsi = ev.psi_phi0, ev.phi_psi0
    rhs = ev.zeros(n, n, n)  # rhs[i, j, k]: component k of the value on (E_i, E_j)
    rhs[..., :m, :m, -1] = contract("...cj,...ci->...ij", psiphi, ev.g0)
    rhs[..., :m, -1, :m] = -mat_t(phipsi)  # -(phi o psi) E_i, components indexed [i, k]
    rhs[..., -1, :m, :m] = -mat_t(phipsi - psiphi)  # [j, k] layout after transpose
    lhs_pairs = np.einsum("...ibj->...ijb", lhs)
    return ev.max_abs(lhs_pairs, rhs)


def qs_characterization_residual(ev: StructureEval) -> np.ndarray:
    """Residual of the quasi-Sasakian characterization
    (nabla~_X phi) Y = g(A Y, X) xi - eta(Y) A X with A = phi o psi."""
    lhs = np.einsum("...ibj->...ijb", cov_phi(ev, "levi_civita"))
    n, m = ev.n, ev.m
    A = ev.phi_psi0
    rhs = ev.zeros(n, n, n)
    rhs[..., :m, :m, -1] = contract("...cj,...ci->...ij", A, ev.g0)
    rhs[..., :m, -1, :m] = -mat_t(A)
    return ev.max_abs(lhs, rhs)


def qs_condition_residuals(ev: StructureEval) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(residual, scale) of the three equivalent quasi-Sasakian conditions."""
    phi_star_omega, phipsi, psiphi = ev.omega_phi0, ev.phi_psi0, ev.psi_phi0
    gA = ev.g0 @ phipsi  # gA[a, b] = g(e_a, A e_b)
    mag = ev.max_abs
    return {
        "d_eta_phi_invariant": (
            mag(ev.omega0, phi_star_omega),
            nanmax(mag(ev.omega0), mag(phi_star_omega)),
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
    shared = mag(bundle.n_phi[..., :-1])  # the components N_phi, N1 and N~ share
    n_phi = nanmax(shared, mag(bundle.n_phi[..., -1]))
    n1, n_tilde = nanmax(shared, mag(bundle.n1_reeb)), nanmax(shared, mag(bundle.n_tilde_reeb))
    nij_scale = nanmax(n_phi, 2.0 * mag(bundle.d_eta), 2.0 * mag(bundle.d_eta_phi))
    return {
        "contact_metric": (
            mag(ev.Omega0, ev.omega0),
            nanmax(mag(ev.Omega0), mag(ev.omega0)),
        ),
        "normal": (n1, nij_scale),
        "almost_normal": (n_tilde, nij_scale),
        "d_eta_xi_zero": (mag(ev.d_eta_xi), nanmax(mag(ev.omega0), 0.5 * mag(ev.d_eta_xi))),
        "d_Omega_zero": (mag(d_fundamental_form(ev)), nanmax(mag(ev.Omega0), mag(ev.Omega1))),
        **qs_condition_residuals(ev),
    }


def classification_report(ev: StructureEval, tol: float) -> dict:
    """The ``classification`` and ``quasi_sasakian_conditions`` sections of
    a report: each criterion's ``holds``, ``max_residual`` and ``samples``,
    and each quasi-Sasakian condition's ``holds`` and ``max_residual``, from
    the worst :func:`criterion_residuals` over the evaluated points.

    Raises :class:`InternalConsistencyError` if the structure classifies as
    almost quasi-Sasakian while the three equivalent quasi-Sasakian
    conditions disagree (they are provably equivalent in that regime).
    """
    rows = criterion_residuals(ev)
    maxima = worst([part for pair in rows.values() for part in pair])
    reduced = dict(zip(rows, zip(maxima[::2], maxima[1::2])))

    def verdict(*names: str) -> dict:
        parts = [reduced[name] for name in names]
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

    n_points = int(np.prod(ev.batch))
    return {
        "classification": {name: {**verdicts[name], "samples": n_points} for name in CRITERIA},
        "quasi_sasakian_conditions": qs_verdicts,
    }
