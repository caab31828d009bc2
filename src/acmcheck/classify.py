"""Nijenhuis-type tensors and the classification ladder.

All brackets are computed honestly in coordinates from jets; the tensors are
then reported in frame components (horizontal slots, then the Reeb slot).
Verdicts follow the residual rule: a criterion holds when its max residual
over the samples stays below tol * (1 + max magnitude of the tensors the
criterion compares).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import bracket, cov_phi, to_frame_components
from .residuals import WorstResidual, nanmax
from .structure import (
    AdaptedStructure,
    StructureEval,
    contract,
    d_fundamental_form,
    mat_t,
    memoised,
)

DEFAULT_TOL = 1e-7

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
    N1 and N~ differ from N_phi only in the Reeb slot and are assembled on
    access."""

    n_phi: np.ndarray
    d_eta: np.ndarray  # d(eta)(E_i, E_j)
    d_eta_phi: np.ndarray  # d(eta)(phi E_i, phi E_j)

    @property
    def n1(self) -> np.ndarray:
        """N1 = N_phi + 2 d(eta) xi."""
        out = self.n_phi.copy()
        out[..., -1] += 2.0 * self.d_eta
        return out

    @property
    def n_tilde(self) -> np.ndarray:
        """N~ = N_phi + 2 d(eta)(phi ., phi .) xi."""
        out = self.n_phi.copy()
        out[..., -1] += 2.0 * self.d_eta_phi
        return out


def _phi_apply(ev: StructureEval, V: np.ndarray) -> np.ndarray:
    """phi of coordinate vectors (last axis): frame-split, apply, push back."""
    u = V[..., : ev.m] @ ev.lift(mat_t(ev.phi0), V.ndim)  # u^b = phi^b_a V^a
    out = np.zeros(V.shape)
    out[..., : ev.m] = u
    out[..., -1] = -contract("...b,...b->...", u, ev.lift(ev.gam0, V.ndim))
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
    """The bundle on all basis pairs at once: each bracket term is one
    pairwise bracket of the frame fields E_i and the fields phi(E_i)."""
    m = ev.m
    B0, B1 = ev.frame
    P0, P1 = _phi_basis_fields(ev)

    term = bracket(P0, P1, P0, P1)
    term += _phi_apply(ev, _phi_apply(ev, bracket(B0, B1, B0, B1)))
    term -= _phi_apply(ev, bracket(P0, P1, B0, B1))
    term -= _phi_apply(ev, bracket(B0, B1, P0, P1))
    n_phi = to_frame_components(ev, term)

    d_eta_phi = ev.zeros(ev.n, ev.n)
    d_eta_phi[..., :m, :m] = contract("...ci,...dj,...cd->...ij", ev.phi0, ev.phi0, ev.omega0)
    return NijenhuisBundle(n_phi=n_phi, d_eta=_d_eta_pairs(ev), d_eta_phi=d_eta_phi)


# ---------------------------------------------------------------------------
# Universal identities
# ---------------------------------------------------------------------------


def projection_identity_residual(ev: StructureEval) -> np.ndarray:
    """Residual of P(N1(X, Y)) = N~(X, Y) over all basis pairs."""
    bundle = nijenhuis_tensors(ev)
    projected = bundle.n1
    projected[..., -1] = 0.0
    return ev.max_abs(projected - bundle.n_tilde)


def reeb_split_identity_residual(ev: StructureEval) -> np.ndarray:
    """Residual of N1 = N~ + 2 (d(eta)(X,Y) - d(eta)(phi X, phi Y)) xi."""
    bundle = nijenhuis_tensors(ev)
    rhs = bundle.n_tilde
    rhs[..., -1] += 2.0 * (bundle.d_eta - bundle.d_eta_phi)
    return ev.max_abs(bundle.n1 - rhs)


def aqs_characterization_residual(ev: StructureEval) -> np.ndarray:
    """Residual of the almost-quasi-Sasakian characterization
    (nabla~_X phi) Y = g((psi o phi) Y, X) xi - eta(Y) (phi o psi) X
    - eta(X) (phi o psi - psi o phi) Y over all basis pairs."""
    lhs = cov_phi(ev, "levi_civita")  # lhs[i, b, a]: (nabla_{E_i} phi)^b_a
    n, m = ev.n, ev.m
    psiphi = ev.psi0 @ ev.phi0
    phipsi = ev.phi0 @ ev.psi0
    rhs = ev.zeros(n, n, n)  # rhs[i, j, k]: component k of the value on (E_i, E_j)
    rhs[..., :m, :m, -1] = contract("...cj,...ci->...ij", psiphi, ev.g0)
    rhs[..., :m, -1, :m] = -mat_t(phipsi)  # -(phi o psi) E_i, components indexed [i, k]
    rhs[..., -1, :m, :m] = -mat_t(phipsi - psiphi)  # [j, k] layout after transpose
    lhs_pairs = np.einsum("...ibj->...ijb", lhs)
    return ev.max_abs(lhs_pairs - rhs)


def qs_characterization_residual(ev: StructureEval) -> np.ndarray:
    """Residual of the quasi-Sasakian characterization
    (nabla~_X phi) Y = g(A Y, X) xi - eta(Y) A X with A = phi o psi."""
    lhs = np.einsum("...ibj->...ijb", cov_phi(ev, "levi_civita"))
    n, m = ev.n, ev.m
    A = ev.phi0 @ ev.psi0
    rhs = ev.zeros(n, n, n)
    rhs[..., :m, :m, -1] = contract("...cj,...ci->...ij", A, ev.g0)
    rhs[..., :m, -1, :m] = -mat_t(A)
    return ev.max_abs(lhs - rhs)


def qs_condition_residuals(ev: StructureEval) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(residual, scale) of the three equivalent quasi-Sasakian conditions."""
    phi_star_omega = contract("...ca,...db,...cd->...ab", ev.phi0, ev.phi0, ev.omega0)
    phipsi = ev.phi0 @ ev.psi0
    psiphi = ev.psi0 @ ev.phi0
    gA = ev.g0 @ phipsi  # gA[a, b] = g(e_a, A e_b)
    mag = ev.max_abs
    return {
        "d_eta_phi_invariant": (
            mag(ev.omega0 - phi_star_omega),
            nanmax(mag(ev.omega0), mag(phi_star_omega)),
        ),
        "phi_psi_commute": (mag(phipsi - psiphi), nanmax(mag(phipsi), mag(psiphi))),
        "A_g_symmetric": (mag(gA - mat_t(gA)), mag(gA)),
    }


def canonical_nabla_phi_residual(ev: StructureEval) -> np.ndarray:
    """Max component of nabla phi under the canonical connection."""
    return ev.max_abs(cov_phi(ev, "canonical"))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionVerdict:
    holds: bool
    max_residual: float
    samples: int


@dataclass(frozen=True)
class ClassificationReport:
    verdicts: dict[str, CriterionVerdict]
    qs_conditions: dict[str, CriterionVerdict]
    tol: float
    samples: int

    def holds(self, name: str) -> bool:
        return self.verdicts[name].holds


def criterion_residuals(ev: StructureEval) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(residual, scale) at each evaluated point of every criterion that is
    not a conjunction of others, and of the three quasi-Sasakian conditions."""
    bundle = nijenhuis_tensors(ev)
    mag = ev.max_abs
    nij_scale = nanmax(mag(bundle.n_phi), 2.0 * mag(bundle.d_eta), 2.0 * mag(bundle.d_eta_phi))
    return {
        "contact_metric": (
            mag(ev.Omega0 - ev.omega0),
            nanmax(mag(ev.Omega0), mag(ev.omega0)),
        ),
        "normal": (mag(bundle.n1), nij_scale),
        "almost_normal": (mag(bundle.n_tilde), nij_scale),
        "d_eta_xi_zero": (mag(ev.d_eta_xi), nanmax(mag(ev.omega0), 0.5 * mag(ev.d_eta_xi))),
        "d_Omega_zero": (mag(d_fundamental_form(ev)), nanmax(mag(ev.Omega0), mag(ev.Omega1))),
        **qs_condition_residuals(ev),
    }


def classification_report(ev: StructureEval, tol: float) -> ClassificationReport:
    """Verdicts from the worst :func:`criterion_residuals` over the
    evaluated points.

    Raises :class:`InternalConsistencyError` if the structure classifies as
    almost quasi-Sasakian while the three equivalent quasi-Sasakian
    conditions disagree (they are provably equivalent in that regime).
    """
    n_points = int(np.prod(ev.batch))
    worst = {
        name: WorstResidual(residual, scale)
        for name, (residual, scale) in criterion_residuals(ev).items()
    }

    def verdict(*names: str) -> CriterionVerdict:
        parts = [worst[name] for name in names]
        return CriterionVerdict(
            holds=all(w.holds(tol) for w in parts),
            max_residual=nanmax(*(w.residual for w in parts)),
            samples=n_points,
        )

    verdicts = {name: verdict(name) for name in BASE_CRITERIA}
    qs_verdicts = {name: verdict(name) for name in QS_CONDITIONS}
    verdicts["almost_contact_kahler"] = verdict("almost_normal", "d_Omega_zero")
    verdicts["aqs"] = verdict("almost_normal", "d_Omega_zero", "d_eta_xi_zero")

    qs_flags = [v.holds for v in qs_verdicts.values()]
    if verdicts["aqs"].holds and len(set(qs_flags)) != 1:
        detail = {name: (v.holds, v.max_residual) for name, v in qs_verdicts.items()}
        raise InternalConsistencyError(
            f"equivalent quasi-Sasakian conditions disagree on an AQS structure: {detail}"
        )
    verdicts["quasi_sasakian"] = CriterionVerdict(
        holds=bool(verdicts["aqs"].holds and all(qs_flags)),
        max_residual=nanmax(
            verdicts["aqs"].max_residual, *(v.max_residual for v in qs_verdicts.values())
        ),
        samples=n_points,
    )

    ordered = {name: verdicts[name] for name in CRITERIA}
    return ClassificationReport(verdicts=ordered, qs_conditions=qs_verdicts, tol=tol, samples=n_points)


def classify(
    s: AdaptedStructure,
    samples: int = 32,
    tol: float = DEFAULT_TOL,
    seed: int = 42,
    points: np.ndarray | None = None,
) -> ClassificationReport:
    """Evaluate every classification criterion at sampled points.

    ``points`` overrides the deterministic sampling when given; see
    :func:`classification_report` for the verdicts.
    """
    if points is None:
        points = s.chart.sample_points(samples, seed)
    return classification_report(StructureEval(s, points), tol)
