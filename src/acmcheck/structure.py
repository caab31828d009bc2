"""Assembled structures and their derived tensors.

An :class:`AdaptedStructure` carries the frame metric g_ab and the
endomorphism phi^b_a on the horizontal distribution; the Reeb field is unit,
orthogonal to the distribution, and phi(xi) = 0 by representation.  All
inputs are given in adapted-frame components.

Array layouts (fixed project-wide):
  * g0[a, b]      = g(e_a, e_b)
  * phi0[b, a]    = phi^b_a, so phi(v)^b = phi0[b, a] v^a
  * omega0[a, b]  = omega_{ab} = d(eta)(e_a, e_b)
  * psi0[b, a]    = psi^b_a = g^{bc} omega_{ac}
  * C0[a, b]      = C_{ab} = (d_n g_ab)/2,  Cmix0[b, a] = C^b_a
  * Gamma0[a, b, c] = Gamma^a_{bc} (internal connection, direction b)
  * trailing axes are coordinate-derivative axes (value, grad, hess order)
  * full connection-coefficient arrays use coeff[i, j, k]:
    nabla_{E_i} E_j = coeff[i, j, k] E_k over the frame (e_1..e_{n-1}, xi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import factorial

import numpy as np

from .chart import AdaptedChart, adapted_frame, gamma_jets
from .expr import Const, ScalarField, field_jets


class StructureError(Exception):
    pass


class SingularMetricError(StructureError):
    pass


@dataclass(frozen=True)
class AdaptedStructure:
    """Almost contact metric data in adapted-frame components."""

    chart: AdaptedChart
    g: np.ndarray  # (m, m) object array of ScalarField
    phi: np.ndarray  # (m, m) object array of ScalarField, phi[b, a] = phi^b_a
    pseudo: bool = False

    def __post_init__(self):
        m = self.chart.m
        if self.g.shape != (m, m):
            raise StructureError(f"metric must be {m}x{m}, got {self.g.shape}")
        if self.phi.shape != (m, m):
            raise StructureError(f"phi must be {m}x{m}, got {self.phi.shape}")

    def eta_coordinate_form(self) -> np.ndarray:
        """eta as a coordinate 1-form of ScalarFields: (gamma_a, 1)."""
        eta = np.empty(self.chart.n, dtype=object)
        for a, f in enumerate(self.chart.gamma):
            eta[a] = f
        eta[self.chart.n - 1] = ScalarField(Const(1.0), self.chart.coords)
        return eta


class StructureEval:
    """Cached per-point evaluation of a structure and its derived tensors.

    Everything downstream (connections, curvature, classification) takes an
    evaluation and reads the first-order data assembled here: values plus
    coordinate gradients, which second-order jets of the inputs make
    available for every derived tensor that has to be differentiated once
    more along the frame.  Build one per point and pass it to every
    per-point function; each input jet and derived tensor is then computed
    once.
    """

    def __init__(self, structure: AdaptedStructure, point: np.ndarray):
        self.structure = structure
        self.chart = structure.chart
        self.p = np.asarray(point, dtype=float)
        self.n = self.chart.n
        self.m = self.chart.m
        if self.p.shape != (self.n,):
            raise ValueError(f"point has shape {self.p.shape}, expected ({self.n},)")

    # -- input jets ---------------------------------------------------------

    @cached_property
    def _gamma(self):
        return gamma_jets(self.chart, self.p)

    @property
    def gam0(self) -> np.ndarray:
        return self._gamma[0]

    @property
    def gam1(self) -> np.ndarray:
        return self._gamma[1]

    @property
    def gam2(self) -> np.ndarray:
        return self._gamma[2]

    @cached_property
    def _g(self):
        return field_jets(self.structure.g, self.p)

    @property
    def g0(self) -> np.ndarray:
        return self._g[0]

    @property
    def g1(self) -> np.ndarray:
        return self._g[1]

    @property
    def g2(self) -> np.ndarray:
        return self._g[2]

    @cached_property
    def _phi(self):
        return field_jets(self.structure.phi, self.p, order=1)

    @property
    def phi0(self) -> np.ndarray:
        return self._phi[0]

    @property
    def phi1(self) -> np.ndarray:
        return self._phi[1]

    # -- frame helpers ------------------------------------------------------

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(E0, E1): the adapted frame in coordinates and its gradients."""
        return adapted_frame(self.gam0, self.gam1)

    def frame_d(self, F1: np.ndarray) -> np.ndarray:
        """Frame derivatives from a coordinate gradient: D[..., i] = E_i F.

        The last axis of ``F1`` is the coordinate-derivative axis; the result
        keeps the same shape, re-expressed along (e_a, xi).
        """
        D = F1.copy()
        D[..., : self.m] = F1[..., : self.m] - F1[..., -1:] * self.gam0
        return D

    def frame_d_grad(self, F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
        """Coordinate gradient of the frame derivative: D1[..., i, j] = d_j (E_i F)."""
        D1 = F2.copy()
        D1[..., : self.m, :] = (
            F2[..., : self.m, :]
            - np.einsum("ij,...->...ij", self.gam1, F1[..., -1])
            - np.einsum("i,...j->...ij", self.gam0, F2[..., -1, :])
        )
        return D1

    # -- derived tensors (value + coordinate gradient) -----------------------

    @cached_property
    def ginv0(self) -> np.ndarray:
        try:
            return np.linalg.inv(self.g0)
        except np.linalg.LinAlgError as err:
            raise SingularMetricError(f"frame metric singular at {self.p}") from err

    @cached_property
    def ginv1(self) -> np.ndarray:
        return -np.einsum("ac,cdj,db->abj", self.ginv0, self.g1, self.ginv0)

    @cached_property
    def _egamma(self):
        """e_i gamma_b with coordinate gradient; shapes (m, n) and (m, n, n)."""
        return self.frame_d(self.gam1), self.frame_d_grad(self.gam1, self.gam2)

    @cached_property
    def omega0(self) -> np.ndarray:
        D = self._egamma[0][:, : self.m]  # D[b, a] = e_a gamma_b
        return 0.5 * (D.T - D)

    @cached_property
    def omega1(self) -> np.ndarray:
        D1 = self._egamma[1][:, : self.m, :]  # D1[b, a, j] = d_j e_a gamma_b
        return 0.5 * (np.swapaxes(D1, 0, 1) - D1)

    @cached_property
    def psi0(self) -> np.ndarray:
        return self.ginv0 @ self.omega0.T

    @cached_property
    def psi1(self) -> np.ndarray:
        return np.einsum("bcj,ac->baj", self.ginv1, self.omega0) + np.einsum(
            "bc,acj->baj", self.ginv0, self.omega1
        )

    @cached_property
    def C0(self) -> np.ndarray:
        return 0.5 * self.g1[:, :, -1]

    @cached_property
    def Cmix0(self) -> np.ndarray:
        return self.ginv0 @ self.C0

    @cached_property
    def Omega0(self) -> np.ndarray:
        """Fundamental form Omega_{ab} = g(e_a, phi e_b) = g_ac phi^c_b."""
        return self.g0 @ self.phi0

    @cached_property
    def Omega1(self) -> np.ndarray:
        return np.einsum("acj,cb->abj", self.g1, self.phi0) + np.einsum(
            "ac,cbj->abj", self.g0, self.phi1
        )

    @cached_property
    def _egg(self):
        """e_i g_cd with coordinate gradient; shapes (m, m, n), (m, m, n, n)."""
        return self.frame_d(self.g1), self.frame_d_grad(self.g1, self.g2)

    @cached_property
    def Gamma0(self) -> np.ndarray:
        """Internal connection Gamma^a_{bc} (also the horizontal Levi-Civita block)."""
        E = self._egg[0][:, :, : self.m]  # E[c, d, i] = e_i g_cd
        T = (
            np.einsum("cdb->bcd", E)
            + np.einsum("bdc->bcd", E)
            - np.einsum("bcd->bcd", E)
        )
        return 0.5 * np.einsum("ad,bcd->abc", self.ginv0, T)

    @cached_property
    def Gamma1(self) -> np.ndarray:
        E = self._egg[0][:, :, : self.m]
        E1 = self._egg[1][:, :, : self.m, :]  # E1[c, d, i, j] = d_j e_i g_cd
        T = np.einsum("cdb->bcd", E) + np.einsum("bdc->bcd", E) - E
        T1 = np.einsum("cdbj->bcdj", E1) + np.einsum("bdcj->bcdj", E1) - E1
        return 0.5 * (
            np.einsum("adj,bcd->abcj", self.ginv1, T)
            + np.einsum("ad,bcdj->abcj", self.ginv0, T1)
        )

    @cached_property
    def d_eta_xi(self) -> np.ndarray:
        return self.gam1[:, -1].copy()

    # -- full-frame metric and connection coefficient arrays ------------------

    @cached_property
    def g_full(self) -> np.ndarray:
        """Metric on the full frame (e_a, xi): block-diagonal with g(xi, xi) = 1."""
        G = np.zeros((self.n, self.n))
        G[: self.m, : self.m] = self.g0
        G[-1, -1] = 1.0
        return G

    @cached_property
    def lc_full(self) -> np.ndarray:
        """Levi-Civita coefficients on the adapted frame, coeff[i, j, k]."""
        m, last = self.m, self.n - 1
        coeff = np.zeros((self.n, self.n, self.n))
        coeff[:m, :m, :m] = np.moveaxis(self.Gamma0, 0, 2)
        coeff[:m, :m, last] = self.omega0.T - self.C0
        mixed = (self.Cmix0 + self.psi0).T  # mixed[a, b] = C^b_a + psi^b_a
        coeff[:m, last, :m] = mixed
        coeff[last, :m, :m] = mixed
        coeff[last, :m, last] = -self.d_eta_xi
        coeff[last, last, :m] = self.ginv0 @ self.d_eta_xi
        return coeff

    def n_full(self, N0: np.ndarray) -> np.ndarray:
        """N-connection coefficients on the adapted frame, coeff[i, j, k]."""
        m, last = self.m, self.n - 1
        coeff = np.zeros((self.n, self.n, self.n))
        coeff[:m, :m, :m] = np.moveaxis(self.Gamma0, 0, 2)
        coeff[last, :m, :m] = N0.T
        coeff[last, :m, last] = -self.d_eta_xi
        return coeff

    @cached_property
    def canonical_full(self) -> np.ndarray:
        return self.n_full(2.0 * self.psi0)

    @cached_property
    def phi_full(self) -> np.ndarray:
        """phi extended by phi(xi) = 0 on the full frame, phi_full[k, j] = phi^k_j."""
        out = np.zeros((self.n, self.n))
        out[: self.m, : self.m] = self.phi0
        return out

    def phi_frame_d(self) -> np.ndarray:
        """E_i phi^b_a over the full frame: D[b, a, i] (zero on xi slots)."""
        D = np.zeros((self.n, self.n, self.n))
        D[: self.m, : self.m, :] = self.frame_d(self.phi1)
        return D


# ---------------------------------------------------------------------------
# Structure-level operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedTensors:
    Omega: np.ndarray
    omega: np.ndarray
    psi: np.ndarray
    C: np.ndarray
    C_mixed: np.ndarray
    trace_psi_sq: float


def validate_axioms(ev: StructureEval) -> dict[str, float]:
    """Max-abs residual of each structure axiom at the evaluation point.

    In the adapted representation eta(xi) = 1, phi(xi) = 0, eta o phi = 0 and
    eta = g(., xi) hold identically, so those entries are exactly zero; the
    two substantive checks are phi^2 = -id on the distribution and metric
    compatibility g(phi X, phi Y) = g(X, Y) there.
    """
    eye = np.eye(ev.m)
    phi_square = float(np.abs(ev.phi0 @ ev.phi0 + eye).max())
    compatibility = float(np.abs(ev.phi0.T @ ev.g0 @ ev.phi0 - ev.g0).max())
    return {
        "phi_square": phi_square,
        "eta_xi": 0.0,
        "compatibility": compatibility,
        "phi_xi": 0.0,
        "eta_circ_phi": 0.0,
        "eta_metric_dual": 0.0,
    }


def metric_definiteness(ev: StructureEval, floor: float = 1e-9) -> float:
    """Smallest eigenvalue (absolute value if pseudo) of the frame metric.

    Raises :class:`SingularMetricError` when below ``floor``.
    """
    pseudo = ev.structure.pseudo
    eigs = np.linalg.eigvalsh(0.5 * (ev.g0 + ev.g0.T))
    smallest = float(np.abs(eigs).min()) if pseudo else float(eigs.min())
    if smallest <= floor:
        kind = "degenerate" if pseudo else "non-positive-definite"
        raise SingularMetricError(f"frame metric {kind} at {ev.p} (eigenvalue {smallest:.3e})")
    return smallest


def derived(ev: StructureEval) -> DerivedTensors:
    """Fundamental form, omega, psi, C and tr(psi^2) at the evaluation point."""
    psi = ev.psi0
    return DerivedTensors(
        Omega=ev.Omega0,
        omega=ev.omega0,
        psi=psi,
        C=ev.C0,
        C_mixed=ev.Cmix0,
        trace_psi_sq=float(np.einsum("ab,ba->", psi, psi)),
    )


def ext_d_from_grad(grads: np.ndarray, rank: int) -> np.ndarray:
    """Exterior derivative from component gradients, 1/2-family normalization.

    ``grads`` has shape (n,)*rank + (n,), the last axis being d_j; the result
    is (d alpha)_{i0..ip} = (rank+1)^{-1} sum_k (-1)^k d_{i_k} alpha_{..no i_k..}.
    """
    out = np.zeros(grads.shape[:-1] + (grads.shape[-1],))
    sign = 1.0
    for k in range(rank + 1):
        out += sign * np.moveaxis(grads, -1, k)
        sign = -sign
    return out / (rank + 1)


def exterior_derivative(ev: StructureEval, form: np.ndarray) -> np.ndarray:
    """d of a coordinate p-form given as an object array of ScalarFields.

    Components must be skew in their coordinate indices; the result is the
    (p+1)-form's coordinate components at the evaluation point.
    """
    n = ev.n
    rank = form.ndim
    if form.shape != (n,) * rank:
        raise ValueError(f"form components must have shape {(n,) * rank}, got {form.shape}")
    f0, f1 = field_jets(form, ev.p, order=1)
    if rank >= 2:
        skew = _antisymmetrize(f0)
        if np.abs(f0 - skew).max() > 1e-9 * (1.0 + np.abs(f0).max()):
            raise ValueError("form components are not skew in their coordinate indices")
    return ext_d_from_grad(f1, rank)


def _antisymmetrize(T: np.ndarray) -> np.ndarray:
    rank = T.ndim
    out = np.zeros_like(T)
    for perm in permutations(range(rank)):
        out += _perm_sign(perm) * np.transpose(T, perm)
    return out / factorial(rank)


def _perm_sign(perm: tuple[int, ...]) -> float:
    sign = 1.0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def fundamental_form_coordinate(ev: StructureEval) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate components of Omega with their gradients (zero-padded)."""
    n, m = ev.n, ev.m
    F0 = np.zeros((n, n))
    F0[:m, :m] = ev.Omega0
    F1 = np.zeros((n, n, n))
    F1[:m, :m, :] = ev.Omega1
    return F0, F1


def d_fundamental_form(ev: StructureEval) -> np.ndarray:
    """Coordinate components of d(Omega) at the evaluation point."""
    _, F1 = fundamental_form_coordinate(ev)
    return ext_d_from_grad(F1, 2)

