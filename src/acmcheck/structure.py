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
    nabla_{E_i} E_j = coeff[i, j, k] E_k over the frame (e_1..e_{n-1}, xi);
  * every array evaluated over a block of points carries the block's batch
    shape in front of the layout, e.g. omega0[..., a, b].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import permutations
from math import factorial

import numpy as np

from .chart import AdaptedChart, adapted_frame, gamma_jets
from .expr import Const, ScalarField, describe_first, field_jets


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
    """Cached evaluation of a structure and its derived tensors at a point
    or over a block of points.

    ``points`` has shape (..., n): a single point (n,) or S sampled points
    (S, n).  Every cached array is the batch shape ``points.shape[:-1]``
    followed by the layout documented above, so one evaluation serves every
    sampled point and a single point is the same code at batch shape ().

    Everything downstream (connections, curvature, classification) takes an
    evaluation and reads the first-order data assembled here: values plus
    coordinate gradients, which second-order jets of the inputs make
    available for every derived tensor that has to be differentiated once
    more along the frame.  Build one per run and pass it to every function;
    each input jet and derived tensor is then computed once.
    """

    def __init__(self, structure: AdaptedStructure, points: np.ndarray):
        self.structure = structure
        self.chart = structure.chart
        self.p = np.asarray(points, dtype=float)
        self.n = self.chart.n
        self.m = self.chart.m
        if self.p.ndim == 0 or self.p.shape[-1] != self.n:
            raise ValueError(f"point has shape {self.p.shape}, expected (..., {self.n})")
        self.batch = self.p.shape[:-1]
        self.memo: dict = {}

    def zeros(self, *layout: int) -> np.ndarray:
        return np.zeros(self.batch + layout)

    def lift(self, arr: np.ndarray, ndim: int) -> np.ndarray:
        """``arr`` (batch shape + layout) with unit axes inserted after the
        batch axes, so that it broadcasts against an array of ``ndim`` axes."""
        nb = len(self.batch)
        return arr.reshape(self.batch + (1,) * (ndim - arr.ndim) + arr.shape[nb:])

    def max_abs(self, arr: np.ndarray) -> np.ndarray:
        """Largest |component| at each point: the maximum over every axis
        after the batch axes (NaN wins)."""
        return np.abs(arr).max(axis=tuple(range(len(self.batch), np.ndim(arr))))

    def inverse(self, matrices: np.ndarray, what: str) -> np.ndarray:
        """Batched inverse; a singular matrix is a :class:`SingularMetricError`
        naming the first point at which it is singular."""
        try:
            return np.linalg.inv(matrices)
        except np.linalg.LinAlgError:
            singular = np.zeros(self.batch, dtype=bool)
            for at in np.ndindex(self.batch):
                try:
                    np.linalg.inv(matrices[at])
                except np.linalg.LinAlgError:
                    singular[at] = True
            at = describe_first(self.p, singular)
            raise SingularMetricError(f"{what} singular at {at}") from None

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
        D[..., : self.m] -= F1[..., -1:] * self.lift(self.gam0, F1.ndim)
        return D

    def frame_d_grad(self, F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
        """Coordinate gradient of the horizontal frame derivatives:
        D1[..., a, j] = d_j (e_a F) for a < n-1."""
        D1 = F2[..., : self.m, :] - self.lift(self.gam1, F2.ndim) * F1[..., -1, None, None]
        D1 -= self.lift(self.gam0, F2.ndim - 1)[..., None] * F2[..., -1, None, :]
        return D1

    # -- derived tensors (value + coordinate gradient) -----------------------

    @cached_property
    def ginv0(self) -> np.ndarray:
        return self.inverse(self.g0, "frame metric")

    @cached_property
    def ginv1(self) -> np.ndarray:
        return -np.einsum("...ac,...cdj,...db->...abj", self.ginv0, self.g1, self.ginv0)

    @cached_property
    def omega0(self) -> np.ndarray:
        D = self.frame_d(self.gam1)[..., : self.m]  # D[b, a] = e_a gamma_b
        return 0.5 * (mat_t(D) - D)

    @cached_property
    def omega1(self) -> np.ndarray:
        D1 = self.frame_d_grad(self.gam1, self.gam2)  # D1[b, a, j] = d_j e_a gamma_b
        return 0.5 * (np.swapaxes(D1, -3, -2) - D1)

    @cached_property
    def psi0(self) -> np.ndarray:
        return self.ginv0 @ mat_t(self.omega0)

    @cached_property
    def psi1(self) -> np.ndarray:
        return np.einsum("...bcj,...ac->...baj", self.ginv1, self.omega0) + np.einsum(
            "...bc,...acj->...baj", self.ginv0, self.omega1
        )

    @cached_property
    def C0(self) -> np.ndarray:
        return 0.5 * self.g1[..., -1]

    @cached_property
    def Cmix0(self) -> np.ndarray:
        return self.ginv0 @ self.C0

    @cached_property
    def Omega0(self) -> np.ndarray:
        """Fundamental form Omega_{ab} = g(e_a, phi e_b) = g_ac phi^c_b."""
        return self.g0 @ self.phi0

    @cached_property
    def Omega1(self) -> np.ndarray:
        return np.einsum("...acj,...cb->...abj", self.g1, self.phi0) + np.einsum(
            "...ac,...cbj->...abj", self.g0, self.phi1
        )

    @cached_property
    def Gamma0(self) -> np.ndarray:
        """Internal connection Gamma^a_{bc} (also the horizontal Levi-Civita block)."""
        E = self.frame_d(self.g1)[..., : self.m]  # E[c, d, i] = e_i g_cd
        T = (
            np.einsum("...cdb->...bcd", E)
            + np.einsum("...bdc->...bcd", E)
            - np.einsum("...bcd->...bcd", E)
        )
        return 0.5 * np.einsum("...ad,...bcd->...abc", self.ginv0, T)

    @property
    def Gamma1(self) -> np.ndarray:
        """Coordinate gradient of Gamma0, Gamma1[..., a, b, c, j]; only the
        curvature reads it, once per evaluation, so it is not kept."""
        E = self.frame_d(self.g1)[..., : self.m]
        E1 = self.frame_d_grad(self.g1, self.g2)  # E1[c, d, i, j] = d_j e_i g_cd
        T = np.einsum("...cdb->...bcd", E) + np.einsum("...bdc->...bcd", E) - E
        T1 = np.einsum("...cdbj->...bcdj", E1) + np.einsum("...bdcj->...bcdj", E1)
        T1 -= E1
        del E1
        out = np.einsum("...adj,...bcd->...abcj", self.ginv1, T)
        out += np.einsum("...ad,...bcdj->...abcj", self.ginv0, T1)
        out *= 0.5
        return out

    @cached_property
    def d_eta_xi(self) -> np.ndarray:
        return self.gam1[..., -1].copy()

    # -- full-frame metric and connection coefficient arrays ------------------

    @cached_property
    def g_full(self) -> np.ndarray:
        """Metric on the full frame (e_a, xi): block-diagonal with g(xi, xi) = 1."""
        G = self.zeros(self.n, self.n)
        G[..., : self.m, : self.m] = self.g0
        G[..., -1, -1] = 1.0
        return G

    @cached_property
    def lc_full(self) -> np.ndarray:
        """Levi-Civita coefficients on the adapted frame, coeff[i, j, k]."""
        m, last = self.m, self.n - 1
        coeff = self.zeros(self.n, self.n, self.n)
        coeff[..., :m, :m, :m] = np.moveaxis(self.Gamma0, -3, -1)
        coeff[..., :m, :m, last] = mat_t(self.omega0) - self.C0
        mixed = mat_t(self.Cmix0 + self.psi0)  # mixed[a, b] = C^b_a + psi^b_a
        coeff[..., :m, last, :m] = mixed
        coeff[..., last, :m, :m] = mixed
        coeff[..., last, :m, last] = -self.d_eta_xi
        coeff[..., last, last, :m] = (self.ginv0 @ self.d_eta_xi[..., None])[..., 0]
        return coeff

    def n_full(self, N0: np.ndarray) -> np.ndarray:
        """N-connection coefficients on the adapted frame, coeff[i, j, k]."""
        m, last = self.m, self.n - 1
        coeff = self.zeros(self.n, self.n, self.n)
        coeff[..., :m, :m, :m] = np.moveaxis(self.Gamma0, -3, -1)
        coeff[..., last, :m, :m] = mat_t(N0)
        coeff[..., last, :m, last] = -self.d_eta_xi
        return coeff

    @cached_property
    def canonical_full(self) -> np.ndarray:
        return self.n_full(2.0 * self.psi0)

    @cached_property
    def phi_full(self) -> np.ndarray:
        """phi extended by phi(xi) = 0 on the full frame, phi_full[k, j] = phi^k_j."""
        out = self.zeros(self.n, self.n)
        out[..., : self.m, : self.m] = self.phi0
        return out

    def phi_frame_d(self) -> np.ndarray:
        """E_i phi^b_a over the full frame: D[b, a, i] (zero on xi slots)."""
        D = self.zeros(self.n, self.n, self.n)
        D[..., : self.m, : self.m, :] = self.frame_d(self.phi1)
        return D


def mat_t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (the matrix layout after the batch axes)."""
    return np.swapaxes(a, -1, -2)


def memoised(builder):
    """Compute ``builder(ev)`` once per evaluation, like a cached property of
    :class:`StructureEval` defined outside this module."""

    @wraps(builder)
    def cached(ev: StructureEval):
        if builder not in ev.memo:
            ev.memo[builder] = builder(ev)
        return ev.memo[builder]

    return cached


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
    trace_psi_sq: np.ndarray


def validate_axioms(ev: StructureEval) -> dict[str, np.ndarray]:
    """Max-abs residual of each structure axiom at each evaluated point.

    In the adapted representation eta(xi) = 1, phi(xi) = 0, eta o phi = 0 and
    eta = g(., xi) hold identically, so those entries are exactly zero; the
    two substantive checks are phi^2 = -id on the distribution and metric
    compatibility g(phi X, phi Y) = g(X, Y) there.
    """
    zero = ev.zeros()
    return {
        "phi_square": ev.max_abs(ev.phi0 @ ev.phi0 + np.eye(ev.m)),
        "eta_xi": zero,
        "compatibility": ev.max_abs(mat_t(ev.phi0) @ ev.g0 @ ev.phi0 - ev.g0),
        "phi_xi": zero,
        "eta_circ_phi": zero,
        "eta_metric_dual": zero,
    }


def metric_definiteness(ev: StructureEval, floor: float = 1e-9) -> np.ndarray:
    """Smallest eigenvalue (absolute value if pseudo) of the frame metric at
    each evaluated point.

    Raises :class:`SingularMetricError`, naming the first offending point,
    when it is below ``floor`` anywhere.
    """
    pseudo = ev.structure.pseudo
    eigs = np.linalg.eigvalsh(0.5 * (ev.g0 + mat_t(ev.g0)))
    smallest = (np.abs(eigs) if pseudo else eigs).min(axis=-1)
    low = smallest <= floor
    if np.any(low):
        kind = "degenerate" if pseudo else "non-positive-definite"
        at, eigenvalue = describe_first(ev.p, low), smallest[low][0]
        raise SingularMetricError(f"frame metric {kind} at {at} (eigenvalue {eigenvalue:.3e})")
    return smallest


def derived(ev: StructureEval) -> DerivedTensors:
    """Fundamental form, omega, psi, C and tr(psi^2) at the evaluated points."""
    psi = ev.psi0
    return DerivedTensors(
        Omega=ev.Omega0,
        omega=ev.omega0,
        psi=psi,
        C=ev.C0,
        C_mixed=ev.Cmix0,
        trace_psi_sq=np.einsum("...ab,...ba->...", psi, psi),
    )


def ext_d_from_grad(grads: np.ndarray, rank: int) -> np.ndarray:
    """Exterior derivative from component gradients, 1/2-family normalization.

    ``grads`` has shape batch + (n,)*rank + (n,), the last axis being d_j;
    the result is (d alpha)_{i0..ip} = (rank+1)^{-1} sum_k (-1)^k
    d_{i_k} alpha_{..no i_k..}.
    """
    nb = grads.ndim - rank - 1
    out = np.zeros(grads.shape)
    sign = 1.0
    for k in range(rank + 1):
        out += sign * np.moveaxis(grads, -1, nb + k)
        sign = -sign
    return out / (rank + 1)


def exterior_derivative(ev: StructureEval, form: np.ndarray) -> np.ndarray:
    """d of a coordinate p-form given as an object array of ScalarFields.

    Components must be skew in their coordinate indices; the result is the
    (p+1)-form's coordinate components at the evaluated points.
    """
    n = ev.n
    rank = form.ndim
    if form.shape != (n,) * rank:
        raise ValueError(f"form components must have shape {(n,) * rank}, got {form.shape}")
    f0, f1 = field_jets(form, ev.p, order=1)
    if rank >= 2:
        skew = _antisymmetrize(f0, rank)
        if np.abs(f0 - skew).max() > 1e-9 * (1.0 + np.abs(f0).max()):
            raise ValueError("form components are not skew in their coordinate indices")
    return ext_d_from_grad(f1, rank)


def _antisymmetrize(T: np.ndarray, rank: int) -> np.ndarray:
    """Antisymmetrization over the last ``rank`` axes."""
    nb = T.ndim - rank
    out = np.zeros_like(T)
    for perm in permutations(range(rank)):
        out += _perm_sign(perm) * np.transpose(T, tuple(range(nb)) + tuple(nb + i for i in perm))
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
    F0 = ev.zeros(n, n)
    F0[..., :m, :m] = ev.Omega0
    F1 = ev.zeros(n, n, n)
    F1[..., :m, :m, :] = ev.Omega1
    return F0, F1


def d_fundamental_form(ev: StructureEval) -> np.ndarray:
    """Coordinate components of d(Omega) at the evaluated points."""
    _, F1 = fundamental_form_coordinate(ev)
    return ext_d_from_grad(F1, 2)
