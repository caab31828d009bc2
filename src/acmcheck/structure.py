"""Evaluation of a manifest's structure and its derived tensors.

A :class:`StructureEval` reads the gamma fields, the frame metric g_ab and
the endomorphism phi^b_a of the horizontal distribution from a validated
:class:`~acmcheck.manifest.Manifest`; the Reeb field is unit, orthogonal to
the distribution, and phi(xi) = 0 by representation.  All inputs are given
in adapted-frame components.

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

from functools import cached_property, lru_cache, wraps
from itertools import combinations
from math import prod

import numpy as np

from .chart import adapted_frame, gamma_jets, nonholonomy
from .expr import describe_first, field_jets, frozen
from .manifest import Manifest

# the frame metric's smallest eigenvalue (absolute value if pseudo) must
# stay above this at every evaluated point
METRIC_FLOOR = 1e-9


class SingularMetricError(Exception):
    pass


class TruncatedJetError(Exception):
    """A Hessian was read from an evaluation built to order 1."""


class StructureEval:
    """Cached evaluation of a manifest's structure and its derived tensors at
    a point or over a block of points.

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

    ``order`` is the highest order of the metric and gamma jets that the
    reader needs.  The default 2 serves everything.  An evaluation to order
    1 computes no Hessian, so it serves every tensor that is not
    differentiated along the frame (omega, psi, C, the connections and the
    torsion) but not the curvatures; reading ``g2`` or ``gam2`` from it
    (directly or through ``omega1``, ``psi1`` or ``Gamma1``) raises
    :class:`TruncatedJetError`.
    """

    def __init__(self, manifest: Manifest, points: np.ndarray, order: int = 2):
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order!r}")
        self.manifest = manifest
        self.order = order
        self.p = np.asarray(points, dtype=float)
        self.n = manifest.dimension
        self.m = self.n - 1
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

    def max_abs(self, arr: np.ndarray, minus: np.ndarray | None = None) -> np.ndarray:
        """Largest |component| of ``arr``, or of ``arr - minus``, at each
        point: the maximum over every axis after the batch axes (NaN wins).
        A difference is taken in one temporary and made absolute in place."""
        if minus is None:
            out = np.abs(arr)
        else:
            out = np.subtract(arr, minus)
            np.abs(out, out=out)
        return out.reshape(self.batch + (-1,)).max(axis=-1)

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

    def _hessian(self, jets: tuple[np.ndarray, ...], name: str) -> np.ndarray:
        if self.order < 2:
            raise TruncatedJetError(
                f"{name} is a Hessian, and this evaluation stops at order {self.order}; build it with order=2"
            )
        return jets[2]

    @cached_property
    def _gamma(self):
        return gamma_jets(self.manifest, self.p, self.order)

    @property
    def gam0(self) -> np.ndarray:
        return self._gamma[0]

    @property
    def gam1(self) -> np.ndarray:
        return self._gamma[1]

    @property
    def gam2(self) -> np.ndarray:
        return self._hessian(self._gamma, "gam2")

    @cached_property
    def _g(self):
        return field_jets(self.manifest.plans["metric_frame"], self.p, self.order)

    @property
    def g0(self) -> np.ndarray:
        return self._g[0]

    @property
    def g1(self) -> np.ndarray:
        return self._g[1]

    @property
    def g2(self) -> np.ndarray:
        return self._hessian(self._g, "g2")

    @cached_property
    def _phi(self):
        return field_jets(self.manifest.plans["phi_frame"], self.p, order=1)

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
        return -contract("...ac,...cdj,...db->...abj", self.ginv0, self.g1, self.ginv0)

    @cached_property
    def _nonholonomy(self):
        return nonholonomy(self.gam0, self.gam1)

    @property
    def omega0(self) -> np.ndarray:
        return self._nonholonomy[0]

    @property
    def d_eta_xi(self) -> np.ndarray:
        """d_n gamma_a = 2 d(eta)(xi, e_a)."""
        return self._nonholonomy[1]

    @cached_property
    def omega1(self) -> np.ndarray:
        D1 = self.frame_d_grad(self.gam1, self.gam2)  # D1[b, a, j] = d_j e_a gamma_b
        return 0.5 * (np.swapaxes(D1, -3, -2) - D1)

    @cached_property
    def psi0(self) -> np.ndarray:
        return self.ginv0 @ mat_t(self.omega0)

    @cached_property
    def psi1(self) -> np.ndarray:
        return contract("...bcj,...ac->...baj", self.ginv1, self.omega0) + contract(
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
        return contract("...acj,...cb->...abj", self.g1, self.phi0) + contract(
            "...ac,...cbj->...abj", self.g0, self.phi1
        )

    @cached_property
    def g_frame_d(self) -> np.ndarray:
        """E_i g_cd over the full frame, D[c, d, i]: read by the Koszul sums
        and by the metricity defect, built once (read-only)."""
        return frozen(self.frame_d(self.g1))

    @cached_property
    def koszul0(self) -> np.ndarray:
        """Koszul sums T[b, c, d] = e_b g_cd + e_c g_bd - e_d g_bc, so that
        Gamma^a_{bc} = g^{ad} T_bcd / 2."""
        E = self.g_frame_d[..., : self.m]  # E[c, d, i] = e_i g_cd
        return (
            np.einsum("...cdb->...bcd", E)
            + np.einsum("...bdc->...bcd", E)
            - np.einsum("...bcd->...bcd", E)
        )

    @cached_property
    def Gamma0(self) -> np.ndarray:
        """Internal connection Gamma^a_{bc} (also the horizontal Levi-Civita block)."""
        return 0.5 * contract("...ad,...bcd->...abc", self.ginv0, self.koszul0)

    @property
    def Gamma1(self) -> np.ndarray:
        """Coordinate gradient of Gamma0, Gamma1[..., a, b, c, j]; only the
        curvature reads it, so it is not kept."""
        m = self.m
        E1 = self.frame_d_grad(self.g1, self.g2)  # E1[c, d, i, j] = d_j e_i g_cd
        # the gradient of the Koszul sums, T1[b, c, d, j], laid out in memory
        # as [d, b, c, j] so that its contraction over d reads it in place
        T1 = np.moveaxis(np.empty(self.batch + (m, m, m, self.n)), -4, -2)
        np.add(np.einsum("...cdbj->...bcdj", E1), np.einsum("...bdcj->...bcdj", E1), out=T1)
        T1 -= E1
        del E1
        out = contract("...ad,...bcdj->...abcj", self.ginv0, T1)
        del T1
        out += contract("...adj,...bcd->...abcj", self.ginv1, self.koszul0)
        out *= 0.5
        return out

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
        """N-connection coefficients on the adapted frame, coeff[i, j, k].

        For ``canonical_N`` itself this is the kept, read-only
        ``canonical_full``; any other N0 gets a new table."""
        if N0 is self.__dict__.get("canonical_N"):  # once it is built
            return self.canonical_full
        return self._n_table(N0)

    def _n_table(self, N0: np.ndarray) -> np.ndarray:
        m, last = self.m, self.n - 1
        coeff = self.zeros(self.n, self.n, self.n)
        coeff[..., :m, :m, :m] = np.moveaxis(self.Gamma0, -3, -1)
        coeff[..., last, :m, :m] = mat_t(N0)
        coeff[..., last, :m, last] = -self.d_eta_xi
        return coeff

    @cached_property
    def canonical_N(self) -> np.ndarray:
        """N = 2 psi, the endomorphism of the canonical connection (the unique
        N-connection with skew-symmetric torsion)."""
        return 2.0 * self.psi0

    @cached_property
    def canonical_full(self) -> np.ndarray:
        """The canonical connection's coefficient table (read-only): built
        once, read by the torsion, the metricity defect, the formula check
        and nabla phi."""
        return frozen(self._n_table(self.canonical_N))

    @cached_property
    def phi_full(self) -> np.ndarray:
        """phi extended by phi(xi) = 0 on the full frame, phi_full[k, j] = phi^k_j."""
        out = self.zeros(self.n, self.n)
        out[..., : self.m, : self.m] = self.phi0
        return out

    @cached_property
    def phi_frame_d(self) -> np.ndarray:
        """E_i phi^b_a along the full frame, D[b, a, i] for horizontal a, b
        (phi xi = 0), read-only: shared by nabla phi under every connection."""
        return frozen(self.frame_d(self.phi1))

    # -- products of phi, psi and omega, each read by more than one criterion --

    @cached_property
    def phi_psi0(self) -> np.ndarray:
        """A = phi o psi, A[b, a] = phi^b_c psi^c_a (read-only)."""
        return frozen(self.phi0 @ self.psi0)

    @cached_property
    def psi_phi0(self) -> np.ndarray:
        """psi o phi, [b, a] = psi^b_c phi^c_a (read-only)."""
        return frozen(self.psi0 @ self.phi0)

    @cached_property
    def omega_phi0(self) -> np.ndarray:
        """d(eta)(phi e_a, phi e_b) = phi^c_a phi^d_b omega_cd (read-only)."""
        return frozen(contract("...ca,...db,...cd->...ab", self.phi0, self.phi0, self.omega0))


def mat_t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (the matrix layout after the batch axes)."""
    return np.swapaxes(a, -1, -2)


def contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands)`` for an explicit ``->`` form in
    which every label occurs at most once per operand and every summed label
    in at least two operands.

    The operands are contracted by a plan of pairwise batched matrix
    products (:func:`contraction_plan`), computed once per subscripts and
    shapes.  A single point (no batch axes) is planned like a batch, so it
    is summed in the same order as its row of any batch.
    """
    plan = contraction_plan(subscripts, tuple(op.shape for op in operands))
    arrays = list(operands)
    for i, j, a_perm, a_shape, b_perm, b_shape, out_shape, out_perm in plan:
        b = arrays.pop(j)
        a = arrays.pop(i)
        c = np.matmul(a.transpose(a_perm).reshape(a_shape), b.transpose(b_perm).reshape(b_shape))
        arrays.append(c.reshape(out_shape).transpose(out_perm))
    return arrays[0]


@lru_cache(maxsize=256)
def contraction_plan(subscripts: str, shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """The steps of :func:`contract` for operands of these shapes; operands
    without batch axes (a single point) are planned with zero of them.

    Each step takes operands i < j off the list and appends
    ``matmul(a.transpose(a_perm).reshape(a_shape), b.transpose(b_perm)
    .reshape(b_shape)).reshape(out_shape).transpose(out_perm)``: the labels
    that both operands carry and that are still needed lead as matmul batch
    axes (which broadcast), then the labels of a alone, then those of b
    alone; the labels both carry and nothing else needs are summed.  Of
    three or more operands, the pair with the smallest result goes first.
    """
    inputs, output = subscripts.replace(" ", "").split("->")
    terms = inputs.split(",")
    if len(terms) != len(shapes) or len(terms) < 2:
        raise ValueError(f"'{subscripts}' does not name {len(shapes)} operands (two or more)")
    # batch axes get the labels -k..-1, aligned from the right as they broadcast
    ops = []
    nbatch = 0
    for term, shape in zip(terms, shapes):
        letters = term.replace("...", "")
        k = len(shape) - len(letters)
        if k < 0 or (k and "..." not in term) or len(set(letters)) != len(letters):
            raise ValueError(f"'{subscripts}' does not fit operand shapes {shapes}")
        ops.append((tuple(range(-k, 0)) + tuple(letters), shape))
        nbatch = max(nbatch, k)
    if nbatch and "..." not in output:
        raise ValueError(f"'{subscripts}' drops the batch axes of its operands")
    out_labels = tuple(range(-nbatch, 0)) + tuple(output.replace("...", ""))

    def split(i: int, j: int):
        """Output sizes, the labels of a pair (shared, summed, a's alone,
        b's alone), and the unit axes of a and of b that the other fills."""
        (a, a_shape), (b, b_shape) = ops[i], ops[j]
        needed = set(out_labels).union(*(ops[k][0] for k in range(len(ops)) if k not in (i, j)))
        a_size, b_size = dict(zip(a, a_shape)), dict(zip(b, b_shape))
        size = {**b_size, **{label: max(n, b_size.get(label, 1)) for label, n in a_size.items()}}
        both = [label for label in a if label in b]
        summed = [label for label in both if label not in needed]
        # a kept label along which one operand only broadcasts (size 1)
        # belongs to the other alone, so it joins a matrix dimension
        kept = [label for label in both if label in needed]
        a_unit = [label for label in kept if a_size[label] == 1 < b_size[label]]
        b_unit = [label for label in kept if b_size[label] == 1 < a_size[label]]
        shared = [label for label in kept if label not in a_unit + b_unit]
        left = [label for label in a if label not in b] + b_unit
        right = [label for label in b if label not in a] + a_unit
        if not needed.issuperset(left + right):
            raise ValueError(f"'{subscripts}' sums a label that only one operand carries")
        return size, shared, summed, left, right, a_unit, b_unit

    def result_size(ij: tuple[int, int]) -> int:
        size, shared, _, left, right, _, _ = split(*ij)
        return prod(size[label] for label in shared + left + right)

    steps = []
    while len(ops) > 1:
        i, j = min(combinations(range(len(ops)), 2), key=result_size)
        size, shared, summed, left, right, a_unit, b_unit = split(i, j)
        (a, a_shape), (b, b_shape) = ops[i], ops[j]
        n_left, n_summed, n_right = (
            prod(size[label] for label in part) for part in (left, summed, right)
        )
        labels = tuple(shared + left + right)
        shape = tuple(size[label] for label in labels)
        ops = [op for k, op in enumerate(ops) if k not in (i, j)] + [(labels, shape)]
        order = out_labels if len(ops) == 1 else labels
        a_left = [label for label in left if label not in b_unit]
        b_right = [label for label in right if label not in a_unit]
        steps.append(
            (
                i,
                j,
                tuple(a.index(label) for label in shared + a_left + b_unit + summed + a_unit),
                tuple(a_shape[a.index(label)] for label in shared) + (n_left, n_summed),
                tuple(b.index(label) for label in shared + b_unit + summed + b_right + a_unit),
                tuple(b_shape[b.index(label)] for label in shared) + (n_summed, n_right),
                shape,
                tuple(labels.index(label) for label in order),
            )
        )
    return tuple(steps)


def memoised(builder):
    """Compute ``builder(ev, ...)`` once per evaluation and argument list,
    like a cached property of :class:`StructureEval` defined outside this
    module.  Further arguments must be hashable."""

    @wraps(builder)
    def cached(ev: StructureEval, *args, **kwargs):
        key = (builder, *args, *kwargs.items())
        if key not in ev.memo:
            ev.memo[key] = builder(ev, *args, **kwargs)
        return ev.memo[key]

    return cached


# ---------------------------------------------------------------------------
# Structure-level operations
# ---------------------------------------------------------------------------


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
        "compatibility": ev.max_abs(mat_t(ev.phi0) @ ev.g0 @ ev.phi0, ev.g0),
        "phi_xi": zero,
        "eta_circ_phi": zero,
        "eta_metric_dual": zero,
    }


def metric_definiteness(ev: StructureEval) -> np.ndarray:
    """Smallest eigenvalue (absolute value if pseudo) of the frame metric at
    each evaluated point.

    Raises :class:`SingularMetricError`, naming the first offending point,
    when the metric is not finite or its smallest eigenvalue is at most
    :data:`METRIC_FLOOR` anywhere.
    """
    pseudo = ev.manifest.pseudo
    # halved before the sum, so that a finite metric does not overflow
    sym = 0.5 * ev.g0 + 0.5 * mat_t(ev.g0)
    nonfinite = ~np.isfinite(sym).all(axis=(-2, -1))
    if np.any(nonfinite):
        raise SingularMetricError(f"frame metric not finite at {describe_first(ev.p, nonfinite)}")
    eigs = np.linalg.eigvalsh(sym)
    smallest = (np.abs(eigs) if pseudo else eigs).min(axis=-1)
    low = smallest <= METRIC_FLOOR
    if np.any(low):
        kind = "degenerate" if pseudo else "non-positive-definite"
        at, eigenvalue = describe_first(ev.p, low), smallest[low][0]
        raise SingularMetricError(f"frame metric {kind} at {at} (eigenvalue {eigenvalue:.3e})")
    return smallest


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


def d_fundamental_form(ev: StructureEval) -> np.ndarray:
    """Coordinate components of d(Omega) at the evaluated points, from the
    gradients of Omega zero-padded to the coordinate frame."""
    F1 = ev.zeros(ev.n, ev.n, ev.n)
    F1[..., : ev.m, : ev.m, :] = ev.Omega1
    return ext_d_from_grad(F1, 2)
