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
from math import prod

import numpy as np

from .chart import frame_gradient, frame_matrix, nonholonomy
from .expr import describe_first, field_jets, frozen
from .manifest import Manifest
from .residuals import per_point

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
        A difference is taken in one temporary and made absolute in place;
        the maxima of all points are one segmented reduce over it
        (:func:`~acmcheck.residuals.per_point`)."""
        if minus is None:
            out = np.abs(arr)
        else:
            out = np.subtract(arr, minus)
            np.abs(out, out=out)
        return per_point(np.maximum, out, self.batch)

    def inverse(self, matrices: np.ndarray, what: str) -> np.ndarray:
        """Batched inverse; a singular matrix is a :class:`SingularMetricError`
        naming the first point at which it is singular."""
        try:
            return np.linalg.inv(matrices)
        except np.linalg.LinAlgError:
            singular = inverse_by_point(matrices)[1]
            raise SingularMetricError(f"{what} singular at {describe_first(self.p, singular)}") from None

    # -- input jets ---------------------------------------------------------

    def _hessian(self, jets: tuple[np.ndarray, ...], name: str) -> np.ndarray:
        if self.order < 2:
            raise TruncatedJetError(
                f"{name} is a Hessian, and this evaluation stops at order {self.order}; build it with order=2"
            )
        return jets[2]

    @cached_property
    def _gamma(self):
        return field_jets(self.manifest.plans["gamma"], self.p, self.order)

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
        """(E0, E1): the adapted frame E0[..., i, q] = E_i^q, a transposed
        view of :attr:`frame_t`, and its gradients E1[..., i, q, j] = d_j E_i^q."""
        return mat_t(self.frame_t), frame_gradient(self.gam1)

    @cached_property
    def frame_t(self) -> np.ndarray:
        """The transposed frame matrix Et[..., q, i] = E_i^q of
        :func:`~acmcheck.chart.frame_matrix`, C-ordered and read-only: the
        right-hand operand of every :meth:`frame_d`, built without E1."""
        return frozen(frame_matrix(self.gam0))

    def frame_d(self, F1: np.ndarray) -> np.ndarray:
        """Frame derivatives from a coordinate gradient: D[..., i] = E_i F.

        The last axis of ``F1`` is the coordinate-derivative axis; the result
        keeps the same shape, re-expressed along (e_a, xi).

        The derivative is one matrix product per point: ``F1`` viewed as
        batch + (rows, n) times :attr:`frame_t`.  Its horizontal entries
        d_a F - gamma_a d_n F then come out of a BLAS kernel that may fuse
        the multiply and the subtraction into one rounding, so they can
        differ from the term-by-term form in the last ulp.  A product also
        multiplies every entry of a row by the zeros of the frame matrix, so
        one infinite entry would turn its whole row into NaN (and numpy
        would warn of it).  So a point whose gradient has an entry that is
        not finite is differentiated term by term, as d_a F - gamma_a d_n F,
        which keeps each infinity and its sign in the entries it reaches
        and leaves the other entries as they are.  The choice is made per
        point, so a point gets the same bits alone as in any batch.
        """
        rows = prod(F1.shape[len(self.batch) : -1])
        G = F1.reshape(self.batch + (rows, self.n))
        # the sum of squares is finite unless an entry is not finite or it
        # overflows, which only sends the call to the per-point choice below
        if np.isfinite(np.vdot(G, G)):
            return np.matmul(G, self.frame_t).reshape(F1.shape)
        D = F1.copy()
        D[..., : self.m] -= F1[..., -1:] * self.lift(self.gam0, F1.ndim)
        finite = per_point(np.logical_and, np.isfinite(G), self.batch)
        if finite.any():
            D.reshape(G.shape)[finite] = np.matmul(G[finite], self.frame_t[finite])
        return D

    def frame_d_grad(self, F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
        """Coordinate gradient of the horizontal frame derivatives:
        D1[..., a, j] = d_j (e_a F) for a < n-1, from the gradient ``F1``
        and the Hessian ``F2`` of F.

        d_j (e_a F) = e_a (d_j F) - d_j gamma_a d_n F: the first term is the
        frame derivative of the Hessian's rows (one :meth:`frame_d`, with
        its rounding and its fallback), transposed by the Hessian's
        symmetry."""
        G = np.swapaxes(self.frame_d(F2), -1, -2)  # G[..., i, j] = E_i d_j F
        D1 = self.lift(self.gam1, F2.ndim) * F1[..., -1, None, None]
        return np.subtract(G[..., : self.m, :], D1, out=D1)

    # -- derived tensors (value + coordinate gradient) -----------------------

    @cached_property
    def ginv0(self) -> np.ndarray:
        return self.inverse(self.g0, "frame metric")

    @cached_property
    def ginv1(self) -> np.ndarray:
        ginv_g1 = contract("...ac,...cdj->...adj", self.ginv0, self.g1)
        return -contract("...db,...adj->...abj", self.ginv0, ginv_g1)

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
        # the gradient of the Koszul sums, T1[b, c, d, j]
        T1 = np.empty(self.batch + (m, m, m, self.n))
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
        """Levi-Civita coefficients on the adapted frame, coeff[i, j, k]
        (read-only): built once, read by the oracle comparison, the
        N-connection formula check and nabla~ phi."""
        m, last = self.m, self.n - 1
        coeff = self.zeros(self.n, self.n, self.n)
        coeff[..., :m, :m, :m] = moveaxis(self.Gamma0, -3, -1)
        coeff[..., :m, :m, last] = mat_t(self.omega0) - self.C0
        mixed = mat_t(self.Cmix0 + self.psi0)  # mixed[a, b] = C^b_a + psi^b_a
        coeff[..., :m, last, :m] = mixed
        coeff[..., last, :m, :m] = mixed
        coeff[..., last, :m, last] = -self.d_eta_xi
        coeff[..., last, last, :m] = (self.ginv0 @ self.d_eta_xi[..., None])[..., 0]
        return frozen(coeff)

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
        coeff[..., :m, :m, :m] = moveaxis(self.Gamma0, -3, -1)
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
        phi_omega = contract("...ca,...cd->...ad", self.phi0, self.omega0)
        return frozen(contract("...db,...ad->...ab", self.phi0, phi_omega))


def inverse_by_point(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of each point's matrix, NaN at the singular points, and
    where those are: the batched inverse fails as a whole on one of them."""
    inv = np.full(matrices.shape, np.nan)
    singular = np.zeros(matrices.shape[:-2], dtype=bool)
    for at in np.ndindex(singular.shape):
        try:
            inv[at] = np.linalg.inv(matrices[at])
        except np.linalg.LinAlgError:
            singular[at] = True
    return inv, singular


def mat_t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (the matrix layout after the batch axes)."""
    return np.swapaxes(a, -1, -2)


def moveaxis(a: np.ndarray, source: int, destination: int) -> np.ndarray:
    """``np.moveaxis`` of one axis: the same view, by ``transpose`` on axes
    cached per (ndim, source, destination)."""
    return a.transpose(_moved_axes(a.ndim, source, destination))


@lru_cache(maxsize=64)
def _moved_axes(ndim: int, source: int, destination: int) -> tuple[int, ...]:
    order = list(range(ndim))
    order.insert(destination % ndim, order.pop(source % ndim))
    return tuple(order)


def contract(subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, a, b)`` for an explicit ``->`` form of two
    operands in which every label occurs at most once per operand and every
    summed label in both.

    The pair is one batched matrix product (:func:`contraction_plan`),
    planned once per subscripts and shapes.  A product of three tensors is
    two calls, the smaller intermediate first.  A single point (no batch
    axes) is planned like a batch, so it is summed in the same order as its
    row of any batch.  Batch axes broadcast as in ``np.einsum``; an operand
    with unit axes (a :meth:`StructureEval.lift`) is correct but slow, since
    ``np.matmul`` then runs one small product per entry of those axes, so
    the library passes none.

    Layout rule: a right-hand matmul operand whose last axis is not
    unit-stride (a transposed view) is copied to C order before its
    product, which has the same bits.  NumPy with OpenBLAS multiplies a
    batch of such views far slower than it copies them and multiplies the
    copy: (128, 25, 5) @ (128, 5, 5) takes 61 us against 15 us on a 2-core
    x86-64 VM.  A left-hand operand is left as it is: its transposed view
    is as fast, and a copy would change the bits of a matrix-vector step.
    """
    a_perm, a_shape, b_perm, b_shape, out_shape, out_perm = contraction_plan(
        subscripts, (a.shape, b.shape)
    )
    # an entry the plan stores as None would return a view of the same shape
    # and strides
    if a_perm is not None:
        a = a.transpose(a_perm)
    if a_shape is not None:
        a = a.reshape(a_shape)
    if b_perm is not None:
        b = b.transpose(b_perm)
    if b_shape is not None:
        b = b.reshape(b_shape)
    if b.strides[-1] != b.itemsize:
        b = np.ascontiguousarray(b)
    c = np.matmul(a, b)
    if out_shape is not None:
        c = c.reshape(out_shape)
    if out_perm is not None:
        c = c.transpose(out_perm)
    return c


@lru_cache(maxsize=256)
def contraction_plan(subscripts: str, shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """The one step of :func:`contract` for two operands a, b of these
    shapes; operands without batch axes (a single point) are planned with
    zero of them.

    The step is ``matmul(a.transpose(a_perm).reshape(a_shape),
    b.transpose(b_perm).reshape(b_shape)).reshape(out_shape)
    .transpose(out_perm)``: the labels that both operands carry and the
    output keeps lead as matmul batch axes, then the labels of a alone, then
    those of b alone; the labels both carry and the output drops are summed.
    A batch axis of size 1 in one operand keeps that size in its matrix
    shape, and ``np.matmul`` broadcasts it.  A product of three tensors is
    two plans, the smaller intermediate first.
    A permutation that is the identity, and a reshape to the shape the
    operand already has, are stored as None: :func:`contract` skips them.
    """
    inputs, output = subscripts.replace(" ", "").split("->")
    terms = inputs.split(",")
    if len(terms) != 2 or len(shapes) != 2:
        raise ValueError(f"'{subscripts}' does not name two operands")
    # batch axes get the labels -k..-1, aligned from the right as they broadcast
    labels = []
    nbatch = 0
    for term, shape in zip(terms, shapes):
        letters = term.replace("...", "")
        k = len(shape) - len(letters)
        if k < 0 or (k and "..." not in term) or len(set(letters)) != len(letters):
            raise ValueError(f"'{subscripts}' does not fit operand shapes {shapes}")
        labels.append(tuple(range(-k, 0)) + tuple(letters))
        nbatch = max(nbatch, k)
    if nbatch and "..." not in output:
        raise ValueError(f"'{subscripts}' drops the batch axes of its operands")
    out_labels = tuple(range(-nbatch, 0)) + tuple(output.replace("...", ""))
    (a, b), (a_shape, b_shape) = labels, shapes
    b_size = dict(zip(b, b_shape))
    size = {**b_size, **{label: max(n, b_size.get(label, 1)) for label, n in zip(a, a_shape)}}
    shared = [label for label in a if label in b and label in out_labels]
    summed = [label for label in a if label in b and label not in out_labels]
    left = [label for label in a if label not in b]
    right = [label for label in b if label not in a]
    if not set(out_labels).issuperset(left + right):
        raise ValueError(f"'{subscripts}' sums a label that only one operand carries")
    n_left, n_summed, n_right = (
        prod(size[label] for label in part) for part in (left, summed, right)
    )
    c_labels = tuple(shared + left + right)
    a_perm = tuple(a.index(label) for label in shared + left + summed)
    b_perm = tuple(b.index(label) for label in shared + summed + right)
    a_mat = tuple(a_shape[k] for k in a_perm[: len(shared)]) + (n_left, n_summed)
    b_mat = tuple(b_shape[k] for k in b_perm[: len(shared)]) + (n_summed, n_right)
    c_shape = tuple(size[label] for label in shared) + (n_left, n_right)
    return (
        _unless_identity(a_perm),
        _unless_same(a_mat, tuple(a_shape[k] for k in a_perm)),
        _unless_identity(b_perm),
        _unless_same(b_mat, tuple(b_shape[k] for k in b_perm)),
        _unless_same(tuple(size[label] for label in c_labels), c_shape),
        _unless_identity(tuple(c_labels.index(label) for label in out_labels)),
    )


def _unless_identity(perm: tuple[int, ...]) -> tuple[int, ...] | None:
    return None if perm == tuple(range(len(perm))) else perm


def _unless_same(shape: tuple[int, ...], current: tuple[int, ...]) -> tuple[int, ...] | None:
    return None if shape == current else shape


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
    nonfinite = ~per_point(np.logical_and, np.isfinite(sym), ev.batch)
    if np.any(nonfinite):
        raise SingularMetricError(f"frame metric not finite at {describe_first(ev.p, nonfinite)}")
    eigs = np.linalg.eigvalsh(sym)
    smallest = per_point(np.minimum, np.abs(eigs) if pseudo else eigs, ev.batch)
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
        out += sign * moveaxis(grads, -1, nb + k)
        sign = -sign
    return out / (rank + 1)


def d_fundamental_form(ev: StructureEval) -> np.ndarray:
    """Coordinate components of d(Omega) at the evaluated points, from the
    gradients of Omega zero-padded to the coordinate frame."""
    F1 = ev.zeros(ev.n, ev.n, ev.n)
    F1[..., : ev.m, : ev.m, :] = ev.Omega1
    return ext_d_from_grad(F1, 2)
