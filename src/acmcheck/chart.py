"""Adapted charts: frame derivatives, the nonholonomy form, rank, and
adapted coordinate changes.

Conventions (fixed project-wide):
  * coordinates are 0-based; the last coordinate is the Reeb direction,
    xi = d/dx^n, and the horizontal frame is e_a = d/dx^a - gamma_a d/dx^n
    for a = 0..n-2;
  * eta is the coordinate 1-form with components (gamma_a, 1);
  * exterior derivatives carry the 1/2-alternation factor, so
    d(eta)(X, Y) = (X eta(Y) - Y eta(X) - eta([X, Y])) / 2.

With these choices [e_a, e_b] = 2 omega_{ba} xi and
omega_{ab} = d(eta)(e_a, e_b) = (e_a gamma_b - e_b gamma_a) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import ScalarField, field_jets

AVOID_EPS = 1e-6  # sample points must keep every 'avoid' field at least this far from zero
MAX_REDRAWS = 1000


class ChartError(Exception):
    pass


class SingularJacobianError(ChartError):
    pass


# index valence tags for TensorGrid
FRAME_LOWER = "frame_lower"
FRAME_UPPER = "frame_upper"
COORD = "coord"


@dataclass(frozen=True)
class TensorGrid:
    """Dense component array tagged with per-index valences.

    Frame indices range over the horizontal distribution (n-1 values);
    coordinate indices over the full chart (n values).  Admissible tensors
    are stored on frame indices only, which encodes their vanishing on the
    Reeb/eta slots.  Every axis carries a valence, so a grid holds the
    components at one point; arrays over a block of points stay plain
    arrays with the batch axes in front (see :mod:`acmcheck.structure`).
    """

    components: np.ndarray
    valence: tuple[str, ...]

    def __post_init__(self):
        if self.components.ndim != len(self.valence):
            raise ValueError("valence length does not match component rank")

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.components, dtype=dtype)


@dataclass(frozen=True)
class AdaptedChart:
    """An adapted chart: n odd coordinates, the last one dual to eta.

    ``gamma`` holds the n-1 connection coefficients gamma_a of the
    horizontal frame; ``domain`` is the sampling box; ``avoid`` lists fields
    that must stay nonzero at sample points (e.g. "y" for charts defined on
    y != 0).
    """

    coords: tuple[str, ...]
    gamma: tuple[ScalarField, ...]
    domain: tuple[tuple[float, float], ...]
    avoid: tuple[ScalarField, ...] = field(default_factory=tuple)

    def __post_init__(self):
        n = len(self.coords)
        if n < 3 or n % 2 == 0:
            raise ChartError(f"dimension must be odd and >= 3, got {n}")
        if len(self.gamma) != n - 1:
            raise ChartError(f"expected {n - 1} gamma entries, got {len(self.gamma)}")
        if len(self.domain) != n:
            raise ChartError(f"expected {n} domain intervals, got {len(self.domain)}")
        for lo, hi in self.domain:
            if not lo < hi:
                raise ChartError(f"empty domain interval [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def m(self) -> int:
        """Dimension of the horizontal distribution."""
        return self.n - 1

    def contains(self, p: np.ndarray) -> bool:
        p = np.asarray(p, dtype=float)
        if p.shape != (self.n,):
            return False
        for x, (lo, hi) in zip(p, self.domain):
            if not lo <= x <= hi:
                return False
        return all(abs(f.value(p)) >= AVOID_EPS for f in self.avoid)

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        """Deterministic samples: point i depends only on (seed, i), never on
        how many other points are drawn or in which order.

        Each index draws from its own generator until its candidate keeps
        every 'avoid' field clear of zero; the fields are evaluated once per
        round over the block of pending candidates, each one only where the
        fields before it were clear."""
        lo = np.array([iv[0] for iv in self.domain])
        hi = np.array([iv[1] for iv in self.domain])
        rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            for i in range(count)
        ]
        points = np.empty((count, self.n))
        pending = np.arange(count)
        for _ in range(MAX_REDRAWS):
            if not pending.size:
                break
            points[pending] = lo + (hi - lo) * np.array([rngs[i].random(self.n) for i in pending])
            clear = np.ones(pending.size, dtype=bool)
            for f in self.avoid:
                if clear.any():
                    clear[clear] = np.abs(f.value(points[pending[clear]])) >= AVOID_EPS
            pending = pending[~clear]
        if pending.size:
            raise ChartError(f"could not sample point {pending[0]} clear of 'avoid' loci")
        return points


# ---------------------------------------------------------------------------
# Frame calculus
# ---------------------------------------------------------------------------


def gamma_jets(chart: AdaptedChart, p: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
    """Value, gradient and (for ``order`` 2) Hessian arrays of the gamma
    fields at a point or over a block of points."""
    return field_jets(np.array(chart.gamma, dtype=object), p, order)


def adapted_frame(gam0: np.ndarray, gam1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate components E0[..., i, q] of the adapted frame (e_a, xi) and
    their gradients E1[..., i, q, j] = d_j E0[..., i, q], from the gamma jets."""
    m, n = gam1.shape[-2:]
    batch = gam1.shape[:-2]
    E0 = np.zeros(batch + (n, n))
    E0[...] = np.eye(n)
    E0[..., :m, -1] = -gam0
    E1 = np.zeros(batch + (n, n, n))
    E1[..., :m, -1, :] = -gam1
    return E0, E1


def nonholonomy(gam0: np.ndarray, gam1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(omega, d_eta_xi) from the gamma jets: omega_{ab} = (e_a gamma_b -
    e_b gamma_a)/2, skew by construction, and the vector d_n gamma_a, equal
    to 2 d(eta)(xi, e_a)."""
    m = gam1.shape[-2]
    # e_a gamma_b = d_a gamma_b - gamma_a d_n gamma_b
    eg = np.swapaxes(gam1[..., :m], -1, -2) - gam0[..., :, None] * gam1[..., None, :, -1]
    return 0.5 * (eg - np.swapaxes(eg, -1, -2)), gam1[..., -1].copy()


def rank_of(omega: np.ndarray, vertical: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rank from omega and d(eta)(xi, .) at each point: 2p from the rank of
    omega, 2p+1 when additionally the vertical part vanishes, and -1 (no
    rank) where either is not finite."""
    finite = np.isfinite(omega).all(axis=(-2, -1)) & np.isfinite(vertical).all(axis=-1)
    sv = np.linalg.svd(np.where(finite[..., None, None], omega, 0.0), compute_uv=False)
    top = sv[..., :1]
    two_p = np.where(top[..., 0] > 0.0, np.count_nonzero(sv > tol * top, axis=-1), 0)
    scale = 1.0 + np.abs(omega).max(axis=(-2, -1))
    rank = two_p + (np.abs(vertical).max(axis=-1) <= tol * scale)
    return np.where(finite, rank, -1)


def rank_at(chart: AdaptedChart, p: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Pointwise rank of the structure at p (see :func:`rank_of`)."""
    return rank_of(*nonholonomy(*gamma_jets(chart, p, order=1)), tol)


def frame_bracket(chart: AdaptedChart, a: int, b: int, p: np.ndarray) -> np.ndarray:
    """Coordinate components of [e_a, e_b], computed from jets of gamma.

    [V, W]^i = V^j d_j W^i - W^j d_j V^i with V = e_a, W = e_b.  Serves as
    the independent oracle for :func:`nonholonomy`.
    """
    E0, E1 = adapted_frame(*gamma_jets(chart, p, order=1))
    return (E1[..., b, :, :] @ E0[..., a, :, None] - E1[..., a, :, :] @ E0[..., b, :, None])[..., 0]


# ---------------------------------------------------------------------------
# Adapted coordinate changes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptedTransition:
    """An adapted change of chart x^a = x^a(x^a'), x^n = x^n' + s(x^a').

    ``frame_maps`` and ``shift`` are expressions over the primed coordinates;
    they must not involve the primed Reeb coordinate.
    """

    frame_maps: tuple[ScalarField, ...]
    shift: ScalarField

    def image_point(self, p_primed: np.ndarray) -> np.ndarray:
        p = np.asarray(p_primed, dtype=float)
        out = np.empty_like(p)
        for a, f in enumerate(self.frame_maps):
            out[a] = f.value(p)
        out[-1] = p[-1] + self.shift.value(p)
        return out

    def jacobian(self, p_primed: np.ndarray) -> np.ndarray:
        """A[a, a'] = d x^a / d x^a' at the primed point."""
        m = len(self.frame_maps)
        A = np.empty((m, m))
        for a, f in enumerate(self.frame_maps):
            A[a] = f.jet(p_primed).grad[:m]
        return A


def change_chart(
    transition: AdaptedTransition,
    t: TensorGrid,
    p_primed: np.ndarray,
    cond_limit: float = 1e8,
) -> tuple[TensorGrid, np.ndarray]:
    """Push an admissible tensor through an adapted transition.

    Components transform index-by-index: frame-upper indices contract with
    A[a, a'], frame-lower ones with the inverse Jacobian A[a', a].  Returns
    the components in the target chart together with the image point.
    """
    if any(v not in (FRAME_LOWER, FRAME_UPPER) for v in t.valence):
        raise ValueError("change_chart handles admissible (frame-index) tensors only")
    A = transition.jacobian(p_primed)
    if not np.all(np.isfinite(A)) or np.linalg.cond(A) >= cond_limit:
        raise SingularJacobianError(f"transition Jacobian ill-conditioned at {p_primed}")
    A_inv = np.linalg.inv(A)
    out = t.components
    for axis, valence in enumerate(t.valence):
        if valence == FRAME_UPPER:
            # t^a = A^a_{a'} t^{a'}
            out = np.tensordot(A, out, axes=([1], [axis]))
        else:
            # t_b = A^{b'}_b t_{b'}
            out = np.tensordot(A_inv, out, axes=([0], [axis]))
        out = np.moveaxis(out, 0, axis)
    return TensorGrid(out, t.valence), transition.image_point(p_primed)
