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

import operator
from dataclasses import dataclass, field

import numpy as np

from .expr import ExprDomainError, ScalarField, describe_first, field_jets

AVOID_EPS = 1e-6  # sample points must keep every 'avoid' field at least this far from zero
MAX_REDRAWS = 1000


class ChartError(Exception):
    pass


class SingularJacobianError(ChartError):
    pass


# index valence tags of admissible tensors (frame indices only) and of
# coordinate indices, which check_valence rejects
FRAME_LOWER = "frame_lower"
FRAME_UPPER = "frame_upper"
COORD = "coord"

# relative singular-value cutoff of the rank of omega, and of the vertical
# part's vanishing
RANK_TOL = 1e-9

# change_chart refuses a transition Jacobian whose condition number reaches this
JACOBIAN_COND_LIMIT = 1e8


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

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        """Deterministic samples: point i depends only on (seed, i), never on
        how many other points are drawn or in which order.

        Index i draws its coordinates from NumPy's
        ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``, whose
        ``random()`` stream is reproduced here bit for bit (see
        :func:`_pcg64_streams`), so plain NumPy regenerates every point.  An
        index keeps drawing from its stream until its candidate keeps every
        'avoid' field clear of zero; the fields are evaluated once per round
        over the block of pending candidates, each one only where the fields
        before it were clear.  A domain error in an avoid field names the
        sample index of the candidate it prints."""
        count = operator.index(count)
        if not 0 <= count < 2**32:
            raise ValueError(f"sample count must lie in [0, 2**32), got {count}")
        lo = np.array([iv[0] for iv in self.domain])
        hi = np.array([iv[1] for iv in self.domain])
        state, inc = _pcg64_streams(seed, np.arange(count))
        jumps = _pcg64_jumps(self.n)
        points = np.empty((count, self.n))
        pending = np.arange(count)
        for _ in range(MAX_REDRAWS):
            if not pending.size:
                break
            steps = _pcg64_advance(state[:, pending, None], inc[:, pending, None], jumps)
            state[:, pending] = steps[..., -1]
            points[pending] = lo + (hi - lo) * _pcg64_double(steps)
            clear = np.ones(pending.size, dtype=bool)
            for f in self.avoid:
                rows = pending[clear]
                if not rows.size:
                    break
                try:
                    clear[clear] = np.abs(f.value(points[rows])) >= AVOID_EPS
                except ExprDomainError as err:
                    where = np.zeros(count, dtype=bool)
                    where[rows] = err.where
                    raise ExprDomainError(
                        f"{err.reason} at {describe_first(points, where)}", where, err.reason
                    ) from None
            pending = pending[~clear]
        if pending.size:
            raise ChartError(f"could not sample point {pending[0]} clear of 'avoid' loci")
        return points


# ---------------------------------------------------------------------------
# Per-index random streams: NumPy's SeedSequence -> PCG64 -> random() as
# array arithmetic over the indices.  SeedSequence words are 32-bit (ints, or
# uint32 arrays once they depend on the index); a 128-bit PCG64 word is a
# (high, low) pair of uint64 arrays.
# ---------------------------------------------------------------------------

# SeedSequence's hash constants and pool size, as in NumPy's bit_generator.pyx
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_M32 = 0xFFFFFFFF
# PCG64's LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, hash_const, mult: int = _MULT_A):
    """SeedSequence's hash of a 32-bit word: xor the hash constant, advance
    it, multiply by it, xorshift.  Returns the word and the advanced constant,
    which never depends on the data; a column of successive constants hashes
    one word with each."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _M32
    value = value * hash_const & _M32
    return value ^ value >> 16, hash_const


def _successive(hash_const: int, mult: int, count: int) -> np.ndarray:
    """A column of ``count`` successive hash constants from ``hash_const``."""
    consts = []
    for _ in range(count):
        consts.append(hash_const)
        hash_const = hash_const * mult & _M32
    return np.array(consts, dtype=np.uint32)[:, None]


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return result ^ result >> 16


def _pcg64_streams(seed: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 state and increment, (2, len(index)) arrays of (high, low)
    uint64 words, of ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(i,)))`` for each i in ``index`` (each below 2**32).

    The seed's 32-bit words, zero-padded to the pool size because a spawn key
    is present, fill and mix the pool; words beyond the pool and then the
    spawn key are mixed in after.  Only that last step depends on i."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> 32 * k & _M32 for k in range(max(_POOL_SIZE, -(-seed.bit_length() // 32)))]
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        word, hash_const = _hashmix(word, hash_const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], word)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], mixed)
    spawn, _ = _hashmix(index.astype(np.uint32), _successive(hash_const, _MULT_A, _POOL_SIZE))
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None], spawn)
    # generate_state(4, uint64): 8 words cycling over the pool, paired little-endian
    state32, _ = _hashmix(np.tile(pool, (2, 1)), _successive(_INIT_B, _MULT_B, 8), _MULT_B)
    state64 = state32.astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = state64[0::2] | state64[1::2] << 32
    # pcg_setseq_128_srandom_r: state 0, step, add the initial state, step
    inc = np.array([seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1])
    return _pcg64_advance(np.array(_add128(inc, (seed_hi, seed_lo))), inc, _pcg64_jumps(1)), inc


def _pcg64_jumps(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(M^k, M^(k-1) + ... + M + 1) modulo 2**128 for k = 1..steps, each a
    (2, steps) array of (high, low) words: k LCG steps take a state s to
    M^k s + (M^(k-1) + ... + 1) inc."""
    mults, adds = [], []
    mult, add = 1, 0
    for _ in range(steps):
        mult, add = mult * _PCG64_MULT % 2**128, (add * _PCG64_MULT + 1) % 2**128
        mults.append(mult)
        adds.append(add)
    return tuple(np.array([[v >> 64 for v in vs], [v & 2**64 - 1 for v in vs]], dtype=np.uint64)
                 for vs in (mults, adds))


def _pcg64_advance(state: np.ndarray, inc: np.ndarray, jumps: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The states 1..k LCG steps on from ``state`` along a trailing axis."""
    mult, add = jumps
    return np.array(_add128(_mul128(state, mult), _mul128(inc, add)))


def _mulhi64(x, y):
    """High 64 bits of the 128-bit product of uint64 words, from 32-bit halves."""
    x1, x0 = x >> 32, x & _M32
    y1, y0 = y >> 32, y & _M32
    cross = (x0 * y0 >> 32) + (x1 * y0 & _M32) + (x0 * y1 & _M32)
    return x1 * y1 + (x1 * y0 >> 32) + (x0 * y1 >> 32) + (cross >> 32)


def _mul128(a, b):
    """a * b modulo 2**128."""
    return a[0] * b[1] + a[1] * b[0] + _mulhi64(a[1], b[1]), a[1] * b[1]


def _add128(a, b):
    """a + b modulo 2**128."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _pcg64_double(state: np.ndarray) -> np.ndarray:
    """``random()`` from a stepped state: the XSL-RR output x, then
    (x >> 11) * 2**-53."""
    high, low = state
    x = high ^ low
    rot = high >> 58
    x = x >> rot | x << (64 - rot & 63)
    return (x >> 11) * 2.0**-53


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


def rank_of(omega: np.ndarray, vertical: np.ndarray) -> np.ndarray:
    """Rank from omega and d(eta)(xi, .) at each point: 2p from the rank of
    omega, 2p+1 when additionally the vertical part vanishes, and -1 (no
    rank) where either is not finite."""
    finite = np.isfinite(omega).all(axis=(-2, -1)) & np.isfinite(vertical).all(axis=-1)
    sv = np.linalg.svd(np.where(finite[..., None, None], omega, 0.0), compute_uv=False)
    top = sv[..., :1]
    two_p = np.where(top[..., 0] > 0.0, np.count_nonzero(sv > RANK_TOL * top, axis=-1), 0)
    scale = 1.0 + np.abs(omega).max(axis=(-2, -1))
    rank = two_p + (np.abs(vertical).max(axis=-1) <= RANK_TOL * scale)
    return np.where(finite, rank, -1)


def rank_at(chart: AdaptedChart, p: np.ndarray) -> np.ndarray:
    """Pointwise rank of the structure at p (see :func:`rank_of`)."""
    return rank_of(*nonholonomy(*gamma_jets(chart, p, order=1)))


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
        return field_jets(np.array(self.frame_maps, dtype=object), p_primed, order=1)[1][:, :m]


def check_valence(valence: tuple[str, ...], rank: int) -> None:
    """An admissible tensor's valence: one FRAME_LOWER or FRAME_UPPER tag per
    component axis, else ``ValueError``."""
    if any(v not in (FRAME_LOWER, FRAME_UPPER) for v in valence):
        raise ValueError("only admissible (frame-index) tensors are handled")
    if len(valence) != rank:
        raise ValueError(f"valence length {len(valence)} does not match component rank {rank}")


def change_chart(
    transition: AdaptedTransition,
    components: np.ndarray,
    valence: tuple[str, ...],
    p_primed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Push an admissible tensor, its components at one point with one
    valence tag per axis, through an adapted transition.

    Components transform index-by-index: frame-upper indices contract with
    A[a, a'], frame-lower ones with the inverse Jacobian A[a', a].  Returns
    the components in the target chart together with the image point.
    """
    out = np.asarray(components)
    check_valence(valence, out.ndim)
    A = transition.jacobian(p_primed)
    if not np.all(np.isfinite(A)) or np.linalg.cond(A) >= JACOBIAN_COND_LIMIT:
        raise SingularJacobianError(f"transition Jacobian ill-conditioned at {p_primed}")
    A_inv = np.linalg.inv(A)
    for axis, v in enumerate(valence):
        if v == FRAME_UPPER:
            # t^a = A^a_{a'} t^{a'}
            out = np.tensordot(A, out, axes=([1], [axis]))
        else:
            # t_b = A^{b'}_b t_{b'}
            out = np.tensordot(A_inv, out, axes=([0], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out, transition.image_point(p_primed)
