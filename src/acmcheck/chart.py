"""The adapted chart of a validated :class:`~acmcheck.manifest.Manifest`
(its coordinates, gamma fields, domain box and 'avoid' fields): point
sampling, frame derivatives, the nonholonomy form and rank.

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

import functools
import operator

import numpy as np

from .expr import ExprDomainError, describe_first, field_jets, frozen
from .manifest import Manifest
from .residuals import per_point

AVOID_EPS = 1e-6  # sample points must keep every 'avoid' field at least this far from zero
MAX_REDRAWS = 1000


class ChartError(Exception):
    pass


# relative singular-value cutoff of the rank of omega, and of the vertical
# part's vanishing
RANK_TOL = 1e-9


def sample_points(manifest: Manifest, count: int, seed: int) -> np.ndarray:
    """``count`` points of the manifest's domain box that keep every 'avoid'
    field at least :data:`AVOID_EPS` from zero (e.g. "y" where the fields
    are singular on y = 0).  Point i depends only on (seed, i), never on how
    many other points are drawn or in which order.

    Index i draws its coordinates from NumPy's
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``, whose
    ``random()`` stream is reproduced here bit for bit (see
    :func:`_pcg64_streams`), so plain NumPy regenerates every point.  An
    index keeps drawing from its stream until its candidate keeps every
    'avoid' field clear of zero; the fields are evaluated once per round
    over the block of pending candidates, each one through the manifest's
    plan for it (``plans["avoid"]`` of
    :attr:`~acmcheck.manifest.Manifest.plans`) and only where the fields
    before it were clear.  A domain error in an avoid field names the sample
    index of the candidate it prints."""
    count = operator.index(count)
    if not 0 <= count < 2**32:
        raise ValueError(f"sample count must lie in [0, 2**32), got {count}")
    n = manifest.dimension
    lo = np.array([iv[0] for iv in manifest.domain])
    hi = np.array([iv[1] for iv in manifest.domain])
    pending = np.arange(count)
    state, inc = _pcg64_streams(seed, pending)
    points = np.empty((count, n))
    # the first draw also takes the last step of the generator's seeding
    jumps = _pcg64_jumps(n, 2)
    for _ in range(MAX_REDRAWS):
        if not pending.size:
            break
        steps = _pcg64_advance(state[:, pending, None], inc[:, pending, None], jumps)
        jumps = _pcg64_jumps(n)
        state[:, pending] = steps[..., -1]
        points[pending] = lo + (hi - lo) * _pcg64_double(steps)
        clear = np.ones(pending.size, dtype=bool)
        for plan in manifest.plans["avoid"]:
            rows = pending[clear]
            if not rows.size:
                break
            try:
                clear[clear] = np.abs(field_jets(plan, points[rows], order=1)[0]) >= AVOID_EPS
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


@functools.cache
def _successive(hash_const: int, mult: int, count: int) -> np.ndarray:
    """A read-only column of ``count`` successive hash constants from
    ``hash_const``, built once per argument tuple."""
    consts = []
    for _ in range(count):
        consts.append(hash_const)
        hash_const = hash_const * mult & _M32
    return frozen(np.array(consts, dtype=np.uint32)[:, None])


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return result ^ result >> 16


def _pcg64_streams(seed: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 increment and state one LCG step short of it, (2, len(index))
    arrays of (high, low) uint64 words, of ``default_rng(SeedSequence(
    entropy=seed, spawn_key=(i,)))`` for each i in ``index`` (each below
    2**32).  The seeding's last step is left to the caller's first draw:
    the generator's draws 1..k are the states 2..k+1 steps on, one
    ``_pcg64_advance`` by ``_pcg64_jumps(k, 2)``.

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
    # pcg_setseq_128_srandom_r: state 0, step, add the initial state, step;
    # the first step from state 0 gives inc, and the last is left out
    inc = np.array([seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1])
    return np.array(_add128(inc, (seed_hi, seed_lo))), inc


@functools.cache
def _pcg64_jumps(steps: int, first: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(M^k, M^(k-1) + ... + M + 1) modulo 2**128 for k = first ..
    first + steps - 1, each a read-only (2, steps) array of (high, low)
    words, built once per argument pair: k LCG steps take a state s to
    M^k s + (M^(k-1) + ... + 1) inc."""
    mults, adds = [], []
    mult, add = 1, 0
    for k in range(1, first + steps):
        mult, add = mult * _PCG64_MULT % 2**128, (add * _PCG64_MULT + 1) % 2**128
        if k >= first:
            mults.append(mult)
            adds.append(add)
    return tuple(frozen(np.array([[v >> 64 for v in vs], [v & 2**64 - 1 for v in vs]], dtype=np.uint64))
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


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, built once: ``np.eye`` costs more than
    the rest of a one-point frame matrix."""
    return frozen(np.eye(n))


def frame_matrix(gam0: np.ndarray) -> np.ndarray:
    """The transposed frame matrix Et[..., q, i] = E_i^q of the adapted frame
    (e_a, xi), e_a = d_a - gamma_a d_n and xi = d_n, in C order: the
    identity with -gamma_a in the last row, from the gamma values alone."""
    m = gam0.shape[-1]
    Et = np.zeros(gam0.shape[:-1] + (m + 1, m + 1))
    Et[...] = _identity(m + 1)
    Et[..., -1, :m] = -gam0
    return Et


def frame_gradient(gam1: np.ndarray) -> np.ndarray:
    """Gradients E1[..., i, q, j] = d_j E_i^q of the adapted frame, from the
    gamma gradients: -d_j gamma_a in the Reeb coordinate of e_a."""
    m, n = gam1.shape[-2:]
    E1 = np.zeros(gam1.shape[:-2] + (n, n, n))
    E1[..., :m, -1, :] = -gam1
    return E1


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
    batch = vertical.shape[:-1]
    # each maximum is finite exactly where its components are (NaN wins)
    omega_max = per_point(np.maximum, np.abs(omega), batch)
    vertical_max = per_point(np.maximum, np.abs(vertical), batch)
    finite = np.isfinite(omega_max) & np.isfinite(vertical_max)
    sv = np.linalg.svd(np.where(finite[..., None, None], omega, 0.0), compute_uv=False)
    top = sv[..., :1]
    two_p = np.where(top[..., 0] > 0.0, np.count_nonzero(sv > RANK_TOL * top, axis=-1), 0)
    rank = two_p + (vertical_max <= RANK_TOL * (1.0 + omega_max))
    return np.where(finite, rank, -1)


def rank_at(manifest: Manifest, p: np.ndarray) -> np.ndarray:
    """Pointwise rank of the structure at p (see :func:`rank_of`)."""
    return rank_of(*nonholonomy(*field_jets(manifest.plans["gamma"], p, order=1)))

