"""Residual aggregation over sample points and the one verdict rule.

A quantity holds when its worst residual over the samples stays below
tol * (1 + scale), the scale being the largest magnitude of the tensors it
compares (0 for the hard identities, whose tolerances are absolute).  The
maxima here keep non-finite values: a NaN or infinite residual or scale
fails its verdict instead of vanishing, as it would under Python's ``max``
(``max(0.0, nan) == 0.0``).  Each command reduces all its rows in one
:func:`worst`, so a report is finite exactly when its maxima are.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np


def nanmax(*values):
    """Elementwise largest of ``values`` (scalars or arrays of one batch
    shape); NaN wherever any of them is NaN."""
    return reduce(np.maximum, values)


def per_point(ufunc: np.ufunc, arr: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """``ufunc`` reduced over every axis of ``arr`` after the ``batch``
    axes, at each point: ``ufunc.reduce(arr.reshape(batch + (-1,)),
    axis=-1)``, computed as one segmented ``ufunc.reduceat`` over the flat
    array, which costs no per-row setup (a row-wise reduce pays ~60 ns a
    row at 4-125 components).  For a reduction whose order does not matter
    (``np.maximum``, ``np.minimum``, ``np.logical_and``) the bits are the
    same.  ``np.maximum`` keeps NaN, as ``max`` does; ``np.logical_and``
    on booleans is ``all``."""
    flat = arr.reshape(-1)
    return ufunc.reduceat(flat, _segments(math.prod(batch), flat.size)).reshape(batch)


@lru_cache(maxsize=64)
def _segments(count: int, size: int) -> np.ndarray:
    """The read-only start offsets of ``count`` equal segments of ``size``
    elements, built once per pair."""
    offsets = np.arange(count) * (size // count if count else 0)
    offsets.flags.writeable = False
    return offsets


def worst(rows: dict) -> dict:
    """The largest value of each named row (an array of the batch shape, or a
    (residual, scale) pair of them) over its samples, at least 0, NaN winning,
    as plain floats under the same names, from one maximum over all rows."""
    parts = [part for row in rows.values() for part in (row if type(row) is tuple else (row,))]
    stacked = np.array(parts, dtype=float).reshape(len(parts), -1)
    maxima = iter(np.maximum(0.0, stacked.max(axis=1)).tolist())
    return {name: tuple(next(maxima) for _ in row) if type(row) is tuple else next(maxima)
            for name, row in rows.items()}


def top(maxima) -> float:
    """The largest of plain floats, NaN winning as in :func:`worst`."""
    return max(maxima, key=lambda x: (x != x, x))


def holds_within(residual, scale, tol: float):
    """The verdict rule, on floats or elementwise on per-point arrays: the
    residual and its scale are finite and residual < tol * (1 + scale).  A
    residual is a magnitude, so ``<`` rejects its NaN and infinity."""
    return (residual < tol * (1.0 + scale)) & (scale < math.inf)
