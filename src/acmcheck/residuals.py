"""Residual aggregation over sample points and the one verdict rule.

A quantity holds when its worst residual over the samples stays below
tol * (1 + scale), the scale being the largest magnitude of the tensors it
compares (0 for the hard identities, whose tolerances are absolute).  The
maxima here keep non-finite values: a NaN or infinite residual or scale
fails its verdict instead of vanishing, as it would under Python's ``max``
(``max(0.0, nan) == 0.0``).  Each report section reduces all its rows in
one :func:`worst`, so a report is finite exactly when its maxima are.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np


def nanmax(*values):
    """Elementwise largest of ``values`` (scalars or arrays of one batch
    shape); NaN wherever any of them is NaN."""
    return reduce(np.maximum, values)


def worst(rows) -> list[float]:
    """The largest value of each row (a scalar or an array of one batch
    shape) over its samples, at least 0, NaN winning, as plain floats."""
    try:
        stacked = np.array(rows, dtype=float)
    except ValueError:  # scalar rows among per-point ones
        stacked = np.array(np.broadcast_arrays(*rows), dtype=float)
    return np.maximum(0.0, stacked.reshape(len(rows), -1).max(axis=1)).tolist()


def top(maxima) -> float:
    """The largest of plain floats, NaN winning as in :func:`worst`."""
    return max(maxima, key=lambda x: (x != x, x))


def holds_within(residual, scale, tol: float):
    """The verdict rule, on floats or elementwise on per-point arrays: the
    residual and its scale are finite and residual < tol * (1 + scale).  A
    residual is a magnitude, so ``<`` rejects its NaN and infinity."""
    return (residual < tol * (1.0 + scale)) & (scale < math.inf)
