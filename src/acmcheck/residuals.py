"""Residual aggregation over sample points and the one verdict rule.

A quantity holds when its worst residual over the samples stays below
tol * (1 + scale), the scale being the largest magnitude of the tensors it
compares (0 for the hard identities, whose tolerances are absolute).  The
maxima here keep non-finite values: a NaN or infinite residual or scale
fails its verdict instead of vanishing, as it would under Python's ``max``
(``max(0.0, nan) == 0.0``).
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np


def nanmax(*values):
    """Elementwise largest of ``values`` (scalars or arrays of one batch
    shape); NaN wherever any of them is NaN."""
    return reduce(np.maximum, values)


class WorstResidual:
    """Maxima of a residual and its scale over sample points, from scalars
    or arrays of per-point values."""

    def __init__(self, residual=0.0, scale=0.0):
        self.residual = float(nanmax(0.0, np.max(residual)))
        self.scale = float(nanmax(0.0, np.max(scale)))

    def holds(self, tol: float) -> bool:
        return (
            math.isfinite(self.residual)
            and math.isfinite(self.scale)
            and self.residual < tol * (1.0 + self.scale)
        )
