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


def nanmax(*values: float) -> float:
    """The largest of ``values``; NaN when any of them is NaN."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


class WorstResidual:
    """Running maxima of a residual and its scale over sample points."""

    def __init__(self):
        self.residual = 0.0
        self.scale = 0.0

    def add(self, residual: float, scale: float = 0.0) -> None:
        self.residual = nanmax(self.residual, float(residual))
        self.scale = nanmax(self.scale, float(scale))

    def holds(self, tol: float) -> bool:
        return (
            math.isfinite(self.residual)
            and math.isfinite(self.scale)
            and self.residual < tol * (1.0 + self.scale)
        )
