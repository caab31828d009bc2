"""Full-suite check orchestration and deterministic run reports.

The hard gate (exit status) covers the identities that hold for every
structure: the adapted-vs-coordinate Levi-Civita comparison, the projection
and Reeb-split Nijenhuis identities, and the torsion table vs its direct
definition.  It also fails when any reported value is NaN or infinite, so a
numerical failure never passes.  Classification negatives never affect the
gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .chart import rank_of
from .classify import (
    ClassificationReport,
    aqs_characterization_residual,
    canonical_nabla_phi_residual,
    classification_report,
    criterion_residuals,
    projection_identity_residual,
    qs_characterization_residual,
    reeb_split_identity_residual,
)
from .connection import (
    Endomorphism,
    coordinate_to_adapted,
    lc_adapted,
    lc_coordinate,
    metricity_defect,
    n_connection_formula_residual,
    nabla_omega,
    nabla_psi,
    torsion,
)
from .curvature import EinsteinReport, einstein_report, einstein_sample
from .manifest import OMEGA_SOURCES, Manifest
from .residuals import WorstResidual
from .structure import StructureEval, metric_definiteness, validate_axioms

HARD_IDENTITIES = ("lc_oracle", "projection_identity", "reeb_split_identity", "torsion_direct")

HARD_TOLERANCES = {
    "lc_oracle": 1e-8,
    "projection_identity": 1e-9,
    "reeb_split_identity": 1e-9,
    "torsion_direct": 1e-9,
    "n_connection_formula": 1e-9,
}


@dataclass(frozen=True)
class RunReport:
    data: dict

    @property
    def passed(self) -> bool:
        """Every hard identity holds and no reported value is NaN or infinite."""
        hard = all(self.data["identities"][name]["holds"] for name in HARD_IDENTITIES)
        return hard and all(math.isfinite(x) for x in _floats(self.data))

    def to_json(self) -> str:
        return json.dumps(_rounded(self.data), sort_keys=True, indent=2) + "\n"


def _floats(obj):
    """Every float in a report, depth first."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _floats(value)
    elif isinstance(obj, float):
        yield obj


def _rounded(obj):
    """Normalize floats through 17-significant-digit formatting (a lossless
    round trip for doubles, pinned here so reports are byte-stable)."""
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(format(float(obj), ".17g"))
    if isinstance(obj, (int, np.integer, bool, str)) or obj is None:
        return obj
    raise TypeError(f"unexpected report value {obj!r}")


def identity_residuals(ev: StructureEval) -> dict[str, np.ndarray]:
    """Residual of every reported identity at each evaluated point, plus the
    metricity defect of the canonical connection."""
    canonical = Endomorphism.canonical()
    tors = torsion(ev, canonical)
    defect = metricity_defect(ev, canonical)
    converted = coordinate_to_adapted(ev, lc_coordinate(ev))
    return {
        "lc_oracle": ev.max_abs(lc_adapted(ev).full - converted),
        "projection_identity": projection_identity_residual(ev),
        "reeb_split_identity": reeb_split_identity_residual(ev),
        "torsion_direct": tors.direct_residual,
        "torsion_skew": tors.skew_residual,
        "n_connection_formula": n_connection_formula_residual(ev, canonical),
        "aqs_characterization": aqs_characterization_residual(ev),
        "qs_characterization": qs_characterization_residual(ev),
        "canonical_nabla_phi": canonical_nabla_phi_residual(ev),
        "nabla_omega": ev.max_abs(nabla_omega(ev)),
        "nabla_psi": ev.max_abs(nabla_psi(ev)),
        "metricity_defect": ev.max_abs(defect),
        "metricity_defect_reeb_row": ev.max_abs(defect[..., -1, -1, :]),
    }


def run_full_check(
    manifest: Manifest,
    samples: int | None = None,
    seed: int | None = None,
    tol: float | None = None,
    omega_source: str | None = None,
) -> RunReport:
    """Every identity, criterion and Einstein residual, from one evaluation
    over all sampled points."""
    samples = manifest.samples if samples is None else samples
    seed = manifest.seed if seed is None else seed
    tol = manifest.tolerance if tol is None else tol
    omega_source = manifest.omega_source if omega_source is None else omega_source

    s = manifest.structure()
    points = s.chart.sample_points(samples, seed)
    ev = StructureEval(s, points)
    metric_definiteness(ev)
    # the curvature goes first: its second-order temporaries then coexist
    # with the fewest cached tensors, which keeps the peak memory down
    einstein_samples = {source: einstein_sample(ev, source) for source in OMEGA_SOURCES}
    axioms = {name: WorstResidual(value) for name, value in validate_axioms(ev).items()}
    worst = {name: WorstResidual(value) for name, value in identity_residuals(ev).items()}
    criteria = {
        name: WorstResidual(residual, scale)
        for name, (residual, scale) in criterion_residuals(ev).items()
    }
    ranks = sorted(set(rank_of(ev.omega0, ev.d_eta_xi).ravel().tolist()))

    identities = {}
    for name, tolerance in HARD_TOLERANCES.items():
        identities[name] = {
            "max_residual": worst[name].residual,
            "samples": samples,
            "tolerance": tolerance,
            "holds": worst[name].holds(tolerance),
        }
    for name in ("torsion_skew", "aqs_characterization", "qs_characterization",
                 "canonical_nabla_phi", "nabla_omega", "nabla_psi"):
        identities[name] = {"max_residual": worst[name].residual, "samples": samples}

    classification = classification_report(criteria, tol, len(points))
    parallel_torsion = worst["nabla_omega"].residual
    einstein = {
        source: einstein_summary(einstein_report(sample, parallel_torsion, source, tol))
        for source, sample in einstein_samples.items()
    }

    data = {
        "tool_version": __version__,
        "manifest": manifest.source,
        "dimension": manifest.dimension,
        "samples": samples,
        "seed": seed,
        "tolerance": tol,
        "omega_source": omega_source,
        "axiom_residuals": {name: w.residual for name, w in axioms.items()},
        "identities": identities,
        "classification": classification_summary(classification),
        "quasi_sasakian_conditions": {
            name: {"holds": v.holds, "max_residual": v.max_residual}
            for name, v in classification.qs_conditions.items()
        },
        "rank": ranks,
        "metricity": {
            "max_abs": worst["metricity_defect"].residual,
            "reeb_row_max": worst["metricity_defect_reeb_row"].residual,
        },
        "einstein": einstein,
    }
    return RunReport(data=data)


def classification_summary(report: ClassificationReport) -> dict:
    return {
        name: {"holds": v.holds, "max_residual": v.max_residual, "samples": v.samples}
        for name, v in report.verdicts.items()
    }


def einstein_summary(report: EinsteinReport) -> dict:
    return {
        "verdict": report.verdict,
        "max_residual": report.max_residual,
        "parallel_torsion_residual": report.parallel_torsion_residual,
        "residual_grid": report.residual_grid.tolist(),
    }
