"""Full-suite check orchestration and deterministic run reports.

The hard gate (exit status) covers the identities that hold for every
structure: the adapted-vs-coordinate Levi-Civita comparison, the projection
and Reeb-split Nijenhuis identities, and the torsion table vs its direct
definition.  It also fails when any reported value is NaN or infinite, so a
numerical failure never passes.  Classification negatives never affect the
gate.  Every ``--json`` payload of the CLI prints through :func:`report_json`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .chart import rank_of
from .classify import (
    ClassificationReport,
    aqs_characterization_residual,
    canonical_nabla_phi_residual,
    classification_report,
    projection_identity_residual,
    qs_characterization_residual,
    reeb_split_identity_residual,
)
from .connection import (
    LC_ORACLE_TOL,
    coordinate_to_adapted,
    lc_adapted,
    lc_coordinate,
    metricity_defect,
    n_connection_formula_residual,
    nabla_omega,
    nabla_psi,
    torsion,
)
from .curvature import EinsteinReport, einstein_reports
from .manifest import Manifest, run_parameters
from .residuals import WorstResidual
from .structure import StructureEval, metric_definiteness, validate_axioms

HARD_IDENTITIES = ("lc_oracle", "projection_identity", "reeb_split_identity", "torsion_direct")

HARD_TOLERANCES = {
    "lc_oracle": LC_ORACLE_TOL,
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
        return hard and all_finite(self.data)

    def to_json(self) -> str:
        return report_json(self.data)


def all_finite(obj) -> bool:
    """No float in a report payload is NaN or infinite: the finiteness half
    of every exit status (``check``, ``classify``, ``einstein``)."""
    return all(math.isfinite(x) for x in _floats(obj))


def _floats(obj):
    """Every float in a report, depth first."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _floats(value)
    elif isinstance(obj, float):
        yield obj


# ---------------------------------------------------------------------------
# Report text: ``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte,
# without the standard library's pure-Python indenting encoder
# ---------------------------------------------------------------------------

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def report_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    for a payload of dicts with string keys, lists, tuples, strings, ints,
    bools, None, floats (``np.floating`` included, non-finite ones as
    ``NaN``, ``Infinity`` and ``-Infinity``) and float ndarrays, which print
    as their ``tolist()`` would.  Any other value raises ``TypeError``."""
    parts: list[str] = []
    _emit(obj, 0, parts)
    parts.append("\n")
    return "".join(parts)


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _emit(obj, level: int, parts: list[str]) -> None:
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_float_text(float(obj)))
    elif isinstance(obj, np.ndarray):
        parts.append(_array_text(obj, level))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        opening = "{" + inner
        for key, value in sorted(obj.items()):
            parts.append(opening)
            parts.append(encode_basestring_ascii(key))
            parts.append(": ")
            _emit(value, level + 1, parts)
            opening = "," + inner
        parts.append("\n" + "  " * level + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        opening = "[" + inner
        for value in obj:
            parts.append(opening)
            _emit(value, level + 1, parts)
            opening = "," + inner
        parts.append("\n" + "  " * level + "]")
    else:
        raise TypeError(f"unexpected report value {obj!r}")


def _array_text(arr: np.ndarray, level: int) -> str:
    """A float array as ``json.dumps(arr.tolist(), indent=2)`` prints it
    ``level`` deep: one ``%s`` template per shape, filled with the leaves
    (``float.__repr__`` raises ``TypeError`` on the leaves of other dtypes)."""
    leaves = arr.ravel().tolist()
    if np.isfinite(arr).all():
        texts = tuple(map(float.__repr__, leaves))
    else:
        texts = tuple(map(_float_text, leaves))
    return _array_template(arr.shape, level) % texts


@lru_cache(maxsize=256)
def _array_template(shape: tuple[int, ...], level: int) -> str:
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    item = _array_template(shape[1:], level + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + "  " * level + "]"


def identity_residuals(ev: StructureEval) -> dict[str, np.ndarray]:
    """Residual of every reported identity at each evaluated point, plus the
    metricity defect of the canonical connection."""
    tors = torsion(ev, ev.canonical_N)
    defect = metricity_defect(ev, ev.canonical_N)
    converted = coordinate_to_adapted(ev, lc_coordinate(ev))
    return {
        "lc_oracle": ev.max_abs(lc_adapted(ev).full - converted),
        "projection_identity": projection_identity_residual(ev),
        "reeb_split_identity": reeb_split_identity_residual(ev),
        "torsion_direct": tors.direct_residual,
        "torsion_skew": tors.skew_residual,
        "n_connection_formula": n_connection_formula_residual(ev, ev.canonical_N),
        "aqs_characterization": aqs_characterization_residual(ev),
        "qs_characterization": qs_characterization_residual(ev),
        "canonical_nabla_phi": canonical_nabla_phi_residual(ev),
        "nabla_omega": ev.max_abs(nabla_omega(ev)),
        "nabla_psi": ev.max_abs(nabla_psi(ev)),
        "metricity_defect": ev.max_abs(defect),
        "metricity_defect_reeb_row": ev.max_abs(defect[..., -1, -1, :]),
    }


def sampled_evaluation(
    manifest: Manifest, samples: int | None = None, seed: int | None = None, tol: float | None = None
) -> tuple[StructureEval, dict]:
    """One evaluation over the manifest's sampled points, with the run
    parameters ``samples``, ``seed`` and ``tolerance`` (the manifest's
    defaults where not given), checked by :func:`run_parameters`, and
    its frame metric checked by :func:`metric_definiteness`."""
    run = run_parameters(
        manifest.samples if samples is None else samples,
        manifest.seed if seed is None else seed,
        manifest.tolerance if tol is None else tol,
    )
    s = manifest.structure()
    ev = StructureEval(s, s.chart.sample_points(run["samples"], run["seed"]))
    metric_definiteness(ev)
    return ev, run


def run_full_check(
    manifest: Manifest,
    samples: int | None = None,
    seed: int | None = None,
    tol: float | None = None,
) -> RunReport:
    """Every identity, criterion and Einstein residual, from one evaluation
    over all sampled points."""
    ev, run = sampled_evaluation(manifest, samples, seed, tol)
    samples, tol = run["samples"], run["tolerance"]
    # the curvature goes first: its second-order temporaries then coexist
    # with the fewest cached tensors, which keeps the peak memory down
    einstein = einstein_reports(ev, tol)
    axioms = {name: WorstResidual(value) for name, value in validate_axioms(ev).items()}
    worst = {name: WorstResidual(value) for name, value in identity_residuals(ev).items()}
    classification = classification_report(ev, tol)
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

    data = {
        "tool_version": __version__,
        "manifest": manifest.source,
        "dimension": manifest.dimension,
        **run,
        "omega_source": manifest.omega_source,
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
        "einstein": {source: einstein_summary(report) for source, report in einstein.items()},
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
