"""Full-suite check orchestration and the report payload.

A report is plain data: dicts with string keys, lists, strings, ints, bools
and floats.  The row builders (:func:`validate_axioms`,
:func:`identity_residuals`, ``classify.criterion_residuals`` and
``curvature.einstein_rows``) give per-sample rows.  :func:`run_full_check`
reduces all rows of a check in one :func:`~acmcheck.residuals.worst` and
builds each section from those maxima, as ``classification_report`` and
``einstein_reports`` do for their own.  Every ``--json`` payload of the CLI
prints through :func:`report_json`.

The hard gate, :func:`passed`, covers the identities that hold for every
structure: the adapted-vs-coordinate Levi-Civita comparison, the projection
and Reeb-split Nijenhuis identities, and the torsion table vs its direct
definition; ``n_connection_formula`` reports a ``holds`` but is not among
them, so a finite failure of it exits 0.  The gate also fails when any
reported value is NaN or infinite, so a numerical failure never passes;
every reported float is a maximum that NaN and infinity win, so
:func:`passed` and :func:`finite` read only the reported maxima.
Classification negatives never affect the gate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .chart import rank_of, sample_points
from .classify import (
    aqs_characterization_residual,
    canonical_nabla_phi_residual,
    classification_sections,
    criterion_residuals,
    projection_identity_residual,
    qs_characterization_residual,
    reeb_split_identity_residual,
)
from .connection import (
    LC_ORACLE_TOL,
    lc_oracle,
    metricity_defect,
    n_connection_formula_residual,
    nabla_psi,
    torsion,
)
from .curvature import einstein_rows, einstein_section
from .manifest import Manifest, run_parameters
from .residuals import holds_within, worst
from .structure import StructureEval, metric_definiteness, validate_axioms

# n_connection_formula is report-only, by decision: it has a tolerance and a
# PASS/FAIL line, but gating on it would change exit codes, which stay as
# they are (tests/test_report_sections.py pins its exit 0)
HARD_IDENTITIES = ("lc_oracle", "projection_identity", "reeb_split_identity", "torsion_direct")

HARD_TOLERANCES = {
    "lc_oracle": LC_ORACLE_TOL,
    "projection_identity": 1e-9,
    "reeb_split_identity": 1e-9,
    "torsion_direct": 1e-9,
    "n_connection_formula": 1e-9,
}


def passed(report: dict) -> bool:
    """Every hard identity of a :func:`run_full_check` report holds and no
    reported maximum is NaN or infinite: the exit status of ``check``."""
    if not all(report["identities"][name]["holds"] for name in HARD_IDENTITIES):
        return False
    maxima = (*report["axiom_residuals"].values(), *report["metricity"].values())
    sections = ("identities", "classification", "quasi_sasakian_conditions", "einstein")
    return all(map(math.isfinite, maxima)) and all(finite(report[name]) for name in sections)


def finite(section: dict) -> bool:
    """No float of an entry of a report section is NaN or infinite: the
    finiteness half of every exit status.  An entry's lists (the Einstein
    ``residual_grid``) are not read: its ``max_residual`` is their maximum."""
    return all(math.isfinite(x) for entry in section.values() for x in entry.values() if type(x) is float)


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
    (_EMITTERS.get(type(obj)) or _subclass_emitter(obj))(obj, level, parts)


def _emit_items(obj, level: int, parts: list[str]) -> None:
    """A dict, its items sorted by key, or a list or tuple: one item a line."""
    keyed = isinstance(obj, dict)
    if not obj:
        parts.append("{}" if keyed else "[]")
        return
    inner = "\n" + "  " * (level + 1)
    opening = ("{" if keyed else "[") + inner
    for value in sorted(obj.items()) if keyed else obj:
        parts.append(opening)
        if keyed:
            key, value = value
            parts += (encode_basestring_ascii(key), ": ")
        _emit(value, level + 1, parts)
        opening = "," + inner
    parts.append("\n" + "  " * level + ("}" if keyed else "]"))


# the emitter of each value type, in the order in which a subclass of one
# of them finds its emitter (``np.float64`` that of float); bool before int
_EMITTERS = {
    str: lambda obj, level, parts: parts.append(encode_basestring_ascii(obj)),
    type(None): lambda obj, level, parts: parts.append("null"),
    bool: lambda obj, level, parts: parts.append("true" if obj else "false"),
    int: lambda obj, level, parts: parts.append(int.__repr__(obj)),
    float: lambda obj, level, parts: parts.append(_float_text(obj)),
    np.floating: lambda obj, level, parts: parts.append(_float_text(float(obj))),
    np.ndarray: lambda obj, level, parts: parts.append(_array_text(obj, level)),
    dict: _emit_items,
    list: _emit_items,
    tuple: _emit_items,
}


def _subclass_emitter(obj):
    for base, emit in _EMITTERS.items():
        if isinstance(obj, base):
            return emit
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
    metricity defect of the canonical connection; ``nabla_omega`` is the
    row of ``curvature.einstein_rows``."""
    tors = torsion(ev, ev.canonical_N)
    defect = metricity_defect(ev, ev.canonical_N)
    tables = {
        "lc_oracle": ev.max_abs(ev.lc_full, lc_oracle(ev)),
        "torsion_direct": tors.direct_residual,
        "torsion_skew": tors.skew_residual,
        "metricity_defect": ev.max_abs(defect),
        "metricity_defect_reeb_row": ev.max_abs(defect[..., -1, -1, :]),
    }
    del tors, defect  # not held while the tensors below are built
    return {
        **tables,
        "projection_identity": projection_identity_residual(ev),
        "reeb_split_identity": reeb_split_identity_residual(ev),
        "n_connection_formula": n_connection_formula_residual(ev, ev.canonical_N),
        "aqs_characterization": aqs_characterization_residual(ev),
        "qs_characterization": qs_characterization_residual(ev),
        "canonical_nabla_phi": canonical_nabla_phi_residual(ev),
        "nabla_psi": ev.max_abs(nabla_psi(ev)),
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
    ev = StructureEval(manifest, sample_points(manifest, run["samples"], run["seed"]))
    metric_definiteness(ev)
    return ev, run


def run_full_check(
    manifest: Manifest,
    samples: int | None = None,
    seed: int | None = None,
    tol: float | None = None,
) -> dict:
    """The ``check`` report: every identity, criterion and Einstein
    residual, from one evaluation over all sampled points."""
    ev, run = sampled_evaluation(manifest, samples, seed, tol)
    samples, tol = run["samples"], run["tolerance"]
    # the curvature goes first: its second-order temporaries then coexist
    # with the fewest cached tensors, which keeps the peak memory down
    einstein, grids = einstein_rows(ev)
    axioms = validate_axioms(ev)
    worst_of = worst({**einstein, **axioms, **identity_residuals(ev), **criterion_residuals(ev)})
    ranks = sorted(set(rank_of(ev.omega0, ev.d_eta_xi).ravel().tolist()))

    identities = {
        name: {"max_residual": worst_of[name], "samples": samples, "tolerance": tolerance,
               "holds": holds_within(worst_of[name], 0.0, tolerance)}
        for name, tolerance in HARD_TOLERANCES.items()
    }
    for name in ("torsion_skew", "aqs_characterization", "qs_characterization",
                 "canonical_nabla_phi", "nabla_omega", "nabla_psi"):
        identities[name] = {"max_residual": worst_of[name], "samples": samples}

    return {
        "tool_version": __version__,
        "manifest": manifest.source,
        "dimension": manifest.dimension,
        **run,
        "omega_source": manifest.omega_source,
        "axiom_residuals": {name: worst_of[name] for name in axioms},
        "identities": identities,
        **classification_sections(worst_of, tol, samples),
        "rank": ranks,
        "metricity": {
            "max_abs": worst_of["metricity_defect"],
            "reeb_row_max": worst_of["metricity_defect_reeb_row"],
        },
        "einstein": einstein_section(worst_of, grids, tol),
    }
