"""Manifest ingestion: JSON schema validation and structure assembly.

Schema (all expression values are strings in the scalar DSL):
  dimension     odd int >= 3
  coordinates   n names
  gamma         n-1 expressions (the adapted-frame coefficients)
  metric_frame  (n-1) x (n-1) expressions, metric_frame[i][j] = g(e_i, e_j)
  phi_frame     (n-1) x (n-1) expressions, phi_frame[i][j] = phi(e_j) along e_i
  domain        n [lo, hi] pairs of finite numbers (sampling box)
  avoid         expressions kept nonzero at sample points
  samples, seed, tolerance, pseudo, omega_source   run parameters

Each distinct expression string is parsed once per manifest, through one
intern table, so equal subexpressions of all fields are one node object.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .chart import AdaptedChart
from .expr import ExprError, InternTable, ScalarField
from .structure import AdaptedStructure

OMEGA_SOURCES = ("d_eta", "fundamental_form")

FIXTURE_NAMES = ("flat", "example1", "example2", "example3-qs", "example3-aqs")


class ManifestError(Exception):
    """Schema or expression error, carrying the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class Manifest:
    dimension: int
    coordinates: tuple[str, ...]
    gamma: tuple[ScalarField, ...]
    metric_frame: np.ndarray
    phi_frame: np.ndarray
    domain: tuple[tuple[float, float], ...]
    avoid: tuple[ScalarField, ...]
    samples: int = 32
    seed: int = 42
    tolerance: float = 1e-7
    pseudo: bool = False
    omega_source: str = "d_eta"
    source: str = field(default="<memory>", compare=False)

    def chart(self) -> AdaptedChart:
        return AdaptedChart(
            coords=self.coordinates, gamma=self.gamma, domain=self.domain, avoid=self.avoid
        )

    def structure(self) -> AdaptedStructure:
        return AdaptedStructure(
            chart=self.chart(), g=self.metric_frame, phi=self.phi_frame, pseudo=self.pseudo
        )


def _finite(x: object) -> float | None:
    """``x`` as a float if it is a finite real number (not a bool), else None."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return None
    try:
        value = float(x)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def run_parameters(samples: object, seed: object, tolerance: object) -> dict:
    """The run parameters as ``Manifest`` holds them and reports print them:
    a positive sample count below 2**32 (the sampler's per-index spawn key is
    one 32-bit word), a non-negative integer seed (a NumPy seed sequence
    takes no negative entropy) and a positive finite tolerance.
    A manifest's values and a caller's overrides are both checked here; a
    bad one is a :class:`ManifestError` naming it."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or not 0 < samples < 2**32:
        raise ManifestError("samples", f"must be a positive integer below 2**32, got {samples!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ManifestError("seed", f"must be a non-negative integer, got {seed!r}")
    tol = _finite(tolerance)
    if tol is None or tol <= 0:
        raise ManifestError("tolerance", f"must be a positive finite number, got {tolerance!r}")
    return {"samples": int(samples), "seed": int(seed), "tolerance": tol}


def _parse_field(text: object, table: InternTable, where: str) -> ScalarField:
    if not isinstance(text, str):
        raise ManifestError(where, f"expected an expression string, got {type(text).__name__}")
    try:
        return table.parse(text)
    except ExprError as err:
        raise ManifestError(where, str(err)) from err


def _expr_matrix(rows: object, m: int, table: InternTable, name: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != m:
        raise ManifestError(name, f"expected {m} rows")
    out = np.empty((m, m), dtype=object)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != m:
            raise ManifestError(f"{name}[{i}]", f"expected {m} entries")
        for j, text in enumerate(row):
            out[i, j] = _parse_field(text, table, f"{name}[{i}][{j}]")
    return out


def manifest_from_dict(data: dict, source: str = "<memory>") -> Manifest:
    if not isinstance(data, dict):
        raise ManifestError("<root>", "manifest must be a JSON object")

    known = {
        "dimension", "coordinates", "gamma", "metric_frame", "phi_frame",
        "domain", "avoid", "samples", "seed", "tolerance", "pseudo", "omega_source",
    }
    for key in data:
        if key not in known:
            raise ManifestError(key, "unknown manifest key")

    n = data.get("dimension")
    if not isinstance(n, int) or n < 3 or n % 2 == 0:
        raise ManifestError("dimension", f"must be an odd integer >= 3, got {n!r}")
    m = n - 1

    coords = data.get("coordinates")
    if (not isinstance(coords, list) or len(coords) != n
            or not all(isinstance(c, str) for c in coords) or len(set(coords)) != n):
        raise ManifestError("coordinates", f"expected {n} distinct names")
    try:
        table = InternTable(coords)
    except ValueError as err:
        raise ManifestError("coordinates", str(err)) from None

    gamma_raw = data.get("gamma")
    if not isinstance(gamma_raw, list) or len(gamma_raw) != m:
        raise ManifestError("gamma", f"expected {m} expressions, got {len(gamma_raw) if isinstance(gamma_raw, list) else type(gamma_raw).__name__}")
    gamma = tuple(_parse_field(t, table, f"gamma[{a}]") for a, t in enumerate(gamma_raw))

    metric = _expr_matrix(data.get("metric_frame"), m, table, "metric_frame")
    phi = _expr_matrix(data.get("phi_frame"), m, table, "phi_frame")

    domain_raw = data.get("domain")
    if not isinstance(domain_raw, list) or len(domain_raw) != n:
        raise ManifestError("domain", f"expected {n} intervals")
    domain = []
    for i, pair in enumerate(domain_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ManifestError(f"domain[{i}]", "expected [lo, hi]")
        lo, hi = _finite(pair[0]), _finite(pair[1])
        if lo is None or hi is None:
            raise ManifestError(f"domain[{i}]", f"bounds must be finite numbers, got {pair!r}")
        if not lo < hi:
            raise ManifestError(f"domain[{i}]", f"empty interval [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ManifestError(f"domain[{i}]", f"interval [{lo}, {hi}] is too wide to sample")
        domain.append((lo, hi))

    avoid_raw = data.get("avoid", [])
    if not isinstance(avoid_raw, list):
        raise ManifestError("avoid", "expected a list of expressions")
    avoid = tuple(_parse_field(t, table, f"avoid[{i}]") for i, t in enumerate(avoid_raw))

    run = run_parameters(data.get("samples", 32), data.get("seed", 42), data.get("tolerance", 1e-7))
    pseudo = data.get("pseudo", False)
    if not isinstance(pseudo, bool):
        raise ManifestError("pseudo", f"must be a boolean, got {pseudo!r}")
    omega_source = data.get("omega_source", "d_eta")
    if omega_source not in OMEGA_SOURCES:
        raise ManifestError("omega_source", f"must be one of {OMEGA_SOURCES}, got {omega_source!r}")

    return Manifest(
        dimension=n,
        coordinates=table.coords,
        gamma=gamma,
        metric_frame=metric,
        phi_frame=phi,
        domain=tuple(domain),
        avoid=avoid,
        **run,
        pseudo=pseudo,
        omega_source=omega_source,
        source=source,
    )


def load_manifest(path: str | Path) -> Manifest:
    """Load and validate a manifest from a file path or bundled fixture name."""
    resolved = _resolve(path)
    try:
        text = resolved.read_text(encoding="utf-8")
    except OSError as err:
        raise ManifestError("<file>", f"cannot read {resolved}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ManifestError("<file>", f"invalid JSON in {resolved}: {err}") from err
    return manifest_from_dict(data, source=str(resolved))


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture ('example1' or 'example1.json')."""
    stem = name[:-5] if name.endswith(".json") else name
    if stem not in FIXTURE_NAMES:
        raise ManifestError("<file>", f"unknown fixture '{name}'; bundled: {', '.join(FIXTURE_NAMES)}")
    return Path(str(resources.files("acmcheck").joinpath("fixtures", f"{stem}.json")))


def load_fixture(name: str) -> Manifest:
    return load_manifest(fixture_path(name))


def _resolve(path: str | Path) -> Path:
    p = Path(path)
    if p.exists():
        return p
    stem = p.name[:-5] if p.name.endswith(".json") else p.name
    if str(p) in (p.name,) and stem in FIXTURE_NAMES:
        return fixture_path(stem)
    return p
