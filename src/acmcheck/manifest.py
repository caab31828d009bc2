"""Manifest ingestion: JSON schema validation into a :class:`Manifest`, the
one input type of the evaluation, the sampler and the rank.

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
A manifest holds one :class:`~acmcheck.expr.BlockPlan` per field block, so
the jets of its coordinate-free fields are computed once per manifest.
:func:`load_manifest` parses and validates a file once per (path, content)
in a process: it reads the file on every call and reuses the manifest it
built for the same path and bytes, from a small bounded cache.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .expr import BlockPlan, ExprError, InternTable, ScalarField

OMEGA_SOURCES = ("d_eta", "fundamental_form")

FIXTURE_NAMES = ("flat", "example1", "example2", "example3-qs", "example3-aqs")

# the bundled fixtures, looked up once per process
_FIXTURE_PATHS = {
    stem: Path(__file__).with_name("fixtures") / f"{stem}.json" for stem in FIXTURE_NAMES
}


class ManifestError(Exception):
    """Schema or expression error, carrying the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True, eq=False)
class Manifest:
    """A validated manifest, built by :func:`manifest_from_dict`, which
    checks every field of the schema above and names every run-parameter
    default.  ``metric_frame`` and ``phi_frame`` are (n-1, n-1) object
    arrays of fields, ``phi_frame[b, a] = phi^b_a``; ``avoid`` lists fields
    that sampled points keep nonzero (see :func:`acmcheck.chart.sample_points`).
    Manifests compare and hash by identity.

    A manifest is immutable: the dataclass is frozen, its fields and their
    nodes are frozen, and both arrays are read-only (a variant copies them
    first).  So one manifest may serve many calls; :func:`load_manifest`
    returns the same object for an unchanged file, with its :attr:`plans`."""

    dimension: int
    coordinates: tuple[str, ...]
    gamma: tuple[ScalarField, ...]
    metric_frame: np.ndarray
    phi_frame: np.ndarray
    domain: tuple[tuple[float, float], ...]
    avoid: tuple[ScalarField, ...]
    samples: int
    seed: int
    tolerance: float
    pseudo: bool
    omega_source: str
    source: str

    @cached_property
    def plans(self) -> dict[str, BlockPlan | tuple[BlockPlan, ...]]:
        """The evaluation plan of each field block, keyed 'gamma',
        'metric_frame' and 'phi_frame', and under 'avoid' a tuple of one plan
        per 'avoid' field, in order (the sampler evaluates each field only
        where the ones before it are clear): built at first use and held as
        long as the manifest, so the jets of its coordinate-free fields are
        computed once.  A variant made by ``dataclasses.replace`` is a new
        manifest with its own plans."""
        return {
            "gamma": BlockPlan(np.array(self.gamma, dtype=object)),
            "metric_frame": BlockPlan(self.metric_frame),
            "phi_frame": BlockPlan(self.phi_frame),
            "avoid": tuple(BlockPlan(np.array(f, dtype=object)) for f in self.avoid),
        }

    def chart(self) -> SimpleNamespace:
        """Kept for ``perfbench/make_reference.py``, which draws its point
        pools through ``chart().sample_points(count, seed)``; other callers
        use :func:`acmcheck.chart.sample_points`."""
        from .chart import sample_points

        return SimpleNamespace(sample_points=partial(sample_points, self))


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
    metric.flags.writeable = phi.flags.writeable = False

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
    """Load and validate a manifest from a file path or bundled fixture name.

    The file is read on every call, as bytes, and decoded as UTF-8 with the
    newlines of a text-mode read (CR LF and a lone CR become LF), so the
    text is what ``Path.read_text`` gives.  The same path with the same text
    gives the manifest built the first time, while it is among the last 16
    loaded; an edited file is parsed and validated anew, and a bad one
    raises its :class:`ManifestError` on every call."""
    resolved = _resolve(path)
    try:
        with open(resolved, "rb") as file:
            data = file.read()
    except OSError as err:
        raise ManifestError("<file>", f"cannot read {resolved}: {err}") from err
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ManifestError("<file>", f"{resolved} is not UTF-8 text: {err}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _manifest_from_text(str(resolved), text)


# keyed by the whole text, so an edit always misses; exceptions are not cached
@lru_cache(maxsize=16)
def _manifest_from_text(source: str, text: str) -> Manifest:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ManifestError("<file>", f"invalid JSON in {source}: {err}") from err
    except RecursionError:
        raise ManifestError("<file>", f"invalid JSON in {source}: nested too deeply") from None
    return manifest_from_dict(data, source=source)


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture ('example1' or 'example1.json')."""
    stem = name[:-5] if name.endswith(".json") else name
    if stem not in _FIXTURE_PATHS:
        raise ManifestError("<file>", f"unknown fixture '{name}'; bundled: {', '.join(FIXTURE_NAMES)}")
    return _FIXTURE_PATHS[stem]


def load_fixture(name: str) -> Manifest:
    return load_manifest(fixture_path(name))


def _resolve(path: str | Path) -> Path:
    p = Path(path)
    if os.path.exists(p):
        return p
    stem = p.name[:-5] if p.name.endswith(".json") else p.name
    if str(p) == p.name and stem in _FIXTURE_PATHS:
        return _FIXTURE_PATHS[stem]
    return p
