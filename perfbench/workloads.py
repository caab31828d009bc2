"""Workloads of the acmcheck benchmark: call lists, generated inputs and
output checks.

Every workload is a closed loop with one client: the worker sends one CLI
call through ``acmcheck.cli.main`` and the next only after it returns.
Calls are grouped in rounds; a run repeats rounds and stops only at a round
boundary, so every run sees the same mix of calls.

This module imports neither numpy nor acmcheck, so the worker can time
``import acmcheck`` after importing it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("fixtures", "heavy-expr", "probe")

FIXTURES = ("flat", "example1", "example2", "example3-qs", "example3-aqs")

# the names `acmcheck tensor --name` accepts
TENSOR_NAMES = (
    "omega", "psi", "C", "lc-adapted", "n-connection", "torsion",
    "schouten", "K", "ricci-wagner", "ricci-k",
)

FIXTURE_SAMPLES = 128
HEAVY_SAMPLES = 32
HEAVY_MANIFESTS = 4
HEAVY_TREE_DEPTH = 4
# generated manifests with a stored reference; a run uses HEAVY_MANIFESTS
# of them, picked by its seed
HEAVY_POOL = 16

# rounds in the fixed pass that a traced run measures, traced and untraced
TRACE_ROUNDS = {"fixtures": 1, "heavy-expr": 1, "probe": 20}

# (calls, reps): a run times `reps` reps of the calibration task, after an
# untimed one, every `calls` calls: 4-5% of the time of those calls (a
# `check` call takes ~1.5 s, two rounds of 55 `probe` calls ~0.3 s, a rep
# ~5 ms)
CALIBRATION = {"fixtures": (1, 10), "heavy-expr": (1, 10), "probe": (110, 2)}

# relative tolerance for tensor digests: results may change in the
# last ulp under refactors, and residual entries are ~1e-16 noise
DIGEST_RTOL = 1e-9


def call_seed(seed: int, round_index: int, slot: int) -> int:
    """Sampling seed passed to `check`, distinct per (run seed, round, slot)."""
    return (seed * 1_000_003 + round_index * 1_009 + slot) % (2**31 - 1)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def write_inputs(workload: str, seed: int, work_dir: Path) -> dict:
    """Write the generated inputs of a run and return the worker's spec.

    The spec lists the manifests the worker loads during set-up (paths or
    bundled fixture names), the reference entry of each (its source) and
    everything else the worker needs to rebuild the call list from the seed.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "heavy-expr":
        picks = random.Random(f"heavy-expr:{seed}").sample(range(HEAVY_POOL), HEAVY_MANIFESTS)
        sources = [heavy_source(k) for k in picks]
        manifests = [str(write_heavy(k, work_dir)) for k in picks]
    else:
        sources = list(FIXTURES)
        manifests = list(FIXTURES)
    return {"workload": workload, "seed": seed, "manifests": manifests, "sources": sources}


def heavy_source(k: int) -> str:
    return f"heavy{k}"


def write_heavy(k: int, work_dir: Path) -> Path:
    """Write manifest k of the heavy-expr pool, generated from seed k."""
    path = work_dir / f"{heavy_source(k)}.json"
    manifest = heavy_manifest(random.Random(f"heavy-expr:pool:{k}"))
    path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return path


COORDS = ("x", "y", "z", "u", "v")
_LEAF_COEFFS = ("0.5", "0.7", "0.9", "1.1", "1.3")


def _tree(rng: random.Random, depth: int, op: str = "+") -> tuple[str, float]:
    """A random expression of the given depth and a bound on its |value|.

    Even depths are binary nodes, odd depths sin/cos/exp calls and leaves
    are c*coordinate.  The root is a sum and its two binary grandchildren
    are one product and one sum, in random order: every tree then has the
    same operation counts and costs the same to differentiate, so the
    workload's cost does not depend on the seed.  exp is only applied where
    the bound keeps the result small, so values stay O(1) on [-1, 1].
    """
    if depth == 0:
        coeff = rng.choice(_LEAF_COEFFS)
        return f"{coeff}*{rng.choice(COORDS)}", float(coeff)
    if depth % 2 == 1:
        arg, bound = _tree(rng, depth - 1, op)
        funcs = ("sin", "cos", "exp") if bound <= 1.5 else ("sin", "cos")
        func = rng.choice(funcs)
        return f"{func}({arg})", math.exp(bound) if func == "exp" else 1.0
    ops = rng.sample(("+", "*"), 2)
    (left, lb), (right, rb) = _tree(rng, depth - 1, ops[0]), _tree(rng, depth - 1, ops[1])
    if op == "+":
        return f"{left} + {right}", lb + rb
    return f"({left})*({right})", lb * rb


def _rotated_complex_structure(theta: str) -> list[list[str]]:
    """phi = R J R^T as DSL strings, R the rotation by theta in the (e_0, e_2)
    plane and J the standard complex structure on R^4 (e_0 -> e_1, e_2 -> e_3).

    R and J are orthogonal, so phi^2 = -1 and phi is compatible with any
    conformally flat frame metric.  Entries are polynomials in c = cos(theta)
    and s = sin(theta), expanded here so no algebra package is needed.
    """
    J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    # R[i][j] as {monomial: coefficient}, monomials being tuples of 'c'/'s'
    R = [[{(): 1} if i == j else {} for j in range(4)] for i in range(4)]
    R[0][0], R[0][2], R[2][0], R[2][2] = {("c",): 1}, {("s",): -1}, {("s",): 1}, {("c",): 1}
    factor = {"c": f"cos({theta})", "s": f"sin({theta})"}
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            poly: dict[tuple[str, ...], int] = {}
            for k in range(4):
                for l in range(4):
                    if not J[k][l]:
                        continue
                    for mono_a, coef_a in R[i][k].items():
                        for mono_b, coef_b in R[j][l].items():
                            mono = tuple(sorted(mono_a + mono_b))
                            poly[mono] = poly.get(mono, 0) + J[k][l] * coef_a * coef_b
            terms = []
            for mono, coef in sorted(poly.items()):
                if coef == 0:
                    continue
                body = "*".join(factor[f] for f in mono) or "1"
                terms.append(f"{coef}*{body}" if coef != 1 else body)
            row.append(" + ".join(terms) if terms else "0")
        out.append(row)
    return out


def heavy_manifest(rng: random.Random) -> dict:
    """A valid 5-dimensional manifest whose non-zero fields are deep trees.

    The metric is exp(0.2*sin(f)) times the identity and phi the rotated
    complex structure, so both axioms hold by construction; only + * sin cos
    exp occur, so no evaluation can leave a function's domain.
    """
    def tree() -> str:
        return _tree(rng, HEAVY_TREE_DEPTH)[0]

    gamma = [tree() for _ in range(4)]
    conformal = f"exp(0.2*sin({tree()}))"
    metric = [[conformal if i == j else "0" for j in range(4)] for i in range(4)]
    return {
        "dimension": 5,
        "coordinates": list(COORDS),
        "gamma": gamma,
        "metric_frame": metric,
        "phi_frame": _rotated_complex_structure(tree()),
        "domain": [[-1.0, 1.0]] * 5,
        "avoid": [],
    }


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """One CLI call: its argv, the sample points it verifies and the key of
    the reference entry its output is checked against: ("check", source)
    or ("point", source, point index, tensor name or "rank")."""

    argv: list[str]
    points: int
    expect: tuple


def point_call(manifest: str, source: str, index: int, at: str, tensor: str) -> Call:
    """`tensor --json` (or `rank`) at one stored reference point."""
    # '--at=' keeps argparse from reading a leading '-' as an option
    at = "--at=" + at
    argv = (["rank", manifest, at] if tensor == "rank"
            else ["tensor", manifest, "--name", tensor, at, "--json"])
    return Call(argv, 1, ("point", source, index, tensor))


def round_calls(spec: dict, reference: dict, round_index: int) -> list[Call]:
    """The calls of one round, a pure function of (spec, round index)."""
    workload, seed = spec["workload"], spec["seed"]
    if workload in ("fixtures", "heavy-expr"):
        samples = FIXTURE_SAMPLES if workload == "fixtures" else HEAVY_SAMPLES
        return [
            Call(["check", manifest, "--json", "--samples", str(samples),
                  "--seed", str(call_seed(seed, round_index, slot))],
                 samples, ("check", source))
            for slot, (manifest, source) in enumerate(zip(spec["manifests"], spec["sources"]))
        ]
    if workload == "probe":
        rng = random.Random(f"probe:{seed}:{round_index}")
        calls = []
        for name in FIXTURES:
            pool = reference["points"][name]
            for tensor in TENSOR_NAMES + ("rank",):
                index = rng.randrange(len(pool))
                calls.append(point_call(name, name, index, pool[index]["at"], tensor))
        rng.shuffle(calls)
        return calls
    raise ValueError(f"unknown workload '{workload}'")


def audit_calls(spec: dict, reference: dict) -> list[Call]:
    """Untimed calls that check what the timed calls leave unchecked.

    A `check` report holds verdicts, not values, so on `heavy-expr` every
    tensor and the rank are compared at each stored point of each manifest:
    a wrong jet engine changes them even where it changes no verdict.  The
    timed calls of the other workloads are checked in full already.
    """
    if spec["workload"] != "heavy-expr":
        return []
    return [
        point_call(manifest, source, index, entry["at"], tensor)
        for manifest, source in zip(spec["manifests"], spec["sources"])
        for index, entry in enumerate(reference["points"][source])
        for tensor in TENSOR_NAMES + ("rank",)
    ]


def warmup_calls(spec: dict, reference: dict) -> list[Call]:
    """Cheap calls that touch every code path of the workload once."""
    if spec["workload"] == "probe":
        return round_calls(spec, reference, -1)
    calls = round_calls(spec, reference, -1)
    for call in calls:
        call.argv[call.argv.index("--samples") + 1] = "2"
        call.points = 2
    return calls


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _weights(k: int) -> float:
    return math.cos(0.7 * k + 1.0)


def _flatten(value) -> list[float]:
    if isinstance(value, list):
        out = []
        for item in value:
            out.extend(_flatten(item))
        return out
    return [float(value)]


def tensor_digest(payload: dict) -> dict:
    """Compact, tolerance-comparable summary of a `tensor --json` payload:
    per array its Frobenius norm and a fixed projection, scalars as is."""
    out = {}
    for key, value in sorted(payload.items()):
        if isinstance(value, bool):
            out[key] = value
        elif isinstance(value, list):
            flat = _flatten(value)
            out[key] = {
                "size": len(flat),
                "norm": math.sqrt(sum(x * x for x in flat)),
                "proj": sum(_weights(k) * x for k, x in enumerate(flat)),
            }
        else:
            out[key] = float(value)
    return out


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= DIGEST_RTOL * (1.0 + abs(scale))


def _digest_mismatch(got: dict, want: dict) -> str | None:
    if sorted(got) != sorted(want):
        return f"keys {sorted(got)} != {sorted(want)}"
    for key, ref in want.items():
        val = got[key]
        if isinstance(ref, bool):
            if val is not ref:
                return f"{key} {val} != {ref}"
        elif isinstance(ref, dict):
            if (val["size"] != ref["size"] or not _close(val["norm"], ref["norm"], ref["norm"])
                    or not _close(val["proj"], ref["proj"], ref["norm"])):
                return f"{key} {val} != {ref}"
        elif not _close(val, ref, ref):
            return f"{key} {val} != {ref}"
    return None


def check_summary(report: dict) -> dict:
    """The seed-independent part of a `check --json` report."""
    return {
        "classification": {k: v["holds"] for k, v in report["classification"].items()},
        "identities": {k: v["holds"] for k, v in report["identities"].items() if "holds" in v},
        "einstein": {k: v["verdict"] for k, v in report["einstein"].items()},
        "rank": report["rank"],
    }


def verify(call: Call, code: int, output: str, reference: dict) -> str | None:
    """None when the call's exit code and output match the reference, else
    a one-line reason."""
    kind, source = call.expect[:2]
    if kind == "check":
        want = reference["check"][source]
        if code != want["exit"]:
            return f"exit {code} != {want['exit']}"
        got = check_summary(json.loads(output))
        for key in ("classification", "identities", "einstein", "rank"):
            if got[key] != want[key]:
                return f"{key} {got[key]} != {want[key]}"
        return None
    if kind == "point":
        index, tensor = call.expect[2:]
        want = reference["points"][source][index]
        if code != 0:
            return f"exit {code} != 0"
        if tensor == "rank":
            got = int(output.strip())
            return None if got == want["rank"] else f"rank {got} != {want['rank']}"
        return _digest_mismatch(tensor_digest(json.loads(output)), want["tensors"][tensor])
    raise ValueError(f"unknown expectation {call.expect!r}")
