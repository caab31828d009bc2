"""Regenerate perfbench/reference.json, the outputs the benchmark checks
every call against.

    python3 perfbench/make_reference.py

The file has two maps, each keyed by source: a bundled fixture name, or
`heavy<k>` for manifest k of the heavy-expr pool.

check   per fixture and per heavy manifest: exit code, classification
        verdicts, hard identity verdicts, Einstein verdicts and rank set of
        `check --json` at the workload's sample count.  These do not depend
        on the sampling seed; the script checks that on several seeds.
points  per fixture and per heavy manifest: a pool of points (sampled clear
        of the 'avoid' loci, written with six decimals) with the rank and a
        digest of every `tensor --json` payload at each point.

Run it only when the program's results are meant to change; the checked-in
file is the reference that a refactor must reproduce.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from acmcheck.cli import main as cli_main  # noqa: E402
from acmcheck.manifest import load_manifest  # noqa: E402

from workloads import (  # noqa: E402
    FIXTURE_SAMPLES, FIXTURES, HEAVY_POOL, HEAVY_SAMPLES, TENSOR_NAMES, check_summary,
    heavy_source, tensor_digest, write_heavy,
)

PROBE_POOL = 16
HEAVY_POINTS = 2
POOL_SEED = 2108
CHECK_SEEDS = (1, 2, 3)
WORK = HERE.parent / ".perfbench_work" / "reference"


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def check_entry(manifest: str, samples: int) -> dict:
    entries = []
    for seed in CHECK_SEEDS:
        code, out = _run(["check", manifest, "--json", "--samples", str(samples),
                          "--seed", str(seed)])
        entries.append({"exit": code, **check_summary(json.loads(out))})
    if any(e != entries[0] for e in entries):
        raise SystemExit(f"{manifest}: check summary depends on the seed: {entries}")
    return entries[0]


def point_pool(manifest: str, size: int) -> list[dict]:
    chart = load_manifest(manifest).chart()
    pool = []
    for p in chart.sample_points(size, POOL_SEED):
        at = ",".join(f"{x:.6f}" for x in p)
        code, out = _run(["rank", manifest, f"--at={at}"])
        if code != 0:
            raise SystemExit(f"{manifest}: rank at {at} exited {code}")
        rank = int(out.strip())
        tensors = {}
        for tensor in TENSOR_NAMES:
            code, out = _run(["tensor", manifest, "--name", tensor, f"--at={at}", "--json"])
            if code != 0:
                raise SystemExit(f"{manifest}: tensor {tensor} at {at} exited {code}")
            tensors[tensor] = tensor_digest(json.loads(out))
        pool.append({"at": at, "rank": rank, "tensors": tensors})
    return pool


def main() -> int:
    reference: dict = {"check": {}, "points": {}}
    for name in FIXTURES:
        reference["check"][name] = check_entry(name, FIXTURE_SAMPLES)
        reference["points"][name] = point_pool(name, PROBE_POOL)
    WORK.mkdir(parents=True, exist_ok=True)
    for k in range(HEAVY_POOL):
        manifest = str(write_heavy(k, WORK))
        entry = check_entry(manifest, HEAVY_SAMPLES)
        # the hard identities are universal, so a valid manifest's check exits 0
        if entry["exit"] != 0:
            raise SystemExit(f"{manifest}: generated manifest fails its check: {entry}")
        reference["check"][heavy_source(k)] = entry
        reference["points"][heavy_source(k)] = point_pool(manifest, HEAVY_POINTS)
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
