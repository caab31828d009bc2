"""Tiny-length self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload for one round and checks that the last line carries
every end-to-end metric of BENCHMARK.json with its unit, that each metric
is also printed by name and unit, that a traced run carries every
per-layer metric, and that a corrupted reference makes calls fail (a
non-zero failed_share): wrong ranks on `probe`, and on `heavy-expr` tensor
values off by one part in a million, as a wrong jet engine would give.
Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"


def bench(*args: str) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "7", "--seconds", "1", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(result: dict, lines: list[str], expected: list[dict], label: str) -> None:
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], (label, sorted(result))
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in expected), (label, sorted(got))
    for m in expected:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (label, m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (label, m["name"], entry)
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                   for line in lines), (label, m["name"], "not printed with its unit")
    assert result["attempted"] >= 1, label
    assert any(line.startswith("failed_share ") for line in lines), label


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        result, lines = bench("--workload", workload, "--trace", "0")
        check_metrics(result, lines, spec["end_to_end"], workload)
        assert result["correct"] and result["failed"] == 0, (workload, lines)
        print(f"ok   {workload}: end-to-end metrics with units, failed_share 0")

    result, lines = bench("--workload", "probe", "--trace", "1")
    check_metrics(result, lines, spec["per_layer"], "probe traced")
    assert result["correct"], lines
    print("ok   probe traced: per-layer metrics with units")

    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for source, pool in reference["points"].items():
        for entry in pool:
            if source.startswith("heavy"):
                for digest in entry["tensors"].values():
                    for value in digest.values():
                        if isinstance(value, dict):
                            value["norm"] *= 1.000001
            else:
                entry["rank"] += 1
    WORK.mkdir(parents=True, exist_ok=True)
    corrupted = WORK / "reference-corrupted.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    for workload in ("probe", "heavy-expr"):
        done = run.run_workload(workload, 7, 1.0, False, corrupted)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            run.report(workload, 7, done)
        share = [line for line in printed.getvalue().splitlines()
                 if line.startswith("failed_share ")][0]
        assert done["result"]["failed"] > 0, (workload, done["result"])
        assert float(share.split()[1]) > 0, (workload, share)
        print(f"ok   corrupted reference, {workload}: {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
