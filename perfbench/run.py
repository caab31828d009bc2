"""acmcheck benchmark: drives `acmcheck check|tensor|rank` through
acmcheck.cli.main, in-process, as a closed loop with one client.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Workloads (see NOTES.md for why each exists): fixtures, heavy-expr, probe;
`all` runs them one after another.  Each workload runs in fresh
single-threaded worker processes.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 a separate traced pass reports the
per-layer metrics.  Time metrics are scaled to a nominal machine speed
measured in the same process (calibrate.py; the raw values are printed
too).  Every call's output is checked against
perfbench/reference.json; the last stdout line is a JSON object with keys
correct, attempted, failed and metrics.  Exits 2, printing no result, when
the acmcheck sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# set-up is timed in this many fresh processes (the main worker included)
SETUP_REPEATS = 7

SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}


class BenchError(Exception):
    pass


def _worker(spec_path: Path, mode: str, reference: Path, seconds: float,
            trace_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(spec_path), "--mode", mode,
           "--seconds", str(seconds), "--reference", str(reference)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, cwd=ROOT,
                              timeout=seconds + 120)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker ({mode}) timed out after {err.timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# the percentile `call_tail_ms` reports.  p99 and p99.9 are left out: on a
# shared 2-core VM they measure bursts of neighbours' load more than the
# program (ten-seed spreads of 0.40 and 0.33 of their medians on `probe`,
# before times were scaled).
TAIL_PERCENTILE = 90.0


def tail(durations: list[float]) -> tuple[float, float]:
    """The TAIL_PERCENTILE call time (nearest rank) when at least ten calls
    lie beyond it, with that percentile; else, below 100 calls, the median."""
    ordered = sorted(durations)
    n = len(ordered)
    rank = math.ceil(TAIL_PERCENTILE / 100.0 * n)
    if n - rank >= 10:
        return ordered[rank - 1], TAIL_PERCENTILE
    return statistics.median(ordered), 50.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: Path) -> dict:
    work_dir = WORK / f"{workload}-{seed}"
    spec = write_inputs(workload, seed, work_dir)
    spec["src"] = str(ROOT / "src")
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    if trace:
        out = _worker(spec_path, "trace", reference, seconds, work_dir / "trace.npz")
        return {"result": out,
                "metrics": {k: (v, layer_unit(k)) for k, v in out["per_layer"].items()}}

    outs = [_worker(spec_path, "setup", reference, seconds) for _ in range(SETUP_REPEATS - 1)]
    out = _worker(spec_path, "run", reference, seconds)
    outs.append(out)
    setups = [o["setup_s"] / o["setup_slowdown"] for o in outs]
    out["setups"] = setups

    def times(durations: list[float]) -> dict:
        # every round holds the same calls, so per-round throughputs are
        # comparable; their median shrugs off a burst of interference
        per_round = len(durations) // out["rounds"]
        round_points = out["points"] / out["rounds"]
        throughputs = [round_points / sum(durations[i:i + per_round])
                       for i in range(0, len(durations), per_round)]
        tail_s, tail_pct = tail(durations)
        out["tail"] = {"percentile": tail_pct, "calls": len(durations)}
        return {"points_per_s": statistics.median(throughputs),
                "call_p50_ms": 1000.0 * statistics.median(durations),
                "call_tail_ms": 1000.0 * tail_s}

    out["raw"] = {**times(out["durations"]),
                  "setup_s": statistics.median(o["setup_s"] for o in outs)}
    scaled = times(out["scaled"])
    metrics = {
        "points_per_s": (scaled["points_per_s"], "points/s"),
        "call_p50_ms": (scaled["call_p50_ms"], "ms"),
        "call_tail_ms": (scaled["call_tail_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    return {"result": out, "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls_per_point"):
        return "calls/point"
    if name.endswith(".per_point"):
        return "evals/point"
    return "ratio"


def report(workload: str, seed: int, done: dict) -> None:
    """Human-readable lines: inputs, environment, every metric with its unit."""
    out, metrics = done["result"], done["metrics"]
    env, inputs = out["env"], out["inputs"]
    shape = f"{out['rounds']} rounds, " if "rounds" in out else "traced pass, "
    print(f"== {workload} (seed {seed}): {shape}{out['attempted']} calls "
          f"({out['audited']} of them untimed audit calls), {out['points']} points")
    print(f"inputs: {inputs['fields_per_manifest']:.0f} fields/manifest, "
          f"mean AST nodes per field {inputs['mean_ast_nodes']:.2f}, "
          f"constant fields {inputs['constant_share']:.3f}")
    print(f"env: nproc {env['nproc']}, cpu {env['cpu']}, python {env['python']}, "
          f"numpy {env['numpy']}")
    if "slowdown" in out:
        print(f"machine: median calibration slowdown {out['slowdown']:.4g}; "
              f"each time below is scaled by the slowdown measured around it")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "call_tail_ms":
            t = out["tail"]
            note = f"  (p{t['percentile']:g} of {t['calls']} calls)"
        elif name == "setup_s":
            note = f"  (median of {len(out['setups'])} fresh processes)"
        if name in out.get("raw", {}):
            note += f"  raw {out['raw'][name]:.6g} {unit}"
        print(f"{name} {value:.6g} {unit}{note}")
    share = out["failed"] / out["attempted"]
    print(f"failed_share {share:.6g} ratio  ({out['failed']} of {out['attempted']} calls)")
    if "trace_file" in out:
        print(f"trace: {out['spans']} spans written to {out['trace_file']}")
    for name in out.get("absent", []):
        print(f"absent layer target: {name}")
    for reason in out["reasons"]:
        print(f"failed: {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description="acmcheck benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM unwind through subprocess.run, which kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "acmcheck" / "__init__.py").is_file():
        print(f"error: acmcheck sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    done = {}
    try:
        for workload in workloads:
            done[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                          REFERENCE)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    for workload, item in done.items():
        report(workload, args.seed, item)

    def summary(items) -> dict:
        attempted = sum(i["result"]["attempted"] for i in items)
        failed = sum(i["result"]["failed"] for i in items)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed}

    if len(done) == 1:
        (item,) = done.values()
        result = {**summary([item]), "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in item["metrics"].items()}}
    else:
        result = {**summary(done.values()), "workloads": {
            w: {**summary([i]), "metrics": {n: {"value": v, "unit": u}
                                            for n, (v, u) in i["metrics"].items()}}
            for w, i in done.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
