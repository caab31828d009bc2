"""One benchmark process: set-up, warm-up, then untimed-checked timed calls.

Started by run.py in a fresh interpreter with BLAS/OpenMP pinned to one
thread.  Modes:
  setup   time `import acmcheck.cli` plus loading every manifest, then exit
  run     set-up, warm-up, then whole rounds of calls for about --seconds;
          each call is timed and its output checked outside the timing
  trace   set-up, warm-up, then the workload's fixed trace pass twice:
          untraced, then traced; reports per-layer metrics
Both `run` and `trace` end with the workload's untimed audit calls.

Every mode also times the calibration task of calibrate.py once after
set-up; `run` times it before the first call and then after every few
calls too.  Each timed call is also reported scaled: divided by the mean
slowdown (calibration time per rep over calibrate.NOMINAL_S) of the
calibrations just before and just after it.

Prints one JSON object on its last stdout line.  The benchmark's own
modules are imported inside functions, after set-up, so that set-up is
timed with as few modules preloaded as possible.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


# calibration reps timed after set-up, about 0.1 s
SETUP_CALIBRATION_REPS = 20


def _setup(spec: dict):
    """Import the CLI and load every manifest of the workload, timed."""
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import acmcheck.cli
    from acmcheck.manifest import load_manifest

    manifests = [load_manifest(m) for m in spec["manifests"]]
    return time.perf_counter() - start, acmcheck.cli.main, manifests


def _input_properties(manifests) -> dict:
    """Mean AST nodes per field and the share of constant fields."""
    from dataclasses import fields, is_dataclass

    from acmcheck.expr import Var

    def walk(node) -> tuple[int, bool]:
        count, has_var = 1, isinstance(node, Var)
        for f in fields(node):
            child = getattr(node, f.name)
            if is_dataclass(child):
                c, v = walk(child)
                count, has_var = count + c, has_var or v
        return count, has_var

    sizes, constant = [], 0
    for m in manifests:
        for field in list(m.gamma) + list(m.metric_frame.flat) + list(m.phi_frame.flat):
            nodes, has_var = walk(field.ast)
            sizes.append(nodes)
            constant += not has_var
    return {
        "fields_per_manifest": len(sizes) / len(manifests),
        "mean_ast_nodes": sum(sizes) / len(sizes),
        "constant_share": constant / len(sizes),
    }


def _environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def _invoke(main, argv: list[str]) -> tuple[int | None, str, str, str | None, float]:
    """One call with its output captured: exit code, stdout, stderr, the
    reason it raised (or None) and its wall time."""
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an argv by exiting
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a traceback is a failed call, not a crashed run
            raised = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), raised, elapsed


class Loop:
    """Runs calls one after another and keeps their times and failures.

    ``main`` takes an argv list and returns the exit code, like
    ``acmcheck.cli.main``."""

    def __init__(self, main, reference: dict):
        self.main = main
        self.reference = reference
        self.durations: list[float] = []
        self.points = 0
        self.failed = 0
        self.reasons: list[str] = []

    def one(self, call) -> None:
        from workloads import verify

        code, out, err, reason, elapsed = _invoke(self.main, call.argv)
        if reason is None:
            try:
                reason = verify(call, code, out, self.reference)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        self.durations.append(elapsed)
        self.points += call.points
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(call.argv)}: {reason} {err.strip()}")

    def rounds(self, spec, first: int, count: int) -> None:
        from workloads import round_calls

        for r in range(first, first + count):
            for call in round_calls(spec, self.reference, r):
                self.one(call)

    def result(self) -> dict:
        return {"durations": self.durations, "points": self.points,
                "attempted": len(self.durations), "failed": self.failed,
                "reasons": self.reasons}


def _warm_up(spec: dict, reference: dict, main) -> None:
    """Cheap calls over every code path, so lazy set-up is not timed.  Their
    outputs are not checked: the timed calls that follow are."""
    from workloads import warmup_calls

    for call in warmup_calls(spec, reference):
        _invoke(main, call.argv)


def _audit(spec: dict, reference: dict, main, out: dict) -> None:
    """Run the workload's untimed audit calls and add them to the result's
    attempted and failed calls."""
    from workloads import audit_calls

    audit = Loop(main, reference)
    for call in audit_calls(spec, reference):
        audit.one(call)
    out["audited"] = len(audit.durations)
    out["attempted"] += len(audit.durations)
    out["failed"] += audit.failed
    out["reasons"] += audit.reasons


def _slowdown(reps: int) -> float:
    """Seconds per rep of the calibration task over its nominal value."""
    from calibrate import NOMINAL_S, seconds_per_rep

    return seconds_per_rep(reps) / NOMINAL_S


def _run(spec: dict, reference: dict, main, seconds: float) -> dict:
    from workloads import CALIBRATION, round_calls

    _warm_up(spec, reference, main)
    loop = Loop(main, reference)
    every, reps = CALIBRATION[spec["workload"]]
    slowdowns = [_slowdown(reps)]
    scaled: list[float] = []

    def calibrate() -> None:
        slowdowns.append(_slowdown(reps))
        factor = 0.5 * (slowdowns[-2] + slowdowns[-1])
        scaled.extend(d / factor for d in loop.durations[len(scaled):])

    # stop at the round boundary nearest to `seconds`: whole rounds keep the
    # mix of calls the same in every run
    start = time.perf_counter()
    rounds = 0
    while True:
        for call in round_calls(spec, reference, rounds):
            loop.one(call)
            if len(loop.durations) - len(scaled) == every:
                calibrate()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    if len(scaled) < len(loop.durations):
        calibrate()
    out = loop.result()
    out["rounds"] = rounds
    out["scaled"] = scaled
    out["slowdown"] = statistics.median(slowdowns)
    return out


def _trace(spec: dict, reference: dict, main, trace_path: Path) -> dict:
    from tracer import SPANS, Tracer
    from workloads import TRACE_ROUNDS

    _warm_up(spec, reference, main)
    rounds = TRACE_ROUNDS[spec["workload"]]
    plain = Loop(main, reference)
    plain.rounds(spec, 0, rounds)

    tracer = Tracer()
    traced = Loop(lambda argv: tracer.call(main, argv), reference)
    tracer.install()
    try:
        traced.rounds(spec, 0, rounds)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)

    points = traced.points
    self_s, spans = tracer.layer_totals()
    jets = spans.get("expr.jet", 0)
    layers = {}
    for layer in sorted({name for name, _, _ in SPANS}):
        layers[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    layers["expr.jet.calls_per_point"] = jets / points
    layers["expr.jet.distinct_ratio"] = tracer.jet_distinct / jets if jets else 0.0
    drawn = tracer.counts["chart.sample_draws"]
    layers["chart.sample_points.accept_ratio"] = tracer.sample_accepted / drawn if drawn else 0.0
    # a chart with 'avoid' fields was sampled, yet no draw was seen: the
    # counter's hook is gone, so the ratio is absent rather than 0
    missing = ["chart.sample_points.accept_ratio"] if tracer.avoid_sampled and not drawn else []
    layers["structure.eval.per_point"] = tracer.counts["structure.eval"] / points
    for name in ("connection.bracket", "classify.nijenhuis", "numpy.einsum"):
        layers[f"{name}.calls_per_point"] = tracer.counts[name] / points
    layers["trace.overhead_ratio"] = sum(traced.durations) / sum(plain.durations)

    return {
        "per_layer": layers,
        "absent": sorted(missing + [key for key, present in tracer.present.items()
                                    if not present]),
        "spans": len(tracer.span_start),
        "points": points,
        "attempted": len(plain.durations) + len(traced.durations),
        "failed": plain.failed + traced.failed,
        "reasons": plain.reasons + traced.reasons,
        "trace_file": str(trace_path),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    setup_s, cli_main, manifests = _setup(spec)
    setup_slowdown = _slowdown(SETUP_CALIBRATION_REPS)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_slowdown": setup_slowdown}))
        return 0

    reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))
    # the harness's own objects (reference data, imported modules) would
    # otherwise be traversed by every full collection during timed calls;
    # a real CLI process makes one call and rarely collects at all
    gc.freeze()
    if args.mode == "run":
        out = _run(spec, reference, cli_main, args.seconds)
    else:
        out = _trace(spec, reference, cli_main, Path(args.trace_file))
    _audit(spec, reference, cli_main, out)
    out["setup_s"] = setup_s
    out["setup_slowdown"] = setup_slowdown
    out["inputs"] = _input_properties(manifests)
    out["env"] = _environment()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
