"""In-process A/B of two acmcheck trees on the benchmark's rounds.

Loads two source trees into one process as two packages with distinct
names, and runs the rounds of ``perfbench/workloads.round_calls`` through
each one's ``cli.main``, interleaved: round r runs once on each side, the
order of the two drawn at random per round.  Both sides of a round see the
same phase of the machine, so the ratio of their round times needs no
calibration.  Times are raw ``perf_counter`` sums of the round's calls;
every output is checked with ``workloads.verify`` outside the timing.

Each comparison runs twice, in two fresh processes: once with A imported
first and once with B imported first, since import order moves where each
copy's code and data land in memory (Mytkowicz et al., "Producing wrong
data without doing anything obviously wrong!", ASPLOS 2009).  Per workload
and load order it prints the median of the per-round ratios B/A with their
interquartile range, the rounds B won, and the 95% band of wins a sign
test expects when neither side is faster.

Usage::

    python tools/ab.py A [B] [--workload W ...] [--rounds N] [--seed S]

A and B are each a source tree (a directory with ``src/acmcheck``) or a
git revision of this repository, which is extracted with ``git archive``.
Without B it is an A/A run: A against a second copy of itself.  The
workloads, the reference data and the generated inputs come from this
checkout's ``perfbench/``.  BLAS and OpenMP are pinned to one thread, as in
``perfbench/run.py``.  Standard library and the package only; pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("fixtures", "heavy-expr", "probe")
SIDES = ("A", "B")
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}


def source_tree(which: str, into: Path) -> Path:
    """A copy in ``into`` of the ``src`` directory of a tree, or of a
    revision (by ``git archive``); returns the copy's ``src``."""
    if Path(which).is_dir():
        if not (Path(which) / "src" / "acmcheck").is_dir():
            raise SystemExit(f"{which} has no src/acmcheck")
        shutil.copytree(Path(which) / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
        return into / "src"
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", which, "src"],
                             capture_output=True, check=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.10.12, 3.11.4 and 3.12 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **safe)
    return into / "src"


def load_cli(src: Path, name: str):
    """``cli.main`` of the package ``src/acmcheck``, imported as ``name``."""
    package = src / "acmcheck"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli").main


def call(main, argv: list[str]) -> tuple[float, int | str | None, str]:
    """(wall time, exit code, stdout) of one call.  A traceback ends the
    comparison: a side that raises cannot be timed against the other."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def measure(job: dict) -> dict:
    """Round times of both sides, imported in ``job["order"]``: run in a
    fresh process."""
    sys.path.insert(0, str(PERFBENCH))
    from workloads import round_calls, verify, warmup_calls, write_inputs

    mains = {side: load_cli(Path(job["src"][side]), f"acmcheck_{side.lower()}") for side in job["order"]}
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    order_rng = random.Random(f"{job['seed']}:{job['order']}")
    results = {}
    for workload in job["workloads"]:
        spec = write_inputs(workload, job["seed"], Path(job["work"]) / workload)
        for main in mains.values():
            for warm in warmup_calls(spec, reference):
                call(main, warm.argv)
        gc.collect()
        gc.freeze()
        times = {side: [] for side in SIDES}
        failed = dict.fromkeys(SIDES, 0)
        for r in range(job["rounds"]):
            calls = round_calls(spec, reference, r)
            for side in order_rng.sample(SIDES, 2):
                total = 0.0
                for c in calls:
                    elapsed, code, out = call(mains[side], c.argv)
                    total += elapsed
                    try:
                        failed[side] += verify(c, code, out, reference) is not None
                    except (ValueError, KeyError, TypeError):  # unreadable output
                        failed[side] += 1
                times[side].append(total)
        gc.unfreeze()
        results[workload] = {"times": times, "failed": failed}
    return results


def sign_band(rounds: int, level: float = 0.95) -> tuple[int, int]:
    """The central range of wins that holds a ``level`` share of
    Binomial(rounds, 1/2): where the wins of two equal sides fall."""
    tail = (1.0 - level) / 2.0
    cdf, lo = 0.0, 0
    while cdf + math.comb(rounds, lo) / 2.0**rounds <= tail:
        cdf += math.comb(rounds, lo) / 2.0**rounds
        lo += 1
    return lo, rounds - lo


def summary(times: dict[str, list[float]]) -> dict:
    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {
        "rounds": len(ratios),
        "a_ms": 1000.0 * statistics.median(times["A"]),
        "b_ms": 1000.0 * statistics.median(times["B"]),
        "ratio": median,
        "iqr": (q1, q3),
        "b_won": sum(r < 1.0 for r in ratios),
        "band": sign_band(len(ratios)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A", help="source tree or git revision")
    parser.add_argument("b", metavar="B", nargs="?", help="source tree or git revision (default: A again)")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="a workload to run (repeatable; default: all three)")
    parser.add_argument("--rounds", type=int, default=100, help="rounds per workload and load order")
    parser.add_argument("--seed", type=int, default=1, help="seed of the inputs and of the side order")
    parser.add_argument("--measure", help=argparse.SUPPRESS)  # a child process's job, as JSON
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(json.loads(args.measure))))
        return 0

    workloads = args.workload or list(WORKLOADS)
    with tempfile.TemporaryDirectory(prefix="acmcheck-ab-") as work:
        # without B, A/A: a second copy of A, imported under its own name
        src = {side: str(source_tree(which, Path(work) / side))
               for side, which in zip(SIDES, (args.a, args.b or args.a))}
        print(f"A = {args.a}, B = {args.b or args.a + ' (A/A)'}; {args.rounds} rounds per workload "
              f"and load order, seed {args.seed}; raw perf_counter times")
        env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
        for order in ("AB", "BA"):
            job = {"src": src, "order": order, "workloads": workloads, "rounds": args.rounds,
                   "seed": args.seed, "work": str(Path(work) / f"inputs-{order}")}
            done = subprocess.run([sys.executable, __file__, args.a, "--measure", json.dumps(job)],
                                  env=env, capture_output=True, text=True)
            if done.returncode:
                raise SystemExit(f"load order {order} failed:\n{done.stderr}")
            for workload, result in json.loads(done.stdout.splitlines()[-1]).items():
                s = summary(result["times"])
                print(f"{workload:<10} {order[0]} first: A {s['a_ms']:.3f} ms, B {s['b_ms']:.3f} ms per round; "
                      f"B/A median {s['ratio']:.4f} (IQR {s['iqr'][0]:.4f}-{s['iqr'][1]:.4f}); "
                      f"B faster in {s['b_won']} of {s['rounds']} (95% sign-test band "
                      f"{s['band'][0]}-{s['band'][1]}); failed calls A {result['failed']['A']}, "
                      f"B {result['failed']['B']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
