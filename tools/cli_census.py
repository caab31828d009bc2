"""Census of the command line's output: one digest per call.

Runs a fixed list of ``acmcheck`` calls in one process against the package
in a source tree's ``src`` directory, and prints, for each call, a digest of
its stdout, stderr and exit code (the tree's path masked), its exit code and
its argv.  Two trees that print the same census print the same bytes on
every call of the list, which is what a refactor that keeps every printed
byte must show.

The calls, on each bundled fixture and each manifest path given:

* ``check``, ``classify`` and ``einstein`` at 1, 32 and 128 samples, with
  and without ``--json``;
* ``tensor`` of every name in ``acmcheck.cli.TENSOR_NAMES``, with and
  without ``--json``, and ``rank``, at three points of the manifest's domain
  box drawn by ``random.Random`` from the manifest's name, each point given
  both as ``--at X`` and as ``--at=X``.  The first point's first coordinate
  is made negative, so that ``--at X`` starts with a '-'.

After those, once per census, the error calls: usage errors (an option
valued ``--``, as ``--opt=--`` and as ``--at --``), an unknown tensor name,
a point with too few components and ``--samples 0`` on ``flat``, and
``check``, ``classify``, ``einstein``, ``tensor`` and ``rank`` on four broken
manifests written to a temporary directory: a gamma field through ``ln(x)``
on a domain that crosses 0 and an 'avoid' field ``1/(x - x)``, whose domain
errors print the field, a syntax error and a singular frame metric.

Usage::

    python tools/cli_census.py --src TREE [--heavy-pool K] [MANIFEST ...]
    python tools/cli_census.py --diff TREE_A TREE_B [--heavy-pool K] [MANIFEST ...]

``--heavy-pool K`` adds manifests 0..K-1 of the ``heavy-expr`` workload's
seeded pool, built by the tree's ``perfbench/workloads.py``.  ``--diff``
runs the census of each tree in its own process and lists the calls whose
digests differ; it exits 1 if any does.  Standard library and the package
only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import runpy
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

FIXTURES = ("flat", "example1", "example2", "example3-qs", "example3-aqs")
SAMPLED = ("check", "classify", "einstein")
SAMPLES = (1, 32, 128)
POINTS = 3
POOL_MASK = "<pool>"
TREE_MASK = "<tree>"

_FLAT = {
    "dimension": 5,
    "coordinates": ["x", "y", "z", "u", "v"],
    "gamma": ["0", "0", "0", "0"],
    "metric_frame": [["1" if a == b else "0" for b in range(4)] for a in range(4)],
    "phi_frame": [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    "domain": [[-2.0, 2.0]] * 5,
}
ERROR_MANIFESTS = {
    "ln-crosses-zero": dict(_FLAT, gamma=["-ln(x)*(y - 1)/2 + z^2", "0", "0", "0"]),
    "avoid-divides-by-zero": dict(_FLAT, avoid=["1/(x - x)"]),
    "syntax-error": dict(_FLAT, gamma=["x + * y", "0", "0", "0"]),
    "singular-metric": dict(_FLAT, metric_frame=[["0"] * 4] + _FLAT["metric_frame"][1:]),
}
ERROR_POINT = "-0.5,0.25,0.5,0.75,1"


def write_heavy_pool(tree: Path, count: int, out: Path) -> list[str]:
    """Manifests 0..count-1 of the tree's heavy-expr pool, as JSON files in ``out``."""
    if not count:
        return []
    workloads = runpy.run_path(str(tree / "perfbench" / "workloads.py"))
    paths = []
    for k in range(count):
        path = out / f"heavy{k}.json"
        path.write_text(json.dumps(workloads["heavy_manifest"](random.Random(f"heavy-expr:pool:{k}"))))
        paths.append(str(path))
    return paths


def census_argvs(manifest: str, cli, samples: tuple[int, ...] = SAMPLES) -> list[list[str]]:
    """The calls of the census on one manifest (a fixture name or a path),
    the sampled ones at each of ``samples``."""
    argvs = [
        [command, manifest, "--samples", str(count), *json_flag]
        for command in SAMPLED
        for count in samples
        for json_flag in ([], ["--json"])
    ]
    try:
        domain = cli.load_manifest(manifest).domain
    except Exception:  # the sampled calls report the error
        return argvs
    rng = random.Random(Path(manifest).name)
    for k in range(POINTS):
        point = [rng.uniform(lo, hi) for lo, hi in domain]
        if k == 0:
            point[0] = -abs(point[0])
        at = ",".join(map(repr, point))
        for at_words in (["--at", at], [f"--at={at}"]):
            argvs += [
                ["tensor", manifest, "--name", name, *at_words, *json_flag]
                for name in cli.TENSOR_NAMES
                for json_flag in ([], ["--json"])
            ]
            argvs.append(["rank", manifest, *at_words])
    return argvs


def error_argvs(out: Path) -> list[list[str]]:
    """The error calls, the broken manifests written to ``out``."""
    argvs = [
        ["rank", "flat", "--at=--"],
        ["rank", "flat", "--at", "--"],
        ["check", "flat", "--samples=--"],
        ["tensor", "flat", "--name=--", "--at=0,0,0,0,0"],
        ["tensor", "flat", "--name", "bogus", "--at=0,0,0,0,0"],
        ["tensor", "flat", "--name", "omega", "--at=0,0,0"],
        ["check", "flat", "--samples", "0"],
    ]
    for name, data in ERROR_MANIFESTS.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(data))
        argvs += [[command, str(path), "--samples", "4"] for command in SAMPLED]
        argvs += [["tensor", str(path), "--name", tensor, "--at", ERROR_POINT] for tensor in ("omega", "K")]
        argvs.append(["rank", str(path), "--at", ERROR_POINT])
    return argvs


def run_call(cli, argv: list[str]) -> tuple[str, str, str]:
    """(stdout, stderr, exit code) of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(list(argv)))
        except SystemExit as exc:  # argparse's usage errors
            code = str(exc.code)
        except Exception:
            traceback.print_exc()
            code = "traceback"
    return out.getvalue(), err.getvalue(), code


def census(tree: Path, manifests: list[str], out: Path, masks: dict[str, str]) -> list[str]:
    """One line per call, the error calls' manifests written to ``out``:
    digest, exit code and argv, every mask applied."""
    sys.path.insert(0, str(tree / "src"))
    from acmcheck import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree):
        raise SystemExit(f"acmcheck was imported from {cli.__file__}, not from {tree}")

    def masked(text: str) -> str:
        for path, mask in masks.items():
            text = text.replace(path, mask)
        return text

    lines = []
    for argv in [argv for manifest in manifests for argv in census_argvs(manifest, cli)] + error_argvs(out):
        stdout, stderr, code = run_call(cli, argv)
        digest = hashlib.sha256(masked("\0".join((stdout, stderr, code))).encode()).hexdigest()[:16]
        lines.append(f"{digest} {code} {masked(' '.join(argv))}")
    return lines


def parse_census(text: str) -> dict[str, str]:
    """argv -> 'digest code' of a census listing."""
    out = {}
    for line in text.splitlines():
        digest, code, argv = line.split(" ", 2)
        out[argv] = f"{digest} {code}"
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--src", type=Path, metavar="TREE", help="print the census of this tree")
    which.add_argument("--diff", type=Path, nargs=2, metavar=("TREE_A", "TREE_B"),
                       help="list the calls whose outputs differ between two trees")
    parser.add_argument("--heavy-pool", type=int, default=0, metavar="K",
                        help="add manifests 0..K-1 of the heavy-expr pool")
    parser.add_argument("manifests", nargs="*", help="manifest paths beyond the bundled fixtures")
    args = parser.parse_args(argv)

    if args.src is not None:
        tree = args.src.resolve()
        with tempfile.TemporaryDirectory() as pool:
            manifests = list(FIXTURES) + args.manifests + write_heavy_pool(tree, args.heavy_pool, Path(pool))
            for line in census(tree, manifests, Path(pool), {str(tree): TREE_MASK, pool: POOL_MASK}):
                print(line, flush=True)
        return 0

    trees = [tree.resolve() for tree in args.diff]
    listings = []
    for tree in trees:
        # each tree in its own process, since both are the package acmcheck
        command = [sys.executable, __file__, "--src", str(tree), "--heavy-pool", str(args.heavy_pool), *args.manifests]
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        listings.append(parse_census(done.stdout))
    a, b = listings
    differ = [argv for argv in a if argv in b and a[argv] != b[argv]]
    for argv in differ:
        print(f"differs: {argv}  ({a[argv]} / {b[argv]})")
    for argv in a.keys() - b.keys():
        print(f"only in {trees[0]}: {argv}")
    for argv in b.keys() - a.keys():
        print(f"only in {trees[1]}: {argv}")
    same = len(a) - len(differ) - len(a.keys() - b.keys())
    print(f"{len(a)} calls in {trees[0]}, {len(b)} in {trees[1]}: {same} the same, {len(differ)} differ")
    return 1 if differ or a.keys() != b.keys() else 0


if __name__ == "__main__":
    sys.exit(main())
