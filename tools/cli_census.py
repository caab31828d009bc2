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
    python tools/cli_census.py --diff TREE_A TREE_B [--rtol R] [--atol A] [--heavy-pool K] [MANIFEST ...]

``--heavy-pool K`` adds manifests 0..K-1 of the ``heavy-expr`` workload's
seeded pool, built by the tree's ``perfbench/workloads.py``.  ``--diff``
runs the census of each tree in its own process, compares the two trees'
full outputs call by call and prints how many calls are byte-identical,
equal within tolerance and different; it lists each call that differs and
exits 1 if any does.  By default any call whose stdout, stderr or exit code
is not byte-identical differs.

With ``--rtol`` or ``--atol`` (defaults: the goldens' 1e-9 and 1e-12), a
call that is not byte-identical can still be equal within tolerance.  Exit
codes and every character outside the numbers of stdout and stderr (and
the spaces that pad them) must match exactly; each number must agree
within rtol and atol, -0.0 equals 0.0 and NaN equals NaN.  A stdout that is
JSON in both trees is compared as a JSON tree, so each number is matched
with its key path.  The coordinate oracle's residual is rounding noise
bounded by ``LC_ORACLE_TOL``, so it gets that bound as its atol, as in the
goldens: the JSON value ``identities.lc_oracle.max_residual``, and on a
human line naming ``lc_oracle`` the number after ``max``.  Its printed
tolerance keeps rtol and atol.  For the calls equal within tolerance it
then lists what moved: each JSON key path (list indices collapsed to
``[]``) and each human line (its numbers shown as '#') on which a number
prints differently, with the number of calls in which it moved.  Standard
library and the package only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import random
import re
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


def census(tree: Path, manifests: list[str], out: Path, masks: dict[str, str]) -> list[tuple[str, ...]]:
    """(argv, stdout, stderr, exit code) of each call, the error calls'
    manifests written to ``out``, every mask applied."""
    sys.path.insert(0, str(tree / "src"))
    from acmcheck import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree):
        raise SystemExit(f"acmcheck was imported from {cli.__file__}, not from {tree}")

    def masked(text: str) -> str:
        for path, mask in masks.items():
            text = text.replace(path, mask)
        return text

    calls = []
    for argv in [argv for manifest in manifests for argv in census_argvs(manifest, cli)] + error_argvs(out):
        calls.append(tuple(map(masked, (" ".join(argv), *run_call(cli, argv)))))
    return calls


def digest_line(argv: str, stdout: str, stderr: str, code: str) -> str:
    """'digest code argv': the census line of one call."""
    digest = hashlib.sha256("\0".join((stdout, stderr, code)).encode()).hexdigest()[:16]
    return f"{digest} {code} {argv}"


# a number of the output: a decimal, NaN or an infinity (JSON's or Python's
# spelling), not part of a word or of a longer dotted token
NUMBER = re.compile(
    r"(?<![\w.])(?:-?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|Infinity|inf)|NaN|nan)(?![\w.])"
)
# a number with the spaces that pad it: numpy widens a column, or puts a
# sign where a space stood, when a value's last digits or sign move
# ('[-0.   -0.25]' against '[ 0.   -0.25]'), and JSON's '-0.0' is one
# character longer than '0.0'
PADDED_NUMBER = re.compile(f" *(?:{NUMBER.pattern})")


def skeleton(text: str) -> str:
    """``text`` with each number and the spaces before it replaced by '#'."""
    return PADDED_NUMBER.sub("#", text)


class Tolerance:
    """Numbers equal within ``rtol`` and ``atol``; the coordinate oracle's
    residual (its maximum, not its tolerance) within ``oracle_atol``."""

    def __init__(self, rtol: float, atol: float, oracle_atol: float):
        self.rtol, self.atol, self.oracle_atol = rtol, atol, oracle_atol

    def close(self, a: float, b: float, oracle: bool) -> bool:
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        atol = max(self.atol, self.oracle_atol) if oracle else self.atol
        return a == b or math.isclose(a, b, rel_tol=self.rtol, abs_tol=atol)

    def text(self, a: str, b: str) -> str | None:
        """Why two outputs differ beyond the tolerance, or None."""
        if skeleton(a) != skeleton(b):
            lines = zip(a.splitlines() + [""], b.splitlines() + [""])
            line = next(i for i, (x, y) in enumerate(lines) if skeleton(x) != skeleton(y))
            return f"text differs on line {line + 1}"
        try:
            return self.json(json.loads(a), json.loads(b), "")
        except ValueError:  # not JSON (both, since their text agrees)
            pass
        for line_a, line_b in zip(a.splitlines(), b.splitlines()):
            for x, y in zip(NUMBER.finditer(line_a), NUMBER.finditer(line_b)):
                oracle = "lc_oracle" in line_a and line_a[: x.start()].rstrip().endswith("max")
                if not self.close(float(x[0]), float(y[0]), oracle):
                    return f"{x[0]} != {y[0]}"
        return None

    def json(self, a, b, where: str) -> str | None:
        """Why two JSON trees differ beyond the tolerance, or None."""
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            return next(filter(None, (self.json(a[k], b[k], f"{where}.{k}") for k in a)), None)
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            return next(filter(None, (self.json(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b)))), None)
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numbers and self.close(a, b, where == ".identities.lc_oracle.max_residual"):
            return None
        if not numbers and type(a) is type(b) and a == b:
            return None
        return f"{where or 'the report'}: {a!r} != {b!r}"


def moved_numbers(a: str, b: str) -> set[str]:
    """Where two outputs that are equal within tolerance print a number
    differently: the JSON key paths of those numbers, list indices
    collapsed to '[]', or the human lines holding them, numbers as '#'."""
    try:
        return set(_moved_paths(json.loads(a), json.loads(b), ""))
    except ValueError:  # not JSON
        pass
    return {" ".join(NUMBER.sub("#", x).split()) for x, y in zip(a.splitlines(), b.splitlines()) if x != y}


def _moved_paths(a, b, where: str):
    """The key paths at which two JSON trees of the same shape hold numbers
    that print differently (-0.0 moved from 0.0)."""
    if isinstance(a, dict):
        for key in a:
            yield from _moved_paths(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        for x, y in zip(a, b):
            yield from _moved_paths(x, y, f"{where}[]")
    elif repr(a) != repr(b):
        yield where or "the report"


def run_census(tree: Path, args) -> dict[str, tuple[str, str, str]]:
    """argv -> (stdout, stderr, exit code) of the census of ``tree``, run in
    its own process, since every tree is the package acmcheck."""
    command = [sys.executable, __file__, "--src", str(tree), "--outputs",
               "--heavy-pool", str(args.heavy_pool), *args.manifests]
    lines = subprocess.run(command, capture_output=True, text=True, check=True).stdout.splitlines()
    return {call[0]: tuple(call[1:]) for call in map(json.loads, lines)}


def diff(trees: list[Path], args) -> int:
    """``--diff``: each call byte-identical, equal within tolerance (with
    ``--rtol`` or ``--atol``) or different."""
    tolerance = None
    if args.rtol is not None or args.atol is not None:
        sys.path.insert(0, str(trees[0] / "src"))
        from acmcheck.connection import LC_ORACLE_TOL

        rtol = 1e-9 if args.rtol is None else args.rtol
        atol = 1e-12 if args.atol is None else args.atol
        tolerance = Tolerance(rtol, atol, LC_ORACLE_TOL)
    a, b = (run_census(tree, args) for tree in trees)
    identical = within = 0
    differ = []
    moved = collections.Counter()
    for argv in (argv for argv in a if argv in b):
        (out_a, err_a, code_a), (out_b, err_b, code_b) = a[argv], b[argv]
        if a[argv] == b[argv]:
            identical += 1
            continue
        if tolerance is None:
            why = "bytes differ"
        elif code_a != code_b:
            why = f"exit code {code_a} != {code_b}"
        else:
            why = tolerance.text(out_a, out_b) or tolerance.text(err_a, err_b)
        if why is None:
            within += 1
            moved.update(moved_numbers(out_a, out_b) | moved_numbers(err_a, err_b))
        else:
            differ.append(argv)
            print(f"differs: {argv}  ({why})")
    for tree, only in ((trees[0], a.keys() - b.keys()), (trees[1], b.keys() - a.keys())):
        for argv in sorted(only):
            print(f"only in {tree}: {argv}")
    for where, calls in sorted(moved.items()):
        print(f"moved within tolerance: {where}  ({calls} calls)")
    within_text = ("" if tolerance is None else
                   f"{within} equal within rtol {tolerance.rtol:g} atol {tolerance.atol:g} "
                   f"(lc_oracle max atol {tolerance.oracle_atol:g}), ")
    print(f"{len(a)} calls in {trees[0]}, {len(b)} in {trees[1]}: {identical} byte-identical, "
          f"{within_text}{len(differ)} differ")
    return 1 if differ or a.keys() != b.keys() else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--src", type=Path, metavar="TREE", help="print the census of this tree")
    which.add_argument("--diff", type=Path, nargs=2, metavar=("TREE_A", "TREE_B"),
                       help="compare the outputs of two trees call by call")
    # with --src, each call's full output as a JSON line: what --diff reads
    parser.add_argument("--outputs", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rtol", type=float, metavar="R", help="with --diff, compare numbers within this rtol")
    parser.add_argument("--atol", type=float, metavar="A", help="with --diff, compare numbers within this atol")
    parser.add_argument("--heavy-pool", type=int, default=0, metavar="K",
                        help="add manifests 0..K-1 of the heavy-expr pool")
    parser.add_argument("manifests", nargs="*", help="manifest paths beyond the bundled fixtures")
    args = parser.parse_args(argv)

    if args.src is not None:
        tree = args.src.resolve()
        with tempfile.TemporaryDirectory() as pool:
            manifests = list(FIXTURES) + args.manifests + write_heavy_pool(tree, args.heavy_pool, Path(pool))
            for call in census(tree, manifests, Path(pool), {str(tree): TREE_MASK, pool: POOL_MASK}):
                print(json.dumps(call) if args.outputs else digest_line(*call), flush=True)
        return 0

    return diff([tree.resolve() for tree in args.diff], args)

if __name__ == "__main__":
    sys.exit(main())
