"""Command-line interface: manifest checks, classification, tensor printing.

Exit codes: 0 all hard identities pass, 1 an identity failed (or the
equivalent quasi-Sasakian conditions disagreed, or a reported residual is
NaN or infinite), 2 input error.
Classification negatives (e.g. "not normal") never affect the exit code.

Parsing: an argv in the exact subset that needs none of argparse's rules
(a command, options spelled in full, each value option once, values that
do not start with '-') is parsed by a fast path built from the parser's own
actions; every other argv goes to the full argparse parser, which prints
the usual usage, help and error texts.
"""

from __future__ import annotations

import argparse
import ctypes
import sys

import numpy as np

from .chart import ChartError, rank_at
from .checks import finite, passed, report_json, run_full_check, sampled_evaluation
from .classify import InternalConsistencyError, classification_report
from .connection import canonical_connection, lc_adapted, torsion
from .curvature import curvature_K, einstein_reports, ricci_k, ricci_wagner, schouten
from .expr import ExprError, describe_first
from .manifest import Manifest, ManifestError, load_manifest
from .structure import SingularMetricError, StructureEval


def _attributes(value, **keys: str) -> dict:
    """A payload of ``value``'s attributes, each under its key."""
    return {key: getattr(value, attribute) for key, attribute in keys.items()}


def _torsion_payload(ev: StructureEval) -> dict:
    result = torsion(ev, ev.canonical_N)
    return {"components": result.components, "is_skew": bool(result.is_skew),
            "skew_residual": float(result.skew_residual),
            "direct_residual": float(result.direct_residual)}


# each tensor's jet order and payload; the tensors of order 2 differentiate
# the connection along the frame, and so read the Hessians of the metric
# and gamma
TENSORS = {
    "omega": (1, lambda ev: {"omega": ev.omega0}),
    "psi": (1, lambda ev: {"psi": ev.psi0}),
    "C": (1, lambda ev: {"C": ev.C0}),
    "lc-adapted": (1, lambda ev: _attributes(lc_adapted(ev), frame="frame", n_ab="n_ab",
                                              mixed_an="mixed_an", n_na="n_na", a_nn="a_nn")),
    "n-connection": (1, lambda ev: _attributes(canonical_connection(ev), frame="frame",
                                                mixed_na="mixed_an", n_na="n_na")),
    "torsion": (1, _torsion_payload),
    "schouten": (2, lambda ev: {"schouten": schouten(ev)}),
    "K": (2, lambda ev: _attributes(curvature_K(ev), frame="frame", mixed="mixed")),
    "ricci-wagner": (2, lambda ev: {"ricci_wagner": ricci_wagner(ev)}),
    "ricci-k": (2, lambda ev: {"ricci_k": ricci_k(ev)}),
}
TENSOR_NAMES = tuple(TENSORS)
HESSIAN_TENSORS = tuple(name for name, (order, _) in TENSORS.items() if order == 2)


class InputError(Exception):
    pass


def _parse_point(text: str, manifest: Manifest) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as err:
        raise InputError(f"malformed point '{text}': {err}") from None
    n = manifest.dimension
    if len(values) != n:
        raise InputError(f"point needs {n} components, got {len(values)}")
    p = np.array(values)
    # the 'avoid' loci only constrain sampling; explicit points need only
    # lie in the domain box (evaluation raises its own domain errors)
    for x, (lo, hi) in zip(p, manifest.domain):
        if not lo <= x <= hi:
            raise InputError(f"point outside domain: {x} not in [{lo}, {hi}]")
    return p


def _tensor_payload(name: str, manifest: Manifest, p: np.ndarray) -> dict:
    if name not in TENSORS:
        raise InputError(f"unknown tensor '{name}'; known: {', '.join(TENSOR_NAMES)}")
    order, build = TENSORS[name]
    return build(StructureEval(manifest, p, order=order))


def _print_check_human(report: dict) -> None:
    print(f"manifest: {report['manifest']}  (samples {report['samples']}, seed {report['seed']})")
    print("identities:")
    for name, entry in report["identities"].items():
        if "holds" in entry:
            flag = "PASS" if entry["holds"] else "FAIL"
            print(f"  {name:<24} max {entry['max_residual']:.3e}  tol {entry['tolerance']:.0e}  {flag}")
        else:
            print(f"  {name:<24} max {entry['max_residual']:.3e}")
    print("classification:")
    _print_classification_human(report["classification"], indent="  ")
    print(f"rank values: {report['rank']}")
    met = report["metricity"]
    print(f"metricity defect: max {met['max_abs']:.3e} (reeb row {met['reeb_row_max']:.3e})")
    _print_einstein_human(report["einstein"])


def _print_classification_human(classification: dict, indent: str = "") -> None:
    for name, entry in classification.items():
        mark = "yes" if entry["holds"] else "no"
        print(f"{indent}{name:<24} {mark:<4} max residual {entry['max_residual']:.3e}")


def _print_einstein_human(einstein: dict) -> None:
    for source, entry in einstein.items():
        mark = "yes" if entry["verdict"] else "no"
        print(
            f"einstein[{source}]: {mark} (max residual {entry['max_residual']:.3e},"
            f" parallel torsion {entry['parallel_torsion_residual']:.3e})"
        )


def _recording(parser: argparse.ArgumentParser, record: list[argparse.Action]):
    """``parser.add_argument``, which also appends each action it returns to
    ``record`` for ``_fast_parse``.

    It raises for a kind of argument the fast path does not implement: only
    plain stores and ``store_true`` flags, with no ``choices`` and no
    ``nargs``, so a later option cannot slip past the fast path.
    """

    def add(*names, action="store", **kwargs) -> None:
        added = parser.add_argument(*names, action=action, **kwargs)
        if action not in ("store", "store_true") or added.choices is not None or added.nargs not in (None, 0):
            raise TypeError(f"_fast_parse cannot parse argument {added.dest!r}")
        record.append(added)

    return add


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser],
                            dict[str, list[argparse.Action]]]:
    """The top-level parser, each command's parser, and each command's
    arguments as ``add_argument`` returned them."""
    parser = argparse.ArgumentParser(
        prog="acmcheck",
        description="Verify almost contact metric / sub-Riemannian structures "
        "given in adapted coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    arguments: dict[str, list[argparse.Action]] = {}

    def command(name: str, help: str):
        return _recording(sub.add_parser(name, help=help), arguments.setdefault(name, []))

    def add_common(add):
        add("manifest", help="manifest path or bundled fixture name")
        add("--samples", type=int, default=None)
        add("--seed", type=int, default=None)
        add("--tol", type=float, default=None)
        add("--json", action="store_true", dest="as_json")

    add_common(command("check", help="run the full identity and classification suite"))
    add_common(command("classify", help="classification verdicts only"))

    add = command("tensor", help="print a named tensor at a point")
    add("manifest")
    add("--name", required=True)
    add("--at", required=True, metavar="x1,...,xn")
    add("--json", action="store_true", dest="as_json")

    add_common(command("einstein", help="Einstein criterion residuals (both omega sources)"))

    add = command("rank", help="pointwise rank of the structure")
    add("manifest")
    add("--at", required=True, metavar="x1,...,xn")
    return parser, sub.choices, arguments


# Built once per process and never changed after import; every parse call
# returns a fresh Namespace, so repeated main() calls share no state.
_PARSER, _COMMANDS, _ARGUMENTS = _build_parser()
# each command's options by their long spellings, and its positionals in order
_OPTIONS = {
    command: {spelling: action for action in actions
              for spelling in action.option_strings if spelling.startswith("--")}
    for command, actions in _ARGUMENTS.items()
}
_POSITIONALS = {
    command: [action for action in actions if not action.option_strings]
    for command, actions in _ARGUMENTS.items()
}


def _fast_parse(command: str, words: list[str]) -> argparse.Namespace | None:
    """The namespace of ``[command, *words]``, or None where it is not an
    argv of the exact subset that ``_parse_args`` takes past the parser."""
    options = _OPTIONS[command]
    given: dict[argparse.Action, str] = {}
    bare = []  # the words that are no option or option value
    rest = iter(words)
    for word in rest:
        if not word.startswith("-"):
            bare.append(word)
            continue
        spelling, eq, value = word.partition("=")
        action = options.get(spelling)
        if action is None:
            return None
        if action.nargs == 0:  # a flag: no value, and a repeat changes nothing
            if eq:
                return None
        elif action in given:
            return None
        elif not eq:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
        elif value == "--":  # argparse drops a '--' even from '--opt=--'
            return None
        given[action] = value
    positionals = _POSITIONALS[command]
    if len(bare) != len(positionals) or any(a.required and a not in given for a in options.values()):
        return None
    given.update(zip(positionals, bare))

    args = argparse.Namespace(command=command)
    for action in _ARGUMENTS[command]:
        if action not in given:
            value = action.default
        elif action.nargs == 0:
            value = action.const
        elif action.type is None:
            value = given[action]
        else:
            try:
                value = action.type(given[action])
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        setattr(args, action.dest, value)
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, without argparse where the argv is plain.

    An argv takes the fast path when its first word is a command, every
    option is spelled in full, as ``--opt=v`` (``v`` not ``--``) or as
    ``--opt v`` with a ``v`` that does not start with ``-``, each value
    option comes at most once, no flag carries ``=``, the command's
    positionals and required options are all there and each value converts
    to its type.  Every other argv (``-h``, an abbreviation, ``--``, an
    error, an unknown command) goes to ``_PARSER``, which prints its usage,
    help and error texts and exits with its codes.  An option that argparse
    stores as ``[]`` (it drops the ``--`` of ``--opt=--``) is refused as
    argparse refuses an option without its value.
    """
    if argv and argv[0] in _OPTIONS:
        args = _fast_parse(argv[0], argv[1:])
        if args is not None:
            return args
    args = _PARSER.parse_args(argv)
    for action in _ARGUMENTS[args.command]:
        if getattr(args, action.dest) == []:
            _COMMANDS[args.command].error(f"argument {'/'.join(action.option_strings)}: expected one argument")
    return args


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap(cdll=ctypes.CDLL) -> None:
    """Let the process keep the heap a ``check`` call frees.

    A 128-sample evaluation allocates and frees a few MB of arrays.  With
    glibc's defaults the freed heap top is given back to the OS, and the
    next call takes hundreds of zero-fill page faults to grow it again.
    The mmap threshold is set to 32 MiB, the ceiling of glibc's own dynamic
    threshold on 64-bit, and the trim threshold to twice that, the ratio of
    glibc's dynamic rule.  Both are set: a fixed trim threshold alone turns
    the dynamic mmap threshold off, so every array over 128 KiB would be
    mapped and faulted afresh.  The retained heap is bounded by the trim
    threshold.  Where there is no glibc ``mallopt`` this does nothing.
    """
    try:
        mallopt = cdll(None).mallopt
    # TypeError: Windows' CDLL takes no None
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


# set at `import acmcheck.cli`, never at `import acmcheck`: a library
# import leaves the host process's allocator as it is
_keep_freed_heap()


# an overflow shows as a non-finite residual or payload, which each command
# reports itself; numpy's warnings would only repeat it on stderr
@np.errstate(over="ignore", invalid="ignore")
def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    i = 0
    while "--at" in argv[i:-1]:
        # glue each point to its option, or argparse reads '-0.5,1,...' as an option
        i = argv.index("--at", i)
        argv[i : i + 2] = [f"--at={argv[i + 1]}"]
        i += 1
    args = _parse_args(argv)

    try:
        manifest = load_manifest(args.manifest)
        if args.command == "check":
            report = run_full_check(manifest, samples=args.samples, seed=args.seed, tol=args.tol)
            if args.as_json:
                sys.stdout.write(report_json(report))
            else:
                _print_check_human(report)
            return 0 if passed(report) else 1

        if args.command in ("classify", "einstein"):
            ev, run = sampled_evaluation(manifest, args.samples, args.seed, args.tol)

        if args.command == "classify":
            payload = classification_report(ev, run["tolerance"])["classification"]
            if args.as_json:
                sys.stdout.write(report_json(payload))
            else:
                _print_classification_human(payload)
            return 0 if finite(payload) else 1

        if args.command == "tensor":
            p = _parse_point(args.at, manifest)
            payload = _tensor_payload(args.name, manifest, p)
            if not all(np.isfinite(value).all() for value in payload.values()):
                raise InputError(f"tensor '{args.name}' is not finite at {describe_first(p, True)}")
            if args.as_json:
                sys.stdout.write(report_json(payload))
            else:
                for key, value in payload.items():
                    print(f"{key}:")
                    print(np.array2string(value, precision=10, suppress_small=True)
                          if isinstance(value, np.ndarray) else f"  {value}")
            return 0

        if args.command == "einstein":
            payload = einstein_reports(ev, run["tolerance"])
            if args.as_json:
                sys.stdout.write(report_json(payload))
            else:
                _print_einstein_human(payload)
            return 0 if finite(payload) else 1

        if args.command == "rank":
            p = _parse_point(args.at, manifest)
            rank = rank_at(manifest, p)
            if rank < 0:
                raise InputError(f"rank undefined at {describe_first(p, True)}: "
                                 "omega or d(eta)(xi, .) is not finite")
            print(rank)
            return 0

        raise AssertionError("unreachable")

    except (ManifestError, ChartError, ExprError, SingularMetricError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalConsistencyError as err:
        print(f"identity failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
