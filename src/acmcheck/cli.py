"""Command-line interface: manifest checks, classification, tensor printing.

Exit codes: 0 all hard identities pass, 1 an identity failed (or the
equivalent quasi-Sasakian conditions disagreed, or a reported residual is
NaN or infinite), 2 input error.
Classification negatives (e.g. "not normal") never affect the exit code.
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

TENSOR_NAMES = (
    "omega", "psi", "C", "lc-adapted", "n-connection", "torsion",
    "schouten", "K", "ricci-wagner", "ricci-k",
)

# the tensors that differentiate the connection along the frame, and so
# read the Hessians of the metric and gamma; the others need first order
HESSIAN_TENSORS = ("schouten", "K", "ricci-wagner", "ricci-k")


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
    ev = StructureEval(manifest, p, order=2 if name in HESSIAN_TENSORS else 1)
    if name in ("omega", "psi", "C"):
        return {name: getattr(ev, f"{name}0")}
    if name == "lc-adapted":
        coeffs = lc_adapted(ev)
        return {
            "frame": coeffs.frame,
            "n_ab": coeffs.n_ab,
            "mixed_an": coeffs.mixed_an,
            "n_na": coeffs.n_na,
            "a_nn": coeffs.a_nn,
        }
    if name == "n-connection":
        coeffs = canonical_connection(ev)
        return {"frame": coeffs.frame, "mixed_na": coeffs.mixed_an, "n_na": coeffs.n_na}
    if name == "torsion":
        result = torsion(ev, ev.canonical_N)
        return {"components": result.components, "is_skew": bool(result.is_skew),
                "skew_residual": float(result.skew_residual),
                "direct_residual": float(result.direct_residual)}
    if name == "schouten":
        return {"schouten": schouten(ev)}
    if name == "K":
        K = curvature_K(ev)
        return {"frame": K.frame, "mixed": K.mixed}
    if name == "ricci-wagner":
        return {"ricci_wagner": ricci_wagner(ev)}
    if name == "ricci-k":
        return {"ricci_k": ricci_k(ev)}
    raise InputError(f"unknown tensor '{name}'; known: {', '.join(TENSOR_NAMES)}")


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acmcheck",
        description="Verify almost contact metric / sub-Riemannian structures "
        "given in adapted coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("manifest", help="manifest path or bundled fixture name")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--json", action="store_true", dest="as_json")

    p_check = sub.add_parser("check", help="run the full identity and classification suite")
    add_common(p_check)

    p_classify = sub.add_parser("classify", help="classification verdicts only")
    add_common(p_classify)

    p_tensor = sub.add_parser("tensor", help="print a named tensor at a point")
    p_tensor.add_argument("manifest")
    p_tensor.add_argument("--name", required=True)
    p_tensor.add_argument("--at", required=True, metavar="x1,...,xn")
    p_tensor.add_argument("--json", action="store_true", dest="as_json")

    p_einstein = sub.add_parser("einstein", help="Einstein criterion residuals (both omega sources)")
    add_common(p_einstein)

    p_rank = sub.add_parser("rank", help="pointwise rank of the structure")
    p_rank.add_argument("manifest")
    p_rank.add_argument("--at", required=True, metavar="x1,...,xn")
    return parser


# Built once per process and never changed after import; every parse_args
# call returns a fresh Namespace, so repeated main() calls share no state.
_PARSER = _build_parser()

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
    if "--at" in argv[:-1]:
        # glue the point to the option, or argparse reads '-0.5,1,...' as an option
        i = argv.index("--at")
        argv[i : i + 2] = [f"--at={argv[i + 1]}"]
    args = _PARSER.parse_args(argv)

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
