"""Command-line interface: manifest checks, classification, tensor printing.

Exit codes: 0 all hard identities pass, 1 an identity failed (or the
equivalent quasi-Sasakian conditions disagreed, or a reported residual is
NaN or infinite), 2 input error.
Classification negatives (e.g. "not normal") never affect the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .chart import ChartError, rank_at
from .checks import classification_summary, einstein_summary, run_full_check, sampled_evaluation
from .classify import InternalConsistencyError, classification_report
from .connection import Endomorphism, canonical_connection, lc_adapted, torsion
from .curvature import curvature_K, einstein_reports, ricci_k, ricci_wagner, schouten
from .expr import ExprError
from .manifest import Manifest, ManifestError, load_manifest
from .structure import StructureError, StructureEval

TENSOR_NAMES = (
    "omega", "psi", "C", "lc-adapted", "n-connection", "torsion",
    "schouten", "K", "ricci-wagner", "ricci-k",
)


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
    for x, (lo, hi) in zip(p, manifest.chart().domain):
        if not lo <= x <= hi:
            raise InputError(f"point outside domain: {x} not in [{lo}, {hi}]")
    return p


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _grid(arr: np.ndarray) -> list:
    return np.asarray(arr).tolist()


def _tensor_payload(name: str, manifest: Manifest, p: np.ndarray) -> dict:
    ev = StructureEval(manifest.structure(), p)
    if name in ("omega", "psi", "C"):
        return {name: _grid(getattr(ev, f"{name}0"))}
    if name == "lc-adapted":
        coeffs = lc_adapted(ev)
        return {
            "frame": _grid(coeffs.frame),
            "n_ab": _grid(coeffs.n_ab),
            "mixed_an": _grid(coeffs.mixed_an),
            "n_na": _grid(coeffs.n_na),
            "a_nn": _grid(coeffs.a_nn),
        }
    if name == "n-connection":
        coeffs = canonical_connection(ev)
        return {"frame": _grid(coeffs.frame), "mixed_na": _grid(coeffs.mixed_an),
                "n_na": _grid(coeffs.n_na)}
    if name == "torsion":
        result = torsion(ev, Endomorphism.canonical())
        return {"components": _grid(result.components), "is_skew": bool(result.is_skew),
                "skew_residual": float(result.skew_residual),
                "direct_residual": float(result.direct_residual)}
    if name == "schouten":
        return {"schouten": _grid(schouten(ev))}
    if name == "K":
        K = curvature_K(ev)
        return {"frame": _grid(K.frame), "mixed": _grid(K.mixed)}
    if name == "ricci-wagner":
        return {"ricci_wagner": _grid(ricci_wagner(ev))}
    if name == "ricci-k":
        return {"ricci_k": _grid(ricci_k(ev))}
    raise InputError(f"unknown tensor '{name}'; known: {', '.join(TENSOR_NAMES)}")


def _print_check_human(report) -> None:
    data = report.data
    print(f"manifest: {data['manifest']}  (samples {data['samples']}, seed {data['seed']})")
    print("identities:")
    for name, entry in data["identities"].items():
        if "holds" in entry:
            flag = "PASS" if entry["holds"] else "FAIL"
            print(f"  {name:<24} max {entry['max_residual']:.3e}  tol {entry['tolerance']:.0e}  {flag}")
        else:
            print(f"  {name:<24} max {entry['max_residual']:.3e}")
    print("classification:")
    for name, entry in data["classification"].items():
        mark = "yes" if entry["holds"] else "no"
        print(f"  {name:<24} {mark:<4} max residual {entry['max_residual']:.3e}")
    print(f"rank values: {data['rank']}")
    met = data["metricity"]
    print(f"metricity defect: max {met['max_abs']:.3e} (reeb row {met['reeb_row_max']:.3e})")
    _print_einstein_human(data["einstein"])


def _print_einstein_human(einstein: dict) -> None:
    for source, entry in einstein.items():
        mark = "yes" if entry["verdict"] else "no"
        print(
            f"einstein[{source}]: {mark} (max residual {entry['max_residual']:.3e},"
            f" parallel torsion {entry['parallel_torsion_residual']:.3e})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="acmcheck",
        description="Verify almost contact metric / sub-Riemannian structures "
        "given in adapted coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("manifest", help="manifest path or bundled fixture name")
        p.add_argument("--samples", type=_positive_int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--json", action="store_true", dest="as_json")

    p_check = sub.add_parser("check", help="run the full identity and classification suite")
    add_common(p_check)
    p_check.add_argument("--omega-source", choices=("d_eta", "fundamental_form"), default=None)

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

    argv = list(sys.argv[1:] if argv is None else argv)
    if "--at" in argv[:-1]:
        # glue the point to the option, or argparse reads '-0.5,1,...' as an option
        i = argv.index("--at")
        argv[i : i + 2] = [f"--at={argv[i + 1]}"]
    args = parser.parse_args(argv)

    try:
        manifest = load_manifest(args.manifest)
        if args.command == "check":
            report = run_full_check(
                manifest, samples=args.samples, seed=args.seed, tol=args.tol,
                omega_source=args.omega_source,
            )
            if args.as_json:
                sys.stdout.write(report.to_json())
            else:
                _print_check_human(report)
            return 0 if report.passed else 1

        if args.command in ("classify", "einstein"):
            ev, run = sampled_evaluation(manifest, args.samples, args.seed, args.tol)

        if args.command == "classify":
            report = classification_report(ev, run["tolerance"])
            if args.as_json:
                print(json.dumps(classification_summary(report), sort_keys=True, indent=2))
            else:
                for name, v in report.verdicts.items():
                    print(f"{name:<24} {'yes' if v.holds else 'no':<4} max residual {v.max_residual:.3e}")
            return 0

        if args.command == "tensor":
            p = _parse_point(args.at, manifest)
            payload = _tensor_payload(args.name, manifest, p)
            if args.as_json:
                print(json.dumps(payload, sort_keys=True, indent=2))
            else:
                for key, value in payload.items():
                    print(f"{key}:")
                    print(np.array2string(np.asarray(value), precision=10, suppress_small=True)
                          if isinstance(value, list) else f"  {value}")
            return 0

        if args.command == "einstein":
            reports = einstein_reports(ev, run["tolerance"])
            payload = {source: einstein_summary(report) for source, report in reports.items()}
            if args.as_json:
                print(json.dumps(payload, sort_keys=True, indent=2))
            else:
                _print_einstein_human(payload)
            return 0

        if args.command == "rank":
            p = _parse_point(args.at, manifest)
            print(rank_at(manifest.chart(), p))
            return 0

        raise AssertionError("unreachable")

    except (ManifestError, ChartError, ExprError, StructureError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalConsistencyError as err:
        print(f"identity failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
