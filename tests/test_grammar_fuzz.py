"""Grammar fuzzer: manifests whose fields are drawn over the whole expression
grammar, up to and just past its nesting and depth bounds, with constants at
the edges of float64, folded exponents, and ln, sqrt and '/' at the edges of
their domains.  Every command ends in exit 0, 1 or 2 within a time bound,
an exit 2 names a field on stderr, and a call that reuses the loaded
manifest prints what a cold call prints."""

from __future__ import annotations

import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from acmcheck import manifest as manifest_module
from acmcheck.cli import TENSOR_NAMES, main
from acmcheck.expr import FUNCTIONS, MAX_DEPTH, MAX_NESTING
from acmcheck.manifest import load_manifest

from _helpers import COORDS

PHI = [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
DOMAIN = [[-2.0, 2.0]] * 5

# the largest finite, a huge, the smallest normal and the smallest subnormal float
_CONSTANTS = ("0", "1", "0.5", "1.7976931348623157e308", "1e300", "2.2250738585072014e-308", "5e-324")
# exponents that fold (negative, towers, a million) and ones that do not
_EXPONENTS = ("0", "1", "2", "3", "-1", "-2", "2^2", "2^2^2", "-(2)^3", "1e3", "1000000")
_BAD_EXPONENTS = ("2^2^2^2^2", "0^-1", "0.5", "1+1", "x")
# arguments that vanish on a coordinate plane, on a face of the domain box
# or within rounding of it
_EDGES = tuple(f"{c}{tail}" for c in COORDS for tail in ("", " - 2", " + 2", f"*{c}", " + 5e-324"))

# seconds per call: calls here take milliseconds to tens of them, and the
# bound leaves room for a loaded machine while catching a runaway evaluation
CALL_BOUND_S = 2.0

_FIELD_NAMED = re.compile(
    r"error: (?:(?:gamma|avoid)\[\d\]: "
    r"|metric_frame\[\d\]\[\d\]: "
    r"|.* in '(?P<text>[^']+)' at "
    r"|(?:frame|coordinate) metric "
    r"|tensor '[\w-]+' is not finite at "
    r"|rank undefined at "
    r"|could not sample point \d+ clear of 'avoid' loci$)"
)


def _expression():
    number = st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr)
    coordinate = st.sampled_from(COORDS)
    leaf = st.one_of(coordinate, coordinate, st.sampled_from(_CONSTANTS), number)
    exponent = st.one_of(st.sampled_from(_EXPONENTS), st.sampled_from(_EXPONENTS), st.sampled_from(_BAD_EXPONENTS))
    edge = st.tuples(st.sampled_from(("ln", "sqrt", "1/")), st.sampled_from(_EDGES)).map(
        lambda t: f"1/({t[1]})" if t[0] == "1/" else f"{t[0]}({t[1]})"
    )

    def grow(inner):
        binary = st.tuples(inner, st.sampled_from("+-*/"), inner, st.booleans()).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})" if t[3] else f"{t[0]} {t[1]} {t[2]}"
        )
        return st.one_of(
            st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
            inner.map(lambda e: f"-{e}"),
            binary,
            binary,
            st.tuples(inner, exponent).map(lambda t: f"({t[0]})^{t[1]}"),
            edge,
        )

    return st.recursive(leaf, grow, max_leaves=6)


def _near_bounds(inner):
    """Nesting and depth just below, at and just past the parser's bounds."""
    levels = st.integers(MAX_NESTING - 2, MAX_NESTING + 1)
    return st.one_of(
        st.tuples(levels, inner).map(lambda t: "(" * t[0] + t[1] + ")" * t[0]),
        st.tuples(levels, inner).map(lambda t: "-" * t[0] + t[1]),
        st.tuples(levels, inner).map(lambda t: "sin(" * t[0] + t[1] + ")" * t[0]),
        st.tuples(st.integers(MAX_DEPTH - 2, MAX_DEPTH + 1), st.sampled_from(COORDS)).map(
            lambda t: " + ".join([t[1]] * t[0])
        ),
    )


def _gamma():
    """Four expressions; in about one draw of four, one of them near the bounds."""
    expression = _expression()
    plain = st.lists(expression, min_size=4, max_size=4)
    deep = st.tuples(plain, st.integers(0, 3), _near_bounds(expression)).map(
        lambda t: [t[2] if a == t[1] else text for a, text in enumerate(t[0])]
    )
    return st.one_of(plain, plain, plain, deep)


def _manifest(gamma: list[str], factor: str, avoid: list[str]) -> dict:
    return {
        "dimension": 5,
        "coordinates": list(COORDS),
        "gamma": gamma,
        "metric_frame": [[factor if i == j else "0" for j in range(4)] for i in range(4)],
        "phi_frame": PHI,
        "domain": DOMAIN,
        "avoid": avoid,
    }


def _manifests():
    factor = _expression()
    # a coordinate plus a drawn field vanishes on a hypersurface at most, so
    # sampling can clear it; a field below the avoid threshold everywhere
    # costs every sampling call its full redraw budget, and test_chart
    # covers that case
    avoid = st.tuples(st.sampled_from(COORDS), _expression()).map(lambda t: f"{t[0]} + ({t[1]})")
    return st.builds(
        _manifest,
        _gamma(),
        st.one_of(factor, factor.map(lambda e: f"1 + ({e})^2")),
        st.lists(avoid, max_size=1),
    )


def _points():
    coordinate = st.sampled_from((0.0, 0.5, -1.25, 2.0, -2.0, 1e-300))
    return st.lists(coordinate, min_size=5, max_size=5).map(lambda p: ",".join(map(repr, p)))


def _call(argv: list[str]) -> tuple[tuple[int, str, str], float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return (code, out.getvalue(), err.getvalue()), elapsed


def _names_a_field(stderr: str, path) -> bool:
    match = _FIELD_NAMED.match(stderr)
    if match is None or not stderr.endswith("\n") or stderr.count("\n") != 1:
        return False
    if match["text"] is None:
        return True
    m = load_manifest(path)
    return match["text"] in {str(f) for f in (*m.gamma, *m.metric_frame.flat, *m.phi_frame.flat, *m.avoid)}


@given(data=_manifests(), tensor=st.sampled_from(TENSOR_NAMES), point=_points())
@settings(max_examples=75, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(data=_manifest(["y^2^2^2^2^2", "0", "0", "0"], "1", []), tensor="omega", point="0.1,0.5,0,0,0")
@example(data=_manifest(["y^1000000", "0", "0", "0"], "1", []), tensor="omega", point="0.1,0.5,0,0,0")
def test_every_command_on_grammar_manifests(tmp_path, data, tensor, point):
    # one file for every example: each example rewrites the bytes at a path
    # the load cache has already seen
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    at = f"--at={point}"
    calls = (
        ["check", str(path), "--samples", "4", "--json"],
        ["classify", str(path), "--samples", "4"],
        ["einstein", str(path), "--samples", "4", "--json"],
        ["tensor", str(path), "--name", tensor, at, "--json"],
        ["rank", str(path), at],
    )
    for argv in calls:
        result, elapsed = _call(argv)
        code, _, err = result
        assert code in (0, 1, 2), argv
        assert elapsed < CALL_BOUND_S, (argv, elapsed)
        if code == 2:
            assert _names_a_field(err, path), (argv, err)
        manifest_module._manifest_from_text.cache_clear()
        assert _call(argv)[0] == result, argv
