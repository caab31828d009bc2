"""Chart invariance, a metamorphic oracle: a manifest and its pull-back
through an adapted change of chart x^a = F^a(x'), x^n = x'^n + s(x') must
give the same tensors up to the frame Jacobian, the same verdicts and the
same rank.

The pull-back is derived with sympy from the manifest strings
(:func:`_helpers.pulled_back_manifest`).  With A = dF/dx' the horizontal
frames satisfy e'_a' = A^a_a' e_a and the Reeb field stays, so every tensor
of the paper transforms by A on horizontal indices and by block-diag(A, 1)
on full-frame ones: a lower index a' takes A^a_a', an upper one (A^-1)^a'_a.
Connection coefficients transform so only where A is constant.  Residual
magnitudes are not compared: a max-abs residual is not chart-invariant.
"""

from __future__ import annotations

import numpy as np
import pytest

from acmcheck.chart import rank_of, sample_points
from acmcheck.checks import HARD_TOLERANCES, identity_residuals
from acmcheck.classify import classification_sections, criterion_residuals
from acmcheck.connection import canonical_connection, lc_adapted, torsion
from acmcheck.curvature import (
    curvature_K,
    einstein_rows,
    einstein_section,
    ricci_k,
    ricci_wagner,
    schouten,
)
from acmcheck.expr import parse
from acmcheck.manifest import manifest_from_dict
from acmcheck.residuals import holds_within, worst
from acmcheck.structure import StructureEval

from _helpers import grammar_printer, manifest_data, pulled_back_manifest, sympy_reader
from conftest import FIXTURES

pytest.importorskip("sympy")

# frame maps F^a and shift s over the primed coordinates
TRANSITIONS = {
    "rotation": (("cos(3/10)*x - sin(3/10)*y", "sin(3/10)*x + cos(3/10)*y", "z", "u"), "0"),
    "shear": (("x + y/2", "y", "z", "u"), "0"),
    "shift": (("x", "y", "z", "u"), "x*u"),
    "bent": (("x + y^2/4", "y", "z + sin(u)/2", "u"), "x*u"),
}
CONSTANT_JACOBIAN = ("rotation", "shear", "shift")

# the tensors the CLI prints, each with one valence tag per component axis
# ('u' upper, 'l' lower); an axis of length n runs over the full frame
TENSORS = {
    "omega": (lambda ev: ev.omega0, "ll"),
    "psi": (lambda ev: ev.psi0, "ul"),
    "C": (lambda ev: ev.C0, "ll"),
    "torsion": (lambda ev: torsion(ev, ev.canonical_N).components, "lll"),
    "schouten": (schouten, "ulll"),
    "K.frame": (lambda ev: curvature_K(ev).frame, "ulll"),
    "K.mixed": (lambda ev: curvature_K(ev).mixed, "ull"),
    "ricci-wagner": (ricci_wagner, "ll"),
    "ricci-k": (ricci_k, "ll"),
}
CONNECTIONS = {
    "lc-adapted": (lambda ev: lc_adapted(ev).full, "llu"),
    "n-connection": (lambda ev: canonical_connection(ev).full, "llu"),
}

# largest |difference| over the largest |component| of the transformed tensor
RTOL = 1e-13
SAMPLES = 8
MANIFESTS = FIXTURES + ("twisted",)


def push(T: np.ndarray, valence: str, A: np.ndarray) -> np.ndarray:
    """Components T[s, ...] at sample s in the primed frame e'_a' = A[s]^a_a' e_a."""
    S, m = A.shape[:2]
    B = np.zeros((S, m + 1, m + 1))
    B[:, :m, :m] = A
    B[:, m, m] = 1.0
    for axis, tag in enumerate(valence, start=1):
        M = A if T.shape[axis] == m else B
        if tag == "u":
            M = np.swapaxes(np.linalg.inv(M), -1, -2)
        moved = np.moveaxis(T, axis, -1)  # t'_{..a'..} = t_{..a..} M[a, a']
        moved = moved @ M.reshape((S,) + (1,) * (moved.ndim - 3) + M.shape[1:])
        T = np.moveaxis(moved, -1, axis)
    return T


def verdicts(ev: StructureEval, tol: float) -> dict[str, bool]:
    """Every verdict a ``check`` report carries, from one reduction of its
    rows as ``check`` makes it, and torsion skew-symmetry."""
    rows, grids = einstein_rows(ev)
    rows.update((name, row) for name, row in identity_residuals(ev).items() if name in HARD_TOLERANCES)
    rows.update(criterion_residuals(ev))
    maxima = worst(rows)
    out = {f"identity {name}": holds_within(maxima[name], 0.0, tolerance)
           for name, tolerance in HARD_TOLERANCES.items()}
    for section, entries in classification_sections(maxima, tol, SAMPLES).items():
        out.update({f"{section} {name}": entry["holds"] for name, entry in entries.items()})
    out.update({f"einstein {source}": entry["verdict"]
                for source, entry in einstein_section(maxima, grids, tol).items()})
    out["torsion skew"] = bool(np.all(torsion(ev, ev.canonical_N).is_skew))
    return out


@pytest.fixture(scope="module")
def chart_pairs():
    """For each fixture and transition: the original evaluation at the images
    of the pulled-back manifest's sample points, the pulled-back evaluation
    there, the Jacobians and the tolerance."""
    pairs = {}
    for name in MANIFESTS:
        data = manifest_data(name)
        original = manifest_from_dict(data)
        for kind, (frame_maps, shift) in TRANSITIONS.items():
            pulled, transition = pulled_back_manifest(data, frame_maps, shift)
            primed = manifest_from_dict(pulled)
            p_primed = sample_points(primed, SAMPLES, seed=3)
            images, jacobians = zip(*map(transition, p_primed))
            pairs[name, kind] = (
                StructureEval(original, np.array(images)),
                StructureEval(primed, p_primed),
                np.array(jacobians),
                original.tolerance,
            )
    return pairs


@pytest.mark.parametrize("kind", TRANSITIONS)
@pytest.mark.parametrize("name", MANIFESTS)
def test_tensors_transform_by_the_frame_jacobian(name, kind, chart_pairs):
    ev, ev_primed, A, _ = chart_pairs[name, kind]
    checked = {**TENSORS, **(CONNECTIONS if kind in CONSTANT_JACOBIAN else {})}
    for tensor, (build, valence) in checked.items():
        want = push(build(ev), valence, A)
        got = build(ev_primed)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= RTOL * np.abs(want).max(), tensor


@pytest.mark.parametrize("kind", TRANSITIONS)
@pytest.mark.parametrize("name", MANIFESTS)
def test_verdicts_and_rank_are_chart_invariant(name, kind, chart_pairs):
    ev, ev_primed, _, tol = chart_pairs[name, kind]
    assert verdicts(ev_primed, tol) == verdicts(ev, tol)
    assert np.array_equal(rank_of(ev_primed.omega0, ev_primed.d_eta_xi), rank_of(ev.omega0, ev.d_eta_xi))


def test_pull_back_prints_the_manifest_grammar():
    data = manifest_data("example3-qs")
    pulled, transition = pulled_back_manifest(data, *TRANSITIONS["shear"])
    assert pulled["gamma"] == ["y", "y/2", "0", "0"]
    assert pulled["metric_frame"][0][0] == "(y^2 + (x + y/2)^2 + 1)^(-2)"
    assert pulled["phi_frame"][0][:2] == ["-1/2", "-5/4"]
    assert pulled["avoid"] == ["y"] and pulled["domain"] == data["domain"]
    image, A = transition(np.array([0.5, 2.0, 0.0, 0.0, 1.0]))
    assert np.array_equal(image, [1.5, 2.0, 0.0, 0.0, 1.0])
    assert np.array_equal(A, [[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


@pytest.mark.parametrize("text", [
    "sqrt(1 + x^2)^3 - 1/sqrt(2 + y)", "ln(3 + z)*exp(-u)", "0.1*x/(v - 7) + 1e-20*y^-3", "-x^2*sin(y)/5",
])
def test_grammar_printer_round_trips(text):
    coords = ("x", "y", "z", "u", "v")
    printed = grammar_printer().doprint(sympy_reader(coords)[1](text))
    p = np.array([0.3, 0.7, -0.4, 1.1, 0.5])
    assert parse(printed, coords).value(p) == pytest.approx(parse(text, coords).value(p), rel=1e-15)
