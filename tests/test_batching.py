"""A block of points is evaluated as the stack of its points: the pairwise
bracket einsums against their per-pair loop forms, and every CLI tensor and
every identity, criterion, axiom and Einstein residual of one evaluation over
all points against the stacked evaluations of batches of one and of bare
points, bit for bit."""

from __future__ import annotations

import json

import numpy as np
import pytest

from acmcheck.chart import sample_points
from acmcheck.checks import identity_residuals
from acmcheck.classify import criterion_residuals, nijenhuis_tensors
from acmcheck.connection import (
    basis_brackets_frame,
    canonical_connection,
    lc_adapted,
    nabla_omega,
    torsion,
)
from acmcheck.curvature import curvature_K, einstein_rhs, ricci_k, ricci_wagner, schouten
from acmcheck.manifest import OMEGA_SOURCES, manifest_from_dict
from acmcheck.structure import StructureEval, validate_axioms

from _helpers import deep_tree_manifest_data, fixture_path, loop_basis_brackets_frame, loop_nijenhuis_phi
from conftest import FIXTURES


@pytest.mark.parametrize("name", FIXTURES)
def test_bracket_einsums_equal_per_pair_loops(name, manifests, sample_sets):
    s = manifests[name]
    points = sample_sets[name][:8]
    ev = StructureEval(s, points)
    brackets = basis_brackets_frame(ev)
    n_phi = nijenhuis_tensors(ev).n_phi
    for i, p in enumerate(points):
        single = StructureEval(s, p)
        assert np.array_equal(brackets[i], loop_basis_brackets_frame(single)), name
        assert np.array_equal(n_phi[i], loop_nijenhuis_phi(single)), name


def _quantities(ev: StructureEval) -> dict[str, np.ndarray]:
    """Every CLI tensor and every per-point residual, keyed by name."""
    tors = torsion(ev, ev.canonical_N)
    K = curvature_K(ev)
    out = {
        "omega": ev.omega0, "psi": ev.psi0, "C": ev.C0,
        "lc-adapted": lc_adapted(ev).full,
        "n-connection": canonical_connection(ev).full,
        "torsion": tors.components,
        "torsion.is_skew": tors.is_skew,
        "schouten": schouten(ev),
        "K.frame": K.frame, "K.mixed": K.mixed,
        "ricci-wagner": ricci_wagner(ev),
        "ricci-k": ricci_k(ev),
    }
    out.update({f"identity.{k}": v for k, v in identity_residuals(ev).items()})
    out.update({f"axiom.{k}": v for k, v in validate_axioms(ev).items()})
    for k, (residual, scale) in criterion_residuals(ev).items():
        out[f"criterion.{k}"] = residual
        out[f"criterion.{k}.scale"] = scale
    for source in OMEGA_SOURCES:  # the Einstein left-hand side r is "ricci-wagner"
        out[f"einstein.{source}.rhs"] = einstein_rhs(ev, source)
    out["einstein.nabla_omega"] = nabla_omega(ev)  # the parallel-torsion row's tensor
    return out


@pytest.mark.parametrize("name", FIXTURES + ("twisted", "heavy-0"))
def test_batch_equals_stack_of_batches_of_one(name, manifests, twisted):
    if name == "heavy-0":
        s = manifest_from_dict(deep_tree_manifest_data(0))
    else:
        s = twisted if name == "twisted" else manifests[name]
    points = sample_points(s, 8, seed=11)
    whole = _quantities(StructureEval(s, points))
    # points[i : i + 1] has batch shape (1,), the bare point points[i] ()
    ones = [_quantities(StructureEval(s, points[i : i + 1])) for i in range(len(points))]
    bare = [_quantities(StructureEval(s, points[i])) for i in range(len(points))]
    for key, value in whole.items():
        for singles, stack in ((ones, np.concatenate), (bare, np.stack)):
            stacked = stack([single[key] for single in singles])
            assert np.shape(value) == np.shape(stacked) and len(value) == len(points), key
            assert np.array_equal(value, stacked), f"{name}: {key} ({stack.__name__})"


# example1 variants that are not finite at some samples only: phi through
# exp(x)^400, NaN for x > 1.78, and a metric through exp(352*x) whose second
# derivatives overflow near x = 2 (their curvature tensors hold NaN and
# +-Infinity there)
MIXED = {
    "nan": lambda data: data["phi_frame"][0].__setitem__(2, "-1 + 0*exp(x)^400"),
    "overflow": lambda data: data.update(
        metric_frame=[["exp(352*x)" if i == j else "0" for j in range(4)] for i in range(4)],
        domain=[[1.95, 2.0]] + [[-2.0, 2.0]] * 4,
    ),
}


@pytest.mark.parametrize("name", MIXED)
def test_a_batch_of_finite_and_non_finite_points_is_the_stack_of_its_points(name):
    data = json.loads(fixture_path("example1").read_text())
    MIXED[name](data)
    s = manifest_from_dict(data)
    points = sample_points(s, 32, seed=11)
    whole_ev = StructureEval(s, points)
    finite = np.isfinite((whole_ev.phi1 if name == "nan" else whole_ev.g2).reshape(len(points), -1)).all(-1)
    assert finite.any() and not finite.all()
    with np.errstate(over="ignore", invalid="ignore"):
        whole = _quantities(whole_ev)
        bare = [_quantities(StructureEval(s, p)) for p in points]
    for key, value in whole.items():
        stacked = np.stack([single[key] for single in bare])
        assert np.array_equal(value, stacked, equal_nan=True), f"{name}: {key}"


def test_single_point_is_batch_shape_empty(manifests, sample_sets):
    s = manifests["example3-qs"]
    points = sample_sets["example3-qs"][:3]
    ev = StructureEval(s, points)
    assert ev.batch == (3,) and ricci_wagner(ev).shape == (3, 4, 4)
    single = StructureEval(s, points[1])
    assert single.batch == () and ricci_wagner(single).shape == (4, 4)
    assert np.array_equal(ricci_wagner(ev)[1], ricci_wagner(single))
