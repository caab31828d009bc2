"""One build per evaluation of each array that several readers of a check
share: the frame matrix, the frame brackets, the canonical coefficient
table and the frame derivative of the metric.  The shared arrays are read-only, and no residual
depends on which reader runs first."""

from __future__ import annotations

import numpy as np
import pytest

from acmcheck import chart, classify, connection, structure
from acmcheck.chart import sample_points
from acmcheck.checks import identity_residuals, run_full_check
from acmcheck.classify import (
    aqs_characterization_residual,
    canonical_nabla_phi_residual,
    criterion_residuals,
    nijenhuis_tensors,
    projection_identity_residual,
    qs_characterization_residual,
    reeb_split_identity_residual,
)
from acmcheck.connection import (
    basis_brackets_frame,
    metricity_defect,
    n_connection_formula_residual,
    torsion,
)
from acmcheck.structure import StructureEval

from conftest import FIXTURES


@pytest.mark.parametrize("name", FIXTURES)
def test_one_check_builds_each_shared_array_once(name, manifests, monkeypatch):
    counts = {"frame matrices": 0, "brackets": 0, "N-connection tables": 0, "frame derivatives of g": 0}
    frame_matrix, bracket = chart.frame_matrix, connection.bracket
    n_table, frame_d = StructureEval._n_table, StructureEval.frame_d

    def counted_frame_matrix(gam0):
        counts["frame matrices"] += 1
        return frame_matrix(gam0)

    def counted_bracket(*args):
        counts["brackets"] += 1
        return bracket(*args)

    def counted_n_table(ev, N0):
        counts["N-connection tables"] += 1
        return n_table(ev, N0)

    def counted_frame_d(ev, F1):
        counts["frame derivatives of g"] += F1 is ev.g1
        return frame_d(ev, F1)

    monkeypatch.setattr(chart, "frame_matrix", counted_frame_matrix)
    monkeypatch.setattr(structure, "frame_matrix", counted_frame_matrix)
    monkeypatch.setattr(connection, "bracket", counted_bracket)
    monkeypatch.setattr(classify, "bracket", counted_bracket)
    monkeypatch.setattr(StructureEval, "_n_table", counted_n_table)
    monkeypatch.setattr(StructureEval, "frame_d", counted_frame_d)
    run_full_check(manifests[name], samples=16)
    # one frame matrix, read by the frame derivatives and the brackets;
    # [E_i, E_j], [phi E_i, phi E_j] and [phi E_i, E_j]; the canonical table
    assert counts == {
        "frame matrices": 1, "brackets": 3, "N-connection tables": 1, "frame derivatives of g": 1,
    }


def test_shared_arrays_reject_writes(manifests):
    s = manifests["example3-aqs"]
    ev = StructureEval(s, sample_points(s, 16, seed=3))
    bundle = nijenhuis_tensors(ev)
    shared = {
        "n_phi": bundle.n_phi,
        "n1": bundle.n1,
        "n_tilde": bundle.n_tilde,
        "d_eta": bundle.d_eta,
        "d_eta_phi": bundle.d_eta_phi,
        "lc_full": ev.lc_full,
        "canonical_full": ev.canonical_full,
        "n_full(canonical_N)": ev.n_full(ev.canonical_N),
        "g_frame_d": ev.g_frame_d,
        "phi_frame_d": ev.phi_frame_d,
        "basis_brackets_frame": basis_brackets_frame(ev),
        "phi_psi0": ev.phi_psi0,
        "psi_phi0": ev.psi_phi0,
        "omega_phi0": ev.omega_phi0,
    }
    for name, arr in shared.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    # an N other than the canonical one gets a new table of its own
    assert ev.n_full(ev.canonical_N) is ev.canonical_full
    other = ev.n_full(ev.canonical_N.copy())
    assert other is not ev.canonical_full and other.flags.writeable
    assert np.array_equal(other, ev.canonical_full)


READERS = {
    "torsion": lambda ev: torsion(ev, ev.canonical_N).direct_residual,
    "metricity": lambda ev: ev.max_abs(metricity_defect(ev, ev.canonical_N)),
    "n_formula": lambda ev: n_connection_formula_residual(ev, ev.canonical_N),
    "projection": projection_identity_residual,
    "reeb_split": reeb_split_identity_residual,
    "aqs": aqs_characterization_residual,
    "qs": qs_characterization_residual,
    "canonical_nabla_phi": canonical_nabla_phi_residual,
    "criteria": lambda ev: np.array(list(criterion_residuals(ev).values())),
}


@pytest.mark.parametrize("name", FIXTURES + ("twisted",))
def test_residuals_do_not_depend_on_reader_order(name, manifests, twisted):
    s = twisted if name == "twisted" else manifests[name]
    points = sample_points(s, 16, seed=4)
    forward, backward = StructureEval(s, points), StructureEval(s, points)
    first = {key: read(forward) for key, read in READERS.items()}
    last = {key: read(backward) for key, read in reversed(READERS.items())}
    for key in READERS:
        assert np.array_equal(first[key], last[key]), key
    alone = identity_residuals(StructureEval(s, points))
    for ev in (forward, backward):
        after = identity_residuals(ev)
        for key, value in alone.items():
            assert np.array_equal(after[key], value), key
