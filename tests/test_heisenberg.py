"""The Heisenberg family at n = 3, 5 and 7, against values worked by hand
(see ``_helpers.heisenberg_manifest_data``): with c = 1 it is contact
metric and quasi-Sasakian, with c = 1/2 quasi-Sasakian but not contact
metric, and its internal connection is flat, so r = 0 and the Einstein
criterion from d(eta) fails."""

from __future__ import annotations

import numpy as np
import pytest

from acmcheck.chart import rank_at, sample_points
from acmcheck.classify import nijenhuis_tensors
from acmcheck.curvature import ricci_k, ricci_wagner
from acmcheck.manifest import manifest_from_dict
from acmcheck.structure import StructureEval
from _helpers import (
    classify_run,
    einstein_run,
    four_bracket_nijenhuis,
    heisenberg_manifest_data,
    loop_nijenhuis_phi,
)

DIMENSIONS = (3, 5, 7)


def heisenberg(n: int, c: float = 1.0):
    return manifest_from_dict(heisenberg_manifest_data(n, c), source=f"heisenberg-{n}-c{c}")


def hand_omega(n: int, c: float) -> np.ndarray:
    """omega_{x_i y_i} = -c and omega_{y_i x_i} = c."""
    k = (n - 1) // 2
    omega = np.zeros((2 * k, 2 * k))
    for i in range(k):
        omega[i, k + i], omega[k + i, i] = -c, c
    return omega


@pytest.mark.parametrize("n", DIMENSIONS)
def test_unit_heisenberg_is_contact_metric_and_quasi_sasakian(n):
    manifest = heisenberg(n)
    verdicts = classify_run(manifest, samples=16)["classification"]
    for name in ("contact_metric", "normal", "aqs", "quasi_sasakian"):
        assert verdicts[name]["holds"], name
    # omega is non-degenerate and d(eta)(xi, .) = 0: rank 2k + 1 = n
    assert rank_at(manifest, sample_points(manifest, 16, seed=5)).tolist() == [n] * 16


def test_half_heisenberg_is_quasi_sasakian_but_not_contact_metric():
    # omega = Omega / 2, while phi, g and so Omega are those of c = 1
    manifest = heisenberg(7, 0.5)
    verdicts = classify_run(manifest, samples=16)["classification"]
    assert verdicts["quasi_sasakian"]["holds"]
    assert not verdicts["contact_metric"]["holds"]
    assert verdicts["contact_metric"]["max_residual"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n, c", [(3, 1.0), (5, 1.0), (7, 1.0), (7, 0.5)])
def test_flat_internal_connection_and_ricci_k(n, c):
    manifest = heisenberg(n, c)
    ev = StructureEval(manifest, sample_points(manifest, 8, seed=6))
    omega = hand_omega(n, c)
    assert np.array_equal(ev.omega0, np.broadcast_to(omega, ev.omega0.shape))
    assert not ev.Gamma0.any() and not ricci_wagner(ev).any()
    # psi = omega^T, omega^2 = -c^2: the d(eta) right-hand side
    # 4 omega_da psi^d_b = -4 c^2 delta_ab misses r = 0 by 4 c^2
    report = einstein_run(manifest, samples=8)["d_eta"]
    assert not report["verdict"]
    assert report["max_residual"] == pytest.approx(4.0 * c * c, rel=1e-14)
    # k_ab = r_ab - 4 omega_da psi^d_b = 4 c^2 delta_ab; psi is constant
    # and Gamma = 0, so the Reeb row -nabla_d psi^d_a is 0
    k = ricci_k(ev)
    hand = -4.0 * np.einsum("da,db->ab", omega, omega.T)
    assert np.array_equal(hand, 4.0 * c * c * np.eye(n - 1))
    assert np.allclose(k[:, : n - 1, : n - 1], hand, rtol=0.0, atol=1e-14)
    assert not k[:, -1].any() and not k[:, :, -1].any()


@pytest.mark.parametrize("n, c", [(3, 1.0), (5, 1.0), (7, 1.0), (7, 0.5)])
def test_nijenhuis_tensors_match_the_references_and_the_hand_values(n, c):
    manifest = heisenberg(n, c)
    points = sample_points(manifest, 8, seed=7)
    ev = StructureEval(manifest, points)
    bundle = nijenhuis_tensors(ev)
    # [E_i, E_j] and phi[phi E_i, E_j] carry no horizontal part, so
    # N_phi(e_a, e_b) = [phi e_a, phi e_b] = 2 omega(phi e_b, phi e_a) xi
    # = -2 omega_ab xi, and N1 = N~ = 0
    hand = np.zeros((n, n, n))
    hand[: n - 1, : n - 1, -1] = -2.0 * hand_omega(n, c)
    assert np.allclose(bundle.n_phi, hand, rtol=0.0, atol=1e-12)
    assert np.abs(bundle.n1).max() <= 1e-12 and np.abs(bundle.n_tilde).max() <= 1e-12
    n_phi, d_eta_phi = four_bracket_nijenhuis(StructureEval(manifest, points))
    assert np.abs(bundle.n_phi - n_phi).max() <= 1e-13 * (1.0 + np.abs(n_phi).max())
    assert np.abs(bundle.d_eta_phi - d_eta_phi).max() <= 1e-13 * (1.0 + np.abs(d_eta_phi).max())
    for i in (0, 5):
        loop = loop_nijenhuis_phi(StructureEval(manifest, points[i]))
        assert np.abs(bundle.n_phi[i] - loop).max() <= 1e-13 * (1.0 + np.abs(loop).max())
