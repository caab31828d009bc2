"""Curvature of the internal and canonical connections, Ricci-type tensors,
and the Einstein criterion.

Index conventions: R[d, a, b, c] = R^d_{abc} is the value component d of
R(e_a, e_b) e_c, with R^d_{abc} = e_a Gamma^d_{bc} - e_b Gamma^d_{ac}
+ Gamma^d_{ae} Gamma^e_{bc} - Gamma^d_{be} Gamma^e_{ac}.  The Ricci-Wagner
trace is r_{ac} = R^b_{abc} (trace over the second direction slot against
the output), which is the sign that reproduces r = -4 g on the conformal
block of the bundled constant-curvature example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import basis_brackets_frame, nabla_omega, nabla_psi
from .manifest import OMEGA_SOURCES
from .residuals import WorstResidual, nanmax
from .structure import AdaptedStructure, StructureEval, contract, mat_t, memoised

DEFAULT_TOL = 1e-7


def schouten(ev: StructureEval) -> np.ndarray:
    eG = ev.frame_d(ev.Gamma1)[..., : ev.m]  # eG[d, b, c, a] = e_a Gamma^d_{bc}
    R = contract("...dae,...ebc->...dabc", ev.Gamma0, ev.Gamma0)
    R += np.einsum("...dbca->...dabc", eG)  # + first
    return R - np.swapaxes(R, -3, -2)


@dataclass(frozen=True)
class CurvatureK:
    """Canonical-connection curvature blocks.

    ``frame[..., d, a, b, c]`` = K^d_{abc} (horizontal directions) and
    ``mixed[..., d, a, c]`` = K^d_{anc} (second direction along the Reeb
    field), which equals twice the internal derivative of psi.
    """

    frame: np.ndarray
    mixed: np.ndarray


def curvature_K(ev: StructureEval) -> CurvatureK:
    R = schouten(ev)
    frame = R + 4.0 * contract("...ab,...dc->...dabc", ev.omega0, ev.psi0)
    mixed = 2.0 * np.swapaxes(nabla_psi(ev), -3, -2)  # [d, a, c] from [a, d, c]
    return CurvatureK(frame=frame, mixed=mixed)


def curvature_canonical_direct(ev: StructureEval) -> np.ndarray:
    """Curvature of the canonical connection computed directly from its
    coefficient table on the nonholonomic frame:

        K(E_i, E_j) E_k = nabla_i nabla_j E_k - nabla_j nabla_i E_k
                          - nabla_{[E_i, E_j]} E_k.

    Returns K[..., i, j, k, q] over the full frame; the independent
    cross-check for :func:`curvature_K`.
    """
    n, m, last = ev.n, ev.m, ev.n - 1
    coeff = ev.canonical_full

    # coordinate gradients of every nonzero coefficient block
    grad = ev.zeros(n, n, n, n)  # grad[j, k, q, r] = d_r coeff[j, k, q]
    grad[..., :m, :m, :m, :] = np.moveaxis(ev.Gamma1, -4, -2)
    grad[..., last, :m, :m, :] = 2.0 * np.einsum("...bar->...abr", ev.psi1)
    grad[..., last, :m, last, :] = -ev.gam2[..., :, last, :]

    Ecoeff = ev.frame_d(grad)  # [j, k, q, i] = E_i coeff[j, k, q]
    nonholonomy = basis_brackets_frame(ev)  # [i, j, m]

    K = np.einsum("...jkqi->...ijkq", Ecoeff) - np.einsum("...ikqj->...ijkq", Ecoeff)
    K += contract("...jkl,...ilq->...ijkq", coeff, coeff) - contract(
        "...ikl,...jlq->...ijkq", coeff, coeff
    )
    K -= contract("...ijm,...mkq->...ijkq", nonholonomy, coeff)
    return K


@memoised
def ricci_wagner(ev: StructureEval) -> np.ndarray:
    return np.einsum("...babc->...ac", schouten(ev))


def ricci_k(ev: StructureEval) -> np.ndarray:
    """Ricci tensor of the canonical connection on the full frame:
    k_ab = r_ab + 4 omega_{ad} psi^d_b, k_na = -nabla_d psi^d_a, Reeb
    column and corner zero."""
    n, m, last = ev.n, ev.m, ev.n - 1
    out = ev.zeros(n, n)
    out[..., :m, :m] = ricci_wagner(ev) + 4.0 * contract("...ad,...db->...ab", ev.omega0, ev.psi0)
    out[..., last, :m] = -np.einsum("...dda->...a", nabla_psi(ev))
    return out


# ---------------------------------------------------------------------------
# Einstein criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EinsteinSample:
    """r and 4 omega_{da} psi^d_b at the evaluated points, batch axes in front."""

    point: np.ndarray
    r: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class EinsteinReport:
    """Residuals of r_ab = 4 omega_{da} psi^d_b over the samples.

    ``residual_grid`` is the per-component max over samples, so block-level
    behaviour stays visible; ``parallel_torsion_residual`` reports the
    hypothesis max |nabla omega| without gating the computation."""

    omega_source: str
    verdict: bool
    max_residual: float
    residual_grid: np.ndarray
    parallel_torsion_residual: float
    tol: float
    samples: EinsteinSample


def einstein_sample(ev: StructureEval, omega_source: str) -> EinsteinSample:
    """r and 4 omega_{da} psi^d_b at the evaluated points, with omega taken
    from d(eta) or from the fundamental form."""
    if omega_source == "d_eta":
        om, psi = ev.omega0, ev.psi0
    elif omega_source == "fundamental_form":
        om = ev.Omega0
        psi = ev.ginv0 @ mat_t(ev.Omega0)
    else:
        raise ValueError(f"unknown omega_source '{omega_source}'")
    rhs = 4.0 * contract("...da,...db->...ab", om, psi)
    return EinsteinSample(point=ev.p.copy(), r=ricci_wagner(ev), rhs=rhs)


def einstein_reports(
    ev: StructureEval, tol: float, sources: tuple[str, ...] = OMEGA_SOURCES
) -> dict[str, EinsteinReport]:
    """Verdict, per-component residual grid and samples for each omega
    source, from one evaluation over the sampled points."""
    parallel_torsion = WorstResidual(ev.max_abs(nabla_omega(ev))).residual
    reports = {}
    for source in sources:
        sample = einstein_sample(ev, source)
        m = sample.r.shape[-1]
        r, rhs = sample.r.reshape(-1, m, m), sample.rhs.reshape(-1, m, m)
        diff = np.abs(r - rhs)
        worst = WorstResidual(diff, nanmax(np.abs(r).max(), np.abs(rhs).max()))
        reports[source] = EinsteinReport(
            omega_source=source,
            verdict=worst.holds(tol),
            max_residual=worst.residual,
            residual_grid=diff.max(axis=0),
            parallel_torsion_residual=parallel_torsion,
            tol=tol,
            samples=sample,
        )
    return reports


def einstein_check(
    s: AdaptedStructure,
    samples: int = 32,
    tol: float = DEFAULT_TOL,
    omega_source: str = "d_eta",
    seed: int = 42,
    points: np.ndarray | None = None,
) -> EinsteinReport:
    if points is None:
        points = s.chart.sample_points(samples, seed)
    return einstein_reports(StructureEval(s, points), tol, (omega_source,))[omega_source]
