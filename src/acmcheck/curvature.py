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

from .connection import nabla_omega, nabla_psi
from .manifest import OMEGA_SOURCES
from .residuals import holds_within, per_point, worst
from .structure import StructureEval, contract, mat_t, memoised


def schouten(ev: StructureEval) -> np.ndarray:
    """The full curvature tensor R[..., d, a, b, c] = R^d_{abc} of the
    internal connection."""
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


@memoised
def ricci_wagner(ev: StructureEval) -> np.ndarray:
    """The Ricci-Wagner trace r_ac = R^b_{abc}, taken without forming the
    curvature tensor.  Each term of

        R^b_{abc} = (Gamma^b_{ae} Gamma^e_{bc} + e_a Gamma^b_{bc})
                    - (Gamma^b_{be} Gamma^e_{ac} + e_b Gamma^b_{ac})

    is an array over (b, a, c) only: the products contract one index, and
    the derivative terms read two slices of the gradient of Gamma, with
    e_a = d_a - gamma_a d_n.  The terms are grouped and summed over b as
    the trace of :func:`schouten` is.  e_a Gamma^b_{bc} goes through the
    frame product of :meth:`StructureEval.frame_d`, as :func:`schouten`'s
    derivatives do, but e_b Gamma^b_{ac} is taken term by term, so the two
    agree to the last ulps of that term, not bit for bit.
    :func:`schouten` stays the builder of the full tensor.
    """
    m = ev.m
    Gamma, Gamma1 = ev.Gamma0, ev.Gamma1  # Gamma1[b, a, c, j] = d_j Gamma^b_{ac}
    e_a = mat_t(ev.frame_d(np.einsum("...bbcj->...bcj", Gamma1))[..., :m])
    along_n = Gamma1[..., -1] * ev.gam0[..., :, None, None]  # gamma_b d_n Gamma^b_{ac}
    e_b = np.einsum("...bacb->...bac", Gamma1[..., :m]) - along_n
    del Gamma1
    first = contract("...bae,...ebc->...bac", Gamma, Gamma)
    second = contract("...be,...eac->...bac", np.einsum("...bbe->...be", Gamma), Gamma)
    return np.einsum("...bac->...ac", (first + e_a) - (second + e_b))


def ricci_k(ev: StructureEval) -> np.ndarray:
    """Ricci tensor of the canonical connection on the full frame:
    k_ab = r_ab + 4 omega_{ad} psi^d_b = r_ab - :func:`einstein_rhs` (omega
    is skew), k_na = -nabla_d psi^d_a, Reeb column and corner zero."""
    n, m, last = ev.n, ev.m, ev.n - 1
    out = ev.zeros(n, n)
    out[..., :m, :m] = ricci_wagner(ev) - einstein_rhs(ev, "d_eta")
    out[..., last, :m] = -np.einsum("...dda->...a", nabla_psi(ev))
    return out


# ---------------------------------------------------------------------------
# Einstein criterion
# ---------------------------------------------------------------------------


def einstein_rhs(ev: StructureEval, omega_source: str) -> np.ndarray:
    """4 omega_{da} psi^d_b at the evaluated points, with omega taken from
    d(eta) or from the fundamental form."""
    if omega_source == "d_eta":
        om, psi = ev.omega0, ev.psi0
    elif omega_source == "fundamental_form":
        om = ev.Omega0
        psi = ev.ginv0 @ mat_t(ev.Omega0)
    else:
        raise ValueError(f"unknown omega_source '{omega_source}'")
    return 4.0 * contract("...da,...db->...ab", om, psi)


def einstein_reports(ev: StructureEval, tol: float) -> dict[str, dict]:
    """The ``einstein`` section of a report."""
    rows, grids = einstein_rows(ev)
    return einstein_section(worst(rows), grids, tol)


def einstein_rows(ev: StructureEval) -> tuple[dict, dict[str, list]]:
    """The rows of the ``einstein`` section, the hypothesis max |nabla omega|
    as ``nabla_omega`` (the one row of it: ``check`` reports it under
    ``identities`` too) and each omega source's (residual, scale) of
    r_ab = 4 omega_{da} psi^d_b, and each source's ``residual_grid``: its
    per-component max over samples, so block-level behaviour stays visible."""
    m = ev.m
    r = ricci_wagner(ev).reshape(-1, m, m)
    samples = r.shape[:1]
    r_scale = per_point(np.maximum, np.abs(r), samples)
    rows, grids = {"nabla_omega": ev.max_abs(nabla_omega(ev)).reshape(-1)}, {}
    for source in OMEGA_SOURCES:
        rhs = einstein_rhs(ev, source).reshape(-1, m, m)
        diff = np.abs(r - rhs)
        grids[source] = diff.max(axis=0).tolist()
        rows[source] = (per_point(np.maximum, diff, samples),
                        np.maximum(r_scale, per_point(np.maximum, np.abs(rhs), samples)))
    return rows, grids


def einstein_section(maxima: dict, grids: dict[str, list], tol: float) -> dict[str, dict]:
    """The section from the :func:`worst` of :func:`einstein_rows` and its
    grids: each omega source's ``verdict``, ``max_residual``, grid and the
    ``parallel_torsion_residual``, which does not gate the verdict."""
    return {
        source: {"verdict": holds_within(*maxima[source], tol), "max_residual": maxima[source][0],
                 "parallel_torsion_residual": maxima["nabla_omega"],
                 "residual_grid": grids[source]}
        for source in OMEGA_SOURCES
    }
