"""Symbolic oracle: omega, d(eta)(xi, .), the coordinate Christoffel symbols
of g + eta (x) eta and the Ricci-Wagner tensor, derived exactly with sympy
from the manifest strings, without the jet layer, against StructureEval and
lc_coordinate at rational points.

Each quantity is built from its definition: omega_ab = d(eta)(e_a, e_b)
with d(eta)_ij = (d_i eta_j - d_j eta_i)/2, the Christoffel symbols from the
Koszul formula on the coordinate metric, and r_ac = R^b_abc from the
internal connection on the frame e_a = d_a - gamma_a d_n.
"""

from __future__ import annotations

import numpy as np
import pytest

from acmcheck.connection import lc_coordinate
from acmcheck.curvature import ricci_wagner
from acmcheck.manifest import manifest_from_dict
from acmcheck.structure import StructureEval

from _helpers import manifest_data, sympy_reader
from conftest import FIXTURES

sp = pytest.importorskip("sympy")

RTOL = 1e-12
ATOL = 1e-12

# dyadic rationals, so the float point handed to the library is the exact
# point the symbolic side evaluates at
POINTS = (
    ("1/4", "1/2", "-3/8", "5/16", "3/4"),
    ("-1/2", "3/4", "1/8", "-5/8", "7/16"),
)



def _symbolic(data: dict, point: tuple[str, ...]) -> dict[str, np.ndarray]:
    """omega, d_eta_xi, the coordinate Christoffels coeff[i, j, k] =
    Gamma^k_ij and the Ricci-Wagner tensor at ``point``, exactly."""
    coords, expr = sympy_reader(data["coordinates"])
    n = len(coords)
    m = n - 1
    at = {c: sp.Rational(q) for c, q in zip(coords, point)}

    def value(f) -> float:
        return float(sp.N(sp.sympify(f).subs(at), 40))

    gamma = [expr(t) for t in data["gamma"]]
    g = sp.Matrix(m, m, lambda a, b: expr(data["metric_frame"][a][b]))
    eta = gamma + [sp.Integer(1)]
    frame = [[sp.Integer(int(j == a)) for j in range(m)] + [-gamma[a]] for a in range(m)]

    def e(a: int, f):
        return sum(frame[a][j] * sp.diff(f, coords[j]) for j in range(n))

    # d(eta) under the 1/2 convention, then on frame pairs
    d_eta = [[(sp.diff(eta[j], coords[i]) - sp.diff(eta[i], coords[j])) / 2 for j in range(n)]
             for i in range(n)]

    def d_eta_on(X, Y):
        return sum(X[i] * Y[j] * d_eta[i][j] for i in range(n) for j in range(n))

    xi = [0] * m + [1]
    omega = [[value(d_eta_on(frame[a], frame[b])) for b in range(m)] for a in range(m)]
    d_eta_xi = [value(2 * d_eta_on(xi, frame[a])) for a in range(m)]

    # coordinate metric g_ab dx^a dx^b + eta (x) eta and its Christoffels
    G = sp.Matrix(n, n, lambda i, j: (g[i, j] if i < m and j < m else 0) + eta[i] * eta[j])
    Ginv = G.subs(at).inv()
    dG = [[[sp.diff(G[i, j], coords[k]).subs(at) for k in range(n)] for j in range(n)]
          for i in range(n)]
    christoffel = [[[float(sp.N(sum(
        Ginv[k, l] * (dG[j][l][i] + dG[i][l][j] - dG[i][j][l]) for l in range(n)) / 2, 40))
        for k in range(n)] for j in range(n)] for i in range(n)]

    # internal connection Gamma^a_bc and r_ac = R^b_abc
    ginv = g.inv()
    Gam = [[[sum(ginv[a, d] * (e(b, g[c, d]) + e(c, g[b, d]) - e(d, g[b, c])) for d in range(m)) / 2
             for c in range(m)] for b in range(m)] for a in range(m)]
    Gam_at = [[[Gam[a][b][c].subs(at) for c in range(m)] for b in range(m)] for a in range(m)]
    eGam = [[[[e(q, Gam[a][b][c]).subs(at) for c in range(m)] for b in range(m)] for a in range(m)]
            for q in range(m)]  # eGam[q][a][b][c] = e_q Gamma^a_bc
    ricci = [[value(sum(
        eGam[a][b][b][c] - eGam[b][b][a][c]
        + sum(Gam_at[b][a][f] * Gam_at[f][b][c] - Gam_at[b][b][f] * Gam_at[f][a][c] for f in range(m))
        for b in range(m))) for c in range(m)] for a in range(m)]

    return {
        "omega": np.array(omega),
        "d_eta_xi": np.array(d_eta_xi),
        "christoffel": np.array(christoffel),
        "ricci_wagner": np.array(ricci),
    }


@pytest.mark.parametrize("point", POINTS, ids=["p0", "p1"])
@pytest.mark.parametrize("name", FIXTURES + ("twisted",))
def test_evaluation_matches_symbolic_derivation(name, point):
    data = manifest_data(name)
    exact = _symbolic(data, point)
    p = np.array([float(sp.Rational(q)) for q in point])
    ev = StructureEval(manifest_from_dict(data), p)
    numeric = {
        "omega": ev.omega0,
        "d_eta_xi": ev.d_eta_xi,
        "christoffel": lc_coordinate(ev),
        "ricci_wagner": ricci_wagner(ev),
    }
    for key, expected in exact.items():
        np.testing.assert_allclose(numeric[key], expected, rtol=RTOL, atol=ATOL, err_msg=f"{name} {key}")
