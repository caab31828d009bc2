"""Chart-level tests: frame calculus, nonholonomy, rank, point sampling."""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from acmcheck.chart import (
    ChartError,
    _pcg64_advance,
    _pcg64_double,
    _pcg64_jumps,
    _pcg64_streams,
    rank_at,
    sample_points,
)
from acmcheck.expr import BlockPlan, ExprDomainError, parse
from acmcheck.manifest import Manifest, manifest_from_dict
from acmcheck.structure import StructureEval

from _helpers import field_jet, frame_bracket, loop_sample_points

COORDS = ("x", "y", "z", "u", "v")
BOX = tuple((-2.0, 2.0) for _ in range(5))
# the frame quantities tested here read only the gamma jets, so the metric
# and phi are placeholders
UNIT = [["1" if a == b else "0" for b in range(4)] for a in range(4)]


def make_chart(gammas: list[str], domain=BOX, avoid: list[str] | None = None) -> Manifest:
    return manifest_from_dict({
        "dimension": 5,
        "coordinates": list(COORDS),
        "gamma": gammas,
        "metric_frame": UNIT,
        "phi_frame": UNIT,
        "domain": [list(iv) for iv in domain],
        "avoid": avoid or [],
    })


FLAT = make_chart(["0", "0", "0", "0"])
EX1 = make_chart(["y", "0", "0", "0"], avoid=["y"])
EX2 = make_chart(["y*v", "0", "0", "0"], domain=tuple((-4.0, 4.0) for _ in range(5)), avoid=["y"])


def frame_apply(chart: Manifest, a: int, f, p: np.ndarray):
    """e_a f at p for a horizontal frame index a, from StructureEval.frame_d."""
    return StructureEval(chart, p).frame_d(field_jet(f, p).grad)[: chart.dimension - 1][a]


# ---------------------------------------------------------------------------
# Frame derivatives
# ---------------------------------------------------------------------------


def test_frame_apply_flat():
    p = np.array([0.3, 1.0, -0.5, 0.2, 0.9])
    assert frame_apply(FLAT, 0, parse("x", COORDS), p) == 1.0


def test_frame_apply_example1_fifth_coordinate():
    # e_1 = d_1 - y d_5 applied to v gives -y
    f = parse("v", COORDS)
    for p in [np.array([0.1, 1.7, 0.0, 0.0, 0.4]), np.array([-1.0, -0.8, 1.0, 2.0, -1.5])]:
        assert frame_apply(EX1, 0, f, p) == pytest.approx(-p[1], abs=1e-15)


def test_frame_apply_example1_y_annihilated():
    p = np.array([0.1, 1.7, 0.0, 0.0, 0.4])
    assert frame_apply(EX1, 0, parse("y", COORDS), p) == 0.0


def test_frame_apply_index_range():
    with pytest.raises(IndexError):
        frame_apply(FLAT, 4, parse("x", COORDS), np.zeros(5))


# ---------------------------------------------------------------------------
# omega and the bracket oracle
# ---------------------------------------------------------------------------


def test_omega_flat_vanishes():
    assert np.array_equal(StructureEval(FLAT, np.zeros(5)).omega0, np.zeros((4, 4)))


def test_omega_example1_values():
    # from the bracket: [e_1, e_2] = d_5, so 2 omega_{21} = 1
    p = np.array([0.5, 1.2, -0.3, 0.0, 0.7])
    omega = StructureEval(EX1, p).omega0
    expected = np.zeros((4, 4))
    expected[1, 0] = 0.5
    expected[0, 1] = -0.5
    assert np.array_equal(omega, expected)
    bracket = frame_bracket(EX1, 0, 1, p)
    assert np.array_equal(bracket, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))


def test_omega_example2_against_bracket_oracle():
    # frozen from the bracket oracle: [e_1, e_2] = v d_5, so omega_{21} = v/2
    rng = np.random.default_rng(7)
    for _ in range(8):
        p = rng.uniform(-4, 4, size=5)
        omega = StructureEval(EX2, p).omega0
        assert omega[1, 0] == pytest.approx(p[4] / 2, rel=1e-12, abs=1e-12)
        bracket = frame_bracket(EX2, 0, 1, p)
        assert bracket[4] == pytest.approx(2 * omega[1, 0], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("chart", [FLAT, EX1, EX2], ids=["flat", "ex1", "ex2"])
def test_bracket_consistency_at_samples(chart):
    # [e_a, e_b] has no horizontal part and vertical part 2 omega_{ba}
    points = sample_points(chart, 32, seed=42)
    m = last = chart.dimension - 1
    for p in points:
        omega = StructureEval(chart, p).omega0
        assert np.abs(omega + omega.T).max() == 0.0  # skew exactly
        for a in range(m):
            for b in range(m):
                br = frame_bracket(chart, a, b, p)
                assert np.abs(br[:last]).max() < 1e-9
                assert abs(br[last] - 2 * omega[b, a]) < 1e-9


# ---------------------------------------------------------------------------
# d(eta)(xi, .) and rank
# ---------------------------------------------------------------------------


def test_d_eta_xi_example1_zero_everywhere():
    for p in sample_points(EX1, 8, seed=3):
        assert np.array_equal(StructureEval(EX1, p).d_eta_xi, np.zeros(4))


def test_d_eta_xi_example2_first_entry_y():
    p = np.array([1.0, 3.0, 0.0, 0.0, 2.0])
    vec = StructureEval(EX2, p).d_eta_xi
    assert vec[0] == pytest.approx(3.0, abs=1e-15)
    assert np.array_equal(vec[1:], np.zeros(3))


def test_d_eta_xi_flat_zero():
    assert np.array_equal(StructureEval(FLAT, np.zeros(5)).d_eta_xi, np.zeros(4))


def test_rank_example1_is_3():
    for p in sample_points(EX1, 8, seed=5):
        assert rank_at(EX1, p) == 3


def test_rank_example2_even():
    # generic point with v != 0: omega has rank 2 and d_n gamma_1 = y != 0
    assert rank_at(EX2, np.array([1.0, 3.0, 0.0, 0.0, 2.0])) == 2


def test_rank_flat_is_1():
    assert rank_at(FLAT, np.zeros(5)) == 1


EX3 = make_chart(["y", "0", "0", "0"], avoid=["y"])  # chart shared by the conformal fixtures


@pytest.mark.parametrize("chart", [FLAT, EX1, EX2, EX3], ids=["flat", "ex1", "ex2", "ex3"])
def test_rank_parity_matches_d_eta_xi(chart):
    points = sample_points(chart, 16, seed=11)
    vertical_zero = all(np.abs(StructureEval(chart, p).d_eta_xi).max() < 1e-12 for p in points)
    ranks = [rank_at(chart, p) for p in points]
    if vertical_zero:
        assert all(r % 2 == 1 for r in ranks)
    else:
        assert all(r % 2 == 0 for r in ranks)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sampling_deterministic_and_order_independent():
    a = sample_points(EX1, 16, seed=42)
    b = sample_points(EX1, 16, seed=42)
    assert np.array_equal(a, b)
    # prefix property: the first 4 points do not depend on the total count
    assert np.array_equal(sample_points(EX1, 4, seed=42), a[:4])


def test_sampling_respects_avoid():
    for p in sample_points(EX1, 64, seed=1):
        assert abs(p[1]) >= 1e-6


# accepts about 1.6% of the box: |x| < 0.117 and |y| < 0.525 keep both
# fields above the avoid threshold, so most indices need dozens of redraws
NARROW = make_chart(["y", "0", "0", "0"], avoid=["y", "exp(-1000*x^2)", "exp(-50*y^2)"])


@pytest.mark.parametrize("count, seed", [(32, 42), (128, 7), (1, 0), (7, 2**32 + 5), (128, 12345)])
def test_sampling_matches_per_index_loop_on_fixtures(manifests, count, seed):
    for s in manifests.values():
        expected = loop_sample_points(s, count, seed)
        assert np.array_equal(sample_points(s, count, seed), expected)


def test_avoid_fields_are_evaluated_through_the_manifests_plans(monkeypatch):
    # every redraw round evaluates each avoid field through the manifest's
    # one plan for it, so sampling builds no plan once those exist
    count, seed = 24, 5
    expected = loop_sample_points(NARROW, count, seed)
    sample_points(NARROW, 1, seed)
    plans = NARROW.plans["avoid"]
    assert [plan.fields.item() for plan in plans] == list(NARROW.avoid)
    built = []
    init = BlockPlan.__init__

    def counted(self, fields):
        built.append(fields)
        init(self, fields)

    monkeypatch.setattr(BlockPlan, "__init__", counted)
    assert np.array_equal(sample_points(NARROW, count, seed), expected)
    assert not built and NARROW.plans["avoid"] is plans


def test_sampling_matches_per_index_loop_with_redraws():
    count, seed = 24, 3
    points = sample_points(NARROW, count, seed)
    assert np.array_equal(points, loop_sample_points(NARROW, count, seed))
    # most indices reject their first candidate
    first = np.array([
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,))).random(5)
        for i in range(count)
    ])
    redrawn = np.any(points != -2.0 + 4.0 * first, axis=1)
    assert redrawn.sum() >= count // 2
    # the prefix property holds with redraws too
    assert np.array_equal(sample_points(NARROW, 5, seed), points[:5])


def test_sampling_reports_the_first_unsatisfiable_index():
    never = make_chart(["0", "0", "0", "0"], avoid=["0*x"])
    with pytest.raises(ChartError, match="could not sample point 0 "):
        sample_points(never, 3, seed=1)
    with pytest.raises(ChartError, match="could not sample point 0 "):
        loop_sample_points(never, 3, seed=1)


def test_reference_point_pool_is_reproduced(monkeypatch):
    # perfbench/make_reference.py draws its point pools through the
    # manifest's chart() accessor; a pool's prefix must reproduce the
    # checked-in reference, points, ranks and tensor digests alike
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    make_reference = runpy.run_path(str(bench / "make_reference.py"))
    reference = json.loads((bench / "reference.json").read_text(encoding="utf-8"))
    assert make_reference["point_pool"]("example2", 2) == reference["points"]["example2"][:2]


def numpy_stream(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


@pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 2, 2**32 - 1, 2**32, 2**64 + 3, 2**128, 7**60])
def test_streams_match_numpy_bit_for_bit(seed):
    # indices past 2**31 go through an index array, so no 2**32 rows exist;
    # the index sets of 0 and 1 streams keep the shapes right at the edges
    every = np.array([*range(300), 2**31, 2**32 - 1])
    for index in (every, every[:0], every[-1:]):
        # the streams stop one LCG step short of the seeded generator: the
        # first round of draws takes that step with it
        state, inc = _pcg64_streams(seed, index)
        rounds = []
        for jumps in (_pcg64_jumps(5, 2), _pcg64_jumps(5), _pcg64_jumps(5)):
            steps = _pcg64_advance(state[:, :, None], inc[:, :, None], jumps)
            state = steps[..., -1]
            rounds.append(_pcg64_double(steps))
        # three rounds of 5 draws continue one generator's stream
        want = np.array([numpy_stream(seed, int(i)).random(15) for i in index]).reshape(len(index), 15)
        assert np.concatenate(rounds, axis=1).tobytes() == want.tobytes()


def test_jump_tables_are_built_once_and_read_only():
    for args in ((5,), (5, 2), (1,)):
        jumps = _pcg64_jumps(*args)
        assert _pcg64_jumps(*args) is jumps
        assert not any(part.flags.writeable for part in jumps)
    # jumps 2..6 are jumps 1..6 without the first
    assert all(np.array_equal(a, b[:, 1:]) for a, b in zip(_pcg64_jumps(5, 2), _pcg64_jumps(6)))


def test_sampling_seed_and_count_checked():
    with pytest.raises(ValueError, match="non-negative"):
        sample_points(EX1, 4, seed=-1)
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=-1)
    with pytest.raises(ValueError, match="sample count"):
        sample_points(FLAT, 2**32, seed=1)


def test_avoid_domain_error_names_the_sample_it_prints():
    # 'y' clears every candidate; the second avoid field leaves its domain
    # at sample 8's first candidate, which the sub-block of 'y'-clear
    # candidates holds at another position
    domain = (BOX[0], (-1e-6, 1e-5), *BOX[2:])
    chart = make_chart(["0", "0", "0", "0"], domain=domain, avoid=["y", "ln(x + 1.9)"])
    lo, hi = np.array(domain).T
    candidate = lo + (hi - lo) * numpy_stream(1, 8).random(5)
    with pytest.raises(ExprDomainError) as err:
        sample_points(chart, 64, seed=1)
    point = np.array2string(candidate, max_line_width=sys.maxsize)  # one line, unlike str()
    assert str(err.value) == f"ln of non-positive value in 'ln(x + 1.9)' at sample 8, point {point}"
    assert "\n" not in str(err.value)

