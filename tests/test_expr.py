"""Parser and jet tests, including the finite-difference oracle."""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import runpy
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acmcheck import expr
from acmcheck.chart import sample_points
from acmcheck.cli import main
from acmcheck.expr import (
    FUNCTIONS,
    Binary,
    BlockPlan,
    Const,
    ExprDomainError,
    ExprSyntaxError,
    InternTable,
    Jet,
    Pow,
    ScalarField,
    Unary,
    UnknownIdentifierError,
    Var,
    field_jets,
    parse,
    to_text,
)
from acmcheck.manifest import fixture_path, load_manifest, manifest_from_dict
from acmcheck.structure import StructureEval

from _helpers import (
    deep_tree_manifest_data,
    fd_gradient,
    fd_hessian,
    field_jet,
    general_product,
    random_poly_text,
    reference_tokenize,
    repeated_ipow,
    symmetrised_unary,
    unshared_field_jets,
)
from conftest import FIXTURES

COORDS = ("x", "y", "z", "u", "v")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_zero_literal():
    f = parse("0", COORDS)
    assert f.ast == Const(0.0)


def test_parse_single_variable_index():
    f = parse("y", COORDS)
    assert f.ast == Var(1, "y")


def test_parse_nested_rational_value_at_origin():
    # direct substitution by hand: 1/(1+0+0)^2 = 1
    f = parse("1/(1+x^2+y^2)^2", COORDS)
    assert f.value(np.zeros(5)) == pytest.approx(1.0, abs=0)


def test_precedence_and_associativity():
    assert parse("1-2-3", COORDS).value(np.zeros(5)) == -4.0
    assert parse("12/2/3", COORDS).value(np.zeros(5)) == 2.0
    assert parse("2^3^2", COORDS).value(np.zeros(5)) == 2.0**9  # right-assoc
    assert parse("-x^2", COORDS).value(np.array([3.0, 0, 0, 0, 0])) == -9.0
    assert parse("2*x+1", COORDS).value(np.array([2.0, 0, 0, 0, 0])) == 5.0
    assert parse("x^-2", COORDS).value(np.array([2.0, 0, 0, 0, 0])) == 0.25


def test_unknown_identifier_named():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("x + w", COORDS)
    assert err.value.name == "w"
    assert err.value.offset == 4


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + * y", COORDS)
    assert err.value.offset == 4


@pytest.mark.parametrize("text", ["", "(x", "x + ", "x^y", "x^1.5", "sin x", "x$y", "x (y)"])
def test_malformed_inputs_rejected(text):
    with pytest.raises(ExprSyntaxError):
        parse(text, COORDS)


@pytest.mark.parametrize("opening,leaf,closing,at", [
    ("(", "x", ")", 0), ("sin(", "x", ")", 0), ("-", "x", "", 0), ("1^", "1", "", 1),
])
def test_nesting_limit(opening, leaf, closing, at):
    # ``at``: where in ``opening`` the token that opens a level is
    deepest = opening * expr.MAX_NESTING + leaf + closing * expr.MAX_NESTING
    assert parse(deepest, COORDS)
    with pytest.raises(ExprSyntaxError) as err:
        parse(opening + deepest + closing, COORDS)
    assert str(err.value).startswith(f"more than {expr.MAX_NESTING} nested parentheses")
    assert err.value.offset == len(opening) * expr.MAX_NESTING + at


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_tree_depth_limit(op):
    # a chain of n terms is a tree n levels deep, built without recursion
    deepest = "x" + f" {op} y" * (expr.MAX_DEPTH - 1)
    field = parse(deepest, COORDS)
    assert str(field).count("y") == expr.MAX_DEPTH - 1
    assert np.isfinite(field.value(np.array([0.5, 1.5, 0.0, 0.0, 0.0])))
    with pytest.raises(expr.ExprError, match=f"expression tree deeper than {expr.MAX_DEPTH} levels"):
        parse(deepest + f" {op} y", COORDS)


def test_function_name_not_a_variable():
    with pytest.raises(ValueError):
        parse("x", ("sin", "y"))


def _scan(tokenize, text):
    """The tokens, or the ExprSyntaxError's message and offset."""
    try:
        return tokenize(text)
    except ExprSyntaxError as err:
        return str(err), err.offset


# the grammar's ASCII characters, plus non-ASCII ones that str.isdigit,
# isdecimal, isnumeric, isalpha and isspace tell apart: decimal digits ('٣'),
# digits that are not decimal ('²', '①'), numerics that are not digits ('½',
# 'Ⅻ'), letters ('é', 'α'), spaces ('\xa0', '\u2003') and a symbol ('€')
_TOKEN_ALPHABET = "0123456789.eE+-*/^() \t_xysin$" + "٣²①½Ⅻéα\xa0\u2003€"


@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=30) | st.text(max_size=12))
@settings(max_examples=600, deadline=None)
@example("²")
@example("x + 1²3.5e2 * y")
@example(".²")
@example("1e²")
@example("1e-5²")
@example("½x")
@example("1e½")
@example("٣.٥e٢ + x²")
def test_tokenize_equals_character_scanner(text):
    assert _scan(expr._tokenize, text) == _scan(reference_tokenize, text)


def _strings(value) -> list[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    return [s for item in value for s in _strings(item)] if isinstance(value, list) else []


def _heavy_pool_manifests() -> list[dict]:
    """The benchmark's generated heavy-expr pool, from its own generator."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    return [workloads["heavy_manifest"](random.Random(f"heavy-expr:pool:{k}"))
            for k in range(workloads["HEAVY_POOL"])]


def test_tokenize_equals_character_scanner_on_manifest_strings():
    manifests = [json.loads(fixture_path(name).read_text()) for name in FIXTURES]
    strings = set(_strings(manifests + _heavy_pool_manifests()))
    assert len(strings) > 150
    for text in strings:
        assert expr._tokenize(text) == reference_tokenize(text), text


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------


def test_jet_bilinear_monomial():
    f = parse("x*y", COORDS)
    jet = field_jet(f, np.array([2.0, 3.0, 0.0, 0.0, 0.0]))
    assert jet.value == 6.0
    assert np.array_equal(jet.grad, np.array([3.0, 2.0, 0.0, 0.0, 0.0]))
    expected_h = np.zeros((5, 5))
    expected_h[0, 1] = expected_h[1, 0] = 1.0
    assert np.array_equal(jet.hess, expected_h)


def test_jet_constant():
    f = parse("1", COORDS)
    jet = field_jet(f, np.array([0.3, -2.0, 5.0, 1.0, 0.0]))
    assert jet.value == 1.0
    assert np.all(jet.grad == 0.0)
    assert np.all(jet.hess == 0.0)


def test_jet_rational_at_origin_vs_fd():
    # frozen from the central-difference oracle (step 1e-4): grad 0, hess diag(-4,-4,0,0,0)
    f = parse("1/(1+x^2+y^2)^2", COORDS)
    p = np.zeros(5)
    jet = field_jet(f, p)
    assert jet.value == 1.0
    assert np.allclose(jet.grad, np.zeros(5), atol=1e-6)
    assert np.allclose(jet.hess, np.diag([-4.0, -4.0, 0.0, 0.0, 0.0]), atol=1e-6)
    assert np.allclose(jet.grad, fd_gradient(f, p), atol=1e-6)
    assert np.allclose(jet.hess, fd_hessian(f, p), atol=1e-6)


def test_jet_transcendental_vs_fd():
    f = parse("sin(x*y) + exp(z)/(2+cos(u)) + ln(1+v^2) + sqrt(4+x)", COORDS)
    p = np.array([0.3, -1.2, 0.7, 1.9, -0.4])
    jet = field_jet(f, p)
    g = fd_gradient(f, p)
    H = fd_hessian(f, p)
    assert np.allclose(jet.grad, g, atol=1e-6 * (1 + np.abs(g).max()))
    assert np.allclose(jet.hess, H, atol=1e-5 * (1 + np.abs(H).max()))


def test_hessian_exactly_symmetric():
    f = parse("sin(x*y)*exp(z)/(1+u^2) + sqrt(2+v)*x^3", COORDS)
    jet = field_jet(f, np.array([0.7, 0.2, -0.5, 1.1, 0.9]))
    assert np.array_equal(jet.hess, jet.hess.T)


def test_domain_errors():
    with pytest.raises(ExprDomainError):
        field_jet(parse("1/x", COORDS), np.zeros(5))
    with pytest.raises(ExprDomainError):
        field_jet(parse("ln(x)", COORDS), np.zeros(5))
    with pytest.raises(ExprDomainError):
        field_jet(parse("sqrt(x)", COORDS), np.array([-1.0, 0, 0, 0, 0]))


def test_evaluate_deterministic_bitwise():
    f = parse("1/(1+x^2+y^2)^2 + sin(x*z)", COORDS)
    p = np.array([0.37, -1.41, 2.0, 0.0, 3.0])
    a, b = field_jet(f, p), field_jet(f, p)
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.hess, b.hess)


# bases of the power tests: a coordinate, a negated product (its derivatives
# carry signed zeros) and two transcendental fields, away from zero
_POW_BASES = ("x", "-(x*y)", "exp(x - v)", "sqrt(2 + sin(z))*(1.5 + u)")


def _pow_base_jets(order: int) -> list[expr.Jet]:
    points = np.random.default_rng(17).uniform(0.1, 1.0, (16, 5))
    return [expr.Jet(*field_jets(np.array(parse(text, COORDS), dtype=object), points, order),
                     *(None,) * (2 - order)) for text in _POW_BASES]


def _jet_parts(jet: expr.Jet) -> list[np.ndarray]:
    return [np.broadcast_to(part, np.shape(jet.value) + (5,) * k)
            for k, part in enumerate((jet.value, jet.grad, jet.hess)) if part is not None]


@pytest.mark.parametrize("order", [1, 2])
def test_ipow_equals_repeated_multiplication_bitwise_up_to_the_cube(order):
    for base in _pow_base_jets(order):
        for k in range(-3, 4):
            got, want = _jet_parts(base.ipow(k)), _jet_parts(repeated_ipow(base, k))
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want], k


def test_ipow_matches_repeated_multiplication_to_rounding():
    # squaring and the product chain round differently from k = 4 on; the
    # Hessian's two terms may cancel, so the comparison is normwise per part
    for base in _pow_base_jets(2):
        for k in (*range(4, 65), -4, -63, -64):
            for a, b in zip(_jet_parts(base.ipow(k)), _jet_parts(repeated_ipow(base, k)), strict=True):
                axes = tuple(range(1, b.ndim))
                assert np.all(np.abs(a - b).max(axis=axes, initial=0.0)
                              <= 1e-12 * np.abs(b).max(axis=axes, initial=0.0)), k


def test_ipow_takes_logarithmically_many_products(monkeypatch):
    products = []
    mul = expr.Jet.__mul__
    monkeypatch.setattr(expr.Jet, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    field_jet(parse("y^1000000", COORDS), np.full(5, 0.5))
    assert len(products) == 19 + 6  # a squaring per bit after the top one, 6 of them set


@pytest.mark.parametrize("text", ["y^2^2^2^2^2", "y^(2^1024)", "y^1e400", "y^-(2^1024)"])
def test_overflowing_exponent_is_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match=r"exponent overflows \(offset 2\)"):
        parse(text, COORDS)


def test_exponent_dividing_by_zero_is_syntax_error():
    with pytest.raises(ExprSyntaxError, match=r"exponent divides by zero \(offset 2\)"):
        parse("y^0^-1", COORDS)


def test_polynomial_jets_match_fd():
    # module invariant: random degree<=4 polynomials, relative error < 1e-6
    rng = np.random.default_rng(1234)
    for _ in range(25):
        f = parse(random_poly_text(rng), COORDS)
        p = rng.uniform(-1, 1, size=5)
        jet = field_jet(f, p)
        g, H = fd_gradient(f, p), fd_hessian(f, p)
        assert np.abs(jet.grad - g).max() < 1e-6 * (1 + np.abs(jet.grad).max())
        assert np.abs(jet.hess - H).max() < 1e-6 * (1 + np.abs(jet.hess).max())


def test_quadratic_polynomials_exact():
    f = parse("3*x^2 + 2*x*y - 7*z + 5", COORDS)
    p = np.array([2.0, -1.0, 4.0, 0.0, 1.0])
    jet = field_jet(f, p)
    assert jet.value == 3 * 4 + 2 * 2 * (-1) - 7 * 4 + 5
    assert np.array_equal(jet.grad, np.array([12.0 - 2.0, 4.0, -7.0, 0.0, 0.0]))
    expected = np.zeros((5, 5))
    expected[0, 0] = 6.0
    expected[0, 1] = expected[1, 0] = 2.0
    assert np.array_equal(jet.hess, expected)


# ---------------------------------------------------------------------------
# Round trip: parse . to_text . parse is the identity on ASTs
# ---------------------------------------------------------------------------


def _nodes():
    leaves = st.one_of(
        st.builds(Const, st.floats(min_value=0, max_value=100, allow_nan=False)),
        st.sampled_from([Var(i, n) for i, n in enumerate(COORDS)]),
    )

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(("-", *FUNCTIONS)), children),
            st.builds(Binary, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, st.integers(min_value=-3, max_value=5)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_nodes())
@settings(max_examples=200, deadline=None)
def test_to_text_round_trip(node):
    assert parse(to_text(node), COORDS).ast == node


# ---------------------------------------------------------------------------
# Shared subexpressions: one node per distinct subtree, one jet per node and
# block
# ---------------------------------------------------------------------------

# deep sin/cos/exp trees; later ones repeat earlier ones inside them
_A = "sin(x*y + cos(z))"
_B = f"exp(0.2*sin({_A}))"
_C = f"cos({_B} - {_A}*u)"
_DEEP = (_A, _B, _C, f"{_C}*{_C} + {_B}", f"sin({_C}) + cos({_C})*exp(0.1*{_A})",
         f"({_A})^3 - v/(2 + {_B})", "0", _B)


def _deep_fields() -> np.ndarray:
    table = InternTable(COORDS)
    return np.array([table.parse(t) for t in _DEEP], dtype=object).reshape(2, 4)


def _children(node) -> list:
    return [c for c in vars(node).values()
            if isinstance(c, (Const, Var, Unary, Binary, Pow))]


def _nodes_by_id(node, out: dict) -> dict:
    """Every node object reachable from ``node``, by identity."""
    out[id(node)] = node
    for child in _children(node):
        _nodes_by_id(child, out)
    return out


def _tree_size(node) -> int:
    return 1 + sum(_tree_size(c) for c in _children(node))


def _blocks(name, manifests, twisted):
    if name == "deep":
        return [_deep_fields()], np.random.default_rng(5).uniform(-1, 1, (16, 5))
    s = twisted if name == "twisted" else manifests[name]
    blocks = [np.array(s.gamma, dtype=object), s.metric_frame, s.phi_frame]
    if s.avoid:
        blocks.append(np.array(s.avoid, dtype=object))
    return blocks, sample_points(s, 16, 42)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("name", FIXTURES + ("twisted", "deep"))
def test_field_jets_equal_unshared_reference_bitwise(name, manifests, twisted):
    blocks, points = _blocks(name, manifests, twisted)
    for fields in blocks:
        for p in (points, points[3]):
            for order in (1, 2):
                got, want = field_jets(fields, p, order), unshared_field_jets(fields, p, order)
                assert len(got) == order + 1
                assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True)), (name, order)


@pytest.mark.parametrize("name", FIXTURES + ("deep",))
def test_scalar_field_jet_and_value_equal_unshared_reference_bitwise(name, manifests):
    blocks, points = _blocks(name, manifests, None)
    for fields in blocks:
        for f in fields.flat:
            cell = np.array(f, dtype=object)
            for p in (points, points[3]):
                jet, want = field_jet(f, p), unshared_field_jets(cell, p)
                assert all(_same_bits(a, b) for a, b in zip((jet.value, jet.grad, jet.hess), want, strict=True))
                assert _same_bits(f.value(p), want[0])


def _heavy_blocks(k: int):
    s = manifest_from_dict(deep_tree_manifest_data(k))
    return [np.array(s.gamma, dtype=object), s.metric_frame, s.phi_frame], sample_points(s, 32, k)


@pytest.mark.parametrize("name", FIXTURES + ("twisted", "deep") + tuple(f"heavy{k}" for k in range(16)))
def test_unary_hessian_equals_symmetrised_form_bitwise(name, manifests, twisted, monkeypatch):
    # f2 du du^T against (f2/2)(du du^T + its transpose) on every field of
    # the fixtures and of the benchmark's heavy-expr pool
    if name.startswith("heavy"):
        blocks, points = _heavy_blocks(int(name[5:]))
    else:
        blocks, points = _blocks(name, manifests, twisted)
    got = [field_jets(fields, points) for fields in blocks]
    monkeypatch.setattr(expr.Jet, "_unary", symmetrised_unary)
    want = [field_jets(fields, points) for fields in blocks]
    for a, b in zip(got, want, strict=True):
        assert all(_same_bits(x, y) for x, y in zip(a, b, strict=True)), name


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _unary_images(value, grad) -> list[Jet]:
    """sin, cos and exp of a jet at ``value``, ln and sqrt at |value| + 1e-300."""
    n = grad.shape[-1]
    hess = np.broadcast_to(np.linspace(-2.0, 3.0, n * n).reshape(n, n), grad.shape + (n,))
    jet, positive = Jet(value, grad, hess), Jet(np.abs(value) + 1e-300, grad, hess)
    return [jet.sin(), jet.cos(), jet.exp(), positive.ln(), positive.sqrt()]


def test_unary_hessian_equals_symmetrised_form_bitwise_at_edge_values(monkeypatch):
    # magnitudes from the smallest normal to where 2 du du^T nears overflow,
    # zeros of either sign, and arguments where exp overflows to inf; f2
    # stays 0 or at least twice the smallest normal, so f2/2 is exact
    value = np.array([0.0, -0.0, 2.2250738585072014e-308, 1e-300, 1e-8, 0.5, 1.0, 3.0, 700.0, 709.5, -700.0])
    for scale in (0.0, -0.0, 1e-160, 1e-5, 1.0, 1e150, 4e153):
        grad = np.outer(np.ones(len(value)), [scale, -2.0 * scale, 1.0])
        got = _unary_images(value, grad)
        with monkeypatch.context() as patch:
            patch.setattr(expr.Jet, "_unary", symmetrised_unary)
            want = _unary_images(value, grad)
        for a, b in zip(got, want, strict=True):
            assert _same_bits(a.hess, b.hess) and _same_bits(a.grad, b.grad), scale


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unary_hessian_edge_cases_where_the_forms_differ(monkeypatch):
    # the two forms differ only where the symmetrised one is the less
    # exact: 2 du du^T overflows while du du^T does not (inf, or NaN where
    # f2 = 0, against a finite term), and f2/2 is subnormal and inexact
    # (the smallest subnormal halves to 0)
    value = np.array([0.3, 0.0, 5e-324])
    grad = np.array([[1e154, 0.0], [1e154, 0.0], [1.0, 0.0]])
    jet = Jet(value, grad, np.zeros((3, 2, 2)))
    got = jet.sin()
    monkeypatch.setattr(expr.Jet, "_unary", symmetrised_unary)
    want = jet.sin()
    assert np.isfinite(got.hess[0, 0, 0]) and want.hess[0, 0, 0] == -np.inf
    assert got.hess[1, 0, 0] == 0.0 and np.isnan(want.hess[1, 0, 0])
    assert got.hess[2, 0, 0] == -5e-324 and want.hess[2, 0, 0] == 0.0


def test_truncated_blocks_run_no_hessian_term(monkeypatch):
    fields = _deep_fields()
    points = np.random.default_rng(8).uniform(-1, 1, (8, 5))
    blocks = (points, points[2])
    want = [unshared_field_jets(fields, p, 1) for p in blocks]

    def refuse(u, v):
        raise AssertionError("Hessian term computed")

    monkeypatch.setattr(expr, "_outer", refuse)
    for i, p in enumerate(blocks):
        got = field_jets(fields, p, 1)
        assert all(_same_bits(a, b) for a, b in zip(got, want[i], strict=True))
        values = want[i][0].reshape(p.shape[:-1] + (fields.size,))
        for k, f in enumerate(fields.flat):
            assert _same_bits(f.value(p), values[..., k])
        with pytest.raises(AssertionError, match="Hessian term computed"):
            field_jets(fields, p, order=2)


def test_intern_table_shares_equal_subtrees():
    fields = _deep_fields()
    a, b, c = (f.ast for f in fields.flat[:3])
    # _B = exp(0.2*sin(_A)), _C = cos(_B - _A*u): the same objects inside
    assert b.arg.right.arg is a
    assert c.arg.left is b and c.arg.right.left is a
    assert fields.flat[7] is fields.flat[1]  # a repeated string is parsed once
    # the same subtree from a different table is equal but its own object
    assert parse(_A, COORDS).ast == a and parse(_A, COORDS).ast is not a
    distinct = {}
    for f in fields.flat:
        _nodes_by_id(f.ast, distinct)
    assert len(distinct) < sum(_tree_size(f.ast) for f in fields.flat) / 4


def test_each_distinct_node_evaluated_once_per_block(monkeypatch):
    # the deep fields and coordinate-free ones, one sharing a constant
    # subtree (0.2*sin(1.5)) with a varying field
    table = InternTable(COORDS)
    texts = _DEEP + ("exp(0.2*sin(1.5))", "0.2*sin(1.5) + 3", "1", "0.2*sin(1.5)*x")
    fields = np.array([table.parse(t) for t in texts], dtype=object).reshape(3, 4)
    varying, free = {}, {}
    for f in fields.flat:
        nodes = _nodes_by_id(f.ast, {})
        (varying if any(isinstance(node, Var) for node in nodes.values()) else free).update(nodes)
    assert free.keys() - varying.keys() and free.keys() & varying.keys()
    counts = Counter()
    one_step = expr._node_jet

    def counting(node, *args):
        counts[id(node)] += 1
        return one_step(node, *args)

    monkeypatch.setattr(expr, "_node_jet", counting)
    points = np.random.default_rng(6).uniform(-1, 1, (8, 5))
    # the first call at an order also builds the plan's template at that
    # order, which evaluates each node of the coordinate-free fields once
    first = Counter(varying.keys()) + Counter(free.keys())
    plan = BlockPlan(fields)
    for order in (1, 2):
        counts.clear()
        field_jets(plan, points, order)
        assert counts == first
        # the memo lives for one block: a later call evaluates the nodes of
        # the varying fields anew, once each, and no other node
        for _ in range(2):
            counts.clear()
            field_jets(plan, points, order)
            assert counts.keys() == varying.keys()
            assert set(counts.values()) == {1}
    # a bare array gets a plan for its one call
    counts.clear()
    field_jets(fields, points)
    assert counts == first


def test_manifest_parses_each_distinct_string_once(monkeypatch, tmp_path):
    factor = "exp(0.2*sin(x*y))"
    data = {
        "dimension": 5,
        "coordinates": list(COORDS),
        "gamma": ["y", "0", "0", "0"],
        "metric_frame": [[factor if i == j else "0" for j in range(4)] for i in range(4)],
        "phi_frame": [["0", "0", "-1", "0"], ["0", "0", "0", "-1"],
                      ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        "domain": [[-1.0, 1.0]] * 5,
        "avoid": ["y"],
    }
    tokenized = []
    tokenize = expr._tokenize
    monkeypatch.setattr(expr, "_tokenize", lambda text: tokenized.append(text) or tokenize(text))
    mf = manifest_from_dict(data)
    assert sorted(tokenized) == sorted({"y", "0", factor, "-1", "1"})
    g = mf.metric_frame
    assert g[0, 0] is g[3, 3] and g[0, 1] is mf.phi_frame[0, 0] is mf.gamma[1]
    assert mf.avoid[0].ast is mf.gamma[0].ast
    # one table per load: two texts share no node, and no node outlives the
    # manifest it was parsed for once the bounded load cache lets it go
    first, spaced = tmp_path / "first.json", tmp_path / "spaced.json"
    first.write_text(json.dumps(data))
    spaced.write_text(json.dumps(data, indent=1))
    assert load_manifest(first).gamma[0].ast is not load_manifest(spaced).gamma[0].ast
    node = weakref.ref(load_manifest(first).gamma[0].ast)
    for seed in range(17):
        other = tmp_path / f"other{seed}.json"
        other.write_text(json.dumps(dict(data, seed=seed)))
        load_manifest(other)
    gc.collect()
    assert node() is None


@pytest.mark.parametrize("order", [0, 3])
def test_field_jets_takes_order_1_or_2(order):
    # order 0 would compute the gradients and drop them, and order 3 would
    # return a fourth part of zeros; StructureEval refuses both orders too
    fields = np.array([parse("x*y", COORDS), parse("2", COORDS)], dtype=object)
    for block in (fields, BlockPlan(fields)):
        for points in (np.ones(5), np.ones((3, 5))):
            with pytest.raises(ValueError, match=f"order must be 1 or 2, got {order}"):
                field_jets(block, points, order)


def test_signed_zero_constants_not_merged():
    table = InternTable(COORDS)
    zero, negzero = table.node(Const, 0.0), table.node(Const, -0.0)
    assert zero == negzero and zero is not negzero
    assert table.node(Const, -0.0) is negzero
    x = table.node(Var, 0, "x")
    fields = [ScalarField(ast, COORDS) for ast in (
        zero, negzero, Const(-0.0), Const(0.0),
        table.node(Binary, "*", negzero, x), table.node(Binary, "*", zero, x),
        Binary("+", Const(-0.0), Const(-0.0)), Binary("+", Const(0.0), Const(-0.0)),
    )]
    values = field_jets(np.array(fields, dtype=object), np.array([2.0, 0, 0, 0, 0]), order=1)[0]
    assert np.signbit(values).tolist() == [False, True, True, False, True, False, True, False]


def test_domain_error_in_shared_subtree_names_first_field():
    table = InternTable(COORDS)
    fields = np.array([table.parse(t) for t in ("x + 1", "y*ln(x)", "ln(x) + 2")], dtype=object)
    assert fields[1].ast.right is fields[2].ast.left
    points = np.random.default_rng(7).uniform(0.5, 1.0, (6, 5))
    points[[3, 5], 0] = -0.25
    with pytest.raises(ExprDomainError) as got:
        field_jets(fields, points)
    with pytest.raises(ExprDomainError) as want:
        unshared_field_jets(fields, points)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("ln of non-positive value in 'y*ln(x)' at sample 3, point")


# ---------------------------------------------------------------------------
# Block plans: coordinate-free fields folded once per plan
# ---------------------------------------------------------------------------

# constant, varying and shared-subtree fields, and signed-zero constants
_MIXED = ("x*y + 1", "2.5", "-0", "sin(0.3)*exp(x)", "sin(0.3)", "0*(-1)", "-(0*x)", "1/(2 - cos(0.3))",
          "sin(0.3) + y^2", "-0.0 - 0", "exp(0.2*sin(0.3))", "z")


def _mixed_block() -> np.ndarray:
    table = InternTable(COORDS)
    return np.array([table.parse(t) for t in _MIXED], dtype=object).reshape(3, 4)


@pytest.mark.parametrize("shape", [(3, 4), (12,), (2, 6)])
def test_block_plan_equals_unshared_reference_bitwise(shape):
    fields = _mixed_block().reshape(shape)
    plan = BlockPlan(fields)
    points = np.random.default_rng(11).uniform(-1, 1, (16, 5))
    # each order twice, so that the second call reads the stored template
    for _ in range(2):
        for p in (points, points[5]):
            for order in (1, 2):
                got, want = field_jets(plan, p, order), unshared_field_jets(fields, p, order)
                assert len(got) == order + 1
                assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True)), order


def test_block_plan_keeps_signed_zeros():
    fields = _mixed_block()
    plan = BlockPlan(fields)
    p = np.array([0.5, -0.25, 0.1, 0.2, 0.3])
    value, grad = field_jets(plan, p, 1)
    for text in ("-0", "0*(-1)", "-(0*x)", "-0.0 - 0"):
        assert value.flat[_MIXED.index(text)] == 0.0 and np.signbit(value.flat[_MIXED.index(text)]), text
    # the gradient of a negated constant is a negative zero
    assert np.signbit(grad.reshape(12, 5)[_MIXED.index("-0")]).all()
    # the output is the caller's: writing it leaves the template intact
    value[...] = 7.0
    assert _same_bits(field_jets(plan, p, 1)[0], unshared_field_jets(fields, p, 1)[0])


@pytest.mark.parametrize("texts,failing", [
    (("x + 1", "1/0", "ln(x)"), "division by zero in '1.0/0.0'"),
    (("x + 1", "ln(x)", "1/0"), "ln of non-positive value in 'ln(x)'"),
    (("2", "ln(0)", "ln(x)"), "ln of non-positive value in 'ln(0.0)'"),
])
def test_constant_field_that_raises_keeps_its_error_and_place(texts, failing):
    table = InternTable(COORDS)
    fields = np.array([table.parse(t) for t in texts], dtype=object)
    points = np.random.default_rng(4).uniform(0.5, 1.0, (6, 5))
    points[2, 0] = -0.5
    plan = BlockPlan(fields)
    for p in (points, points[2]):
        with pytest.raises(ExprDomainError) as want:
            unshared_field_jets(fields, p)
        for block in (plan, plan, fields):
            for order in (1, 2):
                with pytest.raises(ExprDomainError) as got:
                    field_jets(block, p, order)
                assert str(got.value) == str(want.value)
        assert str(want.value).startswith(failing)
    # where no field fails, the constant one still fails at the first point
    if "1/0" in texts:
        with pytest.raises(ExprDomainError, match=r"division by zero in '1\.0/0\.0' at sample 0, point"):
            field_jets(plan, np.ones((3, 5)))


def test_replaced_metric_frame_gets_its_own_plans(manifests):
    base = manifests["example1"]
    p = np.array([0.3, 0.7, 0.1, -0.2, 0.4])
    before = StructureEval(base, p).g0
    g = base.metric_frame.copy()
    g[0, 0] = parse("3", base.coordinates)
    variant = dataclasses.replace(base, metric_frame=g)
    assert variant.plans is not base.plans
    assert variant.plans["metric_frame"].fields is g
    after = StructureEval(variant, p).g0
    assert after[0, 0] == 3.0 and before[0, 0] != 3.0
    assert _same_bits(after, unshared_field_jets(g, p, 0)[0])
    assert _same_bits(StructureEval(base, p).g0, before)


def test_plan_does_not_outlive_its_manifest(tmp_path, capsys):
    data = json.loads(fixture_path("example2").read_text())
    first = tmp_path / "first.json"
    first.write_text(json.dumps(data))
    loaded = load_manifest(first)
    node = weakref.ref(loaded.metric_frame[0, 0].ast)
    assert main(["tensor", str(first), "--name", "K", "--at", "0.3,0.7,0.1,-0.2,0.4", "--json"]) == 0
    assert main(["rank", str(first), "--at", "0.3,0.7,0.1,-0.2,0.4"]) == 0
    capsys.readouterr()
    assert loaded.plans["metric_frame"].fields is loaded.metric_frame
    del loaded
    for seed in range(17):
        other = tmp_path / f"other{seed}.json"
        other.write_text(json.dumps(dict(data, seed=seed)))
        load_manifest(other)
    gc.collect()
    assert node() is None


# ---------------------------------------------------------------------------
# Products by a constant, against the full product rule
# ---------------------------------------------------------------------------

# point values: zeros of either sign, subnormals, infinities, NaN, overflow
_EDGE = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan,
                  0.75, -1.5, 1e300, -3e-200, 2.0, 1e-310, 7.0, -1e308])


def _same_bits_or_nan(a, b) -> bool:
    """Equal bits wherever b is not NaN, and NaN exactly where b is, after
    broadcasting a to b's shape (a product may keep a smaller batch)."""
    a = np.broadcast_to(a, np.shape(b))
    nan = np.isnan(b)
    return np.array_equal(np.isnan(a), nan) and a[~nan].tobytes() == b[~nan].tobytes()


def _constants(n: int, order: int) -> list[Jet]:
    """Constants of both signs, of either zero in their derivatives, zero,
    subnormal, huge, infinite and NaN."""
    def c(v):
        return Jet.constant(v, n, order)
    return [c(0.75), c(2.0), c(0.0), c(5e-324), c(1e300), c(np.inf), c(np.nan), c(-2.0), c(-0.0),
            -c(0.75), -c(0.0), -c(np.inf), -c(-2.0), c(0.5) + c(-0.5), -c(0.5) - c(0.25)]


@np.errstate(all="ignore")
def _operands(points: np.ndarray, order: int) -> list[Jet]:
    """Coordinates, a constant multiple of one, and general expressions."""
    n = points.shape[-1]
    x, y, z = (Jet.variable(points[..., i], i, n, order) for i in range(3))
    return [x, z, Jet.constant(1.5, n, order) * y, x * y + z.sin(), (x - y) * (x + z), -(y * y)]


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("batch", [(), (16,)])
def test_products_by_constants_equal_the_product_rule_bitwise(order, batch):
    rng = np.random.default_rng(11)
    blocks = [rng.permuted(np.tile(_EDGE, (5, 1)), axis=1).T for _ in range(3)]
    if batch == ():
        blocks = [row for block in blocks for row in block]
    checked = 0
    with np.errstate(all="ignore"):
        for points in blocks:
            consts = _constants(5, order)
            for u in _operands(points, order) + consts:
                for c in consts:
                    for got, want in ((c * u, general_product(c, u)), (u * c, general_product(u, c))):
                        for a, b in zip((got.value, got.grad, got.hess), (want.value, want.grad, want.hess)):
                            assert (a is None) == (b is None)
                            if b is not None:
                                assert _same_bits_or_nan(a, b), (order, c.value, c.zero)
                                checked += 1
    assert checked > 1000


def test_constant_zero_tags_hold_what_they_claim():
    for order in (1, 2):
        for c in _constants(5, order):
            if c.zero is None:
                continue
            for part in (c.grad, c.hess)[:order]:
                assert not part.any() and (np.signbit(part) == np.signbit(c.zero)).all()


def test_nonnegative_constant_times_finite_coordinate_keeps_batch_shape_one():
    points = np.random.default_rng(4).uniform(-2.0, 2.0, (16, 5))
    points[3, 0] = -0.0
    x = Jet.variable(points[:, 0], 0, 5)
    for v in (0.0, 0.75, 1e300):
        jet = Jet.constant(v, 5) * x
        assert jet.grad.shape == (5,) and jet.hess.shape == (5, 5)
    # a negative or -0.0 factor, or a non-finite point, takes the full rule
    assert (-Jet.constant(0.75, 5) * x).grad.shape == (16, 5)
    assert (Jet.constant(-0.0, 5) * x).grad.shape == (16, 5)
    points[5, 0] = np.inf
    with np.errstate(invalid="ignore"):
        assert (Jet.constant(0.75, 5) * Jet.variable(points[:, 0], 0, 5)).grad.shape == (16, 5)


@pytest.mark.parametrize("name", FIXTURES + ("twisted", "deep") + tuple(f"heavy{k}" for k in range(16)))
def test_field_jets_equal_the_full_product_rule_bitwise(name, manifests, twisted, monkeypatch):
    if name.startswith("heavy"):
        blocks, points = _heavy_blocks(int(name[5:]))
    else:
        blocks, points = _blocks(name, manifests, twisted)
    got = [field_jets(fields, p, order) for fields in blocks for p in (points, points[2]) for order in (1, 2)]
    monkeypatch.setattr(expr.Jet, "__mul__", general_product)
    want = [field_jets(fields, p, order) for fields in blocks for p in (points, points[2]) for order in (1, 2)]
    for a, b in zip(got, want, strict=True):
        assert all(_same_bits(x, y) for x, y in zip(a, b, strict=True)), name


# ---------------------------------------------------------------------------
# Domain checks: one reduction, then the exact mask
# ---------------------------------------------------------------------------


def _domain_error(text: str, points: np.ndarray) -> ExprDomainError | None:
    try:
        field_jets(np.array([parse(text, COORDS)], dtype=object), points)
    except ExprDomainError as err:
        return err
    return None


def test_one_overflowing_sample_of_32_is_named():
    # an infinite argument gives inf and a NaN gives NaN, neither an overflow
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (32, 5))
    points[4, 0], points[9, 0], points[17, 0] = np.inf, np.nan, 800.0
    err = _domain_error("exp(x)", points)
    assert err.where.tolist() == [i == 17 for i in range(32)]
    point = np.array2string(points[17], max_line_width=sys.maxsize)
    assert str(err) == f"exp overflows in 'exp(x)' at sample 17, point {point}"
    assert err.reason == "exp overflows in 'exp(x)'"
    points[17, 0] = 700.0
    assert _domain_error("exp(x)", points) is None


@pytest.mark.parametrize("text, bad, message", [
    ("ln(x)", 0.0, "ln of non-positive value"),
    ("ln(x)", -2.0, "ln of non-positive value"),
    ("sqrt(x)", -1.0, "sqrt of negative value"),
    ("sqrt(x)", -0.0, "sqrt not differentiable at zero"),
    ("1.0/x", -0.0, "division by zero"),
])
def test_domain_checks_name_the_offending_samples(text, bad, message):
    points = np.random.default_rng(5).uniform(0.5, 1.5, (32, 5))
    points[9, 0] = np.nan  # NaN stays inside every domain
    assert _domain_error(text, points) is None
    points[[21, 26], 0] = bad
    err = _domain_error(text, points)
    assert err.where.tolist() == [i in (21, 26) for i in range(32)]
    assert str(err).startswith(f"{message} in '{text}' at sample 21, point [")
    # at a single point the same check and text, without a sample index
    err = _domain_error(text, points[21])
    assert err.where.shape == () and str(err).startswith(f"{message} in '{text}' at point [")


def test_sqrt_names_a_negative_sample_before_a_zero_one():
    points = np.random.default_rng(6).uniform(0.5, 1.5, (32, 5))
    points[3, 0], points[30, 0] = 0.0, -4.0
    err = _domain_error("sqrt(x)", points)
    assert err.where.tolist() == [i == 30 for i in range(32)]
    assert str(err).startswith("sqrt of negative value in 'sqrt(x)' at sample 30, point [")
