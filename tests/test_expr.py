"""Parser and jet tests, including the finite-difference oracle."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmcheck import expr
from acmcheck.expr import (
    Add,
    Call,
    Const,
    Div,
    ExprDomainError,
    ExprSyntaxError,
    InternTable,
    Mul,
    Neg,
    Pow,
    ScalarField,
    Sub,
    UnknownIdentifierError,
    Var,
    field_jets,
    parse,
    to_text,
)
from acmcheck.manifest import load_fixture, manifest_from_dict

from _helpers import fd_gradient, fd_hessian, random_poly_text, unshared_field_jets
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


def test_function_name_not_a_variable():
    with pytest.raises(ValueError):
        parse("x", ("sin", "y"))


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------


def test_jet_bilinear_monomial():
    f = parse("x*y", COORDS)
    jet = f.jet(np.array([2.0, 3.0, 0.0, 0.0, 0.0]))
    assert jet.value == 6.0
    assert np.array_equal(jet.grad, np.array([3.0, 2.0, 0.0, 0.0, 0.0]))
    expected_h = np.zeros((5, 5))
    expected_h[0, 1] = expected_h[1, 0] = 1.0
    assert np.array_equal(jet.hess, expected_h)


def test_jet_constant():
    f = parse("1", COORDS)
    jet = f.jet(np.array([0.3, -2.0, 5.0, 1.0, 0.0]))
    assert jet.value == 1.0
    assert np.all(jet.grad == 0.0)
    assert np.all(jet.hess == 0.0)


def test_jet_rational_at_origin_vs_fd():
    # frozen from the central-difference oracle (step 1e-4): grad 0, hess diag(-4,-4,0,0,0)
    f = parse("1/(1+x^2+y^2)^2", COORDS)
    p = np.zeros(5)
    jet = f.jet(p)
    assert jet.value == 1.0
    assert np.allclose(jet.grad, np.zeros(5), atol=1e-6)
    assert np.allclose(jet.hess, np.diag([-4.0, -4.0, 0.0, 0.0, 0.0]), atol=1e-6)
    assert np.allclose(jet.grad, fd_gradient(f, p), atol=1e-6)
    assert np.allclose(jet.hess, fd_hessian(f, p), atol=1e-6)


def test_jet_transcendental_vs_fd():
    f = parse("sin(x*y) + exp(z)/(2+cos(u)) + ln(1+v^2) + sqrt(4+x)", COORDS)
    p = np.array([0.3, -1.2, 0.7, 1.9, -0.4])
    jet = f.jet(p)
    g = fd_gradient(f, p)
    H = fd_hessian(f, p)
    assert np.allclose(jet.grad, g, atol=1e-6 * (1 + np.abs(g).max()))
    assert np.allclose(jet.hess, H, atol=1e-5 * (1 + np.abs(H).max()))


def test_hessian_exactly_symmetric():
    f = parse("sin(x*y)*exp(z)/(1+u^2) + sqrt(2+v)*x^3", COORDS)
    jet = f.jet(np.array([0.7, 0.2, -0.5, 1.1, 0.9]))
    assert np.array_equal(jet.hess, jet.hess.T)


def test_domain_errors():
    with pytest.raises(ExprDomainError):
        parse("1/x", COORDS).jet(np.zeros(5))
    with pytest.raises(ExprDomainError):
        parse("ln(x)", COORDS).jet(np.zeros(5))
    with pytest.raises(ExprDomainError):
        parse("sqrt(x)", COORDS).jet(np.array([-1.0, 0, 0, 0, 0]))


def test_evaluate_deterministic_bitwise():
    f = parse("1/(1+x^2+y^2)^2 + sin(x*z)", COORDS)
    p = np.array([0.37, -1.41, 2.0, 0.0, 3.0])
    a, b = f.jet(p), f.jet(p)
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.hess, b.hess)


def test_polynomial_jets_match_fd():
    # module invariant: random degree<=4 polynomials, relative error < 1e-6
    rng = np.random.default_rng(1234)
    for _ in range(25):
        f = parse(random_poly_text(rng), COORDS)
        p = rng.uniform(-1, 1, size=5)
        jet = f.jet(p)
        g, H = fd_gradient(f, p), fd_hessian(f, p)
        assert np.abs(jet.grad - g).max() < 1e-6 * (1 + np.abs(jet.grad).max())
        assert np.abs(jet.hess - H).max() < 1e-6 * (1 + np.abs(jet.hess).max())


def test_quadratic_polynomials_exact():
    f = parse("3*x^2 + 2*x*y - 7*z + 5", COORDS)
    p = np.array([2.0, -1.0, 4.0, 0.0, 1.0])
    jet = f.jet(p)
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
            st.builds(Neg, children),
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(Pow, children, st.integers(min_value=-3, max_value=5)),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp", "ln", "sqrt"]), children),
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
            if isinstance(c, (Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call))]


def _nodes_by_id(node, out: dict) -> dict:
    """Every node object reachable from ``node``, by identity."""
    out[id(node)] = node
    for child in _children(node):
        _nodes_by_id(child, out)
    return out


def _tree_size(node) -> int:
    return 1 + sum(_tree_size(c) for c in _children(node))


def _blocks(name, structures, twisted):
    if name == "deep":
        return [_deep_fields()], np.random.default_rng(5).uniform(-1, 1, (16, 5))
    s = twisted if name == "twisted" else structures[name]
    blocks = [np.array(s.chart.gamma, dtype=object), s.g, s.phi]
    if s.chart.avoid:
        blocks.append(np.array(s.chart.avoid, dtype=object))
    return blocks, s.chart.sample_points(16, 42)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("name", FIXTURES + ("twisted", "deep"))
def test_field_jets_equal_unshared_reference_bitwise(name, structures, twisted):
    blocks, points = _blocks(name, structures, twisted)
    for fields in blocks:
        for p in (points, points[3]):
            got, want = field_jets(fields, p), unshared_field_jets(fields, p)
            assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True)), name


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
    fields = _deep_fields()
    distinct = {}
    for f in fields.flat:
        _nodes_by_id(f.ast, distinct)
    counts = Counter()
    one_step = expr._node_jet

    def counting(node, *args):
        counts[id(node)] += 1
        return one_step(node, *args)

    monkeypatch.setattr(expr, "_node_jet", counting)
    points = np.random.default_rng(6).uniform(-1, 1, (8, 5))
    for _ in range(2):  # the memo lives for one block: a second call evaluates anew
        counts.clear()
        field_jets(fields, points)
        assert counts.keys() == distinct.keys()
        assert set(counts.values()) == {1}


def test_manifest_parses_each_distinct_string_once(monkeypatch):
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
    # one table per load: no node outlives the manifest it was parsed for
    assert load_fixture("example1").gamma[0].ast is not load_fixture("example1").gamma[0].ast


def test_signed_zero_constants_not_merged():
    table = InternTable(COORDS)
    zero, negzero = table.node(Const, 0.0), table.node(Const, -0.0)
    assert zero == negzero and zero is not negzero
    assert table.node(Const, -0.0) is negzero
    x = table.node(Var, 0, "x")
    fields = [ScalarField(ast, COORDS) for ast in (
        zero, negzero, Const(-0.0), Const(0.0),
        table.node(Mul, negzero, x), table.node(Mul, zero, x),
        Add(Const(-0.0), Const(-0.0)), Add(Const(0.0), Const(-0.0)),
    )]
    values = field_jets(np.array(fields, dtype=object), np.array([2.0, 0, 0, 0, 0]), order=0)[0]
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
