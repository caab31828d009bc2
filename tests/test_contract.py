"""The contraction layer: `structure.contract` against `np.einsum` on every
subscript string it is called with, the rule that every other
multi-operand einsum of the library goes through it, and the rule that the
coordinate oracle does not."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import acmcheck
from acmcheck.structure import contract, contraction_plan

LIBRARY = sorted(Path(acmcheck.__file__).parent.glob("*.py"))
HELPERS = Path(__file__).parent / "_helpers.py"

# the coordinate oracle is plain NumPy (broadcasting, matmul, np.einsum) and
# never goes through the planner, so that it stays an independent check of
# the planned contractions
ORACLE = ("lc_coordinate", "coordinate_to_adapted")
EINSUM_ALLOWED_IN = {"contract", *ORACLE}


def _calls(tree: ast.AST):
    """(enclosing function name, call node) for every call in ``tree``."""

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            inner = child.name if function else where
            if isinstance(child, ast.Call):
                yield where, child
            yield from walk(child, inner)

    yield from walk(tree, None)


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _file_calls(paths):
    for path in paths:
        for where, call in _calls(ast.parse(path.read_text())):
            yield path.name, where, call


def _library_calls():
    return _file_calls(LIBRARY)


def _contract_subscripts() -> list[str]:
    # every subscript string contract is called with: by the library, and
    # by the test cross-checks that moved out of it
    found = {
        call.args[0].value
        for _, _, call in _file_calls([*LIBRARY, HELPERS])
        if _callee(call) == "contract" and call.args and isinstance(call.args[0], ast.Constant)
    }
    return sorted(found)


SUBSCRIPTS = _contract_subscripts()


def _operands(subscripts: str, batches: list[tuple[int, ...]], rng) -> list[np.ndarray]:
    """Random operands whose axis sizes (2..6) follow the label, and differ
    between most labels of one subscript string, so a wrong axis order
    shows."""
    terms = subscripts.split("->")[0].split(",")
    return [
        rng.standard_normal(batch + tuple(2 + ord(label) % 5 for label in term.replace("...", "")))
        for term, batch in zip(terms, batches)
    ]


def _check(subscripts: str, operands: list[np.ndarray]) -> None:
    expected = np.einsum(subscripts, *operands)
    got = contract(subscripts, *operands)
    bound = 1e-13 * (1.0 + np.einsum(subscripts, *(np.abs(op) for op in operands)))
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= bound), subscripts


def test_the_library_contracts_through_contract():
    # guards the collector: with no subscripts found, the parametrized
    # tests below would pass vacuously
    assert len(SUBSCRIPTS) >= 25
    assert any(s.count(",") == 2 for s in SUBSCRIPTS)


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
@pytest.mark.parametrize("batch", [(), (1,), (8,)], ids=["point", "one", "eight"])
def test_contract_matches_einsum(subscripts, batch):
    rng = np.random.default_rng([*batch, *map(ord, subscripts)])
    n = subscripts.count(",") + 1
    _check(subscripts, _operands(subscripts, [batch] * n, rng))


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
def test_contract_broadcasts_batch_axes(subscripts):
    # as StructureEval.lift makes them: unit axes in one operand, fewer
    # batch axes in another
    rng = np.random.default_rng(5)
    n = subscripts.count(",") + 1
    _check(subscripts, _operands(subscripts, [(8, 5, 3)] + [(8, 1, 1)] * (n - 1), rng))
    _check(subscripts, _operands(subscripts, [(8, 5, 3)] + [(3,)] * (n - 1), rng))
    _check(subscripts, _operands(subscripts, [(1, 3)] * (n - 1) + [(8, 1)], rng))


def test_contract_lift_shapes():
    rng = np.random.default_rng(6)
    V, gam = rng.standard_normal((8, 5, 5, 4)), rng.standard_normal((8, 1, 1, 4))
    _check("...a,...a->...", [V, gam])
    # a single point: the lifted operand is (1, 1, 4), the ellipsis covers
    # the unit axes
    _check("...a,...a->...", [V[0], gam[0]])


def test_contract_without_batch_axes_is_einsum():
    rng = np.random.default_rng(7)
    for subscripts in SUBSCRIPTS:
        operands = _operands(subscripts, [()] * (subscripts.count(",") + 1), rng)
        assert contraction_plan(subscripts, tuple(op.shape for op in operands)) is None
        assert np.array_equal(contract(subscripts, *operands), np.einsum(subscripts, *operands))


def test_contract_reuses_its_plan():
    rng = np.random.default_rng(8)
    operands = _operands("...ci,...dj,...cd->...ij", [(8,)] * 3, rng)
    contract("...ci,...dj,...cd->...ij", *operands)
    before = contraction_plan.cache_info()
    contract("...ci,...dj,...cd->...ij", *operands)
    after = contraction_plan.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


def test_contract_refuses_what_it_does_not_plan():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        contract("...aa,...ab->...b", *_operands("...aa,...ab->...b", [(8,), (8,)], rng))
    with pytest.raises(ValueError):  # b summed within one operand
        contract("...ab,...a->...", *_operands("...ab,...a->...", [(8,), (8,)], rng))
    with pytest.raises(ValueError):  # batch axes without an output ellipsis
        contract("...ab,...bc->ac", *_operands("...ab,...bc->ac", [(8,), (8,)], rng))


def test_multi_operand_einsum_only_in_contract_and_the_oracle():
    offenders = []
    for name, where, call in _library_calls():
        if _callee(call) != "einsum" or where in EINSUM_ALLOWED_IN:
            continue
        operands = call.args[1:]
        if len(operands) >= 2 or any(isinstance(arg, ast.Starred) for arg in operands):
            offenders.append(f"{name}:{call.lineno} in {where}")
    assert not offenders, "multi-operand np.einsum outside contract: " + ", ".join(offenders)


def test_the_oracle_does_not_contract_through_the_planner():
    calls = [(where, _callee(call)) for _, where, call in _library_calls() if where in ORACLE]
    # guards the collector: both oracle functions are found
    assert {where for where, _ in calls} == set(ORACLE)
    planner = [f"{callee} in {where}" for where, callee in calls
               if callee in ("contract", "contraction_plan")]
    assert not planner, "the coordinate oracle calls the planner: " + ", ".join(planner)


def _lifted(node: ast.AST) -> bool:
    """An ``ev.lift(...)`` call, possibly indexed or negated."""
    while isinstance(node, (ast.Subscript, ast.UnaryOp)):
        node = node.value if isinstance(node, ast.Subscript) else node.operand
    return isinstance(node, ast.Call) and _callee(node) == "lift"


def _lifted_matmuls(tree: ast.AST) -> list[int]:
    """Line numbers of the ``@`` and ``np.matmul`` products in ``tree`` with
    a lifted operand."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Call) and _callee(node) == "matmul":
            operands = node.args
        else:
            continue
        if any(_lifted(op) for op in operands):
            lines.append(node.lineno)
    return lines


def test_no_matmul_with_a_lifted_operand():
    # a lifted operand (unit axes after the batch axes) makes NumPy run one
    # batched product as batch-size times axis-size tiny ones; contract folds
    # the unit axes into one batched product instead
    caught = "u = V[..., :m] @ ev.lift(mat_t(ev.phi0), V.ndim)\nw = np.matmul(-ev.lift(a, 3), b)"
    assert _lifted_matmuls(ast.parse(caught)) == [1, 2]
    offenders = [f"{path.name}:{line}" for path in LIBRARY
                 for line in _lifted_matmuls(ast.parse(path.read_text()))]
    assert not offenders, "matmul with a lifted operand: " + ", ".join(offenders)
