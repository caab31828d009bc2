"""The contraction layer: `structure.contract` against `np.einsum` on every
multi-operand subscript string of the library, and the rule that every
other multi-operand einsum goes through it."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import acmcheck
from acmcheck.structure import contract, contraction_plan

SRC = Path(acmcheck.__file__).parent

# the coordinate oracle keeps np.einsum, so that it stays an independent
# check of the planned contractions (and keeps the rounding the goldens hold)
EINSUM_ALLOWED_IN = {"contract", "lc_coordinate", "coordinate_to_adapted"}


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


def _library_calls():
    for path in sorted(SRC.glob("*.py")):
        for where, call in _calls(ast.parse(path.read_text())):
            yield path.name, where, call


def _contract_subscripts() -> list[str]:
    found = {
        call.args[0].value
        for _, _, call in _library_calls()
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
