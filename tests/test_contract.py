"""The contraction layer: `structure.contract` against `np.einsum` on every
subscript string it is called with, its one planned step replayed bit for
bit, the rule that it takes exactly two operands (a product of three
tensors is two calls), the rule that every other multi-operand einsum of
the library goes through it, and the rule that the coordinate oracle does
not."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import acmcheck
from acmcheck.chart import sample_points
from acmcheck.checks import run_full_check
from acmcheck.cli import TENSOR_NAMES, main
from acmcheck.connection import coordinate_to_adapted, lc_coordinate, lc_oracle, to_frame_components
from acmcheck.manifest import load_fixture, manifest_from_dict
from acmcheck import structure
from acmcheck.structure import StructureEval, contract, contraction_plan

from _helpers import deep_tree_manifest_data
from conftest import FIXTURES

LIBRARY = sorted(Path(acmcheck.__file__).parent.glob("*.py"))
HELPERS = Path(__file__).parent / "_helpers.py"

# the coordinate oracle is plain NumPy (broadcasting, matmul, np.einsum) and
# never goes through the planner, so that it stays an independent check of
# the planned contractions; contract itself has one engine, its plan, for a
# batch and for a single point alike
ORACLE = ("lc_coordinate", "lc_oracle", "_guarded_oracle", "coordinate_to_adapted")
EINSUM_ALLOWED_IN = set(ORACLE)


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
    assert all(s.count(",") == 1 for s in SUBSCRIPTS)


def test_every_library_contract_call_passes_two_operands():
    calls = [(f"{name}:{call.lineno}", call) for name, _, call in _library_calls()
             if _callee(call) == "contract"]
    # guards the collector: the two halves of ginv1 and omega_phi0 included
    assert len(calls) >= 30
    offenders = [where for where, call in calls
                 if len(call.args) != 3 or call.keywords
                 or any(isinstance(arg, ast.Starred) for arg in call.args)]
    assert not offenders, "contract without exactly two operands: " + ", ".join(offenders)


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
@pytest.mark.parametrize("batch", [(), (1,), (8,)], ids=["point", "one", "eight"])
def test_contract_matches_einsum(subscripts, batch):
    rng = np.random.default_rng([*batch, *map(ord, subscripts)])
    _check(subscripts, _operands(subscripts, [batch] * 2, rng))


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
def test_contract_broadcasts_batch_axes(subscripts):
    # as StructureEval.lift makes them: unit axes in one operand, fewer
    # batch axes in another
    rng = np.random.default_rng(5)
    _check(subscripts, _operands(subscripts, [(8, 5, 3), (8, 1, 1)], rng))
    _check(subscripts, _operands(subscripts, [(8, 5, 3), (3,)], rng))
    _check(subscripts, _operands(subscripts, [(1, 3), (8, 1)], rng))


def test_contract_lift_shapes():
    rng = np.random.default_rng(6)
    V, gam = rng.standard_normal((8, 5, 5, 4)), rng.standard_normal((8, 1, 1, 4))
    _check("...a,...a->...", [V, gam])
    # a single point: the lifted operand is (1, 1, 4), the ellipsis covers
    # the unit axes
    _check("...a,...a->...", [V[0], gam[0]])


def test_contract_reuses_its_plan():
    rng = np.random.default_rng(8)
    operands = _operands("...ci,...cd->...id", [(8,)] * 2, rng)
    contract("...ci,...cd->...id", *operands)
    before = contraction_plan.cache_info()
    contract("...ci,...cd->...id", *operands)
    after = contraction_plan.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


def test_a_probe_round_and_two_checks_evict_no_plan(capsys):
    # single points are planned too, so their keys share the cache with
    # the batched ones: ten tensors at a point of each fixture, then a
    # check of each at 32 and at 128 samples, must all fit
    def one_pass():
        for name in FIXTURES:
            at = ",".join(map(repr, sample_points(load_fixture(name), 1, seed=1)[0].tolist()))
            for tensor in TENSOR_NAMES:
                assert main(["tensor", name, "--name", tensor, "--at", at, "--json"]) == 0
            for samples in (32, 128):
                run_full_check(load_fixture(name), samples=samples)
        capsys.readouterr()

    contraction_plan.cache_clear()
    one_pass()
    first = contraction_plan.cache_info()
    assert first.currsize == first.misses
    one_pass()
    assert contraction_plan.cache_info().misses == first.misses


def _full_sequence(plan: tuple, operands: list[np.ndarray], laid_out: list | None = None) -> np.ndarray:
    """The one step of ``plan`` with every transpose and reshape applied, an
    entry stored as None as the identity permutation or the shape at hand,
    and no operand copied; asserts that the plan stores no entry that would
    change nothing.  ``laid_out`` collects whether the right-hand matmul
    operand's last axis is not unit-stride."""
    a_perm, a_shape, b_perm, b_shape, out_shape, out_perm = plan
    operands_in = []
    for x, perm, shape in zip(operands, (a_perm, b_perm), (a_shape, b_shape)):
        assert perm != tuple(range(x.ndim)), "identity permutation stored"
        x = x.transpose(tuple(range(x.ndim)) if perm is None else perm)
        assert shape != x.shape, "reshape to the same shape stored"
        operands_in.append(x.reshape(x.shape if shape is None else shape))
    if laid_out is not None:
        laid_out.append(operands_in[1].strides[-1] != operands_in[1].itemsize)
    c = np.matmul(*operands_in)
    assert out_shape != c.shape, "reshape to the same shape stored"
    c = c.reshape(c.shape if out_shape is None else out_shape)
    assert out_perm != tuple(range(c.ndim)), "identity permutation stored"
    return c.transpose(tuple(range(c.ndim)) if out_perm is None else out_perm)


def test_plans_store_no_no_op_step(monkeypatch, capsys):
    # every plan a probe round (ten tensors at a point of each fixture) and
    # a 32-sample check of each fixture use: no stored step is a no-op, and
    # skipping the None steps gives the bits of the full sequence
    keys = set()

    def recording(subscripts, shapes):
        keys.add((subscripts, shapes))
        return contraction_plan(subscripts, shapes)

    monkeypatch.setattr(structure, "contraction_plan", recording)
    for name in FIXTURES:
        at = ",".join(map(repr, sample_points(load_fixture(name), 1, seed=2)[0].tolist()))
        for tensor in TENSOR_NAMES:
            assert main(["tensor", name, "--name", tensor, "--at", at, "--json"]) == 0
        run_full_check(load_fixture(name), samples=32)
    capsys.readouterr()
    assert len(keys) >= 40
    rng = np.random.default_rng(11)
    skipped = 0
    for subscripts, shapes in sorted(keys):
        plan = contraction_plan(subscripts, shapes)
        skipped += sum(entry is None for entry in plan)
        operands = [rng.standard_normal(shape) for shape in shapes]
        got, want = contract(subscripts, *operands), _full_sequence(plan, operands)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), subscripts
    assert skipped > 0


def test_laid_out_operands_keep_the_plain_plans_bits(monkeypatch):
    # contract copies a right-hand operand whose last axis is not
    # unit-stride to C order before its matmul; on every (subscripts,
    # shapes) that a 128-sample check of each fixture plans, at batch
    # (128,) and at a single point, the result has the bits of the plain
    # sequence of the plan
    keys = set()

    def recording(subscripts, shapes):
        keys.add((subscripts, shapes))
        return contraction_plan(subscripts, shapes)

    monkeypatch.setattr(structure, "contraction_plan", recording)
    for name in FIXTURES:
        run_full_check(load_fixture(name), samples=128)
    monkeypatch.undo()
    assert len(keys) >= 25 and all(shape[0] == 128 for _, shapes in keys for shape in shapes)
    rng = np.random.default_rng(12)
    laid_out = []
    for subscripts, shapes in sorted(keys):
        for at in (shapes, tuple(shape[1:] for shape in shapes)):
            operands = [rng.standard_normal(shape) for shape in at]
            want = _full_sequence(contraction_plan(subscripts, at), operands, laid_out)
            got = contract(subscripts, *operands)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (subscripts, at)
    # guards the replay: the layout rule is met, at both batch shapes
    assert sum(laid_out) >= 20


def test_contract_refuses_what_it_does_not_plan():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        contract("...aa,...ab->...b", *_operands("...aa,...ab->...b", [(8,), (8,)], rng))
    with pytest.raises(ValueError):  # b summed within one operand
        contract("...ab,...a->...", *_operands("...ab,...a->...", [(8,), (8,)], rng))
    with pytest.raises(ValueError):  # batch axes without an output ellipsis
        contract("...ab,...bc->ac", *_operands("...ab,...bc->ac", [(8,), (8,)], rng))
    # a product of three tensors is two calls: a third term is refused, as
    # is a plan for any number of operands but two
    a, b, c = _operands("...ca,...db,...cd->...ab", [(8,)] * 3, rng)
    with pytest.raises(ValueError, match="two operands"):
        contract("...ca,...db,...cd->...ab", a, b)
    with pytest.raises(TypeError):
        contract("...ca,...db,...cd->...ab", a, b, c)
    with pytest.raises(ValueError, match="two operands"):
        contraction_plan("...ca,...db,...cd->...ab", (a.shape, b.shape, c.shape))


def test_multi_operand_einsum_only_in_contract_and_the_oracle():
    offenders = []
    for name, where, call in _library_calls():
        if _callee(call) != "einsum" or where in EINSUM_ALLOWED_IN:
            continue
        operands = call.args[1:]
        if len(operands) >= 2 or any(isinstance(arg, ast.Starred) for arg in operands):
            offenders.append(f"{name}:{call.lineno} in {where}")
    assert not offenders, "multi-operand np.einsum outside the oracle: " + ", ".join(offenders)


def test_the_oracle_does_not_contract_through_the_planner(monkeypatch, manifests, twisted):
    calls = [(where, _callee(call)) for _, where, call in _library_calls() if where in ORACLE]
    # guards the collector: every oracle function is found
    assert {where for where, _ in calls} == set(ORACLE)
    planner = [f"{callee} in {where}" for where, callee in calls
               if callee in ("contract", "contraction_plan")]
    assert not planner, "the coordinate oracle calls the planner: " + ", ".join(planner)
    # transitively: the oracle runs with the planner replaced by raising
    # stubs in every library module that imports it, so a call through any
    # helper (to_frame_components, a cached tensor) fails
    def refuse(*args, **kwargs):
        raise AssertionError("the coordinate oracle reached the planner")

    stubbed = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "acmcheck":
            continue
        for attr in ("contract", "contraction_plan"):
            if getattr(module, attr, None) in (contract, contraction_plan):
                monkeypatch.setattr(module, attr, refuse)
                stubbed.add(f"{name}.{attr}")
    assert {"acmcheck.structure.contract", "acmcheck.structure.contraction_plan",
            "acmcheck.connection.contract"} <= stubbed
    for manifest in [*manifests.values(), twisted]:
        points = sample_points(manifest, 8, seed=3)
        for at in (points, points[0]):
            ev = StructureEval(manifest, at)
            assert lc_oracle(ev).shape == ev.batch + (ev.n,) * 3
            with pytest.raises(AssertionError, match="planner"):
                ev.lc_full  # the adapted side does reach the stubs


@pytest.mark.parametrize("name", ["example1", "example2", "example3-qs", "heavy0", "heavy7"])
def test_the_oracles_eta_is_the_planned_one_bit_for_bit(name, manifests):
    # coordinate_to_adapted writes eta(V) out as a matmul; it must give the
    # bits of to_frame_components, which contracts through the planner
    manifest = manifests.get(name) or manifest_from_dict(deep_tree_manifest_data(int(name[5:])))
    points = sample_points(manifest, 128, seed=4)
    for at in (points, points[5]):
        ev = StructureEval(manifest, at)
        coord = lc_coordinate(ev)
        E, dE = ev.frame
        D = np.moveaxis(dE, -1, -3) + E[..., None, :, :] @ coord
        W = (E @ D.reshape(D.shape[:-3] + (ev.n, ev.n * ev.n))).reshape(D.shape)
        assert coordinate_to_adapted(ev, coord).tobytes() == to_frame_components(ev, W).tobytes()


def _lifted(node: ast.AST) -> bool:
    """An ``ev.lift(...)`` call, possibly indexed or negated."""
    while isinstance(node, (ast.Subscript, ast.UnaryOp)):
        node = node.value if isinstance(node, ast.Subscript) else node.operand
    return isinstance(node, ast.Call) and _callee(node) == "lift"


def _lifted_products(tree: ast.AST) -> list[int]:
    """Line numbers of the ``@``, ``np.matmul`` and ``contract`` products in
    ``tree`` with a lifted operand."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Call) and _callee(node) == "matmul":
            operands = node.args
        elif isinstance(node, ast.Call) and _callee(node) == "contract":
            operands = node.args[1:]
        else:
            continue
        if any(_lifted(op) for op in operands):
            lines.append(node.lineno)
    return lines


def test_no_matmul_with_a_lifted_operand():
    # a lifted operand (unit axes after the batch axes) makes NumPy run one
    # batched product as batch-size times axis-size tiny ones, and contract
    # plans its unit axes as matmul batch axes, which do the same; the
    # library passes the operand without its unit axes instead
    caught = (
        "u = V[..., :m] @ ev.lift(mat_t(ev.phi0), V.ndim)\n"
        "w = np.matmul(-ev.lift(a, 3), b)\n"
        'eta_h = contract("...a,...a->...", V[..., : ev.m], ev.lift(ev.gam0, V.ndim))\n'
        'ok = contract("...ija,...a->...ij", V[..., : ev.m], ev.gam0)'
    )
    assert _lifted_products(ast.parse(caught)) == [1, 2, 3]
    offenders = [f"{path.name}:{line}" for path in LIBRARY
                 for line in _lifted_products(ast.parse(path.read_text()))]
    assert not offenders, "matmul or contract with a lifted operand: " + ", ".join(offenders)
