"""Scalar-expression DSL and truncated forward-mode jets.

Expressions are parsed over a fixed tuple of coordinate names and evaluated
up to second order: a :class:`Jet` carries value, gradient and (symmetric)
Hessian, which is everything the downstream tensor computations need.  A
block of fields is evaluated once over a whole block of points, leading axes
of every array being sample axes, and only up to the order the block is read
at: the metric and gamma blocks of an evaluation to order 2 (to order 1 for
a single-point tensor that reads no Hessian), every other block to order 1.
:func:`field_jets` is the one evaluator; it writes each field's jet straight
into arrays allocated once per block.

An expression is built from five node kinds: the leaves ``Const`` and
``Var``, ``Unary`` (negation or one of :data:`FUNCTIONS`), ``Binary`` (one
of + - * /) and ``Pow`` (a constant integer exponent).  The binary
operators are data: one table gives each its precedence, its printed
separator and its :class:`Jet` method, which the printer and the evaluator
read.

Expressions form a DAG, not a tree.  The fields parsed through one
:class:`InternTable` (one per manifest) share a node object for every
distinct subexpression, and each distinct string is parsed once.
:func:`field_jets` differentiates each distinct node once per block of
fields, so a subexpression repeated across a manifest's fields is parsed and
differentiated once per block.  A :class:`BlockPlan` splits a block into
coordinate-free fields and coordinate-dependent ones: the jets of the first
are computed once per plan and order, and a manifest holds one plan per
block, so they are computed once per manifest.
"""
from __future__ import annotations

import math
import re
import struct
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")

# Expressions are parsed, evaluated and printed by recursion, so their depth
# stays well inside Python's default limit of 1000 frames: the parser takes
# up to six frames per nested parenthesis, call, sign or power, evaluation
# and printing two per level of the expression tree.
MAX_NESTING = 100
MAX_DEPTH = 300


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


class ExprDomainError(ExprError):
    """Evaluation left the function's domain (1/0, ln(x<=0), sqrt(x<0)) or
    exp overflowed.  ``where`` marks the offending points of the block;
    :func:`field_jets` names the expression and the first such point, and
    keeps the message without the point as ``reason``."""

    def __init__(self, message: str, where: np.ndarray | None = None, reason: str | None = None):
        super().__init__(message)
        self.where = where
        self.reason = message if reason is None else reason


def describe_first(points: np.ndarray, mask) -> str:
    """The first point of a block of points (..., n) at which ``mask`` (of
    the batch shape, or broadcast to it) holds, with its sample index when
    the block has sample axes.  The point is printed on one line, however
    many coordinates it has."""
    batch = points.shape[:-1]
    at = np.unravel_index(np.argmax(np.broadcast_to(mask, batch)), batch)
    point = np.array2string(points[at], max_line_width=sys.maxsize)
    if not at:
        return f"point {point}"
    return f"sample {', '.join(str(i) for i in at)}, point {point}"


def frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only: an array kept for more than one reader (an
    evaluation's shared tensors, the sampler's tables), so that no reader
    can write into the others' data."""
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _sym(cross: np.ndarray) -> np.ndarray:
    return cross + np.swapaxes(cross, -1, -2)


class Jet:
    """Truncated Taylor data: value, gradient, Hessian, over a block of points.

    ``value`` has the block's batch shape; ``grad`` and ``hess`` add one and
    two trailing coordinate axes.  A jet truncated at order 1 has ``hess``
    None; its arithmetic skips the Hessian terms, so it costs only what its
    order reads (both operands of a binary operation have the same order).
    Inside an evaluation a part that does not vary over the block keeps a
    smaller batch shape and broadcasts (a constant has batch shape ());
    :func:`field_jets` writes every part at the full batch shape.
    Arithmetic implements the usual forward-mode recurrences, elementwise
    per point.  Products are written so the Hessian stays exactly symmetric
    in floating point.

    Two tags let a product skip terms whose every entry it knows, with the
    same result bit for bit.  ``zero`` is set on a constant (batch shape (),
    built from ``Const`` leaves by negation, sums and differences): every
    entry of its gradient and Hessian is that one zero, +0.0 or -0.0.
    ``finite_var`` is False except on a coordinate variable: there it is
    None until a product by a constant first asks whether all its values
    are finite, and then the answer.
    """

    __slots__ = ("value", "grad", "hess", "zero", "finite_var")

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray | None,
                 zero: float | None = None, finite_var: bool | None = False):
        self.value = value
        self.grad = grad
        self.hess = hess
        self.zero = zero
        self.finite_var = finite_var

    @staticmethod
    def constant(value: float, n: int, order: int = 2) -> "Jet":
        return Jet(np.float64(value), np.zeros(n), np.zeros((n, n)) if order == 2 else None, 0.0)

    @staticmethod
    def variable(value, index: int, n: int, order: int = 2) -> "Jet":
        g = np.zeros(n)
        g[index] = 1.0
        return Jet(np.asarray(value, dtype=float), g, np.zeros((n, n)) if order == 2 else None, finite_var=None)

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(
            self.value + other.value,
            self.grad + other.grad,
            None if self.hess is None else self.hess + other.hess,
            None if self.zero is None or other.zero is None else self.zero + other.zero,
        )

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(
            self.value - other.value,
            self.grad - other.grad,
            None if self.hess is None else self.hess - other.hess,
            None if self.zero is None or other.zero is None else self.zero - other.zero,
        )

    def __neg__(self) -> "Jet":
        return Jet(
            -self.value,
            -self.grad,
            None if self.hess is None else -self.hess,
            None if self.zero is None else -self.zero,
        )

    def __mul__(self, other: "Jet") -> "Jet":
        value = self.value * other.value
        if self.zero is not None:
            return other._scaled(self, value, True)
        if other.zero is not None:
            return self._scaled(other, value, False)
        grad = self.grad * other.value[..., None] + self.value[..., None] * other.grad
        if self.hess is None:
            return Jet(value, grad, None)
        cross = _outer(self.grad, other.grad)
        return Jet(
            value,
            grad,
            self.hess * other.value[..., None, None]
            + self.value[..., None, None] * other.hess
            + cross
            + np.swapaxes(cross, -1, -2),
        )

    def _scaled(self, c: "Jet", value, c_first: bool) -> "Jet":
        """The product of ``self`` with the constant ``c`` (on the left if
        ``c_first``), of value ``value``, by the product rule's terms and
        sums in the rule's own order; a product by one of c's derivative
        entries, all equal to the zero ``c.zero``, is taken once per point
        instead of once per entry.  When ``self`` is a variable with finite
        values and c is finite with its sign bit clear (+0.0, not -0.0),
        every entry but c times the variable's own 1 sums to +0.0, so the
        derivative parts keep batch shape ()."""
        cv, s = c.value, c.zero
        if self.finite_var is not False and cv < math.inf and math.copysign(1.0, cv) > 0.0:
            if self.finite_var is None:
                self.finite_var = bool(np.isfinite(self.value).all())
            if self.finite_var:
                return Jet(value, cv * self.grad, self.hess)  # that Hessian is +0.0
        v = self.value[..., None]
        if c_first:
            z = s * v
            grad = z + cv * self.grad
        else:
            z = v * s
            grad = self.grad * cv + z
        if self.hess is None:
            return Jet(value, grad, None)
        # the cross term's entry (j, k) is s * grad[k] on the left, grad[j] * s on the right
        if c_first:
            w = s * self.grad
            hess = z[..., None] + cv * self.hess + w[..., None, :] + w[..., :, None]
        else:
            w = self.grad * s
            hess = self.hess * cv + z[..., None] + w[..., :, None] + w[..., None, :]
        return Jet(value, grad, hess)

    # Each domain check below is one reduction over the block; the mask of
    # offending points is built only once it has failed.

    def reciprocal(self) -> "Jet":
        if not self.value.all():
            raise ExprDomainError("division by zero", self.value == 0.0)
        inv = 1.0 / self.value
        i1 = inv[..., None]
        grad = -self.grad * i1 * i1
        if self.hess is None:
            return Jet(inv, grad, None)
        i2 = inv[..., None, None]
        return Jet(inv, grad, -self.hess * i2 * i2 + _sym(_outer(self.grad, self.grad)) * i2 * i2 * i2)

    def __truediv__(self, other: "Jet") -> "Jet":
        return self * other.reciprocal()

    def ipow(self, k: int) -> "Jet":
        """Integer power by binary exponentiation: the exponent's bits from
        the top, squaring once per bit and multiplying by ``self`` at each
        set bit, so |k| costs O(log |k|) products.  Powers up to the cube
        are the plain products (x * x) * x; k = 0 is the constant 1."""
        if k < 0:
            return self.ipow(-k).reciprocal()
        if k == 0:
            return Jet.constant(1.0, self.grad.shape[-1], 1 if self.hess is None else 2)
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def sin(self) -> "Jet":
        s, c = np.sin(self.value), np.cos(self.value)
        return self._unary(s, c, -s)

    def cos(self) -> "Jet":
        s, c = np.sin(self.value), np.cos(self.value)
        return self._unary(c, -s, -c)

    def exp(self) -> "Jet":
        with np.errstate(over="ignore"):
            e = np.exp(self.value)
        if not e.max(initial=-math.inf) < math.inf:  # an infinity or a NaN, not always an overflow
            overflow = np.isfinite(self.value) & ~np.isfinite(e)
            if np.any(overflow):
                raise ExprDomainError("exp overflows", overflow)
        return self._unary(e, e, e)

    def ln(self) -> "Jet":
        if not self.value.min(initial=math.inf) > 0.0:
            bad = self.value <= 0.0
            if np.any(bad):
                raise ExprDomainError("ln of non-positive value", bad)
        return self._unary(np.log(self.value), 1.0 / self.value, -1.0 / (self.value * self.value))

    def sqrt(self) -> "Jet":
        if not self.value.min(initial=math.inf) > 0.0:
            negative = self.value < 0.0
            if np.any(negative):
                raise ExprDomainError("sqrt of negative value", negative)
            zero = self.value == 0.0
            if np.any(zero):
                raise ExprDomainError("sqrt not differentiable at zero", zero)
        r = np.sqrt(self.value)
        return self._unary(r, 0.5 / r, -0.25 / (r * self.value))

    def _unary(self, f0, f1, f2) -> "Jet":
        grad = f1[..., None] * self.grad
        if self.hess is None:
            return Jet(f0, grad, None)
        hess = f1[..., None, None] * self.hess
        # the outer product is exactly symmetric: no symmetrisation
        return Jet(f0, grad, hess + f2[..., None, None] * _outer(self.grad, self.grad))

    def __repr__(self) -> str:
        return f"Jet({self.value!r}, grad={self.grad!r})"


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # '-' or a name of FUNCTIONS
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # a key of _BINARY
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Const | Var | Unary | Binary | Pow

# precedence levels used both for parsing decisions and pretty-printing
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


class _BinaryOp(NamedTuple):
    prec: int
    separator: str  # as printed between the operands
    jet: Callable[[Jet, Jet], Jet]  # the Jet method that applies it


_BINARY = {
    "+": _BinaryOp(_PREC_ADD, " + ", Jet.__add__),
    "-": _BinaryOp(_PREC_ADD, " - ", Jet.__sub__),
    "*": _BinaryOp(_PREC_MUL, "*", Jet.__mul__),
    "/": _BinaryOp(_PREC_MUL, "/", Jet.__truediv__),
}


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _BINARY[node.op].prec
    if isinstance(node, Unary) and node.op == "-":
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def to_text(node: Node) -> str:
    """Render with the minimal parentheses needed to re-parse identically."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Binary):
        prec, separator, _ = _BINARY[node.op]
        return f"{_wrap(node.left, prec)}{separator}{_wrap(node.right, prec + 1)}"
    if isinstance(node, Unary):
        if node.op == "-":
            return "-" + _wrap(node.arg, _PREC_NEG)
        return f"{node.op}({to_text(node.arg)})"
    if isinstance(node, Pow):
        # '^' binds tighter than unary minus, so a Pow base is wrapped unless atomic
        return f"{_wrap(node.base, _PREC_POW + 1)}^{node.exponent}"
    raise TypeError(f"unexpected node {node!r}")


def _wrap(node: Node, minimum: int) -> str:
    text = to_text(node)
    return f"({text})" if _prec(node) < minimum else text


def _children(node: Node) -> tuple[Node, ...]:
    if isinstance(node, Binary):
        return node.left, node.right
    if isinstance(node, Unary):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _depth(root: Node) -> int:
    """Levels of the tree below ``root``, a leaf being one, found without
    recursion: each node's depth is set once those of its children are."""
    depth: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        children = _children(node)
        pending = [child for child in children if id(child) not in depth]
        if pending:
            stack.extend(pending)
        else:
            stack.pop()
            depth[id(node)] = 1 + max((depth[id(child)] for child in children), default=0)
    return depth[id(root)]


def _eval_node(node: Node, points: np.ndarray, n: int, order: int, memo: dict) -> Jet:
    """Jet of ``node`` to ``order`` over a block of points.  ``memo`` maps the
    id of each node evaluated so far in the block to its jet, so a node
    object shared by several fields or subtrees is evaluated once; keying by
    identity keeps a lookup from hashing the subtree below it."""
    jet = memo.get(id(node))
    if jet is None:
        jet = memo[id(node)] = _node_jet(node, points, n, order, memo)
    return jet


def _node_jet(node: Node, points: np.ndarray, n: int, order: int, memo: dict) -> Jet:
    """One forward-mode step: the jet of ``node`` from its children's; a
    subtree without a Var keeps batch shape (); ``left`` is evaluated
    before ``right``."""
    if isinstance(node, Binary):
        return _BINARY[node.op].jet(_eval_node(node.left, points, n, order, memo),
                                    _eval_node(node.right, points, n, order, memo))
    if isinstance(node, Unary):
        arg = _eval_node(node.arg, points, n, order, memo)
        return -arg if node.op == "-" else getattr(arg, node.op)()
    if isinstance(node, Pow):
        return _eval_node(node.base, points, n, order, memo).ipow(node.exponent)
    if isinstance(node, Const):
        return Jet.constant(node.value, n, order)
    if isinstance(node, Var):
        return Jet.variable(points[..., node.index], node.index, n, order)
    raise TypeError(f"unexpected node {node!r}")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    offset: int
    value: float = 0.0


# One match per token; the whitespace between matches is skipped.  \s, \w
# and \d are str.isspace, str.isalnum-or-'_' and str.isdecimal.
_TOKEN_PATTERN = re.compile(
    r"(?P<num>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[_Token]:
    # A digit is anything str.isdigit accepts, which includes non-decimal
    # digits such as '²' that \d misses and float() rejects: scan a copy in
    # which every digit is '0', so that a number takes them in and fails as
    # a literal, while tokens keep the text's own characters.
    scan = text if text.isascii() else "".join("0" if c.isdigit() else c for c in text)
    tokens: list[_Token] = []
    for m in _TOKEN_PATTERN.finditer(scan):
        kind = m.lastgroup
        i, j = m.span()
        lit = text[i:j]
        if kind == "num":
            try:
                tokens.append(_Token(kind, lit, i, float(lit)))
            except ValueError:
                raise ExprSyntaxError(f"bad numeric literal '{lit}'", i) from None
        elif kind == "op" or (kind == "ident" and (lit[0].isalpha() or lit[0] == "_")):
            tokens.append(_Token(kind, lit, i))
        else:
            # [^\W\d] also matches numeric characters such as '½', which
            # cannot start an identifier
            raise ExprSyntaxError(f"unexpected character '{lit[0]}'", i)
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent: ^ > unary minus > * / > + -, with ^ right-associative
    and restricted to constant integer exponents."""

    def __init__(self, tokens: list[_Token], table: "InternTable"):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0
        self.node = table.node
        self.index = table.index

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected '{op}', found '{tok.text or 'end of input'}'", tok.offset)

    def nested(self, parse, tok: _Token) -> Node:
        """``parse()`` one level deeper, ``tok`` opening the level."""
        if self.nesting == MAX_NESTING:
            raise ExprSyntaxError(
                f"more than {MAX_NESTING} nested parentheses, calls, signs or powers", tok.offset
            )
        self.nesting += 1
        node = parse()
        self.nesting -= 1
        return node

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input '{tok.text}'", tok.offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = self.node(Binary, op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = self.node(Binary, op, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return self.node(Unary, "-", self.nested(self.unary, tok))
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            exp_tok = self.peek()
            exponent = self.nested(self.unary, tok)  # right-associative, then folded to an int
            return self.node(Pow, base, self._const_int(exponent, exp_tok.offset))
        return base

    def _const_int(self, node: Node, offset: int) -> int:
        value = self._const_value(node, offset)
        if not math.isfinite(value):
            raise ExprSyntaxError("exponent overflows", offset)
        if value != int(value):
            raise ExprSyntaxError("exponent must be an integer", offset)
        return int(value)

    def _const_value(self, node: Node, offset: int) -> float:
        """The exponent ``node`` folded to a float; a power in it that
        overflows or divides by zero is an error at ``offset``."""
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Unary) and node.op == "-":
            return -self._const_value(node.arg, offset)
        if isinstance(node, Pow):
            try:
                return self._const_value(node.base, offset) ** node.exponent
            except OverflowError:
                raise ExprSyntaxError("exponent overflows", offset) from None
            except ZeroDivisionError:
                raise ExprSyntaxError("exponent divides by zero", offset) from None
        raise ExprSyntaxError("exponent must be a constant integer", offset)

    def atom(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            return self.node(Const, tok.value)
        if tok.kind == "ident":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(self.expr, tok)
                self.expect_op(")")
                return self.node(Unary, tok.text, arg)
            if tok.text in self.index:
                return self.node(Var, self.index[tok.text], tok.text)
            raise UnknownIdentifierError(tok.text, tok.offset)
        if tok.kind == "op" and tok.text == "(":
            node = self.nested(self.expr, tok)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, found '{tok.text or 'end of input'}'", tok.offset)


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A parsed expression over a fixed coordinate tuple: ``ast`` is a
    ``Const``, ``Var``, ``Unary``, ``Binary`` or ``Pow`` node.

    Evaluation is pure: a ScalarField may be shared freely across threads.
    """

    ast: Node
    coords: tuple[str, ...]

    def value(self, point: np.ndarray) -> np.ndarray:
        """Value at a point or over a block: the values of :func:`field_jets`."""
        return field_jets(np.array(self, dtype=object), point, order=1)[0]

    def __str__(self) -> str:
        return to_text(self.ast)


class InternTable:
    """Parses expressions over one coordinate tuple: each distinct string
    once, and equal subtrees of all of them into one node object, so the
    fields parsed through one table share their common subexpressions.

    A node is keyed by its type, its scalar attributes (a ``Unary`` or
    ``Binary`` operator, a ``Var``'s index and name, a ``Pow``'s exponent)
    and the identities of its children, which are table nodes already; a ``Const`` is keyed by the
    bits of its value, since ``Const(-0.0) == Const(0.0)``.  The table keeps
    every node it made, so no keyed identity is reused while it lives.
    """

    def __init__(self, coords: tuple[str, ...] | list[str]):
        coords = tuple(coords)
        clash = sorted(set(coords) & set(FUNCTIONS))
        if clash:
            raise ValueError(f"coordinate names shadow built-in functions: {clash}")
        self.coords = coords
        self.index = {name: i for i, name in enumerate(coords)}
        self.fields: dict[str, ScalarField] = {}
        self.nodes: dict[tuple, Node] = {}

    def parse(self, text: str) -> ScalarField:
        """The field of ``text``; see :func:`parse` for the errors."""
        field = self.fields.get(text)
        if field is None:
            tokens = _tokenize(text)
            ast = _Parser(tokens, self).parse()
            # each node of a tree takes a token, so only a long text can be deep
            if len(tokens) > MAX_DEPTH and _depth(ast) > MAX_DEPTH:
                raise ExprError(f"expression tree deeper than {MAX_DEPTH} levels")
            field = self.fields[text] = ScalarField(ast, self.coords)
        return field

    def node(self, cls: type, *args) -> Node:
        """The table's ``cls(*args)``."""
        if cls is Const:
            key = (Const, struct.pack("<d", *args))
        else:
            key = (cls, *[a if type(a) in (int, str) else id(a) for a in args])
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*args)
        return node


def parse(text: str, coords: tuple[str, ...] | list[str]) -> ScalarField:
    """Parse ``text`` over the given coordinate names.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input or
    more than ``MAX_NESTING`` nested levels, :class:`UnknownIdentifierError`
    for identifiers that are neither coordinates nor built-in functions, and
    :class:`ExprError` for a tree deeper than ``MAX_DEPTH`` levels.
    """
    return InternTable(coords).parse(text)


def _coordinate_free(node: Node, memo: dict) -> bool:
    """Whether no Var is reachable from ``node``; ``memo`` maps the id of each
    node decided so far to its answer."""
    free = memo.get(id(node))
    if free is None:
        free = memo[id(node)] = not isinstance(node, Var) and all(
            _coordinate_free(child, memo) for child in _children(node)
        )
    return free


class BlockPlan:
    """A block of fields (an object array of ScalarFields) split into
    coordinate-free fields, whose jets are the same at every point, and
    coordinate-dependent ones.

    The jets of the coordinate-free fields are computed once per order, at
    batch shape (), by the same :class:`Jet` code as every other jet, and
    kept as one template array per part (the block's shape plus the
    coordinate axes); :func:`field_jets` fills each part of its output from
    the template in one assignment and evaluates only the varying fields.
    A coordinate-free field whose evaluation raises (``1/0``, ``ln(0)``) is
    not folded: it counts as varying, so its error is raised in field order
    with the same text.  The split is made at the first evaluation; two
    threads that build the same template build equal ones, and either is
    kept.

    A plan holds its fields and their templates and nothing else, and its
    fields must not change while it lives: a
    :class:`~acmcheck.manifest.Manifest`, whose arrays are read-only, holds
    one plan per field block and lives exactly as long, and a bare object
    array passed to :func:`field_jets` gets a plan for that one call.
    """

    __slots__ = ("fields", "lengths", "_free", "_templates")

    def __init__(self, fields: np.ndarray):
        self.fields = fields
        # coordinate counts of the fields, against which points are checked
        self.lengths = {len(f.coords) for f in fields.flat}
        self._free: list[bool] | None = None
        self._templates: dict[tuple[int, int], tuple] = {}

    def template(self, order: int, n: int) -> tuple[tuple[np.ndarray, ...], list[tuple[int, ScalarField]]]:
        """The parts to ``order`` of the coordinate-free fields' jets over
        ``n`` coordinates, zero in the slots of the other fields, and those
        other fields with their flat indices, in ``fields.flat`` order."""
        key = (order, n)
        if key not in self._templates:
            fields = self.fields
            if self._free is None:
                memo: dict = {}
                self._free = [_coordinate_free(f.ast, memo) for f in fields.flat]
            parts = tuple(np.zeros(fields.shape + (n,) * k) for k in range(order + 1))
            slots = [part.reshape((fields.size,) + (n,) * k) for k, part in enumerate(parts)]
            varying = []
            memo = {}
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                for i, (f, free) in enumerate(zip(fields.flat, self._free)):
                    jet = None
                    if free:
                        try:
                            # no Var is reached, so no point is read
                            jet = _eval_node(f.ast, None, n, order, memo)
                        except ExprDomainError:
                            pass  # evaluated per call, to raise in field order
                    if jet is None:
                        varying.append((i, f))
                        continue
                    for slot, part in zip(slots, (jet.value, jet.grad, jet.hess)):
                        slot[i] = part
            for part in parts:
                part.flags.writeable = False
            self._templates[key] = parts, varying
        return self._templates[key]


def field_jets(block: np.ndarray | BlockPlan, points: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
    """Jets to ``order`` of a block of fields over a point or a block of
    points of shape (..., n): the values (batch shape + the fields' shape),
    the gradients (one more trailing axis) and for ``order`` 2 the Hessians
    (two).  ``block`` is a :class:`BlockPlan` or an object array of
    ScalarFields, which gets a plan for this call.

    The result arrays are allocated once and filled from the plan's
    template of coordinate-free jets, each broadcast over the batch; then
    each varying field's jet is written into its slot, a part that does not
    vary over the block broadcast by the assignment.  Only the parts up to
    ``order`` are computed: a block read to order 1 runs no Hessian term.
    Varying fields are evaluated in ``fields.flat`` order and each distinct
    node object once for the whole block, so fields from one
    :class:`InternTable` share the jets of their common subexpressions.  An :class:`ExprDomainError` names the first
    failing field and its first offending point.  Overflow, division by a
    product that underflowed to zero and invalid operations raise no
    warning: they show as infinities and NaNs, which the callers' finiteness
    rules report.  ``order`` is 1 or 2, else ``ValueError``."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    plan = block if isinstance(block, BlockPlan) else BlockPlan(block)
    fields = plan.fields
    p = np.asarray(points, dtype=float)
    n = p.shape[-1] if p.ndim else -1
    if not plan.lengths <= {n}:
        for f in fields.flat:
            if len(f.coords) != n:
                raise ValueError(f"point has shape {p.shape}, expected (..., {len(f.coords)})")
    batch = p.shape[:-1]
    template, varying = plan.template(order, n)
    out = tuple(np.empty(batch + part.shape) for part in template)
    for a, part in zip(out, template):
        a[...] = part
    if not varying:
        return out
    # one view per part with the field axis in front: slots[k][i] is field i's slot
    b = len(batch)
    slots = [
        a.reshape(batch + (fields.size,) + (n,) * k).transpose(b, *range(b), *range(b + 1, b + 1 + k))
        for k, a in enumerate(out)
    ]
    memo: dict = {}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i, f in varying:
            try:
                jet = _eval_node(f.ast, p, n, order, memo)
            except ExprDomainError as err:
                if err.where is None:
                    raise
                reason = f"{err} in '{f}'"
                raise ExprDomainError(f"{reason} at {describe_first(p, err.where)}", err.where, reason) from None
            for slot, part in zip(slots, (jet.value, jet.grad, jet.hess)):
                slot[i] = part
    return out
