"""Scalar-expression DSL and second-order forward-mode jets.

Expressions are parsed over a fixed tuple of coordinate names and evaluated
to second order: a :class:`Jet` carries value, gradient and (symmetric)
Hessian, which is everything the downstream tensor computations need.  A
field is evaluated once over a whole block of points; leading axes of every
array are sample axes.

Expressions form a DAG, not a tree.  The fields parsed through one
:class:`InternTable` (one per manifest) share a node object for every
distinct subexpression, and each distinct string is parsed once.
:func:`field_jets` differentiates each distinct node once per block of
fields, so a subexpression repeated across a manifest's fields is parsed and
differentiated once per block.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


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
    :meth:`ScalarField.jet` names the expression and the first such point,
    and keeps the message without the point as ``reason``."""

    def __init__(self, message: str, where: np.ndarray | None = None, reason: str | None = None):
        super().__init__(message)
        self.where = where
        self.reason = message if reason is None else reason


def describe_first(points: np.ndarray, mask) -> str:
    """The first point of a block of points (..., n) at which ``mask`` (of
    the batch shape, or broadcast to it) holds, with its sample index when
    the block has sample axes."""
    batch = points.shape[:-1]
    at = np.unravel_index(np.argmax(np.broadcast_to(mask, batch)), batch)
    if not at:
        return f"point {points}"
    return f"sample {', '.join(str(i) for i in at)}, point {points[at]}"


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _sym(cross: np.ndarray) -> np.ndarray:
    return cross + np.swapaxes(cross, -1, -2)


class Jet:
    """Truncated second-order Taylor data: value, gradient, Hessian, over a
    block of points.

    ``value`` has the block's batch shape; ``grad`` and ``hess`` add one and
    two trailing coordinate axes.  Inside an evaluation a part that does not
    vary over the block keeps a smaller batch shape and broadcasts (a
    constant has batch shape ()); :meth:`ScalarField.jet` returns every part
    at the full batch shape.  Arithmetic implements the usual forward-mode
    recurrences, elementwise per point.  Products are written so the Hessian
    stays exactly symmetric in floating point.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @staticmethod
    def constant(value: float, n: int) -> "Jet":
        return Jet(np.float64(value), np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def variable(value, index: int, n: int) -> "Jet":
        g = np.zeros(n)
        g[index] = 1.0
        return Jet(np.asarray(value, dtype=float), g, np.zeros((n, n)))

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __neg__(self) -> "Jet":
        return Jet(-self.value, -self.grad, -self.hess)

    def __mul__(self, other: "Jet") -> "Jet":
        cross = _outer(self.grad, other.grad)
        return Jet(
            self.value * other.value,
            self.grad * other.value[..., None] + self.value[..., None] * other.grad,
            self.hess * other.value[..., None, None]
            + self.value[..., None, None] * other.hess
            + cross
            + np.swapaxes(cross, -1, -2),
        )

    def reciprocal(self) -> "Jet":
        zero = self.value == 0.0
        if np.any(zero):
            raise ExprDomainError("division by zero", zero)
        inv = 1.0 / self.value
        i1, i2 = inv[..., None], inv[..., None, None]
        return Jet(
            inv,
            -self.grad * i1 * i1,
            -self.hess * i2 * i2 + _sym(_outer(self.grad, self.grad)) * i2 * i2 * i2,
        )

    def __truediv__(self, other: "Jet") -> "Jet":
        return self * other.reciprocal()

    def ipow(self, k: int) -> "Jet":
        """Integer power by repeated multiplication (exact for polynomials)."""
        if k < 0:
            return self.ipow(-k).reciprocal()
        out = Jet.constant(1.0, self.grad.shape[-1])
        for _ in range(k):
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
        overflow = np.isfinite(self.value) & ~np.isfinite(e)
        if np.any(overflow):
            raise ExprDomainError("exp overflows", overflow)
        return self._unary(e, e, e)

    def ln(self) -> "Jet":
        bad = self.value <= 0.0
        if np.any(bad):
            raise ExprDomainError("ln of non-positive value", bad)
        return self._unary(np.log(self.value), 1.0 / self.value, -1.0 / (self.value * self.value))

    def sqrt(self) -> "Jet":
        negative = self.value < 0.0
        if np.any(negative):
            raise ExprDomainError("sqrt of negative value", negative)
        zero = self.value == 0.0
        if np.any(zero):
            raise ExprDomainError("sqrt not differentiable at zero", zero)
        r = np.sqrt(self.value)
        return self._unary(r, 0.5 / r, -0.25 / (r * self.value))

    def _unary(self, f0, f1, f2) -> "Jet":
        return Jet(
            f0,
            f1[..., None] * self.grad,
            f1[..., None, None] * self.hess
            + (f2 * 0.5)[..., None, None] * _sym(_outer(self.grad, self.grad)),
        )

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
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Const | Var | Neg | Add | Sub | Mul | Div | Pow | Call

# precedence levels used both for parsing decisions and pretty-printing
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
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
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _PREC_NEG)
    if isinstance(node, Add):
        return f"{_wrap(node.left, _PREC_ADD)} + {_wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.left, _PREC_ADD)} - {_wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, _PREC_MUL)}*{_wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, Div):
        return f"{_wrap(node.left, _PREC_MUL)}/{_wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, Pow):
        # '^' binds tighter than unary minus, so a Pow base is wrapped unless atomic
        return f"{_wrap(node.base, _PREC_POW + 1)}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    raise TypeError(f"unexpected node {node!r}")


def _wrap(node: Node, minimum: int) -> str:
    text = to_text(node)
    return f"({text})" if _prec(node) < minimum else text


def _eval_node(node: Node, points: np.ndarray, n: int, memo: dict) -> Jet:
    """Jet of ``node`` over a block of points.  ``memo`` maps the id of each
    node evaluated so far in the block to its jet, so a node object shared by
    several fields or subtrees is evaluated once; keying by identity keeps a
    lookup from hashing the subtree below it."""
    jet = memo.get(id(node))
    if jet is None:
        jet = memo[id(node)] = _node_jet(node, points, n, memo)
    return jet


def _node_jet(node: Node, points: np.ndarray, n: int, memo: dict) -> Jet:
    """One forward-mode step: the jet of ``node`` from its children's; a
    subtree without a Var keeps batch shape ()."""
    if isinstance(node, Const):
        return Jet.constant(node.value, n)
    if isinstance(node, Var):
        return Jet.variable(points[..., node.index], node.index, n)
    if isinstance(node, Neg):
        return -_eval_node(node.arg, points, n, memo)
    if isinstance(node, Add):
        return _eval_node(node.left, points, n, memo) + _eval_node(node.right, points, n, memo)
    if isinstance(node, Sub):
        return _eval_node(node.left, points, n, memo) - _eval_node(node.right, points, n, memo)
    if isinstance(node, Mul):
        return _eval_node(node.left, points, n, memo) * _eval_node(node.right, points, n, memo)
    if isinstance(node, Div):
        return _eval_node(node.left, points, n, memo) / _eval_node(node.right, points, n, memo)
    if isinstance(node, Pow):
        return _eval_node(node.base, points, n, memo).ipow(node.exponent)
    if isinstance(node, Call):
        return getattr(_eval_node(node.arg, points, n, memo), node.func)()
    raise TypeError(f"unexpected node {node!r}")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    offset: int
    value: float = 0.0


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad numeric literal '{lit}'", i) from None
            tokens.append(_Token("num", lit, i, val))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive descent: ^ > unary minus > * / > + -, with ^ right-associative
    and restricted to constant integer exponents."""

    def __init__(self, tokens: list[_Token], table: "InternTable"):
        self.tokens = tokens
        self.pos = 0
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
            rhs = self.term()
            node = self.node(Add if op == "+" else Sub, node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.unary()
            node = self.node(Mul if op == "*" else Div, node, rhs)
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return self.node(Neg, self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            exp_tok = self.peek()
            exponent = self.unary()  # right-associative, then folded to an int
            return self.node(Pow, base, self._const_int(exponent, exp_tok.offset))
        return base

    def _const_int(self, node: Node, offset: int) -> int:
        value = self._const_value(node, offset)
        if value != int(value):
            raise ExprSyntaxError("exponent must be an integer", offset)
        return int(value)

    def _const_value(self, node: Node, offset: int) -> float:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Neg):
            return -self._const_value(node.arg, offset)
        if isinstance(node, Pow):
            return self._const_value(node.base, offset) ** node.exponent
        raise ExprSyntaxError("exponent must be a constant integer", offset)

    def atom(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            return self.node(Const, tok.value)
        if tok.kind == "ident":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return self.node(Call, tok.text, arg)
            if tok.text in self.index:
                return self.node(Var, self.index[tok.text], tok.text)
            raise UnknownIdentifierError(tok.text, tok.offset)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, found '{tok.text or 'end of input'}'", tok.offset)


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A parsed expression over a fixed coordinate tuple.

    Evaluation is pure: a ScalarField may be shared freely across threads.
    """

    ast: Node
    coords: tuple[str, ...]

    def jet(self, point: np.ndarray) -> Jet:
        """Jet at a point of shape (n,) or over a block of shape (..., n).

        A field without a Var is evaluated once and broadcast; an
        :class:`ExprDomainError` names the expression and the first
        offending point."""
        return self._jet(np.asarray(point, dtype=float), {})

    def _jet(self, p: np.ndarray, memo: dict) -> Jet:
        """:meth:`jet` over the block ``p``, with the node memo of the
        block's other fields (see :func:`field_jets`)."""
        n = len(self.coords)
        if p.ndim == 0 or p.shape[-1] != n:
            raise ValueError(f"point has shape {p.shape}, expected (..., {n})")
        try:
            jet = _eval_node(self.ast, p, n, memo)
        except ExprDomainError as err:
            if err.where is None:
                raise
            reason = f"{err} in '{self}'"
            raise ExprDomainError(f"{reason} at {describe_first(p, err.where)}", err.where, reason) from None
        batch = p.shape[:-1]
        parts = (jet.value, jet.grad, jet.hess)
        shapes = (batch, batch + (n,), batch + (n, n))
        if any(np.shape(part) != shape for part, shape in zip(parts, shapes)):
            jet = Jet(*(np.broadcast_to(part, shape) for part, shape in zip(parts, shapes)))
        return jet

    def value(self, point: np.ndarray):
        return self.jet(point).value

    def __str__(self) -> str:
        return to_text(self.ast)


class InternTable:
    """Parses expressions over one coordinate tuple: each distinct string
    once, and equal subtrees of all of them into one node object, so the
    fields parsed through one table share their common subexpressions.

    A node is keyed by its type, its scalar attributes and the identities of
    its children, which are table nodes already; a ``Const`` is keyed by the
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
            ast = _Parser(_tokenize(text), self).parse()
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

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input and
    :class:`UnknownIdentifierError` for identifiers that are neither
    coordinates nor built-in functions.
    """
    return InternTable(coords).parse(text)


def field_jets(fields: np.ndarray, points: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
    """Jets of an object array of ScalarFields over a point or a block of
    points of shape (..., n): the values (batch shape + the fields' shape),
    then for ``order`` >= 1 the gradients (one more trailing axis) and for
    ``order`` 2 the Hessians (two).  Each distinct node object is evaluated
    once for the whole block, so fields from one :class:`InternTable` share
    the jets of their common subexpressions."""
    p = np.asarray(points, dtype=float)
    batch, n = p.shape[:-1], p.shape[-1]
    memo: dict = {}
    jets = [f._jet(p, memo) for f in fields.flat]
    parts = ([j.value for j in jets], [j.grad for j in jets], [j.hess for j in jets])
    return tuple(
        np.moveaxis(np.array(part), 0, len(batch)).reshape(batch + fields.shape + (n,) * k)
        for k, part in enumerate(parts[: order + 1])
    )
