"""Scalar-expression DSL and second-order forward-mode jets.

Expressions are parsed over a fixed tuple of coordinate names and evaluated
to second order: a :class:`Jet` carries value, gradient and (symmetric)
Hessian, which is everything the downstream tensor computations need.
"""

from __future__ import annotations

import math
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
    """Evaluation left the function's domain (1/0, ln(x<=0), sqrt(x<0))."""


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------


class Jet:
    """Truncated second-order Taylor data: value, gradient, Hessian.

    Arithmetic implements the usual forward-mode recurrences.  Products are
    written so the Hessian stays exactly symmetric in floating point.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @staticmethod
    def constant(value: float, n: int) -> "Jet":
        return Jet(float(value), np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def variable(value: float, index: int, n: int) -> "Jet":
        g = np.zeros(n)
        g[index] = 1.0
        return Jet(float(value), g, np.zeros((n, n)))

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __neg__(self) -> "Jet":
        return Jet(-self.value, -self.grad, -self.hess)

    def __mul__(self, other: "Jet") -> "Jet":
        cross = np.outer(self.grad, other.grad)
        return Jet(
            self.value * other.value,
            self.grad * other.value + self.value * other.grad,
            self.hess * other.value + self.value * other.hess + cross + cross.T,
        )

    def reciprocal(self) -> "Jet":
        if self.value == 0.0:
            raise ExprDomainError("division by zero")
        inv = 1.0 / self.value
        cross = np.outer(self.grad, self.grad)
        return Jet(
            inv,
            -self.grad * inv * inv,
            -self.hess * inv * inv + (cross + cross.T) * inv * inv * inv,
        )

    def __truediv__(self, other: "Jet") -> "Jet":
        return self * other.reciprocal()

    def ipow(self, k: int) -> "Jet":
        """Integer power by repeated multiplication (exact for polynomials)."""
        if k < 0:
            return self.ipow(-k).reciprocal()
        n = self.grad.shape[0]
        out = Jet.constant(1.0, n)
        for _ in range(k):
            out = out * self
        return out

    def sin(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._unary(s, c, -s)

    def cos(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._unary(c, -s, -c)

    def exp(self) -> "Jet":
        e = math.exp(self.value)
        return self._unary(e, e, e)

    def ln(self) -> "Jet":
        if self.value <= 0.0:
            raise ExprDomainError("ln of non-positive value")
        return self._unary(math.log(self.value), 1.0 / self.value, -1.0 / (self.value * self.value))

    def sqrt(self) -> "Jet":
        if self.value < 0.0:
            raise ExprDomainError("sqrt of negative value")
        if self.value == 0.0:
            raise ExprDomainError("sqrt not differentiable at zero")
        r = math.sqrt(self.value)
        return self._unary(r, 0.5 / r, -0.25 / (r * self.value))

    def _unary(self, f0: float, f1: float, f2: float) -> "Jet":
        cross = np.outer(self.grad, self.grad)
        return Jet(f0, f1 * self.grad, f1 * self.hess + f2 * 0.5 * (cross + cross.T))

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


def _eval_node(node: Node, jets: list[Jet], n: int) -> Jet:
    if isinstance(node, Const):
        return Jet.constant(node.value, n)
    if isinstance(node, Var):
        return jets[node.index]
    if isinstance(node, Neg):
        return -_eval_node(node.arg, jets, n)
    if isinstance(node, Add):
        return _eval_node(node.left, jets, n) + _eval_node(node.right, jets, n)
    if isinstance(node, Sub):
        return _eval_node(node.left, jets, n) - _eval_node(node.right, jets, n)
    if isinstance(node, Mul):
        return _eval_node(node.left, jets, n) * _eval_node(node.right, jets, n)
    if isinstance(node, Div):
        return _eval_node(node.left, jets, n) / _eval_node(node.right, jets, n)
    if isinstance(node, Pow):
        return _eval_node(node.base, jets, n).ipow(node.exponent)
    if isinstance(node, Call):
        return getattr(_eval_node(node.arg, jets, n), node.func)()
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

    def __init__(self, tokens: list[_Token], coords: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.coords = coords
        self.index = {name: i for i, name in enumerate(coords)}

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
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            exp_tok = self.peek()
            exponent = self.unary()  # right-associative, then folded to an int
            return Pow(base, self._const_int(exponent, exp_tok.offset))
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
            return Const(tok.value)
        if tok.kind == "ident":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text in self.index:
                return Var(self.index[tok.text], tok.text)
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
        n = len(self.coords)
        p = np.asarray(point, dtype=float)
        if p.shape != (n,):
            raise ValueError(f"point has shape {p.shape}, expected ({n},)")
        jets = [Jet.variable(p[i], i, n) for i in range(n)]
        return _eval_node(self.ast, jets, n)

    def value(self, point: np.ndarray) -> float:
        return self.jet(point).value

    def __str__(self) -> str:
        return to_text(self.ast)


def parse(text: str, coords: tuple[str, ...] | list[str]) -> ScalarField:
    """Parse ``text`` over the given coordinate names.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input and
    :class:`UnknownIdentifierError` for identifiers that are neither
    coordinates nor built-in functions.
    """
    coords = tuple(coords)
    clash = sorted(set(coords) & set(FUNCTIONS))
    if clash:
        raise ValueError(f"coordinate names shadow built-in functions: {clash}")
    return ScalarField(_Parser(_tokenize(text), coords).parse(), coords)


def field_jets(fields: np.ndarray, point: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
    """Jets of an object array of ScalarFields at ``point``, stacked: the
    values, the gradients (one trailing axis) and, for ``order`` 2, the
    Hessians (two trailing axes)."""
    shape, n = fields.shape, len(point)
    jets = [f.jet(point) for f in fields.flat]
    out = (
        np.array([j.value for j in jets], dtype=float).reshape(shape),
        np.array([j.grad for j in jets], dtype=float).reshape(shape + (n,)),
    )
    if order == 2:
        out += (np.array([j.hess for j in jets], dtype=float).reshape(shape + (n, n)),)
    return out
