"""Small expression language for user-defined spectra f(kx, ky, kz).

Grammar (standard infix, whitespace insignificant, case-sensitive):

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' signed-integer)*
    atom    := number | name | name '(' sum ')' | '(' sum ')'

Names: variables ``kx ky kz k0``, constants ``i pi``, functions
``exp sqrt sin cos``.  Exponents are integer literals only, so no
multivalued complex powers arise; ``sqrt`` uses the principal branch.
Malformed input, a number literal beyond the largest float included,
raises :class:`SpectrumParseError` with a 1-based column and the set of
token classes that would have been accepted; so does a tree nested deeper
than _MAX_DEPTH levels.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import SpectrumEvaluationError, SpectrumParseError

__all__ = [
    "Number",
    "Name",
    "Neg",
    "BinOp",
    "Power",
    "Call",
    "parse_expression",
    "format_expression",
    "evaluate_tree",
    "VARIABLES",
    "CONSTANTS",
    "FUNCTIONS",
]

VARIABLES = ("kx", "ky", "kz", "k0")
CONSTANTS = {"i": 1j, "pi": np.pi}
FUNCTIONS = {"exp": np.exp, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos}


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Number, Name, Neg, BinOp, Power, Call]

# Levels a tree may nest: each operator, sign, power, call and group adds one.
# The parser recurses six times a group, format_expression, evaluate_tree and
# the radial test once a level: well inside Python's default limit of 1000.
_MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    pos: int  # 1-based column


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    index = 0
    while index < len(src):
        m = _TOKEN_RE.match(src, index)
        if m is None or m.end() == index:
            # skip over trailing whitespace before declaring garbage
            rest = src[index:]
            stripped = rest.lstrip()
            if not stripped:
                break
            col = index + (len(rest) - len(stripped)) + 1
            raise SpectrumParseError(
                f"unrecognized character {stripped[0]!r} at column {col}",
                position=col,
                expected=("number", "identifier", "operator"),
            )
        kind = m.lastgroup  # num, name or op: the one alternative that matched
        tokens.append(_Token(kind, m.group(kind), m.start(kind) + 1))
        index = m.end()
    tokens.append(_Token("end", "", len(src) + 1))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.at = 0
        self.groups = 0  # groups the parser is inside: bounds its own recursion

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def advance(self) -> _Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def fail(self, message: str, tok: _Token, expected: tuple[str, ...]):
        shown = tok.text if tok.kind != "end" else "end of input"
        raise SpectrumParseError(
            f"{message}: got {shown!r} at column {tok.pos}"
            + (f", expected one of {', '.join(expected)}" if expected else ""),
            position=tok.pos,
            expected=expected,
        )

    def nest(self, depth: int, tok: _Token) -> int:
        """depth + 1 for a level made at tok, refused there beyond _MAX_DEPTH;
        the methods below return a tree with its depth."""
        if depth >= _MAX_DEPTH:
            message = f"expression nested deeper than {_MAX_DEPTH} levels at column {tok.pos}"
            raise SpectrumParseError(message, position=tok.pos, expected=())
        return depth + 1

    def group(self, tok: _Token) -> tuple[Node, int]:
        """The sum inside the parentheses opened at tok, one level deeper."""
        self.groups = self.nest(self.groups, tok)
        node, depth = self.sum()
        close = self.peek()
        if close.kind != "op" or close.text != ")":
            self.fail("unbalanced parenthesis", close, ("')'",))
        self.advance()
        self.groups -= 1
        return node, self.nest(depth, tok)

    def parse(self) -> Node:
        node, _ = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            self.fail("trailing input", tok, ("'+'", "'-'", "'*'", "'/'", "'^'"))
        return node

    def sum(self) -> tuple[Node, int]:
        node, depth = self.product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            right, right_depth = self.product()
            node, depth = BinOp(tok.text, node, right), self.nest(max(depth, right_depth), tok)
        return node, depth

    def product(self) -> tuple[Node, int]:
        node, depth = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            right, right_depth = self.unary()
            if tok.text == "/" and isinstance(right, Number) and right.value == 0.0:
                raise SpectrumParseError(
                    f"division by constant zero at column {tok.pos}",
                    position=tok.pos,
                    expected=(),
                )
            node, depth = BinOp(tok.text, node, right), self.nest(max(depth, right_depth), tok)
        return node, depth

    def unary(self) -> tuple[Node, int]:
        signs = []
        while self.peek().kind == "op" and self.peek().text in "+-":
            signs.append(self.advance())
        node, depth = self.power()
        for tok in reversed(signs):
            if tok.text == "-":
                node, depth = Neg(node), self.nest(depth, tok)
        return node, depth

    def power(self) -> tuple[Node, int]:
        node, depth = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            tok = self.advance()
            node, depth = Power(node, self.integer_exponent()), self.nest(depth, tok)
        return node, depth

    def integer_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            if tok.text == "-":
                sign = -1
            tok = self.peek()
        if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
            self.fail("exponent must be an integer literal", tok, ("integer",))
        self.advance()
        return sign * int(tok.text)

    def atom(self) -> tuple[Node, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise SpectrumParseError(
                    f"number {tok.text!r} overflows at column {tok.pos}",
                    position=tok.pos,
                    expected=("finite number",),
                )
            return Number(value), 1
        if tok.kind == "name":
            self.advance()
            follow = self.peek()
            if follow.kind == "op" and follow.text == "(":
                if tok.text not in FUNCTIONS:
                    raise SpectrumParseError(
                        f"unknown function {tok.text!r} at column {tok.pos}",
                        position=tok.pos,
                        expected=tuple(sorted(FUNCTIONS)),
                    )
                self.advance()
                arg, depth = self.group(tok)
                return Call(tok.text, arg), depth
            if tok.text in VARIABLES or tok.text in CONSTANTS:
                return Name(tok.text), 1
            raise SpectrumParseError(
                f"unknown identifier {tok.text!r} at column {tok.pos}",
                position=tok.pos,
                expected=VARIABLES + tuple(sorted(CONSTANTS)),
            )
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            return self.group(tok)
        self.fail("syntax error", tok, ("number", "identifier", "'('", "'-'"))


def parse_expression(src: str) -> Node:
    """Parse ``src`` into an expression tree or raise SpectrumParseError."""
    if not src or not src.strip():
        raise SpectrumParseError("empty expression", position=1, expected=("number", "identifier", "'('"))
    return _Parser(src).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    if isinstance(node, Power):
        return _PREC["^"]
    return _PREC["atom"]


def _fmt_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def format_expression(node: Node) -> str:
    """Canonical text for a tree; parse(format(t)) reproduces t."""
    if isinstance(node, Number):
        return _fmt_number(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Neg):
        inner = format_expression(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Power):
        base = format_expression(node.base)
        # power binds tightest and chains to the left, so a base needs
        # parentheses unless it is an atom or a power itself
        if _prec(node.base) < _PREC["^"]:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({format_expression(node.arg)})"
    if isinstance(node, BinOp):
        lhs = format_expression(node.left)
        rhs = format_expression(node.right)
        prec = _PREC[node.op]
        if _prec(node.left) < prec:
            lhs = f"({lhs})"
        # - and / are left-associative: the right operand needs parens at
        # equal precedence too
        right_min = prec + (1 if node.op in "-/" else 0)
        if _prec(node.right) < right_min:
            rhs = f"({rhs})"
        return f"{lhs}{node.op}{rhs}"
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_tree(node: Node, env: dict):
    """Evaluate a tree over an environment of scalars or numpy arrays."""
    if isinstance(node, Number):
        return complex(node.value)
    if isinstance(node, Name):
        if node.ident in CONSTANTS:
            return CONSTANTS[node.ident]
        return env[node.ident]
    if isinstance(node, Neg):
        return -evaluate_tree(node.arg, env)
    if isinstance(node, Call):
        arg = np.asarray(evaluate_tree(node.arg, env), dtype=complex)
        if node.func == "sqrt":
            # squares of negative reals and negations leave a -0 imaginary
            # part, which np.sqrt reads as the lower side of its cut; +0j
            # turns it into +0 and keeps every nonzero imaginary part
            arg = arg + 0j
        return FUNCTIONS[node.func](arg)
    if isinstance(node, Power):
        base = evaluate_tree(node.base, env)
        if node.exponent < 0 and np.any(np.asarray(base) == 0):
            raise SpectrumEvaluationError("zero raised to a negative power")
        return np.asarray(base, dtype=complex) ** node.exponent
    if isinstance(node, BinOp):
        left = evaluate_tree(node.left, env)
        right = evaluate_tree(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if np.any(np.asarray(right) == 0):
            raise SpectrumEvaluationError("division by zero at the evaluation point")
        return left / right
    raise TypeError(f"not an expression node: {node!r}")
