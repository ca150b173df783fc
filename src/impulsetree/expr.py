"""Arithmetic expression DSL for path-dependent model coefficients.

Volatility, drift, reward and controlled-drift functionals are written as
small arithmetic expressions over the path features cached at each tree
node.  The language is the three tables below: VARIABLES, OPERATORS (the
binary operators, all left-associative, with their precedence) and
FUNCTIONS (with their arity and whether they can overflow).  Grammar,
where a higher precedence binds tighter and unary minus binds tightest:

    expr   := factor (OPERATOR factor)*
    factor := number | variable | '-' factor | function '(' args ')' | '(' expr ')'

Evaluation is strict: division by zero, overflow and NaN raise instead of
propagating, so a coefficient either yields a finite number or the model
build aborts.
"""

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

import numpy as np

FEATURES = ("x", "xmax", "xmin", "xavg")
VARIABLES = ("t", *FEATURES, "u")  # time, the path features and, last, the control
OPERATORS = {"+": (1, np.add), "-": (1, np.subtract), "*": (2, np.multiply), "/": (2, np.divide)}
FUNCTIONS = {  # name: (arity, implementation, whether finite arguments can give a non-finite result)
    "min": (2, np.minimum, False),
    "max": (2, np.maximum, False),
    "abs": (1, np.abs, False),
    "exp": (1, np.exp, True),
    "clamp": (3, lambda v, lo, hi: _clamp(np.maximum(v, lo), hi), False),
}


def _clamp(low, hi):  # min(low, hi), written over low (max's new array) where the shapes allow
    return np.minimum(low, hi, out=low if isinstance(low, np.ndarray) and np.shape(hi) in ((), low.shape) else None)


class ExprError(ValueError):
    """Parse failure; ``offset`` is the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Evaluation failure: unbound variable or non-finite result."""


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: "tuple[Node, ...]"


Node = Union[Lit, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class CoefficientExpr:
    """A parsed coefficient expression; immutable, structurally comparable."""

    ast: Node

    @cached_property  # the coefficient kernel asks on every call
    def variables(self) -> frozenset:
        return frozenset(_collect_vars(self.ast))


def _collect_vars(node):
    if isinstance(node, Var):
        yield node.name
    elif isinstance(node, Neg):
        yield from _collect_vars(node.operand)
    elif isinstance(node, BinOp):
        yield from _collect_vars(node.left)
        yield from _collect_vars(node.right)
    elif isinstance(node, Call):
        for arg in node.args:
            yield from _collect_vars(arg)


_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(source: str):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(source, pos)
        if m:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(source, pos)
        if m:
            tokens.append(("ident", m.group(), pos))
            pos = m.end()
            continue
        if ch in OPERATORS or ch in "(),":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", pos)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, text, offset = self.peek()
        if kind != "op" or text != symbol:
            raise ExprError(f"expected '{symbol}'", offset)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExprError(f"unexpected trailing input {text!r}", offset)
        return node

    def expr(self, lowest=1):
        """Precedence climbing: a run of factors joined by operators of
        precedence at least ``lowest``, grouped from the left."""
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            precedence = OPERATORS[text][0] if kind == "op" and text in OPERATORS else 0
            if precedence < lowest:
                return node
            self.advance()
            node = BinOp(text, node, self.expr(precedence + 1))

    def factor(self):
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Lit(float(text))
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            self.advance()
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ExprError(f"unknown function '{text}'", offset)
                self.advance()
                args = [self.expr()]
                while True:
                    akind, atext, _ = self.peek()
                    if akind == "op" and atext == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                arity = FUNCTIONS[text][0]
                if len(args) != arity:
                    raise ExprError(
                        f"function '{text}' expects {arity} argument(s), got {len(args)}",
                        offset,
                    )
                return Call(text, tuple(args))
            if text in FUNCTIONS:
                raise ExprError(f"function '{text}' must be called", offset)
            if text not in VARIABLES:
                raise ExprError(f"unknown identifier '{text}'", offset)
            return Var(text)
        raise ExprError("expected a number, identifier, '-' or '('", offset)


def parse_expr(source: str) -> CoefficientExpr:
    """Parse ``source`` into a coefficient expression.

    Raises ExprError (with byte offset) on malformed input, unknown
    identifiers and wrong function arity.
    """
    return CoefficientExpr(_Parser(_tokenize(source)).parse())


def _require_finite(value, what):
    if not np.isfinite(value).all():
        raise EvalError(f"non-finite result in {what}")
    return value


def _eval(node, env):
    if isinstance(node, Lit):
        return np.float64(node.value)
    if isinstance(node, Var):
        try:
            value = env[node.name]
        except KeyError:
            raise EvalError(f"unbound variable '{node.name}'") from None
        if isinstance(value, np.ndarray):
            return _require_finite(value, f"variable '{node.name}'")
        return _require_finite(np.float64(value), f"variable '{node.name}'")
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, BinOp):
        value = OPERATORS[node.op][1](_eval(node.left, env), _eval(node.right, env))  # left operand first
        return _require_finite(value, f"operator '{node.op}'")
    if isinstance(node, Call):
        _, function, overflows = FUNCTIONS[node.func]
        args = [_eval(arg, env) for arg in node.args]
        # every value is finite but a scalar literal (negated or not), so only one of those needs a check
        if overflows or not all(np.ndim(a) or np.isfinite(a) for a in args):
            return _require_finite(function(*args), f"function '{node.func}'")
        return function(*args)
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(expr: CoefficientExpr, env: Mapping):
    """Evaluate ``expr`` on ``env``, a mapping from variable names to floats
    or numpy arrays (arrays broadcast elementwise).

    Returns a float for scalar environments, an ndarray otherwise.  Fixed
    left-to-right evaluation order makes repeated evaluation bit-identical.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # every node's result is checked instead
        value = _eval(expr.ast, env)
    if isinstance(value, np.ndarray) and value.ndim:
        return value
    return float(value)
