"""Safe arithmetic-expression parser evaluating on jets.

Grammar (a strict subset of Python expression syntax, parsed via ``ast``):

* variables: the declared parameter names (``x``, ``y`` by default; ``u1``,
  ``u2``, ... are accepted aliases for charts of any dimension),
* numeric literals (not booleans) and the constants ``pi`` and ``e``,
* binary operators ``+  -  *  /  **`` and unary ``+  -``, with exponents that
  name no variable,
* function calls ``sin  cos  tan  exp  log  sqrt`` with one argument.

Anything else (attribute access, comparisons, names outside the vocabulary,
a constant subexpression that is not a finite real number, nesting deeper
than the interpreter's recursion limit) raises
:class:`~soliton_stability.errors.ExpressionError`.  The compiled
callable accepts a sequence of jets (or plain arrays) and evaluates with jet
arithmetic, so expression-defined charts and potentials get exact derivatives.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import ExpressionError

__all__ = ["compile_expression"]

_FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "tan": jets.tan,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}


def compile_expression(expr: str, var_names: Sequence[str]) -> Callable:
    """Compile ``expr`` into a callable of the named variables.

    The callable takes one positional argument per variable (jets or numbers)
    and returns the evaluated expression.  Subexpressions that name no
    variable are evaluated here, so a constant that is not a finite real
    number is a compile-time error, as is an exponent that depends on a
    variable (jets take constant exponents only; use exp/log).
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {expr!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ExpressionError("expression nests too deeply to parse") from None
    names = list(var_names)
    aliases = {f"u{i + 1}": i for i in range(len(names))}
    aliases.update({name: i for i, name in enumerate(names)})
    try:
        root = _lift(_compile(tree.body, aliases))
    except RecursionError:
        raise ExpressionError("expression nests too deeply") from None

    def fn(*args):
        if len(args) != len(names):
            raise ExpressionError(f"expected {len(names)} arguments, got {len(args)}")
        try:
            return root(args)
        except RecursionError:  # compiled near the limit, called from a deeper stack
            raise ExpressionError("expression nests too deeply") from None

    fn.expression = expr  # type: ignore[attr-defined]
    return fn


def _compile(node, aliases):
    """Check ``node`` against the grammar and build it in one walk.

    Returns a closure ``args -> value`` when the subtree names a variable,
    otherwise the subtree's value as a float.
    """
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):
            raise ExpressionError(f"unsupported literal {node.value!r}")
        return _constant(float, node.value)
    if isinstance(node, ast.Name):
        if node.id in aliases:
            i = aliases[node.id]
            return lambda args: args[i]
        if node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        raise ExpressionError(f"unknown name {node.id!r}")
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"unsupported operator {type(node.op).__name__}")
        left, right = _compile(node.left, aliases), _compile(node.right, aliases)
        if isinstance(node.op, ast.Pow) and callable(right):
            raise ExpressionError("exponents must be constant; use exp/log")
        if not (callable(left) or callable(right)):
            return _constant(op, left, right)
        left, right = _lift(left), _lift(right)
        return lambda args: op(left(args), right(args))
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ExpressionError(f"unsupported operator {type(node.op).__name__}")
        operand = _compile(node.operand, aliases)
        if isinstance(node.op, ast.UAdd):
            return operand
        return (lambda args: -operand(args)) if callable(operand) else -operand
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only sin/cos/tan/exp/log/sqrt calls are allowed")
        name = node.func.id
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"{name} takes exactly one positional argument")
        arg = _compile(node.args[0], aliases)
        if not callable(arg):
            return _constant(_FUNCTIONS[name], arg)
        return lambda args: _FUNCTIONS[name](arg(args))
    raise ExpressionError(f"unsupported syntax {type(node).__name__}")


def _constant(f, *operands) -> float:
    """``f(*operands)`` as a finite float, or ExpressionError."""
    try:
        with np.errstate(all="ignore"):
            value = f(*operands)
    except ArithmeticError as exc:
        raise ExpressionError(f"constant arithmetic fails: {exc}") from None
    if not (isinstance(value, float) and math.isfinite(value)):
        raise ExpressionError(f"constant {value!r} is not a finite real number")
    return float(value)


def _lift(part):
    """A compiled part as a closure, constants included."""
    return part if callable(part) else (lambda args: part)
