"""Guarded integer expressions used by the bound catalog, as prefix data.

An expression is an ``int`` (a constant), a ``str`` (a feature name or
``n``) or a tuple ``(op, *args)``.  ``("cases", (guard, expr), ...)`` holds
its arms as pairs; an arm is the only tuple whose head is not an operator
name.  ``compile_expr(node, layout)`` turns an expression into one closure
over a sequence of integer slots, where ``layout`` names the slots in
order: each name compiles to a read of its own slot, so evaluating builds
no name -> value mapping.  A name outside the layout, like an unknown
operator, fails at compile time.

Division and modulo are Euclidean: the divisor must be strictly positive,
the remainder is non-negative, and a negative numerator (possible only on
infeasible mid-search assignments) floors toward minus infinity, which is
exactly Python's ``//`` / ``%`` for positive divisors.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter
from typing import Callable, Sequence, Union

from .errors import CatalogError

Expr = Union[int, str, tuple]


class NoCaseMatched(CatalogError):
    """No guard of a case-split matched the slot values.

    Impossible on feasible feature tuples (guards are exhaustive there);
    reachable mid-search on infeasible fixed prefixes, where the caller may
    soundly treat it as a failed subtree.
    """


def _divisor(b: int, op: str) -> int:
    if b <= 0:
        raise CatalogError(f"non-positive divisor {b} in {op}")
    return b


# operands are evaluated left to right; "min", "max" and "and" fold left
# over any number of operands, every other binary operator takes exactly two
_BINARY = {
    "+": lambda a, b: lambda env: a(env) + b(env),
    "-": lambda a, b: lambda env: a(env) - b(env),
    "*": lambda a, b: lambda env: a(env) * b(env),
    "div": lambda a, b: lambda env: a(env) // _divisor(b(env), "div"),
    "mod": lambda a, b: lambda env: a(env) % _divisor(b(env), "mod"),
    "min": lambda a, b: lambda env: min(a(env), b(env)),
    "max": lambda a, b: lambda env: max(a(env), b(env)),
    "==": lambda a, b: lambda env: a(env) == b(env),
    "!=": lambda a, b: lambda env: a(env) != b(env),
    "<": lambda a, b: lambda env: a(env) < b(env),
    "<=": lambda a, b: lambda env: a(env) <= b(env),
    ">": lambda a, b: lambda env: a(env) > b(env),
    ">=": lambda a, b: lambda env: a(env) >= b(env),
    "and": lambda a, b: lambda env: a(env) and b(env),
}
_VARIADIC = ("min", "max", "and")
_UNARY = {
    "sq": lambda a: lambda env: (v := a(env)) * v,
    "iverson": lambda c: lambda env: 1 if c(env) else 0,
}


def _cases(arms: tuple, layout: Sequence[str]) -> Callable[[Sequence[int]], int]:
    def evaluate(env: Sequence[int]) -> int:
        for guard, expr in arms:
            if guard(env):
                return expr(env)
        raise NoCaseMatched(f"no case matched environment {dict(zip(layout, env))!r}")

    return evaluate


def compile_expr(node: Expr, layout: Sequence[str]) -> Callable[[Sequence[int]], int]:
    """One closure evaluating ``node`` on slots named by ``layout``; unknown
    operators and names fail here, not later."""
    if isinstance(node, int):
        return lambda env: node
    if isinstance(node, str):
        if node not in layout:
            raise CatalogError(f"unknown name {node!r}")
        return itemgetter(layout.index(node))
    op, *args = node
    if op == "cases":
        return _cases(tuple((compile_expr(g, layout), compile_expr(e, layout))
                            for g, e in args), layout)
    fns = [compile_expr(a, layout) for a in args]
    if op in _UNARY and len(fns) == 1:
        return _UNARY[op](fns[0])
    if op in _BINARY and (len(fns) == 2 or op in _VARIADIC and fns):
        return reduce(_BINARY[op], fns)
    if op in _UNARY or op in _BINARY:
        raise CatalogError(f"{op} cannot take {len(fns)} operands")
    raise CatalogError(f"unknown operator {op!r}")


def parts(node: tuple) -> tuple[str, tuple]:
    """``(op, args)`` of a tuple node; a cases arm gives ``("case", (guard, expr))``."""
    return (node[0], node[1:]) if isinstance(node[0], str) else ("case", node)


def names(node: Expr) -> frozenset[str]:
    """The feature names (and ``n``) an expression reads."""
    if isinstance(node, int):
        return frozenset()
    if isinstance(node, str):
        return frozenset((node,))
    return frozenset().union(*map(names, parts(node)[1]))


# -- small builders, so catalog definitions read close to their formulas ------


def add(a, b) -> tuple:
    return ("+", a, b)


def sub(a, b) -> tuple:
    return ("-", a, b)


def mul(a, b) -> tuple:
    return ("*", a, b)


def fdiv(a, b) -> tuple:
    return ("div", a, b)


def fmod(a, b) -> tuple:
    return ("mod", a, b)


def sq(a) -> tuple:
    return ("sq", a)


def emin(*args) -> tuple:
    return ("min", *args)


def emax(*args) -> tuple:
    return ("max", *args)


def cmp(op: str, a, b) -> tuple:
    return (op, a, b)


def both(*guards: tuple) -> tuple:
    return ("and", *guards)


def iverson(cond: tuple) -> tuple:
    return ("iverson", cond)


def cases(*pairs: tuple) -> tuple:
    return ("cases", *pairs)
