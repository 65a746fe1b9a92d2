"""Guarded integer expressions used by the bound catalog, as prefix data.

An expression is an ``int`` (a constant), a ``str`` (a feature name or
``n``) or a tuple ``(op, *args)``.  ``("cases", (guard, expr), ...)`` holds
its arms as pairs; an arm is the only tuple whose head is not an operator
name.  ``compile_expr(node, layout)`` turns an expression into one Python
function over a sequence of integer slots, where ``layout`` names the
slots in order: each name compiles to a read of its own slot, so
evaluating builds no name -> value mapping and calls no function per node.

The function is built from generated source with ``exec``, as
``namedtuple`` builds its ``__new__``.  That source holds only
slot indices, integer literals passed through ``int()``, tokens from the
fixed operator table below, and the helpers ``_divisor``, ``sq`` and
``_nomatch``; no string of the expression or of the layout is spliced in.
So every node is checked first, and compiling refuses with
:class:`CatalogError` a name outside the layout, an unknown operator, a
wrong operand count (a ``cases`` with no arm too), a node that is not an
``int``, a ``str`` or a non-empty tuple (a float, ``None``, a list), a
case arm that is not a (guard, expr) tuple, and a tree nested deeper than
``MAX_DEPTH`` (each case arm nests one level below the one before it, as
in the source).  ``check_expr`` runs the same checks without compiling:
a catalog rhs is checked when its bound is built and compiled on first
use.

Evaluation keeps the prefix semantics: operands left to right, ``and``
short-circuits, ``cases`` takes the first arm whose guard holds, and a
divisor is checked after both operands are evaluated.

Division and modulo are Euclidean: the divisor must be strictly positive,
the remainder is non-negative, and a negative numerator (possible only on
infeasible mid-search assignments) floors toward minus infinity, which is
exactly Python's ``//`` / ``%`` for positive divisors.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence, Union

from .errors import CatalogError

Expr = Union[int, str, tuple]

# deepest nesting an rhs may reach, each case arm one level below the one
# before it; the catalog reaches 11, and at 32 the generated source stays
# far inside the parser's nesting limits
MAX_DEPTH = 32


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


def _sq(v: int) -> int:
    return v * v


def _no_case(layout: tuple[str, ...], env: Sequence[int]):
    raise NoCaseMatched(f"no case matched environment {dict(zip(layout, env))!r}")


# operator -> (operand count, source template); every operand appears once,
# in order, so operands are evaluated left to right
_FIXED = {
    "+": (2, "({} + {})"),
    "-": (2, "({} - {})"),
    "*": (2, "({} * {})"),
    "div": (2, '({} // _divisor({}, "div"))'),
    "mod": (2, '({} % _divisor({}, "mod"))'),
    "==": (2, "({} == {})"),
    "!=": (2, "({} != {})"),
    "<": (2, "({} < {})"),
    "<=": (2, "({} <= {})"),
    ">": (2, "({} > {})"),
    ">=": (2, "({} >= {})"),
    "sq": (1, "sq({})"),
    "iverson": (1, "(1 if {} else 0)"),
}
# operator -> (prefix, separator, suffix) over one or more operands, folding
# left; one operand is the operand itself
_VARIADIC = {
    "min": ("min(", ", ", ")"),
    "max": ("max(", ", ", ")"),
    "and": ("(", " and ", ")"),
}


def _source(node: Expr, layout: Sequence[str], depth: int) -> str:
    """Python source evaluating ``node`` on the slots ``env``; every check of
    ``compile_expr`` happens here, before any source exists."""
    if depth > MAX_DEPTH:
        raise CatalogError(f"rhs nested deeper than {MAX_DEPTH} levels")
    if isinstance(node, int):
        try:
            return str(int(node))
        except ValueError:  # more digits than int <-> str conversion allows
            raise CatalogError("integer constant too large") from None
    if isinstance(node, str):
        if node not in layout:
            raise CatalogError(f"unknown name {node!r}")
        return f"env[{layout.index(node):d}]"
    if not isinstance(node, tuple) or not node:
        raise CatalogError(f"malformed rhs node {node!r}")
    op, *args = node
    if op == "cases":
        if not args:
            raise CatalogError("cases cannot take 0 operands")
        out = []
        for k, arm in enumerate(args):
            if not (isinstance(arm, tuple) and len(arm) == 2):
                raise CatalogError(f"malformed case arm {arm!r}")
            guard, expr = (_source(x, layout, depth + 1 + k) for x in arm)
            out.append(f"{expr} if {guard} else ")
        return "(" + "".join(out) + "_nomatch(env))"
    srcs = [_source(a, layout, depth + 1) for a in args]
    if not isinstance(op, str) or op not in _FIXED and op not in _VARIADIC:
        raise CatalogError(f"unknown operator {op!r}")
    if op in _FIXED and len(srcs) == _FIXED[op][0]:
        return _FIXED[op][1].format(*srcs)
    if op in _VARIADIC and srcs:
        head, sep, tail = _VARIADIC[op]
        return srcs[0] if len(srcs) == 1 else head + sep.join(srcs) + tail
    raise CatalogError(f"{op} cannot take {len(srcs)} operands")


def check_expr(node: Expr, layout: Sequence[str]) -> None:
    """Refuse ``node`` exactly as :func:`compile_expr` would, without
    compiling it."""
    _source(node, layout, 0)


def compile_expr(node: Expr, layout: Sequence[str]) -> Callable[[Sequence[int]], int]:
    """One generated function evaluating ``node`` on slots named by
    ``layout``; malformed nodes, unknown operators and names fail here, not
    later."""
    body = _source(node, layout, 0)
    namespace = {
        "__builtins__": {},
        "min": min,
        "max": max,
        "_divisor": _divisor,
        "sq": _sq,
        "_nomatch": partial(_no_case, tuple(layout)),
    }
    exec(f"def rhs(env):\n    return {body}\n", namespace)
    return namespace.pop("rhs")  # its globals must not hold it, or each is a reference cycle


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
