"""The generated rhs functions against a tree-walking reference evaluator,
and every compile-time refusal."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundforge import expr
from boundforge.bounds import BoundCandidate, catalog
from boundforge.errors import CatalogError
from boundforge.expr import NoCaseMatched
from boundforge.objects import FEATURES, feature_tuples


def _reference(node, layout, env):
    """Walk the prefix tree: operands left to right, short-circuit ``and``,
    first-match ``cases``, the divisor checked after both operands."""
    if isinstance(node, int):
        return node
    if isinstance(node, str):
        return env[layout.index(node)]
    op, *args = node
    if op == "cases":
        for guard, value in args:
            if _reference(guard, layout, env):
                return _reference(value, layout, env)
        raise NoCaseMatched(f"no case matched environment {dict(zip(layout, env))!r}")
    if op == "and":
        out = _reference(args[0], layout, env)
        for arg in args[1:]:
            if not out:
                return out
            out = _reference(arg, layout, env)
        return out
    vals = [_reference(a, layout, env) for a in args]
    if op in ("min", "max"):
        out = vals[0]
        for v in vals[1:]:
            out = min(out, v) if op == "min" else max(out, v)
        return out
    if op == "sq":
        return vals[0] * vals[0]
    if op == "iverson":
        return 1 if vals[0] else 0
    a, b = vals
    if op in ("div", "mod"):
        if b <= 0:
            raise CatalogError(f"non-positive divisor {b} in {op}")
        return a // b if op == "div" else a % b
    return {
        "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
        "==": lambda: a == b, "!=": lambda: a != b, "<": lambda: a < b,
        "<=": lambda: a <= b, ">": lambda: a > b, ">=": lambda: a >= b,
    }[op]()


def _outcome(fn, *args):
    """The value, or the raised exception as (type, message)."""
    try:
        return ("value", fn(*args))
    except CatalogError as exc:
        return ("raised", type(exc), str(exc))


def test_every_catalog_rhs_equals_the_reference_on_every_feasible_tuple():
    tops = {"partition": 10, "binseq": 12}
    checked = 0
    for b in catalog():
        layout = ("n",) + FEATURES[b.object]
        for n in range(1, tops[b.object] + 1):
            for tup in feature_tuples(b.object, n):
                env = (n,) + tup
                got = _outcome(b.evaluate, env)
                assert got == _outcome(_reference, b.rhs, layout, env), (b.id, env)
                assert got[0] == "value"  # guards are exhaustive on feasible tuples
                checked += 1
    assert checked > 10_000


_LAYOUT = ("n", "a", "b", "c")
_BINARY = ("+", "-", "*", "div", "mod", "==", "!=", "<", "<=", ">", ">=")
_OPERATORS = _BINARY + ("min", "max", "and", "sq", "iverson", "cases")


def _node(op, children):
    """A node with root ``op`` drawing its operands from ``children``."""
    if op in _BINARY:
        return st.tuples(st.just(op), children, children)
    if op in ("min", "max", "and"):
        return st.lists(children, min_size=1, max_size=4).map(lambda xs: (op, *xs))
    if op in ("sq", "iverson"):
        return st.tuples(st.just(op), children)
    arms = st.lists(st.tuples(children, children), min_size=1, max_size=3)
    return arms.map(lambda xs: ("cases", *xs))


_LEAVES = st.one_of(st.integers(-3, 4), st.sampled_from(_LAYOUT))
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of([_node(op, children) for op in _OPERATORS]),
    max_leaves=12,
)
# small slot values, zero and negatives included, so divisors hit 0 and < 0
_ENVS = st.lists(st.tuples(*[st.integers(-2, 4)] * len(_LAYOUT)), min_size=1, max_size=6)


@pytest.mark.parametrize("op", _OPERATORS)
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(data=st.data())
def test_generated_rhs_equals_the_reference_on_random_trees(op, data):
    """Rooted at each operator in turn, so every one is covered."""
    node = data.draw(_node(op, _TREES), label="node")
    fn = expr.compile_expr(node, _LAYOUT)
    for env in data.draw(_ENVS, label="envs"):
        assert _outcome(fn, env) == _outcome(_reference, node, _LAYOUT, env)


def test_zero_negative_divisors_and_unmatched_cases_raise_as_the_reference():
    env = (0, -1, 0, 2)
    for node in [("div", 7, "a"), ("mod", "c", "b"), ("div", ("cases", ((">", "c", 5), 1)), "a"),
                 ("+", ("mod", 1, 0), ("cases", (("<", "c", 0), 1))),
                 ("cases", (("==", "a", 0), 1), ((">", "c", 5), 2))]:
        got = _outcome(expr.compile_expr(node, _LAYOUT), env)
        assert got[0] == "raised"
        assert got == _outcome(_reference, node, _LAYOUT, env)


def _refused(rhs, match):
    with pytest.raises(CatalogError, match=match):
        BoundCandidate("t", "binseq", "GS", "upper", rhs)


def test_a_name_outside_the_layout_is_refused():
    _refused(("+", "Nq", 1), "unknown name 'Nq'")
    _refused("n) or __import__('os') or (n", "unknown name")
    _refused(("cases", (("==", "N1", 0), "__builtins__")), "unknown name")


def test_unknown_operators_are_refused():
    _refused(("pow", 1, 2), "unknown operator 'pow'")
    _refused(("__import__", "N1"), "unknown operator")
    _refused((1, 2), "unknown operator 1")
    _refused((("+", 1, 2), 3), "unknown operator")
    _refused((["+"], 1, 2), "unknown operator")


def test_wrong_operand_counts_are_refused():
    for rhs, count in [(("-", 1, 2, 3), 3), (("sq",), 0), (("sq", 1, 2), 2), (("min",), 0),
                       (("and",), 0), (("iverson", 1, 1), 2), (("div", 1), 1),
                       (("cases",), 0)]:
        _refused(rhs, f"{rhs[0]} cannot take {count} operands")


@pytest.mark.parametrize("node", [
    1.5, None, [1], [], (), ["+", 1, 2], ("+", 1.5, 2), ("sq", None), ("min", 1, [2]),
    ("+", 1, ()),
])
def test_malformed_nodes_are_refused_when_built(node):
    _refused(node, "malformed rhs node")


@pytest.mark.parametrize("arm", [[("==", "N1", 0), 1], (("==", "N1", 0),), (1, 2, 3), "N1", 0])
def test_malformed_case_arms_are_refused_when_built(arm):
    _refused(("cases", arm), "malformed case arm")


def _nested(depth, wrap):
    node = "n"
    for _ in range(depth):
        node = wrap(node)
    return node


# each wrap puts its operand where the generated source nests it deepest
_WRAPS = {
    "div": lambda x: ("div", 1, x),
    "mod": lambda x: ("mod", 1, x),
    "sq": lambda x: ("sq", x),
    "min": lambda x: ("min", 1, x),
    "iverson": lambda x: ("iverson", x),
    "cases": lambda x: ("cases", (1, x)),
}


@pytest.mark.parametrize("op", sorted(_WRAPS))
def test_nesting_up_to_the_limit_compiles_and_deeper_is_refused(op):
    at_limit = _nested(expr.MAX_DEPTH, _WRAPS[op])
    fn = expr.compile_expr(at_limit, ("n",))
    assert _outcome(fn, (1,)) == _outcome(_reference, at_limit, ("n",), (1,))
    with pytest.raises(CatalogError, match="nested deeper than"):
        expr.compile_expr(_nested(expr.MAX_DEPTH + 1, _WRAPS[op]), ("n",))


def test_very_deep_or_long_rhs_is_a_catalog_error_not_a_parser_error():
    _refused(_nested(10_000, lambda x: ("+", x, 1)), "nested deeper than")
    # each arm nests one level below the one before it in the generated source
    _refused(("cases", *[(("==", "N1", k), k) for k in range(10_000)]), "nested deeper than")
    arms = [(("==", "n", k), k) for k in range(expr.MAX_DEPTH - 1)]  # the last guard's
    fn = expr.compile_expr(("cases", *arms), ("n",))  # operands sit at the limit
    assert fn((expr.MAX_DEPTH - 2,)) == expr.MAX_DEPTH - 2
    # operands of one variadic node sit side by side, so width is no nesting
    assert expr.compile_expr(("min", *range(10_000, 0, -1)), ())(()) == 1


def test_integer_literals_go_through_int():
    class Loud(int):
        def __repr__(self):
            return "__import__('os')"

        __str__ = __repr__

    assert expr.compile_expr(("+", Loud(2), 3), ())(()) == 5
    if hasattr(sys, "get_int_max_str_digits"):
        with pytest.raises(CatalogError, match="integer constant too large"):
            expr.compile_expr(10 ** (sys.get_int_max_str_digits() + 1), ())


def test_layout_names_are_never_spliced_into_the_source():
    layout = ("n", "x) or __import__('os') or (x")
    assert expr.compile_expr(("+", layout[1], 1), layout)((0, 41)) == 42
