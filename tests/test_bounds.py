"""The bound catalog: shapes, evaluation, posting, exhaustive soundness."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from boundforge import expr, oracle
from boundforge.bounds import (
    BoundCandidate,
    by_id,
    catalog,
    decoy,
    post_bound,
    verify_on,
)
from boundforge.errors import CatalogError, InvalidArgumentError
from boundforge.expr import NoCaseMatched
from boundforge.objects import (
    FEATURES,
    binseq_features,
    make_model,
    partition_features,
)
from boundforge.selector import Counters, ObjectScenario

from kernel_helpers import model_state

CATALOG_IDS = [
    "P-S-UB", "P-RANGE-UB1", "P-RANGE-UB2",
    "B-N1-UB", "B-GMAX-LB", "B-GMAX-UB1", "B-DMIN-UB", "B-DMAX-UB",
    "B-GS-LB1", "B-GS-LB2", "B-GS-LB3", "B-GS-UB1", "B-GS-UB2",
    "B-DS-LB1", "B-DS-LB2", "B-DS-LB3", "B-DS-UB1", "B-DS-UB2",
    "B-GMAX-UB2", "B-GS-UB3",
]


def test_catalog_shape():
    cat = catalog()
    assert len(cat) == 20
    assert [b.id for b in cat] == CATALOG_IDS
    assert by_id("P-S-UB").target == "S"
    assert by_id("P-S-UB").direction == "upper"
    assert by_id("B-DS-LB3").rhs == ("sq", "Dmax")
    with pytest.raises(InvalidArgumentError):
        by_id("NOPE")


def test_target_never_appears_in_its_own_rhs():
    for b in catalog():
        assert b.target not in expr.names(b.rhs)


def _evaluate(bound, env):
    """The rhs on a name -> value env holding n and every input: the env is
    laid out as ``("n",) + FEATURES[object]``, with 0 in the features the rhs
    does not read."""
    assert {"n", *bound.inputs} <= env.keys()
    return bound.evaluate([env["n"]] + [env.get(f, 0) for f in FEATURES[bound.object]])


def _penv(n, p, mmin, mmax, rng):
    return {"n": n, "P": p, "Mmin": mmin, "Mmax": mmax, "rangeM": rng}


def test_sum_squares_upper_bound_examples():
    # leftover 5 over range 3: one middle part of size 3, one full step
    assert _evaluate(by_id("P-S-UB"), _penv(8, 3, 1, 4, 3)) == 26
    best = max(
        partition_features(list(s)).S
        for s in oracle.enum_partitions(8)
        if len(s) == 3 and min(s) == 1 and max(s) == 4
    )
    assert best == 26
    # equal parts collapse to Mmin^2 * P
    assert _evaluate(by_id("P-S-UB"), _penv(6, 3, 2, 2, 0)) == 12


def _first_binseq_with(n, pred):
    for bits in oracle.enum_binseqs(n):
        if pred(binseq_features(list(bits))):
            return list(bits)
    return None


def test_binseq_bound_examples_with_exhaustive_attainment():
    f = binseq_features([1, 1, 0, 1, 0, 1])
    assert verify_on(by_id("B-N1-UB"), f).rhs == 4 == f.N1
    best = max(
        g.N1 for bits in oracle.enum_binseqs(6)
        for g in [binseq_features(list(bits))] if g.G == 3 and g.Gmax == 2
    )
    assert best == 4

    assert _evaluate(by_id("B-GMAX-LB"), {"n": 6, "N1": 4}) == 2
    assert binseq_features([1, 1, 0, 1, 0, 1]).Gmax == 2

    assert _evaluate(by_id("B-DMIN-UB"), {"n": 6, "G": 2, "Gmax": 2}) == 3
    assert binseq_features([1, 1, 0, 0, 0, 1]).Dmin == 3

    assert _evaluate(by_id("B-DS-UB1"), {"n": 6, "N1": 2}) == 16
    assert binseq_features([1, 0, 0, 0, 0, 1]).DS == 16

    assert _evaluate(by_id("B-GS-UB1"), {"n": 6, "G": 3, "N1": 4}) == 6
    assert binseq_features([1, 1, 0, 1, 0, 1]).GS == 6

    assert _evaluate(by_id("B-GMAX-UB2"), {"n": 7, "G": 3, "Dmax": 2, "Dmin": 1}) == 2
    assert binseq_features([1, 0, 1, 0, 0, 1, 1]).Gmax == 2


def test_verify_on_tightness_witnesses():
    f = binseq_features([1, 1, 0, 1, 0, 1])
    v = verify_on(by_id("B-GS-LB2"), f)
    assert (v.holds, v.lhs, v.rhs, v.slack) == (True, 6, 6, 0)

    f = binseq_features([1, 0, 1, 0, 0, 1])
    v = verify_on(by_id("B-DS-LB2"), f)
    assert (v.holds, v.rhs, v.slack) == (True, 5, 0)

    f = binseq_features([1, 0, 1, 0, 0, 1, 1])
    v = verify_on(by_id("B-GS-UB2"), f)
    assert (v.holds, v.rhs, v.slack) == (True, 6, 0)


def test_a_bound_prunes_only_once_its_inputs_are_fixed():
    """B-N1-UB reads G and Gmax; it prunes N1 only once both are fixed,
    whichever is fixed last."""
    model, featvars, xs = make_model("binseq", 6)
    g, gmax = featvars[1].id, featvars[3].id
    assert post_bound(model, by_id("B-N1-UB"), featvars, 6) is not None
    assert model.fix(g, 1) and model._drain()
    assert model.domain(featvars[0]) == tuple(range(7))  # Gmax is open
    assert model.fix(gmax, 2) and model._drain()
    assert model.domain(featvars[0]) == (0, 1, 2)

    model, featvars, xs = make_model("binseq", 6)
    assert post_bound(model, by_id("B-N1-UB"), featvars, 6) is not None
    assert model.fix(gmax, 2) and model._drain()
    assert model.domain(featvars[0]) == tuple(range(7))  # G is open
    assert model.fix(g, 1) and model._drain()
    assert model.domain(featvars[0]) == (0, 1, 2)


def test_post_bound_prunes_on_fixed_inputs():
    n = 6
    model, featvars, xs = make_model("binseq", n)
    names = dict(zip(("N1", "G", "Gmin", "Gmax", "rangeG", "GS", "Dmin", "Dmax", "rangeD", "DS"), featvars))
    # DS >= Dmax^2 once Dmax is fixed to 3
    assert model.assign(names["Dmax"].id, 3)
    assert post_bound(model, by_id("B-DS-LB3"), featvars, n) is not None
    assert model.domain(names["DS"]) == tuple(range(9, 17))

    model, featvars, xs = make_model("binseq", 6)
    names = dict(zip(("N1", "G", "Gmin", "Gmax", "rangeG", "GS", "Dmin", "Dmax", "rangeD", "DS"), featvars))
    assert model.assign(names["G"].id, 0)
    assert model.assign(names["Gmax"].id, 0)
    assert post_bound(model, by_id("B-N1-UB"), featvars, 6) is not None
    assert model.domain(names["N1"]) == (0,)

    model, featvars, xs = make_model("partition", 5)
    names = dict(zip(("P", "Mmin", "Mmax", "rangeM", "S"), featvars))
    assert model.assign(names["P"].id, 2)
    assert model.assign(names["Mmin"].id, 2)
    assert post_bound(model, by_id("P-RANGE-UB1"), featvars, 5) is not None
    assert model.domain(names["rangeM"]) == (0, 1)


def test_unmatched_guard_is_catalog_error_on_eval_and_failure_on_post():
    # G=1 with a positive largest inter-distance occurs in no sequence
    bad = {"n": 7, "G": 1, "Dmax": 2, "Dmin": 0}
    with pytest.raises(NoCaseMatched):
        _evaluate(by_id("B-GMAX-UB2"), bad)

    model, featvars, xs = make_model("binseq", 7)
    assert post_bound(model, by_id("B-GMAX-UB2"), featvars, 7) is not None
    g, dmin, dmax = featvars[1], featvars[6], featvars[7]
    assert model.assign(g.id, 1)
    assert model.assign(dmin.id, 0)
    assert not model.assign(dmax.id, 2)  # infeasible combination fails the subtree


def test_unmatched_guard_message_lists_the_feature_tuple_in_layout_order():
    never = BoundCandidate("t", "binseq", "N1", "upper", ("cases", (("<", "G", 0), 0)))
    with pytest.raises(NoCaseMatched) as exc:
        verify_on(never, binseq_features([1, 0, 1]))
    assert str(exc.value) == (
        "no case matched environment {'n': 3, 'N1': 2, 'G': 2, 'Gmin': 1, 'Gmax': 1, "
        "'rangeG': 0, 'GS': 2, 'Dmin': 1, 'Dmax': 1, 'rangeD': 0, 'DS': 1}"
    )
    never = BoundCandidate("t", "partition", "S", "upper", ("cases", (("<", "P", 0), 0)))
    with pytest.raises(NoCaseMatched) as exc:
        verify_on(never, partition_features([3, 1, 1]))
    assert str(exc.value) == (
        "no case matched environment {'n': 5, 'P': 3, 'Mmin': 1, 'Mmax': 3, 'rangeM': 2, 'S': 11}"
    )


def test_misspelled_direction_is_refused_when_built():
    f = binseq_features([1, 1, 0, 1])  # GS = 5 <= N1^2 = 9
    v = verify_on(BoundCandidate("t", "binseq", "GS", "upper", ("sq", "N1")), f)
    assert (v.holds, v.slack) == (True, 4)
    with pytest.raises(InvalidArgumentError, match="unknown direction 'uper'"):
        BoundCandidate("t", "binseq", "GS", "uper", ("sq", "N1"))


def test_unknown_object_is_refused_when_built():
    with pytest.raises(InvalidArgumentError, match="unknown object 'foo'"):
        BoundCandidate("t", "foo", "GS", "upper", ("sq", "N1"))
    with pytest.raises(InvalidArgumentError, match="unknown object 'foo'"):
        decoy("foo", "GS", 6)


def test_unknown_rhs_name_is_refused_when_built():
    with pytest.raises(CatalogError, match="unknown name 'Nq'"):
        BoundCandidate("t", "binseq", "GS", "upper", ("+", "Nq", 1))
    # another object's feature is outside the layout too
    with pytest.raises(CatalogError, match="unknown name 'P'"):
        BoundCandidate("t", "binseq", "GS", "upper", ("+", "P", 1))


def test_unknown_target_is_refused_when_built():
    with pytest.raises(InvalidArgumentError, match="unknown feature 'Gq' for binseq"):
        BoundCandidate("t", "binseq", "Gq", "upper", ("sq", "N1"))
    with pytest.raises(InvalidArgumentError, match="unknown feature 'n' for binseq"):
        BoundCandidate("t", "binseq", "n", "upper", ("sq", "N1"))


def test_cold_cli_import_loads_no_dataclasses_and_compiles_no_rhs():
    # a fresh interpreter, so nothing imported or evaluated here counts
    child = (
        "import json, sys\n"
        "import boundforge.cli\n"
        "from boundforge import bounds\n"
        "print(json.dumps(['dataclasses' in sys.modules,\n"
        "                  [b.id for b in bounds.catalog() if 'evaluate' in vars(b)]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == [False, []]


def test_euclidean_division_conventions():
    with pytest.raises(CatalogError):
        expr.compile_expr(("div", 4, 0), ())(())
    # negative numerators floor toward -inf with non-negative remainder
    assert expr.compile_expr(("div", -7, 3), ())(()) == -3
    assert expr.compile_expr(("mod", -7, 3), ())(()) == 2


def test_iverson_is_zero_or_one():
    node = expr.compile_expr(("iverson", ("==", "G", 0)), ("G",))
    assert node((0,)) == 1
    assert node((5,)) == 0


def test_unknown_operator_and_bad_arity_fail_at_compile_time():
    with pytest.raises(CatalogError, match="unknown operator 'pow'"):
        expr.compile_expr(("pow", 1, 2), ())
    with pytest.raises(CatalogError):
        expr.compile_expr(("-", 1, 2, 3), ())
    with pytest.raises(CatalogError):
        expr.compile_expr(("sq",), ())


def test_unknown_name_fails_at_compile_time():
    with pytest.raises(CatalogError, match="unknown name 'Nq'"):
        expr.compile_expr(("+", "Nq", 1), ("n", "N1"))
    # a name reads its own slot of the layout
    assert expr.compile_expr(("-", "N1", "n"), ("n", "N1"))((2, 7)) == 5


def test_compiled_operators_keep_order_short_circuit_and_first_match():
    seen = []
    layout = ("a", "b", "c")

    class Slots(tuple):
        def __getitem__(self, i):
            seen.append(layout[i])
            return super().__getitem__(i)

    env = Slots((1, 0, 2))

    def compile_expr(node):
        return expr.compile_expr(node, layout)

    # both operands are evaluated, left to right, before the divisor is checked
    with pytest.raises(CatalogError, match="non-positive divisor 0 in mod"):
        compile_expr(("mod", "a", "b"))(env)
    assert seen == ["a", "b"]
    seen.clear()
    # "and" stops at the first false part
    guard = ("and", ("==", "b", 1), ("==", "c", 2))
    assert compile_expr(("iverson", guard))(env) == 0
    assert seen == ["b"]
    # the first guard that holds wins, later guards are never evaluated
    split = ("cases", ((">=", "c", 2), "a"), ((">=", "b", 0), "b"))
    seen.clear()
    assert compile_expr(split)(env) == 1
    assert seen == ["c", "a"]
    assert compile_expr(("min", "c", "a", 3))(env) == 1
    assert compile_expr(("max", "c", "a", 3))(env) == 3
    with pytest.raises(NoCaseMatched, match="no case matched environment"):
        compile_expr(("cases", (("<", "c", 0), 0)))(env)
    assert expr.names(split) == {"a", "b", "c"}


def test_rhs_is_compiled_once_and_left_out_of_equality():
    b = by_id("B-GS-UB2")
    assert b.evaluate is b.evaluate
    twin = BoundCandidate(b.id, b.object, b.target, b.direction, b.rhs)
    assert "evaluate" not in vars(twin)  # compiled on first use
    assert twin == b and hash(twin) == hash(b) and twin.evaluate is not b.evaluate
    with pytest.raises(AttributeError):
        twin.rhs = 0


def test_inputs_are_computed_once_and_left_out_of_equality():
    b = by_id("B-GS-UB2")
    assert b.inputs == ("N1", "rangeD") and b.inputs is b.inputs
    twin = BoundCandidate(b.id, b.object, b.target, b.direction, b.rhs)
    assert twin == b and hash(twin) == hash(b) and twin.inputs is not b.inputs


def test_catalog_json_and_rhs_values_are_pinned():
    """The catalog as JSON and every rhs outcome on a small grid, as sha256 digests.

    Taken when each expression node was its own class; a change to any
    formula, operator or error message moves them.
    """
    fields = ("id", "object", "target", "direction", "rhs")
    entries = [{f: getattr(b, f) for f in fields} for b in catalog()]
    assert len(entries) == 20
    doc = json.dumps(entries, sort_keys=True)
    assert '"P-S-UB"' in doc
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "7530b482ec8d1eed4777cd0b235f83fc56f1f1b29ab461d4c6b56f4a632022e8"
    )
    digest, outcomes = hashlib.sha256(), {"value": 0, "NCM": 0, "CE": 0}
    for b in catalog():
        inputs = b.inputs
        for n in range(1, 9):
            for vals in product(range(-1, 5), repeat=len(inputs)):
                env = {"n": n, **dict(zip(inputs, vals))}
                try:
                    out = _evaluate(b, env)
                    outcomes["value"] += 1
                except NoCaseMatched:
                    out = "NCM"
                    outcomes["NCM"] += 1
                except CatalogError as exc:
                    out = "CE:" + str(exc)
                    outcomes["CE"] += 1
                digest.update(f"{b.id}|{sorted(env.items())}|{out};".encode())
    assert outcomes == {"value": 16978, "NCM": 1016, "CE": 6}
    assert digest.hexdigest() == (
        "487bef7603293a6075dc02112a80ca9c83602910696474d697b295dd359122ec"
    )


def test_catalog_json_is_serializable_and_complete(capsys):
    """`explain --format json` is the one JSON form of a bound: every entry
    parses, carries the catalog fields plus its inputs, and round-trips its rhs."""
    from boundforge.cli import main

    for b in catalog():
        assert main(["explain", b.id, "--format", "json"]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert set(entry) == {"id", "object", "target", "direction", "inputs", "rhs"}
        assert (entry["id"], entry["object"], entry["target"], entry["direction"]) == (
            b.id, b.object, b.target, b.direction,
        )
        assert entry["inputs"] == list(b.inputs)
        assert entry["rhs"] == json.loads(json.dumps(b.rhs))


@pytest.mark.parametrize("n", range(1, 9))
def test_catalog_soundness_small(n):
    for b in catalog("partition"):
        assert not oracle.audit(b, n).violations
    for b in catalog("binseq"):
        assert not oracle.audit(b, n).violations


def test_guard_exhaustiveness_and_exclusivity():
    def case_splits(node, layout):
        """The compiled guards of every case split inside ``node``."""
        if not isinstance(node, tuple):
            return []
        if node[0] == "cases":
            arms = node[1:]
            out = [[expr.compile_expr(g, layout) for g, _ in arms]]
            for _, e in arms:
                out += case_splits(e, layout)
            return out
        return [split for child in node[1:] for split in case_splits(child, layout)]

    def check(b, env):
        for guards in splits[b.id]:
            assert sum(1 for guard in guards if guard(env)) == 1

    splits = {b.id: case_splits(b.rhs, ("n",) + FEATURES[b.object]) for b in catalog()}
    assert sum(map(len, splits.values())) == 11  # ten case-split bounds, P-S-UB holds two
    for n in range(1, 9):
        for sizes in oracle.enum_partitions(n):
            f = partition_features(list(sizes))
            env = (f.n,) + f.as_tuple()
            for b in catalog("partition"):
                check(b, env)
        for bits in oracle.enum_binseqs(n):
            f = binseq_features(list(bits))
            env = (f.n,) + f.as_tuple()
            for b in catalog("binseq"):
                check(b, env)


def test_observed_tightness_report():
    """Report (never fail) sizes where a bound has no slack-0 witness."""
    missing = []
    for b in catalog():
        top = 9 if b.object == "partition" else 10
        for n in range(3, top + 1):
            if not oracle.audit(b, n).witnesses:
                missing.append((b.id, n))
    print("\nbounds with no tightness witness at some n:", missing or "none")


def test_decoy_is_vacuous_and_validated():
    d = decoy("binseq", "GS", 6)
    assert d.id == "decoy:GS"
    assert _evaluate(d, {"n": 6}) == 36
    for bits in oracle.enum_binseqs(6):
        assert verify_on(d, binseq_features(list(bits))).holds
    with pytest.raises(InvalidArgumentError):
        decoy("partition", "GS", 6)


def test_a_bound_whose_rhs_raises_at_its_post_leaves_the_model_unchanged():
    """With G fixed to 0, a user bound dividing by G raises at its post; the
    model keeps its constraint count, trail, queue and flags."""
    model, featvars, xs = ObjectScenario("binseq", 4).fresh(Counters())
    assert model.assign(featvars[1].id, 0)
    before = model_state(model)
    bad = BoundCandidate("U-DIV", "binseq", "N1", "upper", ("div", "n", "G"))
    with pytest.raises(CatalogError, match="non-positive divisor 0"):
        post_bound(model, bad, featvars, 4)
    assert model_state(model) == before
