"""Metamorphic tests: retraction restores random interleavings exactly, and a
sound bound tightened past its tightness witness changes the selection input.

After Akgün et al., "Metamorphic Testing of Constraint Solvers" (CP 2018):
each test runs the library twice on related inputs and checks a relation
between the outcomes, not a hand-traced value.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundforge import oracle
from boundforge.bounds import BoundCandidate, catalog, post_bound
from boundforge.errors import CatalogSoundnessError
from boundforge.kernel import labeling, post_lex_greater
from boundforge.objects import FEATURES, feature_tuples
from boundforge.selector import Counters, ObjectScenario, compute_all_solutions


def _fresh(object_name, n):
    return ObjectScenario(object_name, n).fresh(Counters())


def _watchers(model):
    """A copy of the per-variable watcher lists."""
    return [list(lst) for lst in model._watchers]


def _apply(model, featvars, xs, n, op) -> bool:
    kind, arg, val = op
    if kind == "bound":
        return post_bound(model, arg, featvars, n) is not None
    if kind == "lex":
        return post_lex_greater(model, featvars, arg) is not None
    return model.assign((featvars + xs)[arg].id, val)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data(), object_name=st.sampled_from(sorted(FEATURES)))
def test_retract_to_restores_every_mark_of_a_random_interleaving(data, object_name):
    """Posts of bounds and lex constraints, assignments, marks and retractions
    in random order: each ``retract_to`` gives back the exact domains and
    constraint count of its mark, both watcher lists as they were at the
    mark, and labeling then equals labeling on a fresh model that replays
    the operations still in effect."""
    n = data.draw(st.integers(1, 6), label="n")
    cat = catalog(object_name)
    tuples = feature_tuples(object_name, n)
    model, featvars, xs = _fresh(object_name, n)
    ops = []  # the successful operations since the object post, in order
    marks = [(model.mark(), model.snapshot(), len(model._constraints), 0, _watchers(model))]
    failed = False  # a failed assign leaves an empty domain until a retract
    for _ in range(data.draw(st.integers(1, 16), label="steps")):
        kinds = ["retract"] if failed else ["bound", "bound", "lex", "assign", "assign", "mark",
                                            "retract"]
        kind = data.draw(st.sampled_from(kinds), label="op")
        if kind == "mark":
            marks.append((model.mark(), model.snapshot(), len(model._constraints), len(ops),
                          _watchers(model)))
            continue
        if kind == "retract":
            i = data.draw(st.integers(0, len(marks) - 1), label="mark")
            mark, snap, ncons, nops, watchers = marks[i]
            model.retract_to(mark)
            assert model.snapshot() == snap
            assert len(model._constraints) == ncons
            assert _watchers(model) == watchers
            del marks[i + 1:], ops[nops:]
            failed = False
            replay, rvars, rxs = _fresh(object_name, n)
            for op in ops:
                assert _apply(replay, rvars, rxs, n, op)
            assert replay.snapshot() == snap
            replay.leaf_memo = None
            assert labeling(model, featvars, xs) == labeling(replay, rvars, rxs)
            assert model.snapshot() == snap
            continue
        if kind == "bound":
            op = ("bound", data.draw(st.sampled_from(cat), label="bound"), None)
        elif kind == "lex":
            tup = data.draw(st.sampled_from(tuples), label="tuple")
            op = ("lex", tup, None)
        else:
            k = data.draw(st.integers(0, len(featvars) + len(xs) - 1), label="var")
            d = model.dom((featvars + xs)[k].id)
            op = ("assign", k, data.draw(st.integers(d[0] - 1, d[-1]), label="value"))
        before = (model.snapshot(), len(model._constraints))
        if _apply(model, featvars, xs, n, op):
            ops.append(op)
        elif kind == "assign":
            failed = True
        else:  # a failed post rolls itself back
            assert (model.snapshot(), len(model._constraints)) == before


def _tightened(bound: BoundCandidate) -> BoundCandidate:
    """The bound moved by 1 toward its target: unsound wherever it is tight."""
    rhs = ("-", bound.rhs, 1) if bound.direction == "upper" else ("+", bound.rhs, 1)
    return BoundCandidate(bound.id + "+1", bound.object, bound.target, bound.direction, rhs)


@pytest.mark.parametrize("object_name, top", [("partition", 8), ("binseq", 8)])
def test_a_bound_tightened_past_its_witness_changes_the_records(object_name, top):
    """Swap one catalog bound for its tightened copy wherever the oracle finds
    a slack-0 witness: the records must change, since the witness tuple is
    no longer a solution, unless posting already proves the catalog unsound."""
    cat = catalog(object_name)
    checked = 0
    for i, bound in enumerate(cat):
        for n in range(1, top + 1):
            witnesses = oracle.audit(bound, n).witnesses
            if not witnesses:
                continue
            sound = compute_all_solutions(*_fresh(object_name, n), cat, n)
            tight_cat = cat[:i] + [_tightened(bound)] + cat[i + 1:]
            try:
                tight = compute_all_solutions(*_fresh(object_name, n), tight_cat, n)
            except CatalogSoundnessError:
                checked += 1
                continue
            assert tight != sound
            assert witnesses[0] in {r.sol for r in sound}
            assert witnesses[0] not in {r.sol for r in tight}
            checked += 1
    assert checked >= len(cat)
