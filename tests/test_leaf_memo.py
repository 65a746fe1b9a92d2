"""The leaf memo at the feature/sequence split of labeling.

Every labeling result must equal the same call searched without the memo
(and without the bulk-counted infeasible prefixes that come with it).  Both
selection engines share the memo, so the incremental/baseline comparison of
criterion 5 cannot see a memo fault; the cross-checks here are its guard.
"""

from __future__ import annotations


import pytest

from boundforge import objects, selector
from boundforge.bounds import catalog
from boundforge.kernel import LabelResult, labeling
from boundforge.objects import binseq_tuples, make_model, partition_tuples, post_object
from boundforge.selector import Counters, ObjectScenario, enumerate_all_solutions

from kernel_helpers import memo_free, post, solve_all, sweep_slice

BINSEQ_WIDTH = len(objects.BINSEQ_FEATURES)


class _CrossCheck:
    """Stands in for ``selector.labeling``: each call is compared with the
    same call searched without the memo."""

    def __init__(self):
        self.calls = self.used = 0
        self.mismatches = []

    def __call__(self, model, featvars, xs):
        res = labeling(model, featvars, xs)
        memo = model.leaf_memo
        vids = [v.id for v in list(featvars) + list(xs)]
        self.calls += 1
        self.used += memo is not None and memo.applies(model, vids)
        ref = memo_free(model, featvars, xs)
        if res != ref:
            self.mismatches.append((res, ref))
        return res


def _plain(object_name, n):
    return ObjectScenario(object_name, n).fresh(Counters())


def _warm(object_name, n):
    """Search every feature tuple once, so the shared table holds them all."""
    model, featvars, xs = _plain(object_name, n)
    enumerate_all_solutions(model, featvars, xs, Counters())


def test_catalog_order_binseq_10_selection_equals_the_memo_free_search(monkeypatch):
    objects._LEAF_TABLES.pop(("binseq", 10), None)  # start cold: misses, then hits
    check = _CrossCheck()
    monkeypatch.setattr(selector, "labeling", check)
    outcome = selector.run_selection(ObjectScenario("binseq", 10), catalog("binseq"))
    # the step memo answers the other 891 steps without labeling
    assert outcome.report.labelings == 1358
    assert check.calls == 467
    assert check.used == check.calls
    assert check.mismatches == []
    table = objects._LEAF_TABLES[("binseq", 10)]
    assert len(table) == 160 and set(table) <= set(binseq_tuples(10))


@pytest.mark.parametrize("engine", [selector.run_selection, selector.run_baseline])
def test_sweep_slice_equals_the_memo_free_search_on_both_engines(monkeypatch, engine):
    check = _CrossCheck()
    monkeypatch.setattr(selector, "labeling", check)
    for object_name, n, cands in sweep_slice():
        engine(ObjectScenario(object_name, n), cands)
    assert check.calls > 1000
    assert check.used == check.calls
    assert check.mismatches == []
    for n in range(3, 9):
        assert set(objects._LEAF_TABLES[("binseq", n)]) <= set(binseq_tuples(n))
        assert set(objects._LEAF_TABLES[("partition", n)]) <= set(partition_tuples(n))


def test_memo_is_attached_by_each_object_post_and_shared_per_size():
    a, _, _ = _plain("binseq", 5)
    b, _, _ = _plain("binseq", 5)
    c, _, _ = _plain("partition", 5)
    assert a.leaf_memo is not None and c.leaf_memo is not None
    assert a.leaf_memo.table is b.leaf_memo.table is objects._LEAF_TABLES[("binseq", 5)]
    assert c.leaf_memo.table is objects._LEAF_TABLES[("partition", 5)]
    assert a.leaf_memo.owned == range(0, 3) and c.leaf_memo.owned == range(0, 5)


# -- bypasses: each gives the memo-free answer where the memo's would be wrong -------


def _first_solution(model, featvars, xs):
    return solve_all(model, list(featvars) + list(xs))[0]


def test_check_posted_after_the_object_bypasses_the_memo():
    _warm("binseq", 4)
    plain = labeling(*_plain("binseq", 4))
    model, featvars, xs = _plain("binseq", 4)
    assert post(model, ("check", xs, lambda v: v[0] == 1)) is not None
    vids = [v.id for v in featvars + xs]
    assert model.leaf_memo is not None and not model.leaf_memo.applies(model, vids)
    res = labeling(model, featvars, xs)
    assert res == memo_free(model, featvars, xs)
    assert res.sol == _first_solution(model, featvars, xs) and res.sol[BINSEQ_WIDTH] == 1
    assert res != plain


def test_sequence_variable_narrowed_before_the_post_gets_no_memo():
    _warm("binseq", 4)
    model, featvars, xs = make_model("binseq", 4)
    assert model.assign(xs[0].id, 1)
    assert post_object(model, "binseq", featvars, xs) is not None
    assert model.leaf_memo is None
    res = labeling(model, featvars, xs)
    assert res.sol == _first_solution(model, featvars, xs) == (1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0)
    # the memo's witness for that feature tuple is the lex-smallest single-one sequence
    assert objects._LEAF_TABLES[("binseq", 4)][res.sol[:BINSEQ_WIDTH]][2] == (0, 0, 0, 1)


def test_retract_below_the_object_post_detaches_the_memo():
    _warm("binseq", 4)
    model, featvars, xs = make_model("binseq", 4)
    mark = model.mark()
    assert post_object(model, "binseq", featvars, xs) is not None
    model.retract_to(mark)
    assert model.leaf_memo is None
    # reuses the object's first constraint slot; an attached memo would take
    # it for the object's own and answer (0, 0, 0, 0) for the all-zero tuple
    assert post(model, ("check", [xs[0]], lambda v: v[0] == 1)) is not None
    assert labeling(model, featvars, xs) == LabelResult(1, False, (0,) * BINSEQ_WIDTH + (1, 0, 0, 0))


def test_sequence_variable_narrowed_after_the_post_is_searched_again():
    """No constraint records this narrowing; the split state differs from
    the stored one, so the subtree is searched and nothing is stored."""
    _warm("binseq", 4)
    table = objects._LEAF_TABLES[("binseq", 4)]
    before = dict(table)
    model, featvars, xs = _plain("binseq", 4)
    assert model.assign(xs[0].id, 1)
    vids = [v.id for v in featvars + xs]
    assert model.leaf_memo.applies(model, vids)
    res = labeling(model, featvars, xs)
    assert res == memo_free(model, featvars, xs)
    assert res.sol == _first_solution(model, featvars, xs)
    assert res.sol[BINSEQ_WIDTH:] == (1, 0, 0, 0)
    assert table[res.sol[:BINSEQ_WIDTH]][2] == (0, 0, 0, 1)
    assert table == before
