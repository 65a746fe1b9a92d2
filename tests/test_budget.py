"""Labeling under a budget: the search is cut as soon as its count passes it.

A cut search must leave the model exactly as it found it and store no
partial subtree in the shared leaf memo; a search that stays within its
budget must equal the unbudgeted one.
"""

from __future__ import annotations

import pytest

from boundforge import objects
from boundforge.kernel import LabelResult, labeling, post_lex_greater
from boundforge.selector import Counters, ObjectScenario, enumerate_all_solutions

from kernel_helpers import agrees_with_unbudgeted, memo_free, model_state

# a binseq n=4 step whose search fails 3 trials below the split of the
# tuple (2, 2, 1, 1, 0, 2, 2, 2, 0, 4), so budgets 12-14 cut inside it
_STEP = ("binseq", 4, (2, 2, 1, 1, 0, 2, 1, 1, 0, 1))


def _step_model(object_name, n, prev):
    model, featvars, xs = ObjectScenario(object_name, n).fresh(Counters())
    assert post_lex_greater(model, featvars, prev) is not None
    return model, featvars, xs


def _cold_table(object_name, n):
    objects._LEAF_TABLES.pop((object_name, n), None)


@pytest.mark.parametrize("object_name, n", [("binseq", 4), ("binseq", 5), ("partition", 5)])
def test_every_budget_of_every_step_agrees_and_restores_the_model(object_name, n):
    model, featvars, xs = ObjectScenario(object_name, n).fresh(Counters())
    records = enumerate_all_solutions(model, featvars, xs)
    cuts = 0
    for rec in records[:-1]:
        model, featvars, xs = ObjectScenario(object_name, n).fresh(Counters())
        if post_lex_greater(model, featvars, rec.sol) is None:  # the box maximum
            continue
        full = memo_free(model, featvars, xs)
        for budget in range(full.nback + 2):
            before = model_state(model)
            res = labeling(model, featvars, xs, budget)
            assert model_state(model) == before
            assert agrees_with_unbudgeted(res, full, budget)
            assert res.over_budget == (full.nback > budget)
            cuts += res.over_budget
    assert cuts > 100


def test_a_cut_search_stores_no_partial_subtree():
    object_name, n, prev = _STEP
    _cold_table(object_name, n)
    model, featvars, xs = _step_model(object_name, n, prev)
    full = labeling(model, featvars, xs)
    reference = dict(objects._LEAF_TABLES[(object_name, n)])
    assert reference[(2, 2, 1, 1, 0, 2, 2, 2, 0, 4)][1] == 3
    assert full.nback == 15
    for budget in range(full.nback):
        _cold_table(object_name, n)
        model, featvars, xs = _step_model(object_name, n, prev)
        res = labeling(model, featvars, xs, budget)
        assert res.over_budget and budget < res.nback <= full.nback
        table = objects._LEAF_TABLES[(object_name, n)]
        assert all(table[key] == reference[key] for key in table)
        if 12 <= budget <= 14:  # cut inside that tuple's subtree
            assert (2, 2, 1, 1, 0, 2, 2, 2, 0, 4) not in table
        # a later full labeling of the same step is the memo-free search
        assert labeling(model, featvars, xs) == memo_free(model, featvars, xs) == full
        assert table == reference


def test_a_replayed_subtree_can_cut_past_the_budget_plus_one():
    """Searched, the subtree below the split is cut at its first failure
    past the budget; replayed from a warm table, its stored count is added
    at once, so the cut passes budget + 1, but never the full count."""
    object_name, n, prev = _STEP
    _cold_table(object_name, n)
    model, featvars, xs = _step_model(object_name, n, prev)
    assert labeling(model, featvars, xs, 12) == LabelResult(13, False, (), True)
    full = labeling(model, featvars, xs)  # warms the table
    assert labeling(model, featvars, xs, 12) == LabelResult(15, False, (), True)
    assert full.nback == 15 and not full.finished
