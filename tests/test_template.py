"""Fresh models copied from the posted template of their object and size.

``ObjectScenario.fresh`` hands out copies of one model per (object, n),
built once by ``make_model`` and ``post_object``.  A copy must be that
build, and no search, post or retraction on one copy may reach another
copy or the template.
"""

from __future__ import annotations

import pytest

from boundforge import objects
from boundforge.bounds import catalog, post_bound
from boundforge.errors import InfeasibleModelError, InvalidArgumentError
from boundforge.kernel import Constraint, Model, TrailMark
from boundforge.objects import make_model, post_object
from boundforge.selector import (
    Counters,
    ObjectScenario,
    enumerate_all_solutions,
    run_baseline,
    run_selection,
)

from kernel_helpers import model_state, post, sweep_slice

SIZES = sorted({(object_name, n) for object_name, n, _ in sweep_slice()})


def _state(model):
    """``model_state`` plus the trail itself and the kinds of the constraints."""
    return model_state(model) + (list(model._trail), [con.kind for con in model._constraints])


def _memo(model):
    memo = model.leaf_memo
    return (memo.featvars, memo.xs, memo.inner, memo.owned, memo.check, memo.prefixes)


def _template(object_name, n):
    ObjectScenario(object_name, n).fresh(Counters())
    return objects._TEMPLATES[(object_name, n)][0]


@pytest.mark.parametrize("object_name, n", SIZES)
def test_a_copy_is_the_model_make_model_and_post_object_build(object_name, n):
    built, bfeat, bxs = make_model(object_name, n)
    assert post_object(built, object_name, bfeat, bxs) is not None
    counters = Counters()
    copy, featvars, xs = ObjectScenario(object_name, n).fresh(counters)
    assert counters.by_tag == {("ctr", object_name): 1}
    assert copy.model_id not in (built.model_id, _template(object_name, n).model_id)
    assert _state(copy) == _state(built)
    assert [v.id for v in featvars + xs] == [v.id for v in bfeat + bxs]
    assert {v.model_id for v in featvars + xs} == {copy.model_id}
    assert _memo(copy) == _memo(built)
    assert copy.leaf_memo.table is objects._LEAF_TABLES[(object_name, n)]


@pytest.mark.parametrize("object_name, n", [("binseq", 6), ("partition", 6)])
def test_assign_post_and_retract_on_one_copy_reach_no_other_model(object_name, n):
    scenario = ObjectScenario(object_name, n)
    a, featvars, xs = scenario.fresh(Counters())
    b, _, _ = scenario.fresh(Counters())
    template = _template(object_name, n)
    others = [b, template]
    before = [_state(m) for m in others]
    memos = [m.leaf_memo for m in others]
    assert a.assign(xs[-1].id, a.dom(xs[-1].id)[-1])
    for cand in catalog(object_name):
        assert post_bound(a, cand, featvars, n) is not None
    assert post(a, ("check", xs, lambda v: True)) is not None
    assert enumerate_all_solutions(a, featvars, xs)
    a.retract_to(TrailMark(a.model_id, 0, 0))  # below the object's own posts
    assert a.leaf_memo is None and not any(a._watchers)
    assert [_state(m) for m in others] == before
    assert [m.leaf_memo for m in others] == memos


@pytest.mark.parametrize("object_name, n", [("binseq", 7), ("partition", 7)])
def test_searches_on_copies_leave_every_shared_constraint_as_it_was(object_name, n):
    scenario = ObjectScenario(object_name, n)
    a, afeat, axs = scenario.fresh(Counters())
    b, bfeat, bxs = scenario.fresh(Counters())
    shared = _template(object_name, n)._constraints
    assert all(x is y is z for x, y, z in zip(a._constraints, b._constraints, shared))
    before = [dict(vars(con)) for con in shared]
    enumerate_all_solutions(a, afeat, axs)
    for cand in catalog(object_name):
        assert post_bound(b, cand, bfeat, n) is not None
    enumerate_all_solutions(b, bfeat, bxs)
    run_selection(scenario, catalog(object_name))
    run_baseline(scenario, catalog(object_name))
    assert [dict(vars(con)) for con in shared] == before


def test_a_failed_object_post_raises_every_time_and_is_never_kept(monkeypatch):
    key = ("binseq", 7)
    monkeypatch.delitem(objects._TEMPLATES, key, raising=False)
    monkeypatch.setattr(objects, "post_object", lambda *args: None)
    counters = Counters()
    for _ in range(2):
        with pytest.raises(InfeasibleModelError):
            ObjectScenario(*key).fresh(counters)
    assert counters.by_tag == {("ctr", "binseq"): 2}
    assert key not in objects._TEMPLATES


class _CopiesItsModel(Constraint):
    kind = "copies"

    def propagate(self, model):
        model.copy()
        return True


def test_a_model_cannot_be_copied_while_it_propagates():
    model = Model()
    x = model.new_var(0, 1)
    for _ in range(2):  # the second is still queued when the first runs
        assert model.post_constraint(_CopiesItsModel([x.id])) is not None
    with pytest.raises(InvalidArgumentError, match="while it propagates"):
        model.assign(x.id, 1)
