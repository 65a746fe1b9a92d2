"""Fresh models copied from the posted template of their object and size.

``ObjectScenario.fresh`` hands out copies of one model per (object, n),
built once by ``make_model`` and ``post_object``.  A copy must be that
build, and no search, post or retraction on one copy may reach another
copy or the template.
"""

from __future__ import annotations

import copy
import operator

import pytest

from boundforge import objects
from boundforge.bounds import catalog, post_bound
from boundforge.errors import InfeasibleModelError, InvalidArgumentError
from boundforge.kernel import Constraint, Model, TrailMark, labeling
from boundforge.objects import OccurrenceChannel, make_model, post_object
from boundforge.selector import (
    Counters,
    ObjectScenario,
    enumerate_all_solutions,
    run_baseline,
    run_selection,
)

from kernel_helpers import memo_free, model_state, post, sweep_slice

SIZES = sorted({(object_name, n) for object_name, n, _ in sweep_slice()})


def _state(model):
    """``model_state`` plus the trail itself and the kinds of the constraints."""
    return model_state(model) + (list(model._trail), [con.kind for con in model._constraints])


def _memo(model):
    memo = model.leaf_memo
    return (memo.featvars, memo.xs, memo.inner, memo.owned, memo.check, memo.prefixes)


def _channel_memos(model):
    return [con.memo for con in model._constraints if type(con) is OccurrenceChannel]


@pytest.mark.parametrize("object_name, n", SIZES)
def test_a_copy_is_the_model_make_model_and_post_object_build(object_name, n):
    built, bfeat, bxs = make_model(object_name, n)
    assert post_object(built, object_name, bfeat, bxs) is not None
    counters = Counters()
    model, featvars, xs = ObjectScenario(object_name, n).fresh(counters)
    other, _, _ = ObjectScenario(object_name, n).fresh(Counters())
    assert counters.by_tag == {("ctr", object_name): 1}
    assert model.model_id not in (built.model_id, other.model_id)
    assert _state(model) == _state(built)
    assert [v.id for v in featvars + xs] == [v.id for v in bfeat + bxs]
    assert {v.model_id for v in featvars + xs} == {model.model_id}
    assert _memo(model) == _memo(built)
    assert model.leaf_memo is other.leaf_memo and built.leaf_memo.table == {}


@pytest.mark.parametrize("object_name, n", [("binseq", 6), ("partition", 6)])
def test_assign_post_and_retract_on_one_copy_reach_no_other_model(object_name, n):
    scenario = ObjectScenario(object_name, n)
    a, featvars, xs = scenario.fresh(Counters())
    b, _, _ = scenario.fresh(Counters())
    before, memo = _state(b), b.leaf_memo
    assert a.assign(xs[-1].id, a.dom(xs[-1].id)[-1])
    for cand in catalog(object_name):
        assert post_bound(a, cand, featvars, n) is not None
    assert post(a, ("check", xs, lambda v: True)) is not None
    assert enumerate_all_solutions(a, featvars, xs)
    a.retract_to(TrailMark(a.model_id, 0, 0))  # below the object's own posts
    assert a.leaf_memo is None and not any(a._watchers)
    # the template is untouched: a copy taken now is the one taken before
    after, _, _ = scenario.fresh(Counters())
    assert _state(b) == _state(after) == before
    assert b.leaf_memo is after.leaf_memo is memo


@pytest.mark.parametrize("object_name, n", [("binseq", 7), ("partition", 7)])
def test_searches_on_copies_leave_every_shared_constraint_as_it_was(object_name, n):
    scenario = ObjectScenario(object_name, n)
    a, afeat, axs = scenario.fresh(Counters())
    b, bfeat, bxs = scenario.fresh(Counters())
    shared = list(b._constraints)
    assert len(a._constraints) == len(shared) and all(map(operator.is_, a._constraints, shared))
    before = [_contents(con) for con in shared]
    enumerate_all_solutions(a, afeat, axs)
    for cand in catalog(object_name):
        assert post_bound(b, cand, bfeat, n) is not None
    enumerate_all_solutions(b, bfeat, bxs)
    run_selection(scenario, catalog(object_name))
    run_baseline(scenario, catalog(object_name))
    assert [_contents(con) for con in shared] == before
    assert all(map(operator.is_, scenario.fresh(Counters())[0]._constraints, shared))


def _contents(con):
    """A deep copy of every attribute of ``con`` but the per-size cache it
    keeps by design (``OccurrenceChannel.memo``), so a list or dict that
    some run appends to shows.  A callable, such as the ground checker's
    extractor or the channel's getter, is immutable and kept as itself."""
    return {name: value if callable(value) else copy.deepcopy(value)
            for name, value in vars(con).items()
            if not (name == "memo" and isinstance(con, OccurrenceChannel))}


def test_a_failed_object_post_raises_every_time_and_is_never_kept(monkeypatch):
    objects.forget("binseq", 7)
    posts = []
    monkeypatch.setattr(objects, "post_object", lambda *args: posts.append(args))
    counters = Counters()
    for _ in range(2):
        with pytest.raises(InfeasibleModelError):
            ObjectScenario("binseq", 7).fresh(counters)
    assert counters.by_tag == {("ctr", "binseq"): 2}
    assert len(posts) == 2  # the second call posted again: no template was kept


@pytest.mark.parametrize("object_name", ["binseq", "partition"])
def test_forget_starts_the_size_cold_and_leaves_earlier_copies_their_memos(object_name):
    scenario = ObjectScenario(object_name, 6)
    old, featvars, xs = scenario.fresh(Counters())
    enumerate_all_solutions(old, featvars, xs)
    table, channels = old.leaf_memo.table, _channel_memos(old)
    assert table and len(channels) == (object_name == "partition")
    assert all(len(memo) > 1 for memo in channels)
    saved = copy.deepcopy((table, channels))
    objects.forget(object_name, 6)
    new, nfeat, nxs = scenario.fresh(Counters())
    built, bfeat, bxs = make_model(object_name, 6)
    assert post_object(built, object_name, bfeat, bxs) is not None
    assert new.leaf_memo is not old.leaf_memo and new.leaf_memo.table == {}
    # the channel runs once when the object is posted, and stores that run
    assert _channel_memos(new) == _channel_memos(built)
    assert all(len(memo) == 1 for memo in _channel_memos(new))
    enumerate_all_solutions(new, nfeat, nxs)
    assert old.leaf_memo.table is table and (table, channels) == saved
    assert labeling(old, featvars, xs) == memo_free(old, featvars, xs)


class _CopiesItsModel(Constraint):
    kind = "copies"
    shareable = True

    def propagate(self, model):
        model.copy()
        return True


def test_a_model_with_a_posted_bound_cannot_be_copied():
    """A posted bound keeps per-model state (its slot list and owner bit),
    so a copy that shared it would let one model's searches reach another."""
    model, featvars, _ = ObjectScenario("binseq", 6).fresh(Counters())
    assert post_bound(model, catalog("binseq")[0], featvars, 6) is not None
    with pytest.raises(InvalidArgumentError, match="'bound'"):
        model.copy()


def test_a_model_cannot_be_copied_while_it_propagates():
    model = Model()
    x = model.new_var(0, 1)
    for _ in range(2):  # the second is still queued when the first runs
        assert model.post_constraint(_CopiesItsModel([x.id])) is not None
    with pytest.raises(InvalidArgumentError, match="while it propagates"):
        model.assign(x.id, 1)
