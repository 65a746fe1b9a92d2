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
from boundforge.kernel import Constraint, LabelResult, TrailMark, VarRef, labeling
from boundforge.objects import feature_tuples, make_model, post_object
from boundforge.selector import Counters, ObjectScenario, enumerate_all_solutions

from kernel_helpers import memo_free, post, solve_all, sweep_slice, twin
from test_parking import _check_every_step

BINSEQ_WIDTH = len(objects.BINSEQ_FEATURES)


class _CrossCheck:
    """Stands in for ``selector.labeling``: each call is compared with the
    same call searched without the memo.  A call that keeps a path open
    leaves the model where its solution was found, so its reference runs
    on a twin of the model and path taken before the call."""

    def __init__(self):
        self.calls = self.used = 0
        self.mismatches = []

    def __call__(self, model, featvars, xs, path=None):
        memo = model.leaf_memo
        vids = [v.id for v in list(featvars) + list(xs)]
        self.used += memo is not None and memo.applies(model, vids)
        if path is None:
            res = labeling(model, featvars, xs)
            ref = memo_free(model, featvars, xs)
        else:
            other, other_path = twin(model, path)
            res = labeling(model, featvars, xs, path)
            ref = memo_free(other, featvars, xs, other_path)
        self.calls += 1
        if res != ref:
            self.mismatches.append((res, ref))
        return res


def _plain(object_name, n):
    return ObjectScenario(object_name, n).fresh(Counters())


def _table(object_name, n):
    """The leaf table of the size, read through a fresh copy."""
    return _plain(object_name, n)[0].leaf_memo.table


def _warm(object_name, n):
    """Search every feature tuple once, so the shared table holds them all."""
    model, featvars, xs = _plain(object_name, n)
    enumerate_all_solutions(model, featvars, xs, Counters())


def test_catalog_order_binseq_10_selection_equals_the_memo_free_search(monkeypatch):
    objects.forget("binseq", 10)  # start cold: misses, then hits
    check = _CrossCheck()
    monkeypatch.setattr(selector, "labeling", check)
    outcome = selector.run_selection(ObjectScenario("binseq", 10), catalog("binseq"))
    # the step memo answers the other 1 112 steps without labeling
    assert outcome.report.labelings == 1358
    assert check.calls == 246
    assert check.used == check.calls
    assert check.mismatches == []
    table = _table("binseq", 10)
    assert len(table) == 160 and set(table) <= set(feature_tuples("binseq", 10))


@pytest.mark.parametrize("engine", [selector.run_selection, selector.run_baseline])
def test_sweep_slice_equals_the_memo_free_search_on_both_engines(monkeypatch, engine):
    check = _CrossCheck()
    monkeypatch.setattr(selector, "labeling", check)
    # the slice, and one larger size so that the calls stay above 1 000 now
    # that the step memo answers more steps
    for object_name, n, cands in [*sweep_slice(), ("binseq", 9, catalog("binseq"))]:
        engine(ObjectScenario(object_name, n), cands)
    assert check.calls > 1000
    assert check.used == check.calls
    assert check.mismatches == []
    for n in range(3, 9):
        assert set(_table("binseq", n)) <= set(feature_tuples("binseq", n))
        assert set(_table("partition", n)) <= set(feature_tuples("partition", n))


def test_memo_is_attached_by_each_object_post_and_shared_per_size():
    a, _, _ = _plain("binseq", 5)
    b, _, _ = _plain("binseq", 5)
    c, _, _ = _plain("partition", 5)
    assert a.leaf_memo is not None and c.leaf_memo is not None
    assert a.leaf_memo is b.leaf_memo and a.leaf_memo.table is _table("binseq", 5)
    assert c.leaf_memo.table is _table("partition", 5) is not a.leaf_memo.table
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


def test_sequence_variable_narrowed_before_the_post_gets_its_own_memo():
    """Its table starts empty and is filled from this model's own split
    states, so the warm table of the size cannot answer it."""
    _warm("binseq", 4)
    model, featvars, xs = make_model("binseq", 4)
    assert model.assign(xs[0].id, 1)
    assert post_object(model, "binseq", featvars, xs) is not None
    assert model.leaf_memo is not None and model.leaf_memo.table == {}
    for _ in range(2):  # cold, then from its own table
        res = labeling(model, featvars, xs)
        assert res == memo_free(model, featvars, xs)
    assert res.sol == _first_solution(model, featvars, xs) == (1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0)
    # the size's witness for that feature tuple is the lex-smallest single-one sequence
    assert _table("binseq", 4)[res.sol[:BINSEQ_WIDTH]][2] == (0, 0, 0, 1)


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
    table = _table("binseq", 4)
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


class _FeatureCap(Constraint):
    """Watches one feature variable and nothing else: once it is fixed,
    caps one sequence variable by its value."""

    kind = "feature_cap"

    def __init__(self, fvid, xvid):
        super().__init__((fvid,))
        self.fvid, self.xvid = fvid, xvid

    def propagate(self, model):
        d = model.dom(self.fvid)
        return len(d) != 1 or model.prune_le(self.xvid, d[0])


@pytest.mark.parametrize("object_name, feature", [("binseq", "rangeG"), ("partition", "Mmin")])
def test_a_constraint_that_watches_only_features_keeps_the_memo(object_name, feature):
    """It never runs below the split, where every feature is fixed; what it
    prunes above the split shows in the split state.  The table it fills
    from those states must not answer a model without it."""
    objects.forget(object_name, 5)
    try:
        model, featvars, xs = _plain(object_name, 5)
        fvid = featvars[objects.FEATURES[object_name].index(feature)].id
        assert model.post_constraint(_FeatureCap(fvid, xs[-1].id)) is not None
        vids = [v.id for v in featvars + xs]
        assert model.leaf_memo.applies(model, vids)
        for _ in range(2):  # cold, then from the filled table
            assert _check_every_step(model, featvars, xs) > 2
        assert _check_every_step(*_plain(object_name, 5)) > 2
    finally:
        objects.forget(object_name, 5)


# -- the count of constraints that keep the memo off ---------------------------------


class _SequenceWatch(Constraint):
    """Watches one sequence variable and never prunes; shareable, so a
    model that has it can be copied."""

    kind = "sequence_watch"
    shareable = True

    def __init__(self, vid):
        super().__init__((vid,))

    def propagate(self, model):
        return True


def _handles(model, refs):
    """The handles of the same variables in ``model``, a copy."""
    return [VarRef(model.model_id, v.id) for v in refs]


def _uses_memo(model, featvars, xs):
    """Whether labeling the model goes through its leaf memo: such a call
    stores the subtree of its first solution in the emptied table, a call
    without it stores nothing.  The table is put back after, and the call
    must equal the memo-free one."""
    table = model.leaf_memo.table
    saved = dict(table)
    table.clear()
    try:
        res = labeling(model, featvars, xs)
        assert res == memo_free(model, featvars, xs)
        return bool(table)
    finally:
        table.clear()
        table.update(saved)


@pytest.mark.parametrize("object_name", sorted(objects.FEATURES))
def test_a_constraint_on_a_sequence_variable_keeps_the_memo_off_while_posted(object_name):
    model, featvars, xs = _plain(object_name, 4)
    assert _uses_memo(model, featvars, xs)
    mark = model.mark()
    assert model.post_constraint(_SequenceWatch(xs[-1].id)) is not None
    assert not _uses_memo(model, featvars, xs)
    copy = model.copy()
    copy_featvars, copy_xs = _handles(copy, featvars), _handles(copy, xs)
    assert not _uses_memo(copy, copy_featvars, copy_xs)
    model.retract_to(mark)
    assert _uses_memo(model, featvars, xs)
    assert not _uses_memo(copy, copy_featvars, copy_xs)  # the copy keeps its own
    copy.retract_to(TrailMark(copy.model_id, mark.trail_len, mark.ncons))
    assert _uses_memo(copy, copy_featvars, copy_xs)


@pytest.mark.parametrize("object_name", sorted(objects.FEATURES))
def test_a_constraint_on_a_sequence_variable_posted_before_the_object_keeps_the_memo_off(
        object_name):
    model, featvars, xs = make_model(object_name, 4)
    assert model.post_constraint(_SequenceWatch(xs[0].id)) is not None
    assert post_object(model, object_name, featvars, xs) is not None
    assert model.leaf_memo is not None
    assert not _uses_memo(model, featvars, xs)
    copy = model.copy()
    assert not _uses_memo(copy, _handles(copy, featvars), _handles(copy, xs))
    model, featvars, xs = make_model(object_name, 4)  # the same without it
    assert post_object(model, object_name, featvars, xs) is not None
    assert _uses_memo(model, featvars, xs)
