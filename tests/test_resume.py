"""Steps that resume from the path of the search before them.

Every chained step climbs the last search's path instead of posting the
lex jump at the root and descending prev's prefix again.  The records must
be the paper's, those of the plain restart (``kernel_helpers``); the step
loops must leave the model as they found it on every way out.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundforge import objects, selector
from boundforge.bounds import catalog, decoy, post_bound
from boundforge.kernel import Constraint, SumEq, post_lex_greater
from boundforge.resume import Path
from boundforge.objects import FEATURES
from boundforge.selector import Counters, ObjectScenario, StepMemo, enumerate_all_solutions

from kernel_helpers import LeVars, model_state, post, restart_enumeration


def _draw(object_name, n, rng):
    """A random candidate list with repeats: catalog bounds and decoys, a
    decoy built at each draw."""
    cat = catalog(object_name)
    cands = []
    for _ in range(rng.randint(0, 14)):
        if rng.random() < 0.75:
            cands.append(rng.choice(cat))
        else:
            cands.append(decoy(object_name, rng.choice(FEATURES[object_name]), n))
    return cands


@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("object_name", sorted(FEATURES))
def test_every_record_equals_the_plain_restart(object_name, n, cold):
    """The library's enumeration, with and without a step memo, against
    the restart that posts each jump at the root: same records, same
    counts.  Cold, the leaf table of the size starts empty.  Each list is
    also enumerated with a do-nothing check on the first sequence variable
    posted, which turns the leaf memo off, so that no search tests a
    feature prefix itself and the object's prefix check does it all."""
    rng = random.Random(f"{object_name}{n}{cold}")
    for _ in range(4):
        cands = _draw(object_name, n, rng)
        if cold:
            objects.forget(object_name, n)
        model, featvars, xs = ObjectScenario(object_name, n).fresh(Counters())
        for cand in cands:
            assert post_bound(model, cand, featvars, n) is not None
        memo = StepMemo(cands)
        got = enumerate_all_solutions(model, featvars, xs, Counters(), memo)
        assert got == restart_enumeration(model, featvars, xs)
        assert enumerate_all_solutions(model, featvars, xs) == got
        assert post(model, ("check", [xs[0]], lambda vals: True)) is not None
        assert enumerate_all_solutions(model, featvars, xs) == got


def _ids(featvars, object_name, *names):
    return [featvars[FEATURES[object_name].index(name)].id for name in names]


def test_the_jump_is_posted_where_an_object_propagator_watches_the_feature():
    """N1 is watched by the sum of the bits and P by the occurrence channel,
    so the climb posts the jump there; every other feature is read only by
    the prefix check, the ground checker's pins and the posted bounds,
    which act only once their inputs are fixed.  A foreign constraint that
    can act on open features widens the set by the features it watches."""
    for object_name, watched in (("binseq", {"N1"}), ("partition", {"P"})):
        model, featvars, _ = ObjectScenario(object_name, 4).fresh(Counters())
        assert Path(model).watched == tuple(f in watched for f in FEATURES[object_name])
        for cand in catalog(object_name):
            assert post_bound(model, cand, featvars, 4) is not None
        assert Path(model).watched == tuple(f in watched for f in FEATURES[object_name])
    model, featvars, _ = ObjectScenario("binseq", 7).fresh(Counters())
    range_d, ds, gs = _ids(featvars, "binseq", "rangeD", "DS", "GS")
    assert model.post_constraint(SumEq((range_d, ds), gs)) is not None
    widened = {"N1", "rangeD", "DS", "GS"}
    assert Path(model).watched == tuple(f in widened for f in FEATURES["binseq"])


def test_a_foreign_sum_over_three_features_keeps_the_restarts_count():
    """rangeD + DS = GS at binseq n=7 acts on open features the object's
    propagators do not watch; a climb that did not post the jump there
    gave 682 for the final record."""
    model, featvars, xs = ObjectScenario("binseq", 7).fresh(Counters())
    range_d, ds, gs = _ids(featvars, "binseq", "rangeD", "DS", "GS")
    assert model.post_constraint(SumEq((range_d, ds), gs)) is not None
    expected = restart_enumeration(model, featvars, xs)
    assert expected[-1].nback == 681
    assert enumerate_all_solutions(model, featvars, xs) == expected


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(data=st.data(), object_name=st.sampled_from(sorted(FEATURES)))
def test_foreign_feature_constraints_keep_every_record_the_restarts(data, object_name):
    """Random catalog subsets with random sums, lex jumps and x <= y over
    the features posted too: the library's enumeration, with and without a
    step memo, gives the plain restart's records."""
    n = data.draw(st.integers(4, 7) if object_name == "binseq" else st.integers(5, 8))
    cands = data.draw(st.lists(st.sampled_from(catalog(object_name)), max_size=6))
    model, featvars, xs = ObjectScenario(object_name, n).fresh(Counters())
    for cand in cands:
        assert post_bound(model, cand, featvars, n) is not None
    width = len(featvars)
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(["sum", "lex", "le"]))
        picked = data.draw(st.permutations(range(width)))
        ids = [featvars[i].id for i in picked]
        if kind == "sum":
            model.post_constraint(SumEq(ids[:2], ids[2]))
        elif kind == "le":
            model.post_constraint(LeVars(ids[0], ids[1]))
        else:
            size = data.draw(st.integers(1, 3))
            tup = [data.draw(st.sampled_from(model.dom(vid))) for vid in ids[:size]]
            post_lex_greater(model, [featvars[i] for i in picked[:size]], tup)
    expected = restart_enumeration(model, featvars, xs)
    assert enumerate_all_solutions(model, featvars, xs) == expected
    memo = StepMemo(cands)
    assert enumerate_all_solutions(model, featvars, xs, Counters(), memo) == expected


@pytest.mark.parametrize("object_name, n, order", [
    ("binseq", 3, "reversed"), ("partition", 4, "reversed"),
    ("binseq", 4, "prefix"), ("partition", 5, "prefix")])
def test_a_feature_list_other_than_the_memos_gives_the_restarts_records(object_name, n, order):
    """An enumeration over the features reversed, or over the first two,
    is not chained: every step restarts, and its records are the plain
    restart's."""
    model, featvars, xs = ObjectScenario(object_name, n).fresh(Counters())
    featvars = featvars[::-1] if order == "reversed" else featvars[:2]
    expected = restart_enumeration(model, featvars, xs)
    assert len(expected) > 2
    assert enumerate_all_solutions(model, featvars, xs) == expected


# -- the loops leave the model as they found it ---------------------------------


def _posted_model(cands, n=6):
    model, featvars, xs = ObjectScenario("binseq", n).fresh(Counters())
    for cand in cands:
        assert post_bound(model, cand, featvars, n) is not None
    return model, featvars, xs


def test_the_enumeration_leaves_the_model_as_it_found_it():
    cands = catalog("binseq")
    model, featvars, xs = _posted_model(cands)
    before = model_state(model)
    memo = StepMemo(cands)
    records = enumerate_all_solutions(model, featvars, xs, Counters(), memo)
    assert len(records) > 20 and model_state(model) == before


def test_a_drain_that_returns_at_a_mismatch_leaves_the_model_as_it_found_it():
    """The catalog's records in solution order, drained without B-GS-LB1:
    the 16th transition degrades, and the drain returns there."""
    cands = catalog("binseq")
    model, featvars, xs = _posted_model(cands)
    records = enumerate_all_solutions(model, featvars, xs)
    drain = [r for r in records if r.sol]
    by_isol = {r.isol: r for r in records}
    model, featvars, xs = _posted_model([c for c in cands if c.id != "B-GS-LB1"])
    memo = StepMemo(cands)
    before = model_state(model)
    remaining = selector._drain(model, featvars, xs, drain, by_isol, Counters(), memo)
    assert remaining == drain[15:]
    assert model_state(model) == before


class _RaisesOn(Constraint):
    """Raises once its feature is fixed to ``value``: a propagator that
    fails mid-loop, after earlier steps left a path open."""

    kind = "raises_on"
    shareable = True

    def __init__(self, vid, value):
        super().__init__((vid,))
        self.vid, self.value = vid, value

    def propagate(self, model):
        if model.dom(self.vid) == (self.value,):
            raise RuntimeError("raised mid-loop")
        return True


def test_a_propagator_that_raises_mid_loop_leaves_the_model_as_it_found_it():
    cands = catalog("binseq")
    model, featvars, xs = _posted_model(cands)
    assert model.post_constraint(_RaisesOn(featvars[0].id, 4)) is not None  # N1 = 4
    before = model_state(model)
    memo = StepMemo(cands)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        step = StepMemo.step
        mp.setattr(StepMemo, "step", lambda memo, model, *args: seen.append(
            model.mark()) or step(memo, model, *args))
        with pytest.raises(RuntimeError, match="raised mid-loop"):
            enumerate_all_solutions(model, featvars, xs, Counters(), memo)
    assert len(set(seen)) > 2  # the path was open at some steps
    assert model_state(model) == before
