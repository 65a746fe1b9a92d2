"""The parked prefix check: on the leaf-memo path labeling holds the
object's prefix check out of the queue for the whole search.

Every labeling must equal the memo-free search (which parks nothing), and
must leave every queue flag clear.
"""

from __future__ import annotations

import random

import pytest

from boundforge.bounds import catalog, decoy, post_bound
from boundforge.kernel import Constraint, Model, labeling, post_lex_greater
from boundforge.objects import FEATURES
from boundforge.selector import Counters, ObjectScenario

from kernel_helpers import memo_free, model_state, post
from test_metamorphic import _tightened


def _fresh(object_name, n):
    return ObjectScenario(object_name, n).fresh(Counters())


def _idle(model) -> bool:
    """No constraint queued and no queue flag held."""
    return not model._queue and not any(model._inq)


def _posted_model(object_name, n, rng):
    """A fresh model with a random draw of catalog, decoy and tightened
    bounds posted; a tightened bound whose post fails is left out."""
    cat = catalog(object_name)
    pool = cat + [decoy(object_name, f, n) for f in FEATURES[object_name]]
    pool += [_tightened(b) for b in cat]
    model, featvars, xs = _fresh(object_name, n)
    for cand in rng.sample(pool, rng.randint(0, len(pool))):
        post_bound(model, cand, featvars, n)
    return model, featvars, xs


def _check_every_step(model, featvars, xs) -> int:
    """Label each step of the full enumeration: every one equals its
    memo-free search and leaves the model idle and as it was.  Returns the
    number of steps."""
    steps, prev = 0, None
    while True:
        mark = model.mark()
        jump = None if prev is None else post_lex_greater(model, featvars, prev)
        if prev is not None and jump is None:
            return steps
        state = model_state(model)
        got = labeling(model, featvars, xs)
        assert _idle(model) and model_state(model) == state
        assert got == memo_free(model, featvars, xs)
        steps += 1
        model.retract_to(mark)
        if got.finished:
            return steps
        prev = got.sol[: len(featvars)]


@pytest.mark.parametrize("object_name", sorted(FEATURES))
@pytest.mark.parametrize("n", range(1, 8))
def test_parking_changes_no_step_of_the_full_enumeration(object_name, n):
    rng = random.Random(f"{object_name}:{n}")
    steps = 0
    for _ in range(8):
        model, featvars, xs = _posted_model(object_name, n, rng)
        assert model.leaf_memo is not None
        steps += _check_every_step(model, featvars, xs)
    assert steps >= 8


def test_a_jump_that_fixes_the_last_feature_onto_an_infeasible_prefix():
    """binseq n=3, the step out of (1,1,1,1,0,1,0,0,0,0): deciding rangeD=0
    on a prefix equal to the jump's makes the jump fix DS=1, and no feasible
    tuple starts (1,1,1,1,0,1,0,0,0,1).  The decided prefix is feasible, so
    with the check parked the trial succeeds, and the search counts its one
    failure at DS, whose only value fails the prefix test."""
    model, featvars, xs = _fresh("binseq", 3)
    prev = (1, 1, 1, 1, 0, 1, 0, 0, 0, 0)
    assert post_lex_greater(model, featvars, prev) is not None
    memo = model.leaf_memo
    assert prev[:9] in memo.prefixes[9] and prev[:9] + (1,) not in memo.prefixes[10]
    mark = model.mark()
    for var, val in zip(featvars[:8], prev):
        assert model.assign(var.id, val)
    inq = model._inq
    inq[memo.check] = True  # parked, as labeling parks it
    assert model.assign(featvars[8].id, 0)
    assert model.domain(featvars[9]) == (1,)
    inq[memo.check] = False
    model.retract_to(mark)
    for var, val in zip(featvars[:8], prev):
        assert model.assign(var.id, val)
    assert not model.assign(featvars[8].id, 0)  # the check, not parked, fails it
    model.retract_to(mark)
    got = labeling(model, featvars, xs)
    assert got == memo_free(model, featvars, xs)
    assert _idle(model)


class _Boom(Constraint):
    """Raises once its feature is fixed to ``val``; it watches only that
    feature variable, so the leaf memo still applies."""

    kind = "boom"
    shareable = True

    def __init__(self, vid, val):
        super().__init__((vid,))
        self.vid, self.val = vid, val

    def propagate(self, model):
        if model.dom(self.vid) == (self.val,):
            raise RuntimeError("boom")
        return True


def test_a_propagator_that_raises_leaves_no_flag_held_and_the_model_restored():
    """The prefix check is parked when the propagator raises, at the
    decision N1=1."""
    model, featvars, xs = _fresh("binseq", 4)
    first = labeling(model, featvars, xs)
    assert first.sol[0] == 0
    assert post_lex_greater(model, featvars, first.sol[: len(featvars)]) is not None
    assert model.post_constraint(_Boom(featvars[0].id, 1)) is not None
    state, trail = model.snapshot(), len(model._trail)
    with pytest.raises(RuntimeError):
        labeling(model, featvars, xs)
    assert _idle(model) and model.snapshot() == state and len(model._trail) == trail


class _IdempotentBoom(_Boom):
    """A :class:`_Boom` whose flag stays set while it runs; counts its runs."""

    idempotent = True

    def __init__(self, vid, val):
        super().__init__(vid, val)
        self.runs = 0

    def propagate(self, model):
        self.runs += 1
        return super().propagate(model)


def test_an_idempotent_propagator_that_raises_is_woken_again():
    """Its flag is cleared when it raises, so the raising post rolls the
    model back exactly and a later fix of its variable wakes it again."""
    model = Model()
    x = model.new_var(0, 1)
    boom = _IdempotentBoom(x.id, 1)
    assert model.post_constraint(boom) is not None and boom.runs == 1
    state = model_state(model)
    with pytest.raises(RuntimeError):
        post(model, ("ge_const", x, 1))  # fixes x to 1, which wakes boom
    assert boom.runs == 2
    assert model_state(model) == state
    with pytest.raises(RuntimeError):
        model.assign(x.id, 1)
    assert boom.runs == 3
