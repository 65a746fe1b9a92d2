"""The step memo: a drain step answered from an earlier search of the same
transition.

Both selection engines share the memo, so the incremental/baseline
comparison cannot see a memo fault.  The guards here compare every step
with a real search of the same model state, and whole selections with a
memo-free run.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundforge import selector
from boundforge.bounds import BoundCandidate, by_id, catalog, decoy, post_bound, posted_bounds
from boundforge.errors import CatalogSoundnessError
from boundforge.objects import FEATURES, feature_tuples
from boundforge.selector import Counters, ObjectScenario, StepMemo

from kernel_helpers import sweep_slice
from test_metamorphic import _tightened

_search = selector._search


def _without_step_memo(mp):
    mp.setattr(StepMemo, "step", lambda memo, model, featvars, xs, prev, expected=None: _search(
        model, featvars, xs, prev))


def _observables(outcome):
    return (
        outcome.report.selected,
        outcome.report.posts,
        outcome.report.labelings,
        outcome.records,
        outcome.counters.by_tag,
    )


class _CrossCheck:
    """Stands in for ``StepMemo.step``: every step, answered or searched, is
    compared with a real search of the same model state."""

    def __init__(self, mp):
        self.steps = self.searched = 0
        self.mismatches = []
        step = StepMemo.step

        def counted(model, featvars, xs, prev):
            self.searched += 1
            return _search(model, featvars, xs, prev)

        def checked(memo, model, featvars, xs, prev, expected=None):
            state = model.snapshot()
            res = step(memo, model, featvars, xs, prev, expected)
            assert model.snapshot() == state
            ref = _search(model, featvars, xs, prev)
            self.steps += 1
            if res != ref:
                self.mismatches.append((prev, expected, res, ref))
            return res

        mp.setattr(selector, "_search", counted)
        mp.setattr(StepMemo, "step", checked)

    @property
    def answered(self):
        return self.steps - self.searched


def test_catalog_order_binseq_10_selection_equals_a_real_search_at_every_step(monkeypatch):
    check = _CrossCheck(monkeypatch)
    outcome = selector.run_selection(ObjectScenario("binseq", 10), catalog("binseq"))
    assert outcome.report.labelings == 1358
    assert check.mismatches == []
    # 1 358 steps label and 8 end at a failed lex post; the searched 469
    # are 467 labelings and 2 failed lex posts, and the other 897 are answered
    assert (check.steps, check.searched) == (1366, 469)


@pytest.mark.parametrize("engine", [selector.run_selection, selector.run_baseline])
def test_sweep_slice_equals_a_real_search_at_every_step_on_both_engines(monkeypatch, engine):
    check = _CrossCheck(monkeypatch)
    for object_name, n, cands in sweep_slice():
        engine(ObjectScenario(object_name, n), cands)
    assert check.mismatches == []
    assert check.answered > 500 and check.searched > 500


def _partial(object_name, n):
    """Vacuous where its one guard matches, and an unmatched guard (so a
    failure) on the upper half of the first feature: it acts only by failing."""
    first, target = FEATURES[object_name][0], FEATURES[object_name][-1]
    rhs = ("cases", (("<=", first, max(n // 2, 1)), n * n))
    return BoundCandidate("PARTIAL", object_name, target, "upper", rhs)


def _root(object_name):
    """Reads no feature, so it prunes only when posted, before any step."""
    return BoundCandidate("ROOT", object_name, FEATURES[object_name][-2], "upper", 0)


def _candidate_lists(object_name, n):
    """Lists with repeats over the catalog, PARTIAL, ROOT and the decoys.
    A repeated catalog bound is the same object; a decoy is built at each
    draw, so its repeats are equal but distinct objects."""
    fixed = catalog(object_name) + [_partial(object_name, n), _root(object_name)]
    makers = [lambda c=c: c for c in fixed]
    makers += [lambda f=f: decoy(object_name, f, n) for f in FEATURES[object_name]]
    return st.lists(st.sampled_from(makers), max_size=12).map(lambda ms: [m() for m in ms])


@st.composite
def _scenarios(draw):
    object_name = draw(st.sampled_from(sorted(FEATURES)))
    n = draw(st.integers(1, 7))
    return object_name, n, draw(_candidate_lists(object_name, n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_scenarios(), st.sampled_from(["run_selection", "run_baseline"]))
def test_selection_equals_the_memo_free_run(scenario, engine):
    object_name, n, cands = scenario
    run = getattr(selector, engine)

    def outcome():
        try:
            return _observables(run(ObjectScenario(object_name, n), cands))
        except CatalogSoundnessError as exc:  # PARTIAL can fail when posted
            return str(exc)

    got = outcome()
    with pytest.MonkeyPatch.context() as mp:
        _without_step_memo(mp)
        assert outcome() == got


@pytest.mark.parametrize("engine", [selector.run_selection, selector.run_baseline])
@pytest.mark.parametrize("first", [True, False])
def test_a_bound_that_prunes_only_when_posted_is_selected(monkeypatch, engine, first):
    """ROOT reads no feature, so it acts only at its post, before any step;
    the steps without it start from wider domains and must be searched."""
    root = BoundCandidate("ROOT", "binseq", "rangeG", "upper", 0)
    cands = [root] + catalog("binseq") if first else catalog("binseq") + [root]
    got = engine(ObjectScenario("binseq", 2), cands)
    assert "ROOT" in got.report.selected
    _without_step_memo(monkeypatch)
    assert _observables(got) == _observables(engine(ObjectScenario("binseq", 2), cands))


def _posted(object_name, n, cand):
    model, featvars, xs = ObjectScenario(object_name, n).fresh(Counters())
    assert post_bound(model, cand, featvars, n) is not None
    (con,) = posted_bounds(model)
    return model, featvars, con


def test_acted_counts_only_prunings_and_failures():
    model, featvars, con = _posted("binseq", 4, catalog("binseq")[1])  # B-GMAX-LB
    assert con.acted == 0
    n1, gmax = featvars[0].id, featvars[3].id
    mark = model.mark()
    assert model.assign(gmax, 4) and con.acted == 0  # its input N1 is still open
    assert model.assign(n1, 4) and con.acted == 0  # Gmax = 4 >= 4 // 1: nothing to prune
    model.retract_to(mark)
    assert model.assign(n1, 4) and con.acted == 1  # prunes Gmax to >= 4
    assert model.domain(featvars[3]) == (4,)
    model.retract_to(mark)
    assert model.assign(gmax, 1) and not model.assign(n1, 4)
    assert con.acted == 2  # the same pruning empties Gmax


def test_an_unmatched_guard_counts_as_acting():
    unmatched = BoundCandidate(
        "NOMATCH", "binseq", "GS", "upper", ("cases", (("==", "G", 7), 0)))
    model, featvars, con = _posted("binseq", 4, unmatched)
    assert not model.assign(featvars[1].id, 1)
    assert con.acted == 1


# -- the equal-outcome rule and its gate ------------------------------------------


def _gate_of(object_name, n, cands, engine=selector.run_selection):
    """Whether the run's step memo had the equal-outcome rule on."""
    made = []

    class Recorded(StepMemo):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selector, "StepMemo", Recorded)
        engine(ObjectScenario(object_name, n), cands)
    (memo,) = made
    return memo.sound


class _Ungated(StepMemo):
    """The equal-outcome rule on whatever the compute phase found."""

    sound = property(lambda self: True, lambda self, value: None)


def _unsound_mix():
    """Four tightened bounds, ROOT, and two sound ones: binseq n=7 keeps
    only 7 of its 39 feasible tuples under them."""
    tight = [_tightened(by_id(i)) for i in ("B-DS-UB2", "B-DMIN-UB", "B-DS-LB2", "B-GS-UB3")]
    return tight + [_root("binseq"), by_id("B-DS-LB2"), by_id("B-GS-UB2")]


@pytest.mark.parametrize("engine", [selector.run_selection, selector.run_baseline])
def test_an_unsound_candidate_list_keeps_the_equal_outcome_rule_off(engine):
    """With a candidate that removes a feasible tuple, more bounds can lower
    a count below the stored one, so a step must not be answered from a
    search under fewer bounds: on here, the rule changes ``labelings``."""
    scenario, cands = ObjectScenario("binseq", 7), _unsound_mix()
    got = engine(scenario, cands)
    assert sum(1 for r in got.records if r.sol) == 7
    assert len(feature_tuples("binseq", 7)) == 39
    assert not _gate_of("binseq", 7, cands, engine)
    with pytest.MonkeyPatch.context() as mp:
        _without_step_memo(mp)
        assert _observables(engine(scenario, cands)) == _observables(got)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selector, "StepMemo", _Ungated)
        ungated = engine(scenario, cands)
    assert ungated.report.labelings != got.report.labelings


@pytest.mark.parametrize("object_name", sorted(FEATURES))
@pytest.mark.parametrize("extra, on", [
    ([], True),
    (["decoys"], True),
    (["PARTIAL"], False),
    (["ROOT"], False),
])
def test_the_gate_is_on_exactly_when_every_feasible_tuple_is_found(object_name, extra, on):
    n = 7
    cands = list(catalog(object_name))
    for name in extra:
        if name == "decoys":
            cands += [decoy(object_name, f, n) for f in FEATURES[object_name]]
        else:
            cands.append(_partial(object_name, n) if name == "PARTIAL" else _root(object_name))
    assert _gate_of(object_name, n, cands) is on


@st.composite
def _nested_sound_lists(draw):
    """An object, an n <= 6, and sound lists S within T (catalog and decoys)."""
    object_name = draw(st.sampled_from(sorted(FEATURES)))
    n = draw(st.integers(1, 6))
    pool = catalog(object_name) + [decoy(object_name, f, n) for f in FEATURES[object_name]]
    big = [c for c, keep in zip(pool, draw(st.lists(st.booleans(), min_size=len(pool),
                                                    max_size=len(pool)))) if keep]
    small = [c for c, keep in zip(big, draw(st.lists(st.booleans(), min_size=len(big),
                                                     max_size=len(big)))) if keep]
    return object_name, n, small, big


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_nested_sound_lists())
def test_more_sound_bounds_never_raise_a_step_count_nor_move_its_solution(lists):
    """The premise of the equal-outcome rule: from the same solution, the
    count under S is at least the count under T, and the next
    solution (features and witness) is the same."""
    object_name, n, small, big = lists
    models = []
    for cands in (small, big):
        model, featvars, xs = ObjectScenario(object_name, n).fresh(Counters())
        for cand in cands:
            assert post_bound(model, cand, featvars, n) is not None
        models.append((model, featvars, xs))
    width = len(FEATURES[object_name])
    prev = None
    while True:
        outcomes = []
        for model, featvars, xs in models:
            res = _search(model, featvars, xs, prev)
            outcomes.append((0, ()) if res is None else (res.nback, res.sol))
        (count_small, sol_small), (count_big, sol_big) = outcomes
        assert count_small >= count_big and sol_small == sol_big
        if not sol_big:
            return
        prev = sol_big[:width]
