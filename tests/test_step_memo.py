"""The step memo: a drain step answered from an earlier search of the same
transition.

Both selection engines share the memo, so the incremental/baseline
comparison cannot see a memo fault.  The guards here compare every step
with a real search of the same model state, and whole selections with a
memo-free run.
"""

from __future__ import annotations


import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundforge import oracle, selector
from boundforge.bounds import BoundCandidate, by_id, catalog, decoy, post_bound, posted_bounds
from boundforge.errors import CatalogError, CatalogSoundnessError, InternalInvariantError
from boundforge.expr import NoCaseMatched
from boundforge.kernel import Constraint, Model, labeling, post_lex_greater
from boundforge.objects import FEATURES, canonical_tuples, feature_tuples
from boundforge.selector import Counters, ObjectScenario, StepMemo, enumerate_all_solutions

from kernel_helpers import model_state, post, sweep_slice
from test_expr import _OPERATORS, _node
from test_metamorphic import _tightened

_search = selector._search


def _without_step_memo(mp):
    mp.setattr(StepMemo, "step", lambda memo, model, featvars, xs, prev, loop, expected=None:
               _search(model, featvars, xs, prev))


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
    compared with a real search of the same model state, and the state its
    loop took once is checked to be that state."""

    def __init__(self, mp):
        self.steps = self.searched = 0
        self.mismatches = []
        step = StepMemo.step

        def counted(model, featvars, xs, prev):
            self.searched += 1
            return _search(model, featvars, xs, prev)

        def checked(memo, model, featvars, xs, prev, loop, expected=None):
            state = model.snapshot()
            assert loop.state == state and loop.mark == model.mark()
            posted = 0
            for con in posted_bounds(model):
                assert con.bit == memo.bit[id(con.bound)]
                posted |= con.bit
            assert loop.posted == posted
            assert not any(model._lo_owners) and not any(model._hi_owners)
            res = step(memo, model, featvars, xs, prev, loop, expected)
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
    # 1 358 steps label and 8 end at a failed lex post; the searched 253
    # are 251 labelings and 2 failed lex posts, and the other 1 113 are answered
    assert (check.steps, check.searched) == (1366, 253)


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


def _posted(object_name, n, cand, bit=1):
    """A fresh model with ``cand`` posted under owner bit ``bit``, and no
    clause recorded yet."""
    model, featvars, xs = ObjectScenario(object_name, n).fresh(Counters())
    assert post_bound(model, cand, featvars, n) is not None
    (con,) = posted_bounds(model)
    con.bit = bit
    model.clauses.clear()
    return model, featvars, con


def test_a_pruning_that_nothing_reads_leaves_no_clause():
    model, featvars, con = _posted("binseq", 8, by_id("B-GMAX-LB"))
    n1, gmax = featvars[0].id, featvars[3].id
    assert model.assign(n1, 4)  # Gmax >= 8 // (8 - 4 + 1): 0..8 becomes 1..8
    assert model.dom(gmax) == tuple(range(1, 9))
    assert model._lo_owners[gmax] == 1 and model._hi_owners[gmax] == 0
    assert model.clauses == set()
    model.read(gmax)  # as labeling Gmax would read its lower end
    assert model.clauses == {1}


def test_an_unmatched_guard_leaves_its_own_bit():
    unmatched = BoundCandidate(
        "NOMATCH", "binseq", "GS", "upper", ("cases", (("==", "G", 7), 0)))
    model, featvars, con = _posted("binseq", 4, unmatched, bit=4)
    assert not model.assign(featvars[1].id, 1)
    assert model.clauses == {4}


def test_a_tight_later_bound_joins_the_owners_so_a_step_stays_answered_without_the_first(
        monkeypatch):
    """Two bounds with B-DS-UB1's rhs wake together; the first prunes DS
    and the later one, finding DS's upper end equal to its rhs, joins its
    owners.  So most steps searched under both are answered under the
    later one alone, and each answer is a real search's."""
    rhs = by_id("B-DS-UB1").rhs
    first, later = (BoundCandidate(name, "binseq", "DS", "upper", rhs)
                    for name in ("FIRST", "LATER"))
    memo = StepMemo([first, later], canonical_tuples("binseq", 6))
    searched, counts = [], []
    monkeypatch.setattr(selector, "_search", lambda *args: searched.append(args) or _search(*args))
    for cands in ([first, later], [later]):
        model, featvars, xs = ObjectScenario("binseq", 6).fresh(Counters())
        for cand in cands:
            assert post_bound(model, cand, featvars, 6) is not None
        searched.clear()
        records = enumerate_all_solutions(model, featvars, xs, Counters(), memo)
        counts.append(len(searched))
        assert records == enumerate_all_solutions(model, featvars, xs, Counters())
    assert len(records) == 24 and counts == [24, 5]
    # only the steps where FIRST fixed DS, before LATER ran, are searched again
    clauses = [clauses for stored in memo.steps.values() for _, clauses, _, _ in stored]
    assert sum(0b01 in step for step in clauses) == 5
    assert any(0b11 in step for step in clauses)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_scenarios(), st.data())
def test_a_search_under_bounds_that_meet_every_clause_equals_the_stored_one(scenario, data):
    """The clause rule below the selector: every step of an enumeration
    under P is searched again under a Q within P that meets each clause the
    step recorded, from the same start state, with the same outcome."""
    object_name, n, cands = scenario

    def posted(chosen):
        model, featvars, xs = ObjectScenario(object_name, n).fresh(Counters())
        for cand in chosen:
            if post_bound(model, cand, featvars, n) is None:
                return None
        return model, featvars, xs

    built = posted(cands)
    assume(built is not None)  # PARTIAL can fail when posted
    model, featvars, xs = built
    memo = StepMemo(cands, canonical_tuples(object_name, n))
    start = memo.loop(model).state
    steps, prev = [], None
    width = len(FEATURES[object_name])
    while True:
        model.clauses.clear()
        res = _search(model, featvars, xs, prev)
        steps.append((prev, tuple(model.clauses), res))
        if res is None or res.finished:
            break
        prev = res.sol[:width]
    bits = sorted({memo.bit[id(c)] for c in cands})
    for prev, clauses, res in steps:
        keep = {b for b in bits if data.draw(st.booleans())}
        for clause in clauses:
            if not any(b in keep for b in bits if b & clause):
                keep.add(data.draw(st.sampled_from([b for b in bits if b & clause])))
        built = posted([c for c in cands if memo.bit[id(c)] in keep])
        if built is None or memo.loop(built[0]).state != start:
            continue  # only a bound that prunes when posted, left out, moves the start
        assert _search(*built, prev) == res


# -- ownership is state ----------------------------------------------------------


def _owned():
    """binseq n=8 with the catalog posted and numbered by a step memo, then
    N1=4 and G=2 fixed: catalog bounds own ends of the other features."""
    model, featvars, xs = ObjectScenario("binseq", 8).fresh(Counters())
    for cand in catalog("binseq"):
        assert post_bound(model, cand, featvars, 8) is not None
    StepMemo(catalog("binseq"), canonical_tuples("binseq", 8)).loop(model)
    assert model.assign(featvars[0].id, 4) and model.assign(featvars[1].id, 2)
    assert any(model._lo_owners) and any(model._hi_owners)
    return model, featvars, xs


class _PrunesThenRaises(Constraint):
    kind = "prunes_then_raises"

    def __init__(self, vid):
        super().__init__((vid,))
        self.vid = vid

    def propagate(self, model):
        model.prune_ge(self.vid, model.dom(self.vid)[0] + 1)
        raise RuntimeError("after a pruning")


def _search_from_first(model, featvars, xs):
    first = labeling(model, featvars, xs).sol[:len(featvars)]
    assert _search(model, featvars, xs, first) is not None


def _post_and_retract(model, featvars, xs):
    mark = model.mark()
    assert post_lex_greater(model, featvars, (4, 2) + (0,) * 8) is not None
    assert model.assign(featvars[6].id, 1)  # Dmin, so bounds on the gaps prune
    model.retract_to(mark)


def _failed_post(model, featvars, xs):
    top = tuple([model.dom(v.id)[-1] for v in featvars])
    assert post_lex_greater(model, featvars, top) is None


def _raising_post(model, featvars, xs):
    gmax = featvars[3].id
    assert model._lo_owners[gmax]
    with pytest.raises(RuntimeError):
        model.post_constraint(_PrunesThenRaises(gmax))


@pytest.mark.parametrize("action", [
    lambda model, featvars, xs: labeling(model, featvars, xs),  # parks the prefix check
    _search_from_first,
    _post_and_retract,
    _failed_post,
    _raising_post,
], ids=["labeling", "step", "post and retract", "failed post", "raising post"])
def test_ownership_comes_back_exactly(monkeypatch, action):
    """Each way a model is changed and restored brings every owner back
    through the trail, after changing some of them."""
    model, featvars, xs = _owned()
    before = model_state(model)
    undone = []  # the owner entries each undo pops (under ~vid)
    undo = Model._undo_to

    def counted(m, trail_len):
        undone.extend([vid for vid, _ in m._trail[trail_len:] if vid < 0])
        undo(m, trail_len)

    monkeypatch.setattr(Model, "_undo_to", counted)
    action(model, featvars, xs)
    assert undone
    assert model_state(model) == before


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


def _random_rhs(object_name):
    """``test_expr``'s random-tree strategy over the object's layout."""
    leaves = st.one_of(st.integers(-3, 4), st.sampled_from(("n",) + FEATURES[object_name]))
    return st.recursive(
        leaves, lambda children: st.one_of([_node(op, children) for op in _OPERATORS]),
        max_leaves=6)


@st.composite
def _gate_lists(draw):
    """An object, an n, and catalog bounds mixed with one or two drawn
    bounds: a random rhs tree, or a feature plus a constant."""
    object_name = draw(st.sampled_from(sorted(FEATURES)))
    n = draw(st.integers(2, 6 if object_name == "partition" else 7))
    features = FEATURES[object_name]
    cands = draw(st.lists(st.sampled_from(catalog(object_name)), max_size=3, unique=True))
    for i in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            rhs = draw(_random_rhs(object_name))
        else:
            rhs = ("+", draw(st.sampled_from(features)), draw(st.integers(-2, 3)))
        cand = BoundCandidate(f"DRAWN{i}", object_name, draw(st.sampled_from(features)),
                              draw(st.sampled_from(["upper", "lower"])), rhs)
        cands.insert(draw(st.integers(0, len(cands))), cand)
    return object_name, n, cands


def _oracle_sound(cand, n):
    """No feasible tuple of size n violates ``cand``.  A tuple that no
    guard matches counts as a violation: the search fails it."""
    try:
        return not oracle.audit(cand, n).violations
    except NoCaseMatched:
        return False


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_gate_lists())
def test_the_soundness_gate_agrees_with_the_oracle(lists):
    """``StepMemo.sound`` is on exactly when ``oracle.audit`` finds no
    violation of any candidate at that n; a post refused as unsound counts
    as the gate off.  An rhs that divides by a non-positive number is no
    candidate at all, so such draws are dropped."""
    object_name, n, cands = lists
    try:
        expected = all(_oracle_sound(cand, n) for cand in cands)
        try:
            gate = _gate_of(object_name, n, cands)
        except CatalogSoundnessError:
            gate = False
    except CatalogError as exc:
        assume(isinstance(exc, (NoCaseMatched, CatalogSoundnessError)))
        raise
    assert gate == expected


# -- what a step loop takes once ---------------------------------------------------


def _grow(kind, model, xs):
    """Give the model a constraint or a trail entry, as no step may."""
    if kind == "constraint":
        assert post(model, ("check", [xs[0]], lambda vals: True)) is not None
    else:
        assert model.assign(xs[0].id, 0)


@pytest.mark.parametrize("kind", ["constraint", "trail entry"])
@pytest.mark.parametrize("loop", ["enumeration", "drain"])
def test_a_model_that_changes_between_two_steps_of_a_loop_raises(monkeypatch, kind, loop):
    """Each loop takes the posted bounds and the start domains once, so a
    step must find the model with the loop's trail length and constraint
    count; a fresh memo searches every step, and each search grows the model."""
    cands = catalog("binseq")
    model, featvars, xs = ObjectScenario("binseq", 4).fresh(Counters())
    records = enumerate_all_solutions(model, featvars, xs, Counters())
    drain = [r for r in records if r.sol]
    assert len(drain) > 2
    by_isol = {r.isol: r for r in records}

    def growing(model, featvars, xs, prev):
        res = _search(model, featvars, xs, prev)
        _grow(kind, model, xs)
        return res

    monkeypatch.setattr(selector, "_search", growing)
    memo = StepMemo(cands, canonical_tuples("binseq", 4))
    with pytest.raises(InternalInvariantError, match="changed between two steps"):
        if loop == "enumeration":
            enumerate_all_solutions(model, featvars, xs, Counters(), memo)
        else:
            selector._drain(model, featvars, xs, drain, by_isol, Counters(), memo)
