"""Selection engine: enumeration records, dichotomic search, baseline parity."""

from __future__ import annotations

import gc
import random

import pytest

from boundforge import bounds, selector
from boundforge.bounds import BoundCandidate, catalog, decoy, post_bound
from boundforge.errors import CatalogError, InternalInvariantError, InvalidArgumentError
from boundforge.kernel import LabelResult, Model
from boundforge.objects import MAX_N, canonical_tuples, feature_tuples
from boundforge.selector import (
    Counters,
    ObjectScenario,
    SolutionRecord,
    compute_all_solutions,
    enumerate_all_solutions,
    run_baseline,
    run_selection,
    split_mid,
    _drain,
)

from kernel_helpers import model_state, post, sweep_slice
from test_parking import _Boom


def test_split_mid_fixtures():
    assert split_mid(250) == 150
    assert 250 - split_mid(250) == 100
    assert split_mid(2) == 1
    assert split_mid(9) == 6 and 9 - split_mid(9) == 3
    assert split_mid(1) == 1
    assert split_mid(3) == 2


def test_enumerate_single_feature_var_records():
    m = Model()
    a = m.new_var(0, 1)
    recs = enumerate_all_solutions(m, [a], [])
    assert recs == [
        SolutionRecord(0, 0, (0,)),
        SolutionRecord(1, 0, (1,)),
        SolutionRecord(2, 0, ()),
    ]


def test_enumerate_single_solution_model_has_two_records():
    m = Model()
    a = m.new_var(3, 3)
    recs = enumerate_all_solutions(m, [a], [])
    assert len(recs) == 2
    assert recs[0] == SolutionRecord(0, 0, (3,))
    assert recs[1].sol == ()


def test_enumerate_unsatisfiable_model_yields_one_sentinel():
    m = Model()
    a = m.new_var(0, 1)
    assert post(m, ("check", [a], lambda v: False)) is not None
    recs = enumerate_all_solutions(m, [a], [])
    assert recs == [SolutionRecord(0, 2, ())]


def test_compute_all_sorts_and_restores():
    m = Model()
    a = m.new_var(0, 1)
    before = m.snapshot()
    recs = compute_all_solutions(m, [a], [], [], 1)
    assert m.snapshot() == before
    # ties on nback keep ascending solution index
    assert [r.isol for r in recs] == [0, 1, 2]
    assert all(r.nback == 0 for r in recs)


def test_records_sorted_by_backtracks_then_index():
    c = Counters()
    model, fv, xs = ObjectScenario("binseq", 4).fresh(c)
    recs = compute_all_solutions(model, fv, xs, catalog("binseq"), 4, c)
    keys = [(r.nback, r.isol) for r in recs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def _binseq_setup(n, cands):
    c = Counters()
    scenario = ObjectScenario("binseq", n)
    model, fv, xs = scenario.fresh(c)
    records = compute_all_solutions(model, fv, xs, cands, n, c)
    drain = [r for r in records if r.sol]
    by_isol = {r.isol: r for r in records}
    return model, fv, xs, records, drain, by_isol, c


def test_drain_with_all_bounds_posted_matches_everything():
    cands = catalog("binseq")
    model, fv, xs, records, drain, by_isol, c = _binseq_setup(4, cands)
    mark = model.mark()
    for b in cands:
        assert post_bound(model, b, fv, 4) is not None
    assert _drain(model, fv, xs, drain, by_isol, c) == []
    model.retract_to(mark)


def test_drain_single_record_before_sentinel():
    cands = catalog("binseq")
    model, fv, xs, records, drain, by_isol, c = _binseq_setup(4, cands)
    mark = model.mark()
    for b in cands:
        assert post_bound(model, b, fv, 4) is not None
    assert _drain(model, fv, xs, drain[-1:], by_isol, c) == []
    model.retract_to(mark)


def test_drain_without_bounds_stops_at_first_degraded_transition():
    cands = catalog("binseq")
    model, fv, xs, records, drain, by_isol, c = _binseq_setup(4, cands)
    remaining = _drain(model, fv, xs, drain, by_isol, c)
    assert remaining and remaining == drain[len(drain) - len(remaining):]


def test_drain_rejects_record_without_successor():
    cands = catalog("binseq")
    model, fv, xs, records, drain, by_isol, c = _binseq_setup(4, cands)
    sentinel = [r for r in records if not r.sol]
    with pytest.raises(InternalInvariantError):
        _drain(model, fv, xs, sentinel, by_isol, c)


def test_selection_with_no_candidates_selects_nothing():
    assert run_selection(ObjectScenario("binseq", 3), []).report.selected == ()
    assert run_baseline(ObjectScenario("binseq", 3), []).report.selected == ()


def test_select_one_requires_candidates():
    with pytest.raises(InvalidArgumentError):
        selector._select_one(None, [], [])


def test_vacuous_decoy_never_selected_and_never_changes_records():
    cat = catalog("partition")
    dec = decoy("partition", "S", 4)
    sc = ObjectScenario("partition", 4)
    with_decoy = run_selection(sc, cat + [dec])
    without = run_selection(sc, cat)
    assert with_decoy.records == without.records
    assert "decoy:S" not in with_decoy.report.selected
    assert with_decoy.report.selected == without.report.selected


def test_single_filtering_candidate_in_suffix_is_found():
    # two vacuous decoys form the prefix; the one real bound lands in the
    # suffix, the suffix alone is sufficient, and the final size-1 probe
    # proves it necessary
    n = 6
    cands = [decoy("binseq", "GS", n), decoy("binseq", "DS", n), bounds.by_id("B-GMAX-LB")]
    assert split_mid(3) == 2
    out = run_selection(ObjectScenario("binseq", n), cands)
    assert out.report.selected == ("B-GMAX-LB",)
    base = run_baseline(ObjectScenario("binseq", n), cands)
    assert base.report.selected == ("B-GMAX-LB",)


def test_single_candidate_lists_exercise_both_size_one_outcomes():
    n = 6
    needed = run_selection(ObjectScenario("binseq", n), [bounds.by_id("B-GMAX-LB")])
    assert needed.report.selected == ("B-GMAX-LB",)
    useless = run_selection(ObjectScenario("binseq", n), [decoy("binseq", "GS", n)])
    assert useless.report.selected == ()


@pytest.mark.parametrize("obj,n", [("partition", 4), ("partition", 5), ("binseq", 4), ("binseq", 6)])
def test_incremental_equals_baseline_with_shuffles(obj, n):
    cat = catalog(obj)
    sc = ObjectScenario(obj, n)
    for seed in (None, 0, 1, 2):
        cands = list(cat)
        if seed is not None:
            random.Random(seed).shuffle(cands)
        inc = run_selection(sc, cands)
        base = run_baseline(sc, cands)
        assert inc.report.selected == base.report.selected


def test_duplicates_are_tolerated_and_selected_at_most_once():
    cat = catalog("partition")
    cands = cat + cat
    sc = ObjectScenario("partition", 5)
    inc = run_selection(sc, cands)
    base = run_baseline(sc, cands)
    assert inc.report.selected == base.report.selected
    assert len(inc.report.selected) == len(set(inc.report.selected))


def test_filtering_preservation_with_selected_subset():
    for obj, n in (("partition", 5), ("binseq", 6)):
        sc = ObjectScenario(obj, n)
        out = run_selection(sc, catalog(obj))
        c = Counters()
        model, fv, xs = sc.fresh(c)
        for b in out.selected:
            assert post_bound(model, b, fv, n) is not None
        stored = {r.isol: r.nback for r in out.records}
        for rec in enumerate_all_solutions(model, fv, xs, c):
            assert rec.nback == stored[rec.isol]


def test_every_selected_bound_is_necessary():
    """The other half of most-filtering: with any one selected bound taken
    away, the rest let some count rise above its stored one, and none drop."""
    scenarios = [*sweep_slice(), ("binseq", 10, catalog("binseq")),
                 ("partition", 8, catalog("partition"))]
    for obj, n, cands in scenarios:
        sc = ObjectScenario(obj, n)
        out = run_selection(sc, cands)
        stored = [r.nback for r in sorted(out.records, key=lambda r: r.isol)]
        for i, b in enumerate(out.selected):
            model, fv, xs = sc.fresh(Counters())
            for other in out.selected[:i] + out.selected[i + 1:]:
                assert post_bound(model, other, fv, n) is not None
            counts = [r.nback for r in enumerate_all_solutions(model, fv, xs)]
            assert len(counts) == len(stored)
            assert all(c >= s for c, s in zip(counts, stored)), (obj, n, b.id)
            assert counts != stored, (obj, n, b.id)


def test_object_constraint_and_selected_posted_once():
    out = run_selection(ObjectScenario("partition", 4), catalog("partition"))
    by_tag = out.counters.by_tag
    assert sum(count for (tag, _), count in by_tag.items() if tag == "ctr") == 1
    prev_posts = {name: count for (tag, name), count in by_tag.items() if tag == "prev"}
    assert set(prev_posts) <= set(out.report.selected)
    assert all(v == 1 for v in prev_posts.values())
    # every selected bound except possibly the last is re-posted as prev
    for bid in out.report.selected[:-1]:
        assert prev_posts.get(bid) == 1


def test_incremental_posts_beat_baseline_on_real_catalogs():
    for obj, n in (("partition", 5), ("binseq", 5)):
        cat = catalog(obj)
        inc = run_selection(ObjectScenario(obj, n), cat)
        base = run_baseline(ObjectScenario(obj, n), cat)
        if len(cat) >= 4 and len(inc.report.selected) >= 2:
            assert inc.report.posts < base.report.posts


def test_selection_state_is_restorable_to_the_entry_mark():
    sc = ObjectScenario("binseq", 4)
    c = Counters()
    model, fv, xs = sc.fresh(c)
    snap = model.snapshot()
    mark = model.mark()
    cands = catalog("binseq")
    records = compute_all_solutions(model, fv, xs, cands, 4, c)
    drain = [r for r in records if r.sol]
    by_isol = {r.isol: r for r in records}
    engine = selector._IncrementalEngine(sc, model, fv, xs, drain, by_isol, c)
    selected = selector._select(engine, drain, cands)
    assert selected
    model.retract_to(mark)
    assert model.snapshot() == snap


def test_an_enumeration_that_raises_leaves_no_lex_jump_posted():
    """A propagator raises once N1=1 is tried, in a step after the first:
    that step's lex jump is retracted before the error propagates."""
    model, featvars, xs = ObjectScenario("binseq", 4).fresh(Counters())
    assert model.post_constraint(_Boom(featvars[0].id, 1)) is not None
    before = model_state(model)
    with pytest.raises(RuntimeError):
        enumerate_all_solutions(model, featvars, xs)
    assert model_state(model) == before


def test_a_compute_phase_that_raises_retracts_every_candidate():
    """A user bound dividing by G raises in the first step, where N1=0
    fixes G=0; it and the 17 catalog bounds posted before it are retracted."""
    model, featvars, xs = ObjectScenario("binseq", 4).fresh(Counters())
    bad = BoundCandidate("U-DIV", "binseq", "N1", "upper", ("div", "n", "G"))
    before = model_state(model)
    with pytest.raises(CatalogError, match="non-positive divisor 0"):
        compute_all_solutions(model, featvars, xs, catalog("binseq") + [bad], 4)
    assert model_state(model) == before


def test_scenario_rejects_foreign_candidates():
    with pytest.raises(InvalidArgumentError):
        run_selection(ObjectScenario("partition", 4), catalog("binseq")[:1])


def test_selection_refuses_n_above_the_enumeration_ceiling():
    with pytest.raises(InvalidArgumentError, match="binseq n=40 exceeds"):
        run_selection(ObjectScenario("binseq", 40), catalog("binseq"))


def test_records_and_label_results_are_frozen_and_slotted():
    for value in (SolutionRecord(0, 2, (1,)), LabelResult(2, False, (1,))):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.nback = 3


def test_scenarios_are_immutable_values():
    a, b = ObjectScenario("binseq", 6), ObjectScenario("binseq", 6)
    assert a == b and hash(a) == hash(b) and a != ObjectScenario("binseq", 7)
    with pytest.raises(AttributeError):
        a.n = 7


def test_records_of_separate_runs_share_one_tuple_per_feature_tuple():
    table = canonical_tuples("binseq", 6)
    assert len(table) == len(feature_tuples("binseq", 6))
    first = run_selection(ObjectScenario("binseq", 6), catalog("binseq"))
    second = run_baseline(ObjectScenario("binseq", 6), list(reversed(catalog("binseq"))))
    sols = {r.sol: r.sol for r in first.records if r.sol}
    assert len(sols) == len(first.records) - 1
    for rec in second.records:
        if rec.sol:
            assert rec.sol is sols[rec.sol] is table[rec.sol]


def test_runs_with_equal_records_share_one_tuple_of_them():
    """Every order of one candidate list, on either engine, gives equal
    records, and each run returns the last run's tuple of them; a run with
    other records keeps its own and becomes the last."""
    first = run_selection(ObjectScenario("binseq", 6), catalog("binseq"))
    second = run_baseline(ObjectScenario("binseq", 6), list(reversed(catalog("binseq"))))
    assert second.records is first.records
    other = run_selection(ObjectScenario("binseq", 6), catalog("binseq")[:3])
    assert other.records != first.records
    assert run_baseline(ObjectScenario("binseq", 6), catalog("binseq")[:3]).records is other.records


def test_canonical_tuples_refuse_what_the_tuple_tables_refuse():
    before = canonical_tuples.cache_info().currsize
    for object_name, n in (("binseq", MAX_N["binseq"] + 1), ("partition", 0), ("triangle", 3)):
        with pytest.raises(InvalidArgumentError):
            canonical_tuples(object_name, n)
    assert canonical_tuples.cache_info().currsize == before


@pytest.mark.parametrize("engine, expected", [
    (run_selection, {"labeling": 246, "post_lex_greater": 87, "post_bound": 119}),
    (run_baseline, {"labeling": 246, "post_lex_greater": 87, "post_bound": 768}),
])
def test_each_search_and_post_goes_through_its_selector_name(monkeypatch, engine, expected):
    """A traced benchmark run counts kernel work only through
    ``selector.labeling``, ``selector.post_lex_greater`` and
    ``selector.post_bound``, so a selection calls each once per search or
    post it makes, and no work reaches the kernel by another way.  A step
    that resumes from the path of the search before it posts no jump at the
    root: its climb decides the jump (``resume.Path.climb``) before its one
    ``labeling`` call, so only steps that start a path call
    ``post_lex_greater``."""
    calls = dict.fromkeys(expected, 0)

    def counting(name):
        fn = getattr(selector, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in expected:
        monkeypatch.setattr(selector, name, counting(name))
    outcome = engine(ObjectScenario("binseq", 10), catalog("binseq"))
    assert calls == expected
    # every post but the object posts is a bound post
    objects_posted = sum(k for (tag, _), k in outcome.counters.by_tag.items() if tag == "ctr")
    assert calls["post_bound"] == outcome.report.posts - objects_posted


def test_a_warm_selection_leaves_no_reference_cycle():
    """Each labeling call frees its nested search functions, which refer to
    each other, on return, and a candidate's compiled rhs is not held by
    its own globals: with the cyclic collector off, a warm catalog-order
    selection with a new decoy leaves it nothing to collect."""
    scenario = ObjectScenario("binseq", 10)
    selector.run_selection(scenario, catalog("binseq") + [decoy("binseq", "GS", 10)])
    gc.collect()
    gc.disable()
    try:
        selector.run_selection(scenario, catalog("binseq") + [decoy("binseq", "GS", 10)])
        assert gc.collect() == 0
    finally:
        gc.enable()
