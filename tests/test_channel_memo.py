"""The occurrence channel's memo of its own runs.

A call whose watched domains equal a stored run's replays that run's
writes; it must leave the model exactly as a run would.  The memo keeps
one entry per domain of P, and a call in another state stores nothing.
"""

from __future__ import annotations

import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from boundforge import objects
from boundforge.bounds import catalog
from boundforge.kernel import Model
from boundforge.objects import OccurrenceChannel
from boundforge.selector import Counters, ObjectScenario, run_baseline, run_selection

from kernel_helpers import model_state, solve_all


def _clone(model):
    """A model in ``model``'s exact state, owners, queue and flags included
    (``Model.copy`` refuses a model that propagates)."""
    other = Model()
    other._doms = model._doms.copy()
    other._lo_owners = model._lo_owners.copy()
    other._hi_owners = model._hi_owners.copy()
    other._trail = model._trail.copy()
    other._constraints = model._constraints.copy()
    other._watchers = [w.copy() for w in model._watchers]
    other._inq = model._inq.copy()
    other._queue = deque(model._queue)
    return other


def _outcome(con, model):
    """Run ``con`` on a clone of ``model``: its return value, the model's
    state and its trail entries in order."""
    model = _clone(model)
    ok = con.propagate(model)
    return ok, model_state(model), list(model._trail)


class _Counted(OccurrenceChannel):
    """The channel, counting the calls that run it rather than replay."""

    runs = 0

    def _run(self, model):
        self.runs += 1
        return super()._run(model)


def _channel(model):
    (con,) = [con for con in model._constraints if type(con) is OccurrenceChannel]
    return con


def _shared_memo(n):
    """The channel memo of the partition template at n, read through a copy."""
    return _channel(ObjectScenario("partition", n).fresh(Counters())[0]).memo


def _inputs(monkeypatch):
    """Every distinct channel input of cold partition n=3..7 selections on
    both engines, in catalog and reversed order, and of ``solve_all`` in
    both variable orders: per channel (its variable ids), a clone of each
    model it was called on, in order of first call.  Each call runs a
    channel with an empty memo, so the inputs do not depend on the memo."""
    seen: dict[tuple, dict] = {}
    propagate = OccurrenceChannel.propagate

    def recorded(con, model):
        vids = (con.xs, con.occ, con.p, con.s)
        key = (tuple(model._doms), tuple(model._queue), tuple(model._inq))
        models = seen.setdefault(vids, {})
        if key not in models:
            models[key] = _clone(model)
        return propagate(OccurrenceChannel(*vids), model)

    with monkeypatch.context() as patch:
        patch.setattr(OccurrenceChannel, "propagate", recorded)
        cat = catalog("partition")
        for n in range(3, 8):
            for engine in (run_selection, run_baseline):
                for cands in (cat, cat[::-1]):
                    objects.forget("partition", n)
                    engine(ObjectScenario("partition", n), cands)
            model, featvars, xs = ObjectScenario("partition", n).fresh(Counters())
            solve_all(model, featvars + xs)
            solve_all(model, xs + featvars)
    return {vids: list(models.values()) for vids, models in seen.items()}


def test_a_replay_leaves_the_model_as_a_run_without_the_memo_does(monkeypatch):
    """Each input is taken by two memoed channels, and each call must equal
    a run of a channel with an empty memo.  One channel per variable ids
    takes every input in order, so it misses, hits, and meets keys stored
    under another state.  A fresh channel first runs the first input in
    the same watched state, then replays it on this one, whose S may
    differ.  The replays include failures and runs of several writes."""
    misses = hits = other_state = other_s = several = failed = 0
    for (xs, occ, p, s), models in _inputs(monkeypatch).items():
        shared = _Counted(xs, occ, p, s)
        first: dict[tuple, Model] = {}
        for model in models:
            expected = _outcome(OccurrenceChannel(xs, occ, p, s), model)
            doms = model._doms
            key = doms[p]
            state = tuple([doms[v] for v in shared.watched])
            entry = shared.memo.get(key)
            runs = shared.runs
            assert _outcome(shared, model) == expected
            if entry is None:
                misses += 1
                assert shared.runs == runs + 1 and shared.memo[key][0] == state
            elif entry[0] == state:
                hits += 1
                assert shared.runs == runs
            else:
                other_state += 1
                assert shared.runs == runs + 1 and shared.memo[key] is entry
            seed = first.setdefault(state, model)
            fresh = _Counted(xs, occ, p, s)
            _outcome(fresh, seed)
            assert _outcome(fresh, model) == expected and fresh.runs == 1
            other_s += seed._doms[s] != doms[s]
            several += len(fresh.memo[key][1]) > 1
            failed += not expected[0]
    assert min(misses, hits, other_state, other_s, several, failed) > 0


def test_every_channel_memo_holds_at_most_one_entry_per_interval_of_p(monkeypatch):
    """Cold selections on both engines at n=3..10 and sequence-first
    enumerations at n <= 8.  Each call stores only under an absent key and
    never replaces an entry; every key is an interval, so a memo holds at
    most n(n+1)/2 entries."""
    propagate = OccurrenceChannel.propagate
    calls = 0

    def checked(con, model):
        nonlocal calls
        calls += 1
        key = model._doms[con.p]
        entry = con.memo.get(key)
        size = len(con.memo)
        ok = propagate(con, model)
        if entry is None:
            assert len(con.memo) == size + 1
        else:
            assert len(con.memo) == size and con.memo[key] is entry
        return ok

    monkeypatch.setattr(OccurrenceChannel, "propagate", checked)
    cat = catalog("partition")
    for n in range(3, 11):
        for engine in (run_selection, run_baseline):
            objects.forget("partition", n)
            engine(ObjectScenario("partition", n), cat)
        model, featvars, xs = ObjectScenario("partition", n).fresh(Counters())
        if n <= 8:
            solve_all(model, xs + featvars)
        memo = _channel(model).memo
        assert _shared_memo(n) is memo
        assert all(key == tuple(range(key[0], key[-1] + 1)) for key in memo)
        assert 0 < len(memo) <= n * (n + 1) // 2
    assert calls > 1000


def _result(outcome):
    report = outcome.report
    return report.selected, report.posts, report.labelings, outcome.records


def test_threads_that_share_a_channel_memo_select_as_one_thread_does():
    """Copies of one template share its channel, so threads that select at
    once store into one memo, in any order.  Whichever run an entry
    holds, a replay is exact: every threaded selection equals a serial
    one."""
    n = 8
    cat = catalog("partition")
    jobs = [(engine, cands) for engine in (run_selection, run_baseline)
            for cands in (cat, cat[::-1], cat[1:], cat[:-1])]
    expected = [_result(engine(ObjectScenario("partition", n), cands)) for engine, cands in jobs]
    objects.forget("partition", n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(engine, ObjectScenario("partition", n), cands)
                       for engine, cands in jobs]
            results = [_result(future.result(timeout=120)) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
    assert len(_shared_memo(n)) <= n * (n + 1) // 2


def test_a_call_reads_both_ends_of_p_and_clears_their_owners():
    """So no run or replay moves an owned end of P (see ``kernel``)."""
    model, featvars, _ = ObjectScenario("partition", 4).fresh(Counters())
    p = featvars[0].id
    model._own(p, 1, 2)
    model.clauses.clear()
    assert _channel(model).propagate(model)
    assert model.clauses == {1, 2}
    assert (model._lo_owners[p], model._hi_owners[p]) == (0, 0)
