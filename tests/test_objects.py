"""Feature extractors and the posted object models."""

from __future__ import annotations

from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundforge import kernel, objects, oracle
from boundforge.bounds import catalog, decoy, post_bound
from boundforge.errors import InternalInvariantError, InvalidArgumentError
from boundforge.objects import (
    BINSEQ_FEATURES,
    BinSeqFeatures,
    GroundChecker,
    PartitionFeatures,
    binseq_features,
    feature_tuples,
    make_model,
    partition_features,
    post_object,
)
from boundforge.selector import (
    Counters,
    ObjectScenario,
    run_baseline,
    run_selection,
)

from kernel_helpers import domain, solve_all


def test_partition_features_examples():
    assert partition_features([4, 1]) == PartitionFeatures(5, 2, 1, 4, 3, 17)
    # equal parts: S collapses to Mmin^2 * P
    assert partition_features([2, 2, 2]) == PartitionFeatures(6, 3, 2, 2, 0, 12)
    assert partition_features([4, 3, 1]) == PartitionFeatures(8, 3, 1, 4, 3, 26)


@pytest.mark.parametrize("object_name, record, features", [
    ("partition", PartitionFeatures, partition_features([4, 3, 1])),
    ("binseq", BinSeqFeatures, binseq_features([1, 1, 0, 1, 0, 1])),
])
def test_the_record_layout_is_the_rhs_layout(object_name, record, features):
    """``verify_on`` reads the lhs by name and the rhs by slot, so the record's
    fields after n must be ``FEATURES`` in order."""
    assert record._fields == ("n",) + objects.FEATURES[object_name]
    assert features.as_tuple() == tuple(getattr(features, f) for f in objects.FEATURES[object_name])


def test_partition_features_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        partition_features([])
    with pytest.raises(InvalidArgumentError):
        partition_features([2, 0])


def test_binseq_features_examples():
    assert binseq_features([0, 0, 0]) == BinSeqFeatures(3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert binseq_features([1, 1, 1]) == BinSeqFeatures(3, 3, 1, 3, 3, 0, 9, 0, 0, 0, 0)
    assert binseq_features([1, 1, 0, 1, 0, 1]) == BinSeqFeatures(6, 4, 3, 1, 2, 1, 6, 1, 1, 0, 2)


def test_binseq_features_ignores_outer_zero_runs():
    # leading/trailing 0s are not inter-distances
    f = binseq_features([0, 1, 1, 0, 0, 1, 0])
    assert (f.G, f.Dmin, f.Dmax, f.DS) == (2, 2, 2, 4)


def test_binseq_features_rejects_non_binary():
    with pytest.raises(InvalidArgumentError):
        binseq_features([0, 2, 1])


def test_feature_extractor_totality():
    for n in range(0, 9):
        for bits in oracle.enum_binseqs(n):
            binseq_features(list(bits))
    for n in range(1, 9):
        for sizes in oracle.enum_partitions(n):
            partition_features(list(sizes))


@pytest.mark.parametrize("n", range(1, 11))
def test_binseq_feature_invariants(n):
    for bits in oracle.enum_binseqs(n):
        f = binseq_features(list(bits))
        assert 0 <= f.N1 <= n
        assert (f.G == 0) == (f.N1 == 0)
        if f.G == 0:
            assert f.Gmin == f.Gmax == f.GS == 0
        if f.G <= 1:
            assert f.Dmin == f.Dmax == f.DS == 0
        assert f.rangeG == f.Gmax - f.Gmin
        assert f.rangeD == f.Dmax - f.Dmin
        # inter-distance count is max(G-1, 0): one per adjacent stretch pair
        zeros_between = sum(1 for b in bits if b == 0)
        assert f.DS >= max(f.G - 1, 0)  # each inter-distance is >= 1
        assert f.DS <= zeros_between * zeros_between if f.G > 1 else f.DS == 0


@pytest.mark.parametrize("n", range(1, 11))
def test_partition_feature_invariants(n):
    for sizes in oracle.enum_partitions(n):
        f = partition_features(list(sizes))
        assert 1 <= f.P <= n
        assert 1 <= f.Mmin <= f.Mmax <= n
        assert f.rangeM == f.Mmax - f.Mmin
        assert f.P * f.Mmin <= n <= f.P * f.Mmax
        assert n <= f.S <= n * n


def _model_tuples(object_name: str, n: int) -> tuple[set, list]:
    model, featvars, xs = make_model(object_name, n)
    assert post_object(model, object_name, featvars, xs) is not None
    sols = solve_all(model, list(xs) + list(featvars))
    return {s[n:] for s in sols}, sols


def test_post_partition_small_solution_sets():
    assert _model_tuples("partition", 1)[0] == {(1, 1, 1, 0, 1)}
    assert _model_tuples("partition", 2)[0] == {(1, 2, 2, 0, 4), (2, 1, 1, 0, 2)}
    assert _model_tuples("partition", 3)[0] == {
        (1, 3, 3, 0, 9), (2, 1, 2, 1, 5), (3, 1, 1, 0, 3),
    }


def test_post_binseq_small_solution_sets():
    assert _model_tuples("binseq", 1)[0] == {
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (1, 1, 1, 1, 0, 1, 0, 0, 0, 0),
    }
    # the two single-one sequences of n=2 share one feature tuple
    assert binseq_features([1, 0]) == binseq_features([0, 1])
    assert len(_model_tuples("binseq", 2)[0]) == 3
    assert len(_model_tuples("binseq", 3)[0]) == 5


@pytest.mark.parametrize("n", range(1, 11))
def test_partition_projection_completeness(n):
    tuples, sols = _model_tuples("partition", n)
    assert tuples == set(feature_tuples("partition", n))
    for s in sols:  # witness soundness
        counts: dict[int, int] = {}
        for v in s[:n]:
            counts[v] = counts.get(v, 0) + 1
        assert partition_features(list(counts.values())).as_tuple() == s[n:]


@pytest.mark.parametrize("n", range(1, 13))
def test_binseq_projection_completeness(n):
    tuples, sols = _model_tuples("binseq", n)
    assert tuples == set(feature_tuples("binseq", n))
    for s in sols:  # witness soundness
        assert binseq_features(list(s[:n])).as_tuple() == s[n:]


def test_initial_domains_match_documented_boxes():
    n = 6
    model, featvars, xs = make_model("binseq", n)
    boxes = objects.initial_domains("binseq", n)
    for name, var in zip(objects.BINSEQ_FEATURES, featvars):
        lo, hi = boxes[name]
        assert domain(model, var) == tuple(range(lo, hi + 1))
    assert all(domain(model, x) == (0, 1) for x in xs)

    model, featvars, xs = make_model("partition", n)
    boxes = objects.initial_domains("partition", n)
    for name, var in zip(objects.PARTITION_FEATURES, featvars):
        lo, hi = boxes[name]
        assert domain(model, var) == tuple(range(lo, hi + 1))
    assert all(domain(model, x) == tuple(range(1, n + 1)) for x in xs)


def test_occurrence_channel_fails_when_p_closure_leaves_too_few_slots():
    # two colors, occ[1] = 1 and P = 1: the P closure pins occ[2] to 0, so
    # the occurrence caps hold 1 < n = 2 elements and the post must fail
    m = kernel.Model()
    xs = [m.new_var(1, 2) for _ in range(2)]
    occ = [m.new_var(1, 1), m.new_var(0, 2)]
    p, s = m.new_var(1, 1), m.new_var(0, 10)
    before = m.snapshot()
    con = objects.OccurrenceChannel([v.id for v in xs], [v.id for v in occ], p.id, s.id)
    assert m.post_constraint(con) is None
    assert m.snapshot() == before
    with pytest.raises(InternalInvariantError):
        objects._min_sum_squares_in_box([1, 0], [1, 0], 2)


def _exact_sum_squares(lbs, ubs, total, pick=max):
    """The largest (``pick=max``) or least (``pick=min``) sum of squares of
    a vector in the box that sums to ``total``, by dynamic programming over
    the coordinates; None when no vector of the box does."""
    best = {0: 0}  # per partial sum, the picked sum of squares reaching it
    for lo, hi in zip(lbs, ubs):
        step = {}
        for t, sq in best.items():
            for v in range(lo, min(hi, total - t) + 1):
                step[t + v] = pick(step.get(t + v, sq + v * v), sq + v * v)
        best = step
    return best.get(total)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(data=st.data(), box=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=5))
def test_water_filling_reaches_the_exact_minimum_sum_of_squares(data, box):
    """Every total the box can hold, as the channel calls it."""
    lbs, ubs = [min(b) for b in box], [max(b) for b in box]
    total = data.draw(st.integers(sum(lbs), sum(ubs)))
    assert objects._min_sum_squares_in_box(lbs, ubs, total) == _exact_sum_squares(lbs, ubs, total, min)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(data=st.data(), box=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=5))
def test_the_vertex_dp_reaches_the_exact_maximum_sum_of_squares(data, box):
    """Every total the box can hold, as the channel calls it."""
    lbs, ubs = [min(b) for b in box], [max(b) for b in box]
    total = data.draw(st.integers(sum(lbs), sum(ubs)))
    assert objects._max_sum_squares_in_box(lbs, ubs, total) == _exact_sum_squares(lbs, ubs, total)


def test_the_s_upper_bound_is_exact_on_every_box_the_channel_passes(monkeypatch):
    """A maximum that undershoots would prune a real solution's S; a
    widest-cap-first greedy gives 18 on the box below.  Every box of cold
    partition selections (both engines, so the baseline's fresh models too)
    and of searches for every solution, features first and sequence first,
    must get the exact maximum.  The channel computes the maximum only when
    it runs, not when it replays a stored run, and once per box, but a
    replayed state was run once and a kept box computed once, so every box
    it would pass is still recorded; the models start from fresh templates,
    so their channels' memos start empty."""
    upper = objects._max_sum_squares_in_box
    assert upper([3, 2, 0], [6, 7, 4], 6) == 20 == _exact_sum_squares([3, 2, 0], [6, 7, 4], 6)
    boxes = set()
    calls = 0
    propagate = objects.OccurrenceChannel.propagate

    def counted(con, model):
        nonlocal calls
        calls += 1
        return propagate(con, model)

    def recorded(lbs, ubs, total):
        boxes.add((tuple(lbs), tuple(ubs), total))
        return upper(lbs, ubs, total)

    monkeypatch.setattr(objects.OccurrenceChannel, "propagate", counted)
    monkeypatch.setattr(objects, "_max_sum_squares_in_box", recorded)
    cat = catalog("partition")
    for n in range(3, 8):
        for engine in (run_selection, run_baseline):
            for cands in (cat, cat[::-1]):
                objects.forget("partition", n)
                engine(ObjectScenario("partition", n), cands)
        model, featvars, xs = ObjectScenario("partition", n).fresh(Counters())
        solve_all(model, featvars + xs)
        solve_all(model, xs + featvars)
    found = [(box, upper(list(box[0]), list(box[1]), box[2]), _exact_sum_squares(*box))
             for box in sorted(boxes)]
    assert [f for f in found if f[1] != f[2]] == []
    assert calls > 10_000 and len(boxes) > 400


def _s_alone_prunes_nothing(model, con):
    """Shrink S's domain inside itself, dropping one value at a time, and
    fix it to each of its values, with no other domain changed; the channel
    must succeed each time and leave the trail and queue as they were.
    Returns the number of calls."""
    doms, s = model._doms, con.s
    d = doms[s]
    if len(d) == 1:
        return 0
    trail = len(model._trail)
    calls = 0
    try:
        for new in [d[:i] + d[i + 1:] for i in range(len(d))] + [(v,) for v in d]:
            doms[s] = new
            assert con.propagate(model)
            assert len(model._trail) == trail and not model._queue
            calls += 1
    finally:
        doms[s] = d
    return calls


def test_a_change_to_s_alone_never_prunes_through_the_channel(monkeypatch):
    """The channel does not watch S: at every fixpoint of partition
    searches up to n=6, a change to S alone must leave the channel
    nothing to prune and nothing to fail."""
    drain = kernel.Model._drain
    seen = set()
    calls = 0

    def checked(model):
        nonlocal calls
        ok = drain(model)
        state = model.snapshot()
        if ok and state not in seen:
            seen.add(state)
            for con in model._constraints:
                if type(con) is objects.OccurrenceChannel:
                    calls += _s_alone_prunes_nothing(model, con)
        return ok

    monkeypatch.setattr(kernel.Model, "_drain", checked)
    for n in range(1, 7):
        model, featvars, xs = ObjectScenario("partition", n).fresh(Counters())
        (channel,) = [con for con in model._constraints if type(con) is objects.OccurrenceChannel]
        assert channel.s == featvars[objects.PARTITION_FEATURES.index("S")].id
        assert channel.s not in channel.watched
        assert set(channel.watched) == {*channel.xs, *channel.occ, channel.p}
        run_selection(ObjectScenario("partition", n), catalog("partition"))
        solve_all(model, featvars + xs)
        for cand in catalog("partition"):
            assert post_bound(model, cand, featvars, n) is not None
        solve_all(model, featvars + xs)
    assert len(seen) > 600 and calls > 6000


def _stretches_and_gaps(bits):
    """Independent definition: 1-runs, and the 0-runs with a 1-run on each side."""
    runs = [(b, len(list(g))) for b, g in groupby(bits)]
    while runs and runs[0][0] == 0:
        runs.pop(0)
    while runs and runs[-1][0] == 0:
        runs.pop()
    return [k for b, k in runs if b == 1], [k for b, k in runs if b == 0]


def test_binseq_tuple_core_matches_definition_exhaustively():
    for n in range(0, 13):
        for bits in oracle.enum_binseqs(n):
            core = objects._binseq_tuple(bits)
            assert core == binseq_features(bits).as_tuple()
            ones, gaps = _stretches_and_gaps(bits)
            g_lo, g_hi = (min(ones), max(ones)) if ones else (0, 0)
            d_lo, d_hi = (min(gaps), max(gaps)) if gaps else (0, 0)
            assert core == (sum(ones), len(ones), g_lo, g_hi, g_hi - g_lo, sum(k * k for k in ones),
                            d_lo, d_hi, d_hi - d_lo, sum(k * k for k in gaps))


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_ground_core_matches_features_on_every_coloring(n):
    model, featvars, xs = make_model("partition", n)
    assert post_object(model, "partition", featvars, xs) is not None
    sols = solve_all(model, list(xs) + list(featvars))
    assert sols
    for s in sols:
        sizes = list(Counter(s[:n]).values())
        core = objects._partition_ground(list(s[:n]))
        assert core == partition_features(sizes).as_tuple() == s[n:]
        assert core == (len(sizes), min(sizes), max(sizes), max(sizes) - min(sizes),
                        sum(k * k for k in sizes))


def test_ground_checker_without_sequence_variables_pins_once_at_post():
    m = kernel.Model()
    fvids = [m.new_var(0, 3).id for _ in BINSEQ_FEATURES]
    assert m.post_constraint(GroundChecker(fvids, (), objects._binseq_tuple)) is not None
    assert m.snapshot() == ((0,),) * len(BINSEQ_FEATURES)

    m = kernel.Model()
    fvid = m.new_var(0, 3).id
    calls = []
    before = m.snapshot()
    assert m.post_constraint(GroundChecker([fvid], (), lambda vals: calls.append(vals) or (5,))) is None
    assert calls == [[]]
    assert m.snapshot() == before


def test_ground_checker_waits_for_every_sequence_variable():
    m = kernel.Model()
    fvids = [m.new_var(0, 9).id for _ in BINSEQ_FEATURES]
    xs = [m.new_var(0, 1).id for _ in range(3)]
    assert m.post_constraint(GroundChecker(fvids, xs, objects._binseq_tuple)) is not None
    open_box = m.snapshot()
    assert m.assign(xs[2], 1)  # the last one fixed first: the others are still open
    assert m.snapshot()[: len(fvids)] == open_box[: len(fvids)]
    assert m.assign(xs[0], 1)
    assert m.snapshot()[: len(fvids)] == open_box[: len(fvids)]
    assert m.assign(xs[1], 0)
    assert m.snapshot()[: len(fvids)] == tuple((v,) for v in binseq_features([1, 0, 1]).as_tuple())


def test_the_ground_checker_pins_the_features_only_once_every_sequence_variable_is_fixed():
    m = kernel.Model()
    fvids = [m.new_var(0, 9).id for _ in BINSEQ_FEATURES]
    xs = [m.new_var(0, 1).id for _ in range(3)]
    assert m.post_constraint(GroundChecker(fvids, xs, objects._binseq_tuple)) is not None
    open_box = m.snapshot()
    assert m.fix(xs[0], 1) and m._drain()
    assert m.fix(xs[2], 1) and m._drain()
    assert m.snapshot()[: len(fvids)] == open_box[: len(fvids)]
    assert m.fix(xs[1], 0) and m._drain()
    assert m.snapshot()[: len(fvids)] == tuple((v,) for v in binseq_features([1, 0, 1]).as_tuple())


def test_tuple_tables_refuse_n_above_the_enumeration_ceiling():
    assert objects.MAX_N == {"partition": 50, "binseq": 20}
    with pytest.raises(InvalidArgumentError, match="binseq n=21 exceeds"):
        feature_tuples("binseq", 21)
    with pytest.raises(InvalidArgumentError, match="partition n=51 exceeds"):
        feature_tuples("partition", 51)
    # the oracle's walks too: p(n) and 2**n grow too fast to run there
    with pytest.raises(InvalidArgumentError, match="binseq n=21 exceeds"):
        oracle.enum_binseqs(21)
    with pytest.raises(InvalidArgumentError, match="partition n=51 exceeds"):
        oracle.enum_partitions(51)
    model = kernel.Model()
    featvars = [model.new_var(1, 60) for _ in objects.PARTITION_FEATURES]
    xs = [model.new_var(1, 60) for _ in range(60)]
    before = model.snapshot()
    with pytest.raises(InvalidArgumentError, match="partition n=60 exceeds"):
        post_object(model, "partition", featvars, xs)
    assert model.snapshot() == before  # refused before any hidden variable is made


@pytest.mark.parametrize(
    "object_name,n,message",
    [
        ("binseq", -1, "sequences need n >= 0"),
        ("binseq", -5, "sequences need n >= 0"),
        ("partition", 0, "partitions need n >= 1"),
        ("partition", -2, "partitions need n >= 1"),
    ],
    ids=["binseq-1", "binseq-5", "partition0", "partition-2"],
)
def test_tuple_tables_refuse_n_below_the_smallest_size(object_name, n, message):
    before = feature_tuples.cache_info().currsize
    with pytest.raises(InvalidArgumentError, match=message):
        feature_tuples(object_name, n)
    assert feature_tuples.cache_info().currsize == before


# a model with the variables of an object post over any n <= 60, on which
# post_object is refused; the test below asserts that it gains none
_BARE = kernel.Model()
_BARE_FEATVARS = [_BARE.new_var(0, 60) for _ in BINSEQ_FEATURES]
_BARE_XS = [_BARE.new_var(0, 60) for _ in range(60)]


def _features(object_name):
    return objects.FEATURES.get(object_name, ("P",))


_ENTRY_POINTS = {
    "make_model": make_model,
    "post_object": lambda object_name, n: post_object(
        _BARE, object_name, _BARE_FEATVARS[: len(_features(object_name))], _BARE_XS[:n]),
    "feature_tuples": objects.feature_tuples,
    "initial_domains": objects.initial_domains,
    "ObjectScenario": ObjectScenario,
    "posted_model": objects.posted_model,
    "forget": objects.forget,
    "decoy": lambda object_name, n: decoy(object_name, _features(object_name)[0], n),
}


@pytest.mark.parametrize("object_name, n", [("triangle", 3), ("binseq", 21), ("partition", 51)])
@pytest.mark.parametrize("entry_point", sorted(_ENTRY_POINTS))
def test_every_object_entry_point_refuses_an_unknown_object_or_n_above_the_ceiling(
    entry_point, object_name, n
):
    models, variables = kernel.Model._next_id, len(_BARE.snapshot())
    cached = objects.feature_tuples.cache_info().currsize
    with pytest.raises(InvalidArgumentError):
        _ENTRY_POINTS[entry_point](object_name, n)
    assert kernel.Model._next_id == models
    assert len(_BARE.snapshot()) == variables
    assert objects.feature_tuples.cache_info().currsize == cached


@pytest.mark.parametrize("object_name", sorted(objects.MODEL_MAX_N))
@pytest.mark.parametrize("entry_point", [
    "ObjectScenario", "decoy", "forget", "initial_domains", "make_model", "post_object",
    "posted_model"])
def test_every_model_entry_point_refuses_n_above_the_model_ceiling(entry_point, object_name):
    """A cold selection there does not end in practice; the tuple tables
    and the oracle, which build no model, still admit it."""
    assert objects.MODEL_MAX_N == {"partition": 14, "binseq": 15}
    n = objects.MODEL_MAX_N[object_name] + 1
    models = kernel.Model._next_id
    with pytest.raises(InvalidArgumentError, match=f"{object_name} n={n} exceeds the model ceiling"):
        _ENTRY_POINTS[entry_point](object_name, n)
    assert kernel.Model._next_id == models
    ObjectScenario(object_name, n - 1)
    objects.check_size(object_name, n)


@pytest.mark.parametrize("n", [5.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("build", [
    lambda n: ObjectScenario("partition", n),
    lambda n: make_model("binseq", n),
    lambda n: objects.posted_model("binseq", n),
    lambda n: objects.forget("binseq", n),
    lambda n: oracle.audit(decoy("binseq", "N1", 3), n),
    lambda n: objects._prefix_sets("partition", n),
    lambda n: feature_tuples("partition", n),
    lambda n: feature_tuples("binseq", n),
    oracle.enum_partitions,
    oracle.enum_binseqs,
], ids=["ObjectScenario", "make_model", "posted_model", "forget", "oracle.audit", "_prefix_sets",
        "feature_tuples-partition", "feature_tuples-binseq", "enum_partitions", "enum_binseqs"])
def test_a_non_integer_n_is_refused_even_with_its_int_cached(build, n):
    """5.0 == 5 and True == 1 hash alike, so a warm table of the int would
    otherwise answer them."""
    build(int(n))
    with pytest.raises(InvalidArgumentError, match="n must be an integer"):
        build(n)
