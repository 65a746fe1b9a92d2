"""Property tests of the kernel propagators against references and brute force."""

from __future__ import annotations

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from boundforge import bounds, kernel, objects
from boundforge.bounds import catalog, post_bound
from boundforge.kernel import Constraint, LexGreater, Model, SumEq, labeling, post_lex_greater

from kernel_helpers import solve_all


class _TwoSumSumEq(Constraint):
    """Reference sum(xs) = total: two bound sums, both prunings always called."""

    kind = "sum_eq"

    def __init__(self, xs, total_var, total_const=0):
        super().__init__(tuple(xs) + ((total_var,) if total_var is not None else ()))
        self.xs = tuple(xs)
        self.total_var = total_var
        self.total_const = total_const

    def propagate(self, model):
        lo = sum(model.dom(v)[0] for v in self.xs)
        hi = sum(model.dom(v)[-1] for v in self.xs)
        if self.total_var is not None:
            if not (model.prune_ge(self.total_var, lo) and model.prune_le(self.total_var, hi)):
                return False
            tlo, thi = model.dom(self.total_var)[0], model.dom(self.total_var)[-1]
        else:
            tlo = thi = self.total_const
            if not (lo <= thi and hi >= tlo):
                return False
        for v in self.xs:
            d = model.dom(v)
            if not model.prune_ge(v, tlo - (hi - d[-1])):
                return False
            if not model.prune_le(v, thi - (lo - d[0])):
                return False
        return True


_BOX = st.tuples(st.integers(0, 5), st.integers(0, 5)).map(sorted)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    boxes=st.lists(_BOX, min_size=1, max_size=5),
    total=st.one_of(st.tuples(st.just("var"), _BOX), st.tuples(st.just("const"), st.integers(0, 26))),
)
def test_sum_eq_matches_two_sum_reference_and_brute_force(boxes, total):
    def build(cls):
        m = Model()
        xs = [m.new_var(lo, hi) for lo, hi in boxes]
        vids = [x.id for x in xs]
        if total[0] == "var":
            t = m.new_var(*total[1])
            con, order = cls(vids, t.id), xs + [t]
        else:
            con, order = cls(vids, None, total[1]), xs
        calls = []
        inner = con.propagate
        con.propagate = lambda model: calls.append(None) or inner(model)
        return m, m.post_constraint(con), order, calls

    m, cid, order, calls = build(SumEq)
    ref, ref_cid, ref_order, ref_calls = build(_TwoSumSumEq)
    # the same prunings in the same order, from the same number of wake-ups
    assert (cid is None) == (ref_cid is None)
    assert m._trail == ref._trail
    assert m.snapshot() == ref.snapshot()
    assert len(calls) == len(ref_calls)
    # the same search: every trial wakes it as often and ends in the same state
    assert labeling(m, order, []) == labeling(ref, ref_order, [])
    assert len(calls) == len(ref_calls)

    ranges = [range(lo, hi + 1) for lo, hi in boxes]
    if total[0] == "var":
        ranges.append(range(total[1][0], total[1][1] + 1))
        expected = [v for v in product(*ranges) if sum(v[:-1]) == v[-1]]
    else:
        expected = [v for v in product(*ranges) if sum(v) == total[1]]
    assert (solve_all(m, order) if cid is not None else []) == expected


class _RandomDrainModel(Model):
    """Drains its queue by popping a seeded random queued constraint."""

    def __init__(self, seed):
        super().__init__()
        self._rng = random.Random(seed)

    def _drain(self):
        queue, inq, cons = self._queue, self._inq, self._constraints
        while queue:
            i = self._rng.randrange(len(queue))
            cid = queue[i]
            del queue[i]
            inq[cid] = False
            if not cons[cid].propagate(self):
                self._clear_queue()
                return False
        return True


def _object_model(model, object_name, n):
    """``objects.make_model`` over a given (possibly random-drain) model, posted."""
    boxes = objects.initial_domains(object_name, n)
    featvars = [model.new_var(*boxes[name]) for name in objects.FEATURES[object_name]]
    dom = objects._sequence_domain(object_name, n)
    xs = [model.new_var(dom[0], dom[-1]) for _ in range(n)]
    assert objects.post_object(model, object_name, featvars, xs) is not None
    return featvars, xs


def _trace(model, object_name, n, cands, prefix):
    """Post the bounds, fix the feature prefix; the outcome and state of each step."""
    featvars, xs = _object_model(model, object_name, n)
    steps = [model.snapshot()]
    for cand in cands:
        if post_bound(model, cand, featvars, n) is None:
            return steps + ["post failed"], None
        steps.append(model.snapshot())
    for var, val in zip(featvars, prefix):
        if not model.assign(var.id, val):  # which domain a failure empties may vary
            return steps + ["assign failed"], None
        steps.append(model.snapshot())
    return steps, (featvars, xs)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(data=st.data(), object_name=st.sampled_from(sorted(objects.FEATURES)), seed=st.integers(0, 2**32))
def test_fixpoints_and_labeling_do_not_depend_on_queue_order(data, object_name, seed):
    n = data.draw(st.integers(1, 6), label="n")
    cat = catalog(object_name)
    cands = data.draw(st.lists(st.sampled_from(cat), max_size=len(cat)), label="bounds")
    tup = data.draw(st.sampled_from(objects.feature_tuples(object_name, n)), label="tuple")
    k = data.draw(st.integers(0, len(tup)), label="prefix length")
    bump = data.draw(st.integers(-1, 1), label="bump") if k else 0
    prefix = tup[: k - 1] + (tup[k - 1] + bump,) if k else ()

    fifo = Model()
    fifo_steps, fifo_vars = _trace(fifo, object_name, n, cands, prefix)
    shuffled = _RandomDrainModel(seed)
    shuffled_steps, shuffled_vars = _trace(shuffled, object_name, n, cands, prefix)
    assert shuffled_steps == fifo_steps
    if fifo_vars is None:
        return
    shuffled.leaf_memo = None  # the shared memo holds FIFO results only
    expected = labeling(shuffled, *shuffled_vars)
    assert labeling(fifo, *fifo_vars) == expected
    fifo.leaf_memo = None
    assert labeling(fifo, *fifo_vars) == expected
    assert shuffled.snapshot() == fifo.snapshot() == fifo_steps[-1]


class _RequeueIdempotentModel(Model):
    """Ignores ``idempotent``: a kind's own prunings queue it again."""

    def post_constraint(self, con):
        con.idempotent = False  # shadows the class declaration
        return super().post_constraint(con)


def _same_as_real_model(data, object_name, other_cls):
    """A drawn run of posts and assignments gives the same outcomes,
    snapshots and labelings on a plain ``Model`` and on ``other_cls``."""
    n = data.draw(st.integers(1, 6), label="n")
    cat = catalog(object_name)
    cands = data.draw(st.lists(st.sampled_from(cat), max_size=len(cat)), label="bounds")
    tuples = objects.feature_tuples(object_name, n)
    lex = data.draw(st.none() | st.sampled_from(tuples), label="lex tuple")
    # an extra sum over feature variables: a kind besides the bounds that
    # narrows feature domains without fixing them
    width = len(objects.FEATURES[object_name])
    scope = data.draw(st.none() | st.lists(st.integers(0, width - 1), min_size=1, max_size=3,
                                           unique=True), label="sum scope")
    if scope is not None:
        total = data.draw(st.sampled_from([None] + [i for i in range(width) if i not in scope]),
                          label="sum total")
        const = data.draw(st.integers(0, 2 * n), label="sum constant")
    tup = data.draw(st.sampled_from(tuples), label="tuple")
    prefix = tup[: data.draw(st.integers(0, len(tup)), label="prefix length")]
    # then some sequence variables, so domains also narrow without a fix
    dom = objects._sequence_domain(object_name, n)
    fixes = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(dom[0], dom[-1])), max_size=n),
                      label="sequence fixes")

    def trace(model):
        featvars, xs = _object_model(model, object_name, n)
        steps = [model.snapshot()]
        for cand in cands:
            if post_bound(model, cand, featvars, n) is None:
                return steps + ["post failed"], None
            steps.append(model.snapshot())
        if scope is not None:
            tvid = None if total is None else featvars[total].id
            if model.post_constraint(SumEq([featvars[i].id for i in scope], tvid, const)) is None:
                return steps + ["sum post failed"], None
            steps.append(model.snapshot())
        if lex is not None:
            if post_lex_greater(model, featvars, lex) is None:
                return steps + ["lex post failed"], None
            steps.append(model.snapshot())
        for var, val in list(zip(featvars, prefix)) + [(xs[i], val) for i, val in fixes]:
            if not model.assign(var.id, val):
                return steps + ["assign failed"], None
            steps.append(model.snapshot())
        return steps, (featvars, xs)

    real = Model()
    real_steps, real_vars = trace(real)
    other = other_cls()
    other_steps, other_vars = trace(other)
    assert other_steps == real_steps
    if real_vars is None:
        return
    other.leaf_memo = None  # memo-free, so it owes nothing to entries the real models stored
    expected = labeling(other, *other_vars)
    assert labeling(real, *real_vars) == expected
    real.leaf_memo = None
    assert labeling(real, *real_vars) == expected
    assert other.snapshot() == real.snapshot() == real_steps[-1]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(data=st.data(), object_name=st.sampled_from(sorted(objects.FEATURES)))
def test_not_requeueing_an_idempotent_kind_on_its_own_prunings_changes_nothing(data, object_name):
    _same_as_real_model(data, object_name, _RequeueIdempotentModel)


def test_every_idempotent_kind_is_property_tested():
    """Each kind that declares ``idempotent`` needs a test like the one below."""
    kinds = {cls for mod in (kernel, objects, bounds) for cls in vars(mod).values()
             if isinstance(cls, type) and issubclass(cls, Constraint) and cls.idempotent}
    assert kinds == {LexGreater}


_HOLEY = st.sets(st.integers(0, 4), min_size=1).map(sorted)


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(st.lists(st.tuples(_HOLEY, st.integers(0, 4)), min_size=1, max_size=4))
def test_lex_greater_prunes_nothing_when_run_again(columns):
    """Boxes with holes, against any tuple: a second ``propagate`` straight
    after a successful one prunes nothing."""
    m = Model()
    xs = []
    for dom, _ in columns:
        v = m.new_var(dom[0], dom[-1])
        for val in range(dom[0], dom[-1] + 1):
            if val not in dom:
                assert m.remove_value(v.id, val)
        xs.append(v.id)
    con = LexGreater(xs, [t for _, t in columns])
    if con.propagate(m):
        once = m.snapshot()
        assert con.propagate(m) and m.snapshot() == once
