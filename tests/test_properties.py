"""Property tests of the kernel propagators against references and brute force."""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from boundforge.kernel import Constraint, Model, SumEq, labeling, solve_all


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

    m, handle, order, calls = build(SumEq)
    ref, ref_handle, ref_order, ref_calls = build(_TwoSumSumEq)
    # the same prunings in the same order, from the same number of wake-ups
    assert (handle is None) == (ref_handle is None)
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
    assert (solve_all(m, order) if handle is not None else []) == expected
