"""Kernel fixtures: domains, posting, lex filtering, retraction, labeling."""

from __future__ import annotations

from itertools import product

import pytest

from boundforge.errors import InvalidArgumentError
from boundforge.kernel import Constraint, LabelResult, Model, SumEq, labeling, post_lex_greater

from kernel_helpers import UnsupportedConstraintError, model_state, post, solve_all
from test_parking import _Boom


def test_new_var_ranges():
    m = Model()
    assert m.domain(m.new_var(0, 1)) == (0, 1)
    fixed = m.new_var(3, 3)
    assert m.domain(fixed) == (3,)
    assert len(m.domain(m.new_var(1, 8))) == 8


def test_new_var_empty_range_rejected():
    with pytest.raises(InvalidArgumentError):
        Model().new_var(2, 1)


def test_post_eq_already_satisfied():
    m = Model()
    a, b = m.new_var(1, 1), m.new_var(1, 1)
    before = m.snapshot()
    cid = post(m, ("eq", a, b))
    assert cid is not None
    assert m.snapshot() == before


def test_post_eq_contradiction_leaves_no_residue():
    m = Model()
    a, b = m.new_var(1, 1), m.new_var(2, 2)
    before = m.snapshot()
    assert post(m, ("eq", a, b)) is None
    assert m.snapshot() == before


def test_post_le_const_prunes_interval():
    m = Model()
    a = m.new_var(1, 3)
    assert post(m, ("le_const", a, 2)) is not None
    assert m.domain(a) == (1, 2)


def test_post_unknown_kind_rejected():
    m = Model()
    a = m.new_var(0, 1)
    with pytest.raises(UnsupportedConstraintError):
        post(m, ("alldifferent", [a]))


def test_lex_greater_single_var_prunes():
    m = Model()
    a = m.new_var(0, 1)
    assert post_lex_greater(m, [a], [0]) is not None
    assert m.domain(a) == (1,)


def test_lex_greater_fails_on_box_maximum():
    m = Model()
    a = m.new_var(0, 1)
    before = m.snapshot()
    assert post_lex_greater(m, [a], [1]) is None
    assert m.snapshot() == before


def test_lex_greater_two_vars_matches_enumeration():
    # oracle: enumerate all four 0/1 pairs and keep those > (0, 1)
    expected = sorted(t for t in product((0, 1), repeat=2) if t > (0, 1))
    assert expected == [(1, 0), (1, 1)]
    m = Model()
    a, b = m.new_var(0, 1), m.new_var(0, 1)
    assert post_lex_greater(m, [a, b], [0, 1]) is not None
    assert solve_all(m, [a, b]) == expected


def test_lex_greater_arity_mismatch():
    m = Model()
    a = m.new_var(0, 1)
    with pytest.raises(InvalidArgumentError):
        post_lex_greater(m, [a], [0, 1])


def test_retract_single_post():
    m = Model()
    a = m.new_var(0, 5)
    before = m.snapshot()
    mark = m.mark()
    assert post(m, ("le_const", a, 1)) is not None
    m.retract_to(mark)
    assert m.snapshot() == before


def test_retract_after_failed_post_is_noop():
    m = Model()
    a = m.new_var(0, 1)
    mark = m.mark()
    before = m.snapshot()
    assert post(m, ("ge_const", a, 5)) is None
    m.retract_to(mark)
    assert m.snapshot() == before


def test_retract_restores_across_two_posts():
    m = Model()
    b = m.new_var(0, 5)
    before = m.snapshot()
    mark = m.mark()
    assert post(m, ("ge_const", b, 2)) is not None
    assert post(m, ("le_const", b, 2)) is not None
    assert m.domain(b) == (2,)
    m.retract_to(mark)
    assert m.snapshot() == before


def test_stale_mark_rejected():
    m = Model()
    a = m.new_var(0, 3)
    outer = m.mark()
    post(m, ("le_const", a, 2))
    inner = m.mark()
    m.retract_to(outer)
    with pytest.raises(InvalidArgumentError):
        m.retract_to(inner)


def test_mark_from_other_model_rejected():
    m1, m2 = Model(), Model()
    m1.new_var(0, 1)
    with pytest.raises(InvalidArgumentError):
        m2.retract_to(m1.mark())


def test_labeling_first_value_succeeds():
    m = Model()
    a = m.new_var(0, 1)
    assert labeling(m, [a], []) == LabelResult(0, False, (0,))


def test_labeling_propagation_fixes_before_search():
    m = Model()
    a = m.new_var(0, 1)
    assert post(m, ("ge_const", a, 1)) is not None
    assert labeling(m, [a], []) == LabelResult(0, False, (1,))


def test_labeling_counts_failed_leaf_check():
    # checker accepts only a=1 and propagates nothing: value 0 fails at the
    # leaf, costing exactly one backtrack
    m = Model()
    a = m.new_var(0, 1)
    assert post(m, ("check", [a], lambda v: v[0] == 1)) is not None
    assert labeling(m, [a], []) == LabelResult(1, False, (1,))


def test_labeling_exhaustion_counts_every_failed_trial():
    m = Model()
    a = m.new_var(0, 1)
    assert post(m, ("check", [a], lambda v: False)) is not None
    assert labeling(m, [a], []) == LabelResult(2, True, ())


def test_labeling_restores_state_and_is_deterministic():
    m = Model()
    a, b = m.new_var(0, 2), m.new_var(0, 2)
    post(m, ("check", [a, b], lambda v: v[0] + v[1] == 3))
    before = m.snapshot()
    first = labeling(m, [a], [b])
    assert m.snapshot() == before
    assert first == labeling(m, [a], [b])
    assert first.sol == (1, 2)


def _brute_force(domains, predicates):
    sols = []
    for tup in product(*domains):
        if all(p(tup) for p in predicates):
            sols.append(tup)
    return sols


def test_a_post_whose_propagation_raises_leaves_the_model_unchanged():
    """The posted constraint fixes b=2, the sum then fixes a=1, and that fix
    wakes a propagator that raises.  The error propagates, and the post and
    both prunings are undone."""
    m = Model()
    a, b = m.new_var(0, 3).id, m.new_var(0, 3).id
    assert m.post_constraint(SumEq([a, b], None, 3)) is not None
    assert m.post_constraint(_Boom(a, 1)) is not None
    before = model_state(m)
    with pytest.raises(RuntimeError):
        m.post_constraint(SumEq([b], None, 2))
    assert model_state(m) == before
    assert m.assign(b, 0) and m.dom(a) == (3,)  # every propagator still wakes


class _Woken(Constraint):
    """Counts its runs and prunes nothing."""

    kind = "woken"
    shareable = True  # the one copy taken of its model never propagates

    def __init__(self, vid):
        super().__init__((vid,))
        self.runs = 0

    def propagate(self, model):
        self.runs += 1
        return True


def test_an_assign_whose_propagation_raises_leaves_nothing_queued():
    """Fixing x queues both of its constraints; the first raises while the
    second still waits.  The queue must be empty and every flag off after
    the error, so the model can be copied and the next assign does not run
    the constraint that was left waiting."""
    m = Model()
    x, y = m.new_var(0, 1).id, m.new_var(0, 1).id
    assert m.post_constraint(_Boom(x, 1)) is not None
    woken = _Woken(x)
    assert m.post_constraint(woken) is not None
    assert woken.runs == 1
    with pytest.raises(RuntimeError):
        m.assign(x, 1)
    assert not m._queue and not any(m._inq)
    m.copy()
    m._undo_to(0)
    assert m.assign(y, 0) and woken.runs == 1


def test_labeling_returns_lex_smallest_vs_brute_force():
    # mixed constraint soup over 12 total domain values
    m = Model()
    a, b, c = m.new_var(0, 2), m.new_var(0, 2), m.new_var(0, 1)
    t = m.new_var(0, 3)
    assert post(m, ("sum_eq", [a, b, c], t)) is not None
    assert post(m, ("le_const", t, 3)) is not None
    assert post_lex_greater(m, [a, b], [0, 2]) is not None
    assert post(m, ("check", [a, c], lambda v: v[0] + v[1] != 2)) is not None

    domains = [(0, 1, 2), (0, 1, 2), (0, 1), (0, 1, 2, 3)]
    predicates = [
        lambda v: v[0] + v[1] + v[2] == v[3],
        lambda v: v[3] <= 3,
        lambda v: (v[0], v[1]) > (0, 2),
        lambda v: v[0] + v[2] != 2,
    ]
    expected = sorted(_brute_force(domains, predicates))
    res = labeling(m, [a, b], [c, t])
    assert not res.finished
    assert res.sol == expected[0]
    assert solve_all(m, [a, b, c, t]) == expected


def test_restoration_over_nested_post_retract():
    m = Model()
    a, b = m.new_var(0, 4), m.new_var(0, 4)
    initial = m.snapshot()
    outer = m.mark()
    post(m, ("le_const", a, 3))
    inner = m.mark()
    post(m, ("ge_const", b, 2))
    post(m, ("eq", a, b))
    m.retract_to(inner)
    post(m, ("le_const", b, 1))
    m.retract_to(outer)
    assert m.snapshot() == initial


def _soup():
    m = Model()
    a, b, c = m.new_var(0, 2), m.new_var(0, 2), m.new_var(0, 1)
    t = m.new_var(0, 3)
    post(m, ("sum_eq", [a, b, c], t))
    post(m, ("check", [a, c], lambda v: v[0] + v[1] != 2))
    return m, [a, b], [c, t]


def _eq_chain():
    m = Model()
    a, b, c = m.new_var(0, 3), m.new_var(1, 4), m.new_var(0, 2)
    post(m, ("eq", a, b))
    post(m, ("ge_const", c, 1))
    return m, [a], [b, c]


def _no_solution():
    m = Model()
    a, b = m.new_var(0, 2), m.new_var(0, 2)
    post(m, ("check", [a, b], lambda v: v[0] + v[1] == 5))
    return m, [a, b], []


def _lex_tail():
    m = Model()
    a, b = m.new_var(0, 2), m.new_var(0, 2)
    post_lex_greater(m, [a, b], [1, 1])
    post(m, ("le_const", b, 1))
    return m, [a, b], []


@pytest.mark.parametrize("build", [_soup, _eq_chain, _no_solution, _lex_tail])
def test_labeling_finds_the_first_solution_solve_all_lists(build):
    m, featvars, xs = build()
    before = m.snapshot()
    res = labeling(m, featvars, xs)
    assert m.snapshot() == before
    sols = solve_all(m, featvars + xs)
    assert m.snapshot() == before
    assert res.finished == (sols == [])
    assert res.sol == (sols[0] if sols else ())
