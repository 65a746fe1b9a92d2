"""Test-only constraint kinds, a tuple-spec posting front end, an
exhaustive enumerator that shares no code with the kernel's search, and
the plain restart enumeration the library's resumed steps must equal.

Nothing in the library needs these; the kernel tests, the acceptance
fixtures and a few cross-checks do.
"""

from __future__ import annotations

import copy
import random
from typing import Callable, Sequence

from boundforge.bounds import BoundCandidate, catalog, posted_bounds
from boundforge.errors import BoundforgeError
from boundforge.kernel import (
    Constraint,
    LabelResult,
    Model,
    SumEq,
    VarRef,
    labeling,
    post_lex_greater,
)
from boundforge.selector import SolutionRecord


def sweep_slice():
    """(object, n, candidates) for both objects at n = 3..8: the catalog in
    order, and the first half of a shuffle seeded by n."""
    for object_name in ("binseq", "partition"):
        for n in range(3, 9):
            cat = catalog(object_name)
            shuffled = list(cat)
            random.Random(n).shuffle(shuffled)
            yield object_name, n, cat
            yield object_name, n, shuffled[: len(cat) // 2]


def distinct(cands: Sequence[BoundCandidate]) -> list[BoundCandidate]:
    """Equal but distinct copies of ``cands``, in order: a run on them takes
    no kept run (see ``selector._run``), so its searches are its own."""
    return [BoundCandidate(c.id, c.object, c.target, c.direction, c.rhs) for c in cands]


def domain(model: Model, v: VarRef) -> tuple[int, ...]:
    """The domain of ``v``, which must be a variable of ``model``."""
    (vid,) = model.var_ids((v,))
    return model.dom(vid)


def model_state(model: Model) -> tuple:
    """Every part of a model that a search, a post or a retraction may
    touch: domains, owner lists, constraint count, trail (the owner trail
    is part of it) and its length, queue, queue flags and watcher lists.
    The clauses reads record are a log, not state, so they are left out."""
    return (
        model.snapshot(),
        list(model._lo_owners),
        list(model._hi_owners),
        list(model._trail),
        len(model._constraints),
        len(model._trail),
        list(model._queue),
        list(model._inq),
        [list(lst) for lst in model._watchers],
    )


def memo_free(model: Model, featvars: Sequence[VarRef], xs: Sequence[VarRef],
              path=None) -> LabelResult:
    """``labeling`` of the model as it stands, with its leaf memo detached
    for the call (so no subtree is replayed and no prefix bulk-counted)."""
    memo, model.leaf_memo = model.leaf_memo, None
    try:
        return labeling(model, featvars, xs, path)
    finally:
        model.leaf_memo = memo


def twin(model: Model, *others):
    """A deep copy of ``model`` and of ``others`` (a path on it, say) that
    changes apart from the model: its domains, owners, trail, flags and
    posted bounds are copied, and what the model's copies share anyway
    (every shareable constraint, the bounds' candidates and the leaf memo)
    is shared."""
    shared = {id(con): con for con in model._constraints if con.shareable}
    shared.update({id(con.bound): con.bound for con in posted_bounds(model)})
    if model.leaf_memo is not None:
        shared[id(model.leaf_memo)] = model.leaf_memo
    return copy.deepcopy((model, *others), shared)


def restart_enumeration(model: Model, featvars: Sequence[VarRef],
                        xs: Sequence[VarRef]) -> list[SolutionRecord]:
    """The records of the full enumeration as the paper defines them, with
    no path kept between steps: each step posts the jump off the last
    solution with ``post_lex_greater``, labels and retracts it.  The model
    is left as it was."""
    records: list[SolutionRecord] = []
    prev = None
    while True:
        mark = model.mark()
        if prev is not None and post_lex_greater(model, featvars, prev) is None:
            records.append(SolutionRecord(len(records), 0, ()))
            return records
        try:
            res = labeling(model, featvars, xs)
        finally:
            model.retract_to(mark)
        if res.finished:
            records.append(SolutionRecord(len(records), res.nback, ()))
            return records
        prev = res.sol[: len(featvars)]
        records.append(SolutionRecord(len(records), res.nback, prev))


class UnsupportedConstraintError(BoundforgeError):
    """Constraint kind not known to :func:`post`."""


class EqVars(Constraint):
    """a = b, bounds-consistent hull intersection, eager check when fixed."""

    kind = "eq"

    def __init__(self, a: int, b: int):
        super().__init__((a, b))
        self.a, self.b = a, b

    def propagate(self, model: Model) -> bool:
        doms = model._doms
        da, db = doms[self.a], doms[self.b]
        lo, hi = max(da[0], db[0]), min(da[-1], db[-1])
        if lo > hi:
            return False
        for vid in (self.a, self.b):
            if not (model.prune_ge(vid, lo) and model.prune_le(vid, hi)):
                return False
        da, db = doms[self.a], doms[self.b]
        if len(da) == 1 and len(db) == 1 and da[0] != db[0]:
            return False
        return True


class LeConst(Constraint):
    kind = "le_const"

    def __init__(self, a: int, c: int):
        super().__init__((a,))
        self.a, self.c = a, c

    def propagate(self, model: Model) -> bool:
        return model.prune_le(self.a, self.c)


class GeConst(Constraint):
    kind = "ge_const"

    def __init__(self, a: int, c: int):
        super().__init__((a,))
        self.a, self.c = a, c

    def propagate(self, model: Model) -> bool:
        return model.prune_ge(self.a, self.c)


class LeVars(Constraint):
    """a <= b, bounds-consistent."""

    kind = "le"

    def __init__(self, a: int, b: int):
        super().__init__((a, b))
        self.a, self.b = a, b

    def propagate(self, model: Model) -> bool:
        doms = model._doms
        return model.prune_le(self.a, doms[self.b][-1]) and model.prune_ge(self.b, doms[self.a][0])


class Check(Constraint):
    """Predicate over a scope, checked only once every scope variable is fixed."""

    kind = "check"

    def __init__(self, xs: Sequence[int], predicate: Callable[[tuple[int, ...]], bool]):
        super().__init__(tuple(xs))
        self.xs = tuple(xs)
        self.predicate = predicate

    def propagate(self, model: Model) -> bool:
        doms = model._doms
        vals = []
        for v in self.xs:
            d = doms[v]
            if len(d) != 1:
                return True
            vals.append(d[0])
        return bool(self.predicate(tuple(vals)))


def post(model: Model, spec: tuple) -> int | None:
    """Post a constraint described by a (kind, args...) tuple.

    Returns its id, or None when posting failed (the model is then
    unchanged).  Unknown kinds raise :class:`UnsupportedConstraintError`.
    """

    def vid(v: VarRef) -> int:
        return model.var_ids((v,))[0]

    kind = spec[0]
    if kind == "eq":
        return model.post_constraint(EqVars(vid(spec[1]), vid(spec[2])))
    if kind == "le_const":
        return model.post_constraint(LeConst(vid(spec[1]), spec[2]))
    if kind == "ge_const":
        return model.post_constraint(GeConst(vid(spec[1]), spec[2]))
    if kind == "sum_eq":
        xs = model.var_ids(spec[1])
        total = spec[2]
        if isinstance(total, VarRef):
            return model.post_constraint(SumEq(xs, vid(total)))
        return model.post_constraint(SumEq(xs, None, int(total)))
    if kind == "lex_greater":
        return post_lex_greater(model, spec[1], spec[2])
    if kind == "check":
        return model.post_constraint(Check(model.var_ids(spec[1]), spec[2]))
    raise UnsupportedConstraintError(f"unknown constraint kind {kind!r}")


def solve_all(model: Model, order: Sequence[VarRef]) -> list[tuple[int, ...]]:
    """Every solution over ``order``, in lexicographic order.

    An enumerator independent of ``kernel.labeling``, in the same order and
    value discipline: variables are fixed left to right by increasing value
    with ``Model.assign``, and each trial is undone on the trail.  It uses
    no leaf memo.  The model state is restored before returning.
    """
    vids = model.var_ids(order)
    out: list[tuple[int, ...]] = []

    def extend(k: int) -> None:
        if k == len(vids):
            out.append(tuple(model.dom(v)[0] for v in vids))
            return
        for val in model.dom(vids[k]):
            mark = len(model._trail)
            if model.assign(vids[k], val):
                extend(k + 1)
            model._undo_to(mark)

    extend(0)
    return out
