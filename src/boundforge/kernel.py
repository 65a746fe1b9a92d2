"""Trail-based finite-domain constraint store with deterministic labeling.

The kernel is deliberately small: integer variables with explicit finite
domains, a chronological trail with marks for incremental post/retract,
and a fixed left-to-right, increasing-value labeling search that counts
backtracks.

Backtrack semantics (pinned, because every consumer depends on them):
``nback`` counts the events where a decision assignment fails immediately,
i.e. propagation (including any check that fires on newly fixed variables)
wipes out a domain right after the assignment.  Unwinding a decision
because its subtree was exhausted is not counted.  Proving exhaustion
therefore costs exactly the number of failed value trials in the search.
A :class:`LeafMemo` changes how a labeling reaches its count, never the
count: it replays a subtree's stored count, and counts a trial that the
owner's prefix check is certain to fail without making it.

Propagation strength is fixed and documented per constraint class; it is
part of the observable behaviour (backtrack counts), not an optimization
detail.

Every propagator wakes when a domain it watches changes: each variable has
one watcher list.  Two kinds of wake-up are skipped.  A kind that declares
``idempotent`` keeps its queue flag while it runs, and drops it when it
returns or raises, so its own prunings do not queue it again: a second run
straight after it would prune nothing (the idempotence case of Schulte and
Stuckey, "Efficient Constraint Propagation Engines", TOPLAS 2008).  On the
leaf-memo path, :func:`labeling` *parks* the owner's prefix check for the
whole search by holding its queue flag, so nothing queues it, and tests
each feature prefix itself: the check never prunes and the prefix sets are
prefix-closed, so a trial that the check would fail still counts exactly
one failure.  Neither skip moves a fixpoint, a failure or a count.

Every labeling searches to its full count: it ends at its first solution or
once it has proved that none remains, never earlier.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    InvalidArgumentError,
    InvalidDomainError,
    InvalidMarkError,
)


@dataclass(frozen=True)
class VarRef:
    """Handle to one finite-domain variable of a :class:`Model`."""

    model_id: int
    id: int


@dataclass(frozen=True)
class TrailMark:
    """Position in a model's trail; ``retract_to`` restores this exact state."""

    model_id: int
    trail_len: int
    ncons: int


@dataclass(frozen=True, slots=True)
class LabelResult:
    """Outcome of one labeling run.

    ``sol`` holds the values of the labeled variables in labeling order and
    is empty iff ``finished`` (no solution remains).
    """

    nback: int
    finished: bool
    sol: tuple[int, ...]


class Constraint:
    """Base class for propagators.

    ``watched`` lists, once each, the variable ids whose domain changes
    re-schedule the propagator.  ``propagate`` prunes through the model
    helpers and returns False exactly when it wiped out a domain.  A kind
    that sets ``idempotent`` promises that a second ``propagate`` straight
    after a successful one prunes nothing, so its own prunings do not
    re-schedule it.
    """

    kind = "constraint"
    idempotent = False
    # every variable the propagator reads or prunes, declared only by the
    # kinds whose scope is exactly that (see LeafMemo.applies)
    footprint: tuple[int, ...] | None = None

    def __init__(self, watched: Sequence[int]):
        self.watched = tuple(dict.fromkeys(watched))

    def propagate(self, model: "Model") -> bool:
        raise NotImplementedError


class Model:
    """A single-threaded finite-domain store with one chronological trail."""

    _next_id = 0

    def __init__(self) -> None:
        Model._next_id += 1
        self.model_id = Model._next_id
        self._doms: list[tuple[int, ...]] = []
        self._trail: list[tuple[int, tuple[int, ...]]] = []
        self._constraints: list[Constraint] = []
        # per variable: the constraints its domain changes wake
        self._watchers: list[list[int]] = []
        self._queue: deque[int] = deque()
        # per constraint: whether it is queued (or running idempotent, or
        # parked by a search)
        self._inq: list[bool] = []
        self.leaf_memo: LeafMemo | None = None  # attached by an object post

    # -- variables ---------------------------------------------------------

    def new_var(self, lo: int, hi: int) -> VarRef:
        """Create a variable with domain {lo..hi}."""
        if lo > hi:
            raise InvalidDomainError(f"empty initial domain [{lo}, {hi}]")
        vid = len(self._doms)
        self._doms.append(tuple(range(lo, hi + 1)))
        self._watchers.append([])
        return VarRef(self.model_id, vid)

    def var_id(self, v: VarRef) -> int:
        """The id of ``v`` in this model, for posting a propagator over it;
        a variable of another model raises :class:`InvalidArgumentError`."""
        if v.model_id != self.model_id:
            raise InvalidArgumentError("variable belongs to another model")
        return v.id

    def var_ids(self, vs: Sequence[VarRef]) -> list[int]:
        """The ids of ``vs`` in this model, checked as :meth:`var_id` does."""
        mid = self.model_id
        ids = [v.id for v in vs if v.model_id == mid]
        if len(ids) != len(vs):
            raise InvalidArgumentError("variable belongs to another model")
        return ids

    def domain(self, v: VarRef) -> tuple[int, ...]:
        return self._doms[self.var_id(v)]

    def dom(self, vid: int) -> tuple[int, ...]:
        return self._doms[vid]

    def snapshot(self) -> tuple[tuple[int, ...], ...]:
        """Immutable copy of every domain, for restoration checks."""
        return tuple(self._doms)

    # -- trail -------------------------------------------------------------

    def mark(self) -> TrailMark:
        return TrailMark(self.model_id, len(self._trail), len(self._constraints))

    def retract_to(self, mark: TrailMark) -> None:
        """Undo every pruning and constraint posted after ``mark``."""
        if mark.model_id != self.model_id:
            raise InvalidMarkError("mark belongs to another model")
        if mark.trail_len > len(self._trail) or mark.ncons > len(self._constraints):
            raise InvalidMarkError("mark already passed")
        if self._queue:
            self._clear_queue()
        self._undo_to(mark.trail_len)
        if self.leaf_memo is not None and mark.ncons < self.leaf_memo.owned.stop:
            self.leaf_memo = None
        cons, inq, watchers = self._constraints, self._inq, self._watchers
        while len(cons) > mark.ncons:
            con = cons.pop()
            inq.pop()
            for vid in con.watched:  # each once, with this constraint last in its list
                watchers[vid].pop()

    def _undo_to(self, trail_len: int) -> None:
        """Restore every domain pruned after the trail had ``trail_len`` entries."""
        trail, doms = self._trail, self._doms
        while len(trail) > trail_len:
            vid, old = trail.pop()
            doms[vid] = old

    # -- pruning helpers (used by propagators) ------------------------------

    def _set_dom(self, vid: int, new: tuple[int, ...]) -> bool:
        doms = self._doms
        old = doms[vid]
        if new == old:
            return True
        self._trail.append((vid, old))
        doms[vid] = new
        if not new:
            return False
        inq, queue = self._inq, self._queue
        for cid in self._watchers[vid]:
            if not inq[cid]:
                inq[cid] = True
                queue.append(cid)
        return True

    def prune_le(self, vid: int, ub: int) -> bool:
        d = self._doms[vid]
        if d and d[-1] <= ub:
            return True
        return self._set_dom(vid, d[: bisect_right(d, ub)])

    def prune_ge(self, vid: int, lb: int) -> bool:
        d = self._doms[vid]
        if d and d[0] >= lb:
            return True
        return self._set_dom(vid, d[bisect_left(d, lb):])

    def remove_value(self, vid: int, val: int) -> bool:
        d = self._doms[vid]
        i = bisect_left(d, val)
        if i >= len(d) or d[i] != val:
            return True
        return self._set_dom(vid, d[:i] + d[i + 1:])

    def fix(self, vid: int, val: int) -> bool:
        d = self._doms[vid]
        if len(d) == 1 and d[0] == val:
            return True
        i = bisect_left(d, val)
        if i >= len(d) or d[i] != val:
            return self._set_dom(vid, ())
        return self._set_dom(vid, (val,))

    # -- posting and propagation --------------------------------------------

    def post_constraint(self, con: Constraint) -> int | None:
        """Post ``con`` and return its id; on failure the model is rolled
        back and None returned, and a propagator that raises rolls it back
        before the error propagates."""
        trail_len = len(self._trail)
        cid = len(self._constraints)
        self._constraints.append(con)
        self._inq.append(True)
        for vid in con.watched:
            self._watchers[vid].append(cid)
        self._queue.append(cid)
        ok = False
        try:
            ok = self._drain()
        finally:
            if not ok:
                self.retract_to(TrailMark(self.model_id, trail_len, cid))
        return cid if ok else None

    def _drain(self) -> bool:
        queue, inq, cons = self._queue, self._inq, self._constraints
        while queue:
            cid = queue.popleft()
            con = cons[cid]
            if con.idempotent:  # its flag stays set while it runs
                try:
                    ok = con.propagate(self)
                finally:  # also when it raises, or nothing would queue it again
                    inq[cid] = False
            else:
                inq[cid] = False
                ok = con.propagate(self)
            if not ok:
                self._clear_queue()
                return False
        return True

    def _clear_queue(self) -> None:
        # a parked constraint is never queued, so its flag is never cleared here
        inq = self._inq
        for cid in self._queue:
            inq[cid] = False
        self._queue.clear()

    def assign(self, vid: int, val: int) -> bool:
        """Fix a variable and propagate to fixpoint; False on failure."""
        if not self.fix(vid, val):
            return False
        return self._drain()


# -- concrete constraints ----------------------------------------------------


class SumEq(Constraint):
    """sum(xs) = total (variable or constant), bounds-consistent."""

    kind = "sum_eq"

    def __init__(self, xs: Sequence[int], total_var: int | None, total_const: int = 0):
        watched = tuple(xs) + ((total_var,) if total_var is not None else ())
        super().__init__(watched)
        self.xs = tuple(xs)
        self.total_var = total_var
        self.total_const = total_const

    def propagate(self, model: Model) -> bool:
        doms = model._doms
        lo = hi = 0
        for v in self.xs:
            d = doms[v]
            lo += d[0]
            hi += d[-1]
        if self.total_var is not None:
            if not (model.prune_ge(self.total_var, lo) and model.prune_le(self.total_var, hi)):
                return False
            d = doms[self.total_var]
            tlo, thi = d[0], d[-1]
        else:
            tlo = thi = self.total_const
            if not (lo <= thi and hi >= tlo):
                return False
        # Both limits use the domain read before this variable's own
        # pruning.  A prune_ge that leaves the domain non-empty keeps its
        # maximum, so d[-1] is also the current maximum for the second test;
        # each helper is called only when it would prune.
        for v in self.xs:
            d = doms[v]
            lb = tlo - (hi - d[-1])
            if d[0] < lb and not model.prune_ge(v, lb):
                return False
            ub = thi - (lo - d[0])
            if d[-1] > ub and not model.prune_le(v, ub):
                return False
        return True


class LexGreater(Constraint):
    """vars >lex tuple (constant), domain-complete filtering.

    Values below the tie value are pruned at the first non-fixed position of
    the forced-equal prefix; the tie value itself is dropped when the suffix
    cannot break the tie upward.  Fails exactly when the domain box maximum
    is lexicographically <= the tuple.
    """

    kind = "lex_greater"
    idempotent = True

    def __init__(self, xs: Sequence[int], tup: Sequence[int]):
        if len(xs) != len(tup):
            raise InvalidArgumentError("lex-greater arity mismatch")
        self.xs = self.footprint = tuple(xs)
        self.tup = tuple(tup)
        super().__init__(self.xs)

    def _suffix_can_exceed(self, model: Model, j: int) -> bool:
        doms = model._doms
        for p in range(j, len(self.xs)):
            d = doms[self.xs[p]]
            if d[-1] > self.tup[p]:
                return True
            if self.tup[p] not in d:
                return False
        return False

    def propagate(self, model: Model) -> bool:
        doms, xs, tup = model._doms, self.xs, self.tup
        k = len(xs)
        i = 0
        while True:
            if i == k:
                return False
            vid, t = xs[i], tup[i]
            d = doms[vid]
            if d[0] < t:  # prune_ge would change nothing otherwise
                if not model.prune_ge(vid, t):
                    return False
                d = doms[vid]
            if d[-1] > t:
                break
            i += 1
        if d[0] == t and not self._suffix_can_exceed(model, i + 1):
            if not model.remove_value(vid, t):
                return False
        return True


# -- posting API -------------------------------------------------------------


def post_lex_greater(model: Model, xs: Sequence[VarRef], tup: Sequence[int]) -> int | None:
    """Post (xs) >lex (tup); fails iff the tuple is the box maximum."""
    if len(xs) != len(tup):
        raise InvalidArgumentError(
            f"lex-greater arity mismatch: {len(xs)} vars vs {len(tup)} values"
        )
    return model.post_constraint(LexGreater(model.var_ids(xs), tup))


# -- search ------------------------------------------------------------------


@dataclass(eq=False)
class LeafMemo:
    """Leaf memo at the split of a labeling between two groups of variables.

    An object post attaches one to its model.  Labeling fixes every one of
    ``featvars`` before any of ``xs``; from then on only the owner's
    constraints (indices ``owned``) wake, so the rest of the search, its
    failed trials and its first solution, depends only on the fixed tuple
    and on the domains of ``inner`` (every non-feature variable the owner
    reads).  ``table``, shared by every model of one owner kind and size,
    maps each tuple to (``inner`` domains, failed trials, witness over
    ``xs`` or None), so each such subtree is searched once.

    ``prefixes[k]`` holds every length-k feature prefix that some solution
    extends, closed under prefixes.  The owner posts a check (constraint id
    ``check``) that fails any other prefix.  A search that uses the memo
    parks that check and tests the prefixes itself, so a trial it would
    fail is counted as one failure, and is not made when its own value is
    the one that fails the prefix.
    """

    featvars: tuple[int, ...]
    xs: tuple[int, ...]
    inner: tuple[int, ...]
    owned: range
    check: int
    prefixes: tuple[frozenset, ...]
    table: dict

    def __post_init__(self) -> None:
        self.order = list(self.featvars + self.xs)
        self.feats = frozenset(self.featvars)

    def applies(self, model: Model, vids: list[int]) -> bool:
        """True when labeling ``vids`` may use the memo: they are featvars
        then xs, and every constraint the owner did not post declares a
        footprint inside featvars, so none wakes below the split."""
        if vids != self.order:
            return False
        cons, owned, feats = model._constraints, self.owned, self.feats
        for con in cons[: owned.start] + cons[owned.stop:]:
            if con.footprint is None or not feats.issuperset(con.footprint):
                return False
        return True


def _dfs(
    model: Model,
    order: Sequence[VarRef],
    on_solution: Callable[[tuple[int, ...]], bool],
    memo: LeafMemo | None = None,
) -> int:
    """Depth-first search over ``order``, fixing left to right by increasing value.

    ``on_solution`` receives each solution tuple and returns True to stop the
    search.  Returns the backtrack count; the model state is restored.
    ``memo`` (labeling only: its ``on_solution`` stops at the first
    solution) is used when it applies to this search, and gives the same
    count and solution as searching without it.
    """
    vids = model.var_ids(order)
    last = len(vids)
    doms, trail, inq = model._doms, model._trail, model._inq
    set_dom, drain, undo = model._set_dom, model._drain, model._undo_to
    base = len(trail)
    nback = 0
    if memo is not None and not memo.applies(model, vids):
        memo = None
    cut, prefixes = (len(memo.featvars), memo.prefixes) if memo is not None else (-1, ())
    # The queue is empty between searches, so no flag is set on entry.  The
    # memo's check is parked here and its flag cleared on every way out;
    # nothing queues a parked constraint, so no drain clears it.
    if memo is not None:
        inq[memo.check] = True
    found: tuple[int, ...] = ()

    def split(key: tuple[int, ...]) -> bool:
        nonlocal nback
        state = tuple([doms[v] for v in memo.inner])
        hit = memo.table.get(key)
        if hit is not None and hit[0] == state:
            nback += hit[1]
            return hit[2] is not None and on_solution(key + hit[2])
        before = nback
        stop = dfs(cut, None)
        if hit is None:
            memo.table[key] = (state, nback - before, found[cut:] if stop else None)
        return stop

    # A trial posts no constraint and leaves the queue empty (a failed drain
    # clears it), so undoing the trail restores the state exactly.  The
    # labeled value lies in the domain, so fixing it cannot fail by itself.
    # Above the split, ``prefix`` holds the fixed feature values; below it,
    # None.  With the prefix check parked, a trial whose propagation fixes
    # later features onto a prefix no feasible tuple extends succeeds; the
    # levels down to the first infeasible one then hold one value each, and
    # the prefix test there counts the one failure the check would have
    # counted at the trial.
    def dfs(k: int, prefix: tuple[int, ...] | None) -> bool:
        nonlocal nback, found
        if k == last:
            found = tuple([doms[v][0] for v in vids])
            return on_solution(found)
        if k == cut and prefix is not None:
            return split(prefix)
        vid = vids[k]
        for val in doms[vid]:
            nxt = prefix
            if k < cut:
                nxt = prefix + (val,)
                if nxt not in prefixes[k + 1]:
                    nback += 1  # the owner's prefix check would fail this trial
                    continue
            mk = len(trail)
            set_dom(vid, (val,))
            if drain():
                if dfs(k + 1, nxt):
                    return True
            else:
                nback += 1
            undo(mk)
        return False

    try:
        dfs(0, ())
    finally:
        if model._queue:  # only when a propagator raised
            model._clear_queue()
        if memo is not None:
            inq[memo.check] = False
        undo(base)
    return nback


def labeling(model: Model, featvars: Sequence[VarRef], xs: Sequence[VarRef]) -> LabelResult:
    """Find the lexicographically smallest solution of featvars ++ xs.

    Variables are fixed left to right, scanning each domain by increasing
    value.  Returns the backtrack count together with the solution, or
    ``finished=True`` with the count spent proving that none remains.  The
    model state is restored before returning.
    """
    order = list(featvars) + list(xs)
    if not order:
        raise InvalidArgumentError("labeling needs at least one variable")
    found: list[tuple[int, ...]] = []
    nback = _dfs(model, order, lambda sol: found.append(sol) or True, model.leaf_memo)
    if found:
        return LabelResult(nback, False, found[0])
    return LabelResult(nback, True, ())
