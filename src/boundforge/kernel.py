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

:func:`labeling` is the kernel's one search, and it has one mode: it ends
at its first solution or once it has proved that none remains, never
earlier, so every count is a full one.  Nothing here enumerates every
solution; the tests do that with an enumerator of their own.  A search
may keep its path open (a ``resume.Path``) instead of restoring the
model, and the next search from that path's solution resumes where
``Path.climb`` leaves it, with the count and solution of posting the lex
jump at the root and searching from there.

Each end of a domain has *owners*: the bits (``BoundConstraint.bit``) of
the posted bounds each of which alone reproduces that end.  A bound that
prunes an end becomes its one owner, and a bound whose rhs equals an end
that already has owners joins them; any other propagator that moves an
end clears its owners, and an end that no propagator has moved has none.
A propagator read whose answer a wider domain could change records the
owners of the unfixed end it read, as one clause, in ``Model.clauses``:
labeling reads the lower end of each variable it branches on, and the
upper end once it has tried the last value; a propagator that fixes a
variable reads the ends it did not move, one that wipes a domain out
reads the end that stood against it, and a failing bound records its own
bit.  A read of a fixed variable records nothing: its ends were read when
propagation fixed it, or a decision fixed it.  So a search from the same
start state under other posted bounds, as long as it keeps one owner of
each recorded clause, reads the same answer at every read, and reaches
the same count and solution (the explanations of lazy clause generation,
Ohrimenko, Stuckey and Codish, Constraints 2009).  Ownership is state:
the two owner lists are restored through the trail like the domains,
and :meth:`Model.copy` copies them.  ``clauses`` is a log, not state:
whoever reads it clears it first.

Only this module knows how a model stores its trail, queue and owners.
A propagator reads domains through ``model._doms`` inside ``propagate``
(or ``dom``) and writes them only through ``prune_le``, ``prune_ge``
(where a bound passes its bit as ``owner``), ``remove_value`` and
``fix``; it records reads with ``read``, ``read_end`` or
``clauses.add``, and a bound joins an owned end it equals with ``join``.
One that replays a run's writes calls ``release`` first, then
``writes_since`` and ``replay``.  A search or a climb over a path uses
``mark``, ``retract_to`` (the one undo), ``post_constraint``, ``assign``
and ``constraints``, and may swap ``clauses`` for a set of its own.

A search pays once per model, not once per call, for what does not change
between calls: :meth:`Model.var_ids` keeps the ids of each tuple of
handles it resolved, and the model counts, as constraints are posted and
retracted, those that keep its leaf memo off, so deciding whether the
memo applies reads one number.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InternalInvariantError, InvalidArgumentError

if TYPE_CHECKING:
    from .resume import Path

# most entries a model's ``var_ids`` cache holds before it is emptied: the
# library resolves three or four variable lists per model
_VAR_IDS_CACHE = 8


class VarRef(NamedTuple):
    """Handle to one finite-domain variable of a :class:`Model`."""

    model_id: int
    id: int


class TrailMark(NamedTuple):
    """Position in a model's trail; ``retract_to`` restores this exact state."""

    model_id: int
    trail_len: int
    ncons: int


class LabelResult(NamedTuple):
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
    re-schedule it.  A kind that sets ``shareable`` keeps no per-model
    state, so :meth:`Model.copy` may hand one object to several models.
    A kind that sets ``acts_when_fixed`` promises that ``propagate``
    prunes, fails and reads nothing while a variable it watches is
    unfixed (see ``resume.Path``).
    """

    kind = "constraint"
    idempotent = False
    shareable = False
    acts_when_fixed = False

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
        # posted constraints outside the memo owner's that watch a variable
        # other than a feature: while any is posted the memo is off
        self._blockers = 0
        # ids per tuple of variable handles, see var_ids
        self._ids: dict[tuple[VarRef, ...], tuple[int, ...]] = {}
        # per variable: the owner bits of its lower and upper end; the trail
        # keeps their old values under the variable's complement id
        self._lo_owners: list[int] = []
        self._hi_owners: list[int] = []
        # the owner sets that reads recorded, see the module docstring
        self.clauses: set[int] = set()

    def copy(self) -> "Model":
        """A new model, under a new id, in this model's state: copies of its
        domains, owner lists, trail, queue flags, watcher lists and count
        of memo blockers, so the two change apart from then on, and its
        constraint objects (same ids) and leaf memo, table included, shared.  A model
        can be copied only with an empty queue, as between searches and
        posts, and only when each of its constraint kinds is ``shareable``;
        a posted bound is not."""
        if self._queue:
            raise InvalidArgumentError("cannot copy a model while it propagates")
        for con in self._constraints:
            if not con.shareable:
                raise InvalidArgumentError(f"cannot copy a model with a {con.kind!r} constraint")
        other = Model()
        other._doms = self._doms.copy()
        other._lo_owners = self._lo_owners.copy()
        other._hi_owners = self._hi_owners.copy()
        other._trail = self._trail.copy()
        other._constraints = self._constraints.copy()
        other._watchers = [w.copy() for w in self._watchers]
        other._inq = self._inq.copy()
        other.leaf_memo = self.leaf_memo
        other._blockers = self._blockers
        return other

    # -- variables ---------------------------------------------------------

    def new_var(self, lo: int, hi: int) -> VarRef:
        """Create a variable with domain {lo..hi}."""
        if lo > hi:
            raise InvalidArgumentError(f"empty initial domain [{lo}, {hi}]")
        vid = len(self._doms)
        self._doms.append(tuple(range(lo, hi + 1)))
        self._watchers.append([])
        self._lo_owners.append(0)
        self._hi_owners.append(0)
        return VarRef(self.model_id, vid)

    def var_ids(self, vs: Sequence[VarRef]) -> tuple[int, ...]:
        """The ids of ``vs`` in this model, for posting a propagator over
        them or labeling them; a variable of another model raises
        :class:`InvalidArgumentError`.

        The answer is kept per tuple of handles, at most ``_VAR_IDS_CACHE``
        of them (emptied when full).  A handle carries its model's id, so
        an equal tuple names the same variables of the same model, and
        only a miss needs the check."""
        key = tuple(vs)
        ids = self._ids.get(key)
        if ids is None:
            mid = self.model_id
            ids = tuple([vid for model_id, vid in key if model_id == mid])
            if len(ids) != len(key):
                raise InvalidArgumentError("variable belongs to another model")
            if len(self._ids) >= _VAR_IDS_CACHE:
                self._ids.clear()
            self._ids[key] = ids
        return ids

    def dom(self, vid: int) -> tuple[int, ...]:
        return self._doms[vid]

    def snapshot(self) -> tuple[tuple[int, ...], ...]:
        """Immutable copy of every domain, for restoration checks."""
        return tuple(self._doms)

    def constraints(self) -> tuple[Constraint, ...]:
        """The posted constraints; a constraint's id is its index."""
        return tuple(self._constraints)

    # -- trail -------------------------------------------------------------

    def mark(self) -> TrailMark:
        return TrailMark(self.model_id, len(self._trail), len(self._constraints))

    def retract_to(self, mark: TrailMark) -> None:
        """Undo every pruning, owner change and constraint posted after ``mark``."""
        model_id, trail_len, ncons = mark
        if model_id != self.model_id:
            raise InvalidArgumentError("mark belongs to another model")
        if trail_len > len(self._trail) or ncons > len(self._constraints):
            raise InvalidArgumentError("mark already passed")
        if self._queue:
            self._clear_queue()
        self._undo_to(trail_len)
        memo = self.leaf_memo
        if memo is not None and ncons < memo.owned.stop:
            self.leaf_memo = memo = None
            self._blockers = 0
        cons, inq, watchers = self._constraints, self._inq, self._watchers
        while len(cons) > ncons:
            con = cons.pop()
            inq.pop()
            for vid in con.watched:  # each once, with this constraint last in its list
                watchers[vid].pop()
            if memo is not None and memo.blocked_by(con):
                self._blockers -= 1

    def _undo_to(self, trail_len: int) -> None:
        """Restore every domain and owner pair changed after the trail had
        ``trail_len`` entries."""
        trail, doms = self._trail, self._doms
        while len(trail) > trail_len:
            vid, old = trail.pop()
            if vid >= 0:
                doms[vid] = old
            else:  # under ~vid: the domain and both owners
                vid = ~vid
                doms[vid], self._lo_owners[vid], self._hi_owners[vid] = old

    # -- ownership (see the module docstring) --------------------------------
    #
    # A trail entry under ~vid restores vid's domain and both owners.  A
    # change that moves owners turns the entry ``_set_dom`` just pushed into
    # one, so it costs no second entry.

    def _own(self, vid: int, lo: int, hi: int) -> None:
        """Set the owners of both ends of ``vid``, on the trail."""
        lo_owners, hi_owners = self._lo_owners, self._hi_owners
        self._trail.append((~vid, (self._doms[vid], lo_owners[vid], hi_owners[vid])))
        lo_owners[vid] = lo
        hi_owners[vid] = hi

    def join(self, vid: int, owner: int, upper: bool) -> None:
        """A bound whose rhs equals the upper (or lower) end of ``vid`` joins
        that end's owners, when it has any and ``vid`` is not fixed."""
        lo, hi = self._lo_owners[vid], self._hi_owners[vid]
        if len(self._doms[vid]) > 1:
            if upper:
                if hi and hi | owner != hi:
                    self._own(vid, lo, hi | owner)
            elif lo and lo | owner != lo:
                self._own(vid, lo | owner, hi)

    def read(self, vid: int) -> None:
        """Record a read of both ends of ``vid``: the owners of each, when
        it is not fixed."""
        lo, hi = self._lo_owners[vid], self._hi_owners[vid]
        if (lo or hi) and len(self._doms[vid]) > 1:
            if lo:
                self.clauses.add(lo)
            if hi:
                self.clauses.add(hi)

    def read_end(self, vid: int, upper: bool, into: set[int]) -> None:
        """Record a read of the upper (or lower) end of ``vid`` in ``into``."""
        owners = (self._hi_owners if upper else self._lo_owners)[vid]
        if owners and len(self._doms[vid]) > 1:
            into.add(owners)

    def release(self, vid: int) -> None:
        """Read both ends of ``vid`` and clear their owners, so the writes
        that follow push no owner entry (see :meth:`writes_since`)."""
        if self._lo_owners[vid] or self._hi_owners[vid]:
            self.read(vid)
            self._own(vid, 0, 0)

    def _narrowed(self, vid: int, old: tuple[int, ...], new: tuple[int, ...],
                  keep_lo: bool, keep_hi: bool, owner: int = 0) -> bool:
        """Change ``vid`` from ``old`` to ``new``; a moved end gets ``owner``
        (a pruning bound's bit, or 0) as its one owner, and ``keep_lo`` and
        ``keep_hi`` name the ends left where they were (for a wipe-out: the
        one that stood against it).  A change that fixes or wipes out ``vid``
        reads ``owner`` and the kept ends of an unfixed ``old``."""
        lo_owners, hi_owners = self._lo_owners, self._hi_owners
        lo, hi = lo_owners[vid], hi_owners[vid]
        if len(new) <= 1:
            clauses = self.clauses
            if owner:
                clauses.add(owner)
            if len(old) > 1:
                if keep_lo and lo:
                    clauses.add(lo)
                if keep_hi and hi:
                    clauses.add(hi)
        ok = self._set_dom(vid, new)
        new_lo, new_hi = lo if keep_lo else owner, hi if keep_hi else owner
        if new and (new_lo != lo or new_hi != hi):
            self._trail[-1] = (~vid, (old, lo, hi))
            lo_owners[vid], hi_owners[vid] = new_lo, new_hi
        return ok

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

    # Each helper keeps the owners of the ends it moves up to date; the
    # check that either end has owners is all it pays when none has.  A
    # pruning bound passes its bit as ``owner`` to ``prune_le``/``prune_ge``.

    def prune_le(self, vid: int, ub: int, owner: int = 0) -> bool:
        d = self._doms[vid]
        if d and d[-1] <= ub:
            return True
        new = d[: bisect_right(d, ub)]
        if owner or self._lo_owners[vid] or self._hi_owners[vid]:
            return self._narrowed(vid, d, new, True, False, owner)
        return self._set_dom(vid, new)

    def prune_ge(self, vid: int, lb: int, owner: int = 0) -> bool:
        d = self._doms[vid]
        if d and d[0] >= lb:
            return True
        new = d[bisect_left(d, lb):]
        if owner or self._lo_owners[vid] or self._hi_owners[vid]:
            return self._narrowed(vid, d, new, False, True, owner)
        return self._set_dom(vid, new)

    def remove_value(self, vid: int, val: int) -> bool:
        d = self._doms[vid]
        i = bisect_left(d, val)
        if i >= len(d) or d[i] != val:
            return True
        new = d[:i] + d[i + 1:]
        if self._lo_owners[vid] or self._hi_owners[vid]:
            return self._narrowed(vid, d, new, i > 0, i < len(d) - 1)
        return self._set_dom(vid, new)

    def fix(self, vid: int, val: int) -> bool:
        d = self._doms[vid]
        if len(d) == 1 and d[0] == val:
            return True
        i = bisect_left(d, val)
        new = (val,) if i < len(d) and d[i] == val else ()
        if self._lo_owners[vid] or self._hi_owners[vid]:
            # kept: an end equal to val, or, for a wipe-out, the whole domain
            return self._narrowed(vid, d, new, not new or d[0] == val, not new or d[-1] == val)
        return self._set_dom(vid, new)

    def writes_since(self, mark: TrailMark) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The (vid, new domain) writes made since ``mark``, in order, for a
        propagator whose run is a pure function of the domains it reads to
        :meth:`replay` in an equal state.  Writes that moved owners are refused."""
        doms = self._doms
        later: dict[int, tuple[int, ...]] = {}
        writes = []
        for vid, old in reversed(self._trail[mark.trail_len:]):
            if vid < 0:
                raise InternalInvariantError("an owner changed in writes to be replayed")
            writes.append((vid, later.get(vid, doms[vid])))
            later[vid] = old
        writes.reverse()
        return tuple(writes)

    def replay(self, writes: Sequence[tuple[int, tuple[int, ...]]]) -> bool:
        """Make ``writes`` again, leaving the same trail, queue and flags as
        the run that made them; False at the one that wipes a domain out."""
        set_dom = self._set_dom
        return all(set_dom(vid, new) for vid, new in writes)

    # -- posting and propagation --------------------------------------------

    def post_constraint(self, con: Constraint) -> int | None:
        """Post ``con`` and return its id; on failure the model is rolled
        back and None returned, and a propagator that raises rolls it back
        before the error propagates."""
        trail_len = len(self._trail)
        cid = len(self._constraints)
        self._constraints.append(con)
        if self.leaf_memo is not None and self.leaf_memo.blocked_by(con):
            self._blockers += 1  # retract_to takes it off again
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

    def attach(self, memo: LeafMemo) -> None:
        """Make ``memo``, whose owner's constraints are posted, the leaf
        memo, and count the other posted constraints that keep it off."""
        self.leaf_memo = memo
        owned = memo.owned
        self._blockers = sum([cid not in owned and memo.blocked_by(con)
                              for cid, con in enumerate(self._constraints)])

    def assign(self, vid: int, val: int) -> bool:
        """Fix a variable and propagate to fixpoint; False on failure.  A
        propagator that raises leaves the queue empty and every flag off,
        so nothing it left queued runs on a later call."""
        try:
            return self.fix(vid, val) and self._drain()
        finally:
            if self._queue:  # only when a propagator raised
                self._clear_queue()


# -- concrete constraints ----------------------------------------------------


class SumEq(Constraint):
    """sum(xs) = total (variable or constant), bounds-consistent."""

    kind = "sum_eq"
    shareable = True

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
            if tlo != thi:
                model.read(self.total_var)  # the ends the xs are pruned from
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

    It reads a lower end that it leaves at or above the tie value, and in
    the suffix an upper end at or below the tuple's value; a wider domain
    could change either answer, and no other.  (The suffix test reaches a
    lower end only when it is above the tuple's value, and then the upper
    end already answered.)
    """

    kind = "lex_greater"
    idempotent = True
    shareable = True

    def __init__(self, xs: Sequence[int], tup: Sequence[int]):
        if len(xs) != len(tup):
            raise InvalidArgumentError(
                f"lex-greater arity mismatch: {len(xs)} vars vs {len(tup)} values"
            )
        self.xs = tuple(xs)
        self.tup = tuple(tup)
        super().__init__(self.xs)

    def suffix_can_exceed(self, model: Model, j: int) -> bool:
        doms = model._doms
        for p in range(j, len(self.xs)):
            vid = self.xs[p]
            d = doms[vid]
            if d[-1] > self.tup[p]:
                return True
            model.read_end(vid, True, model.clauses)  # at or below the tuple's value
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
            elif d[-1] > t:  # the lower end, at or above t, was read
                model.read_end(vid, False, model.clauses)
                break
            i += 1  # d is (t,): its ends were read when it was fixed
        if d[0] == t and not self.suffix_can_exceed(model, i + 1):
            if not model.remove_value(vid, t):
                return False
        return True


# -- posting API -------------------------------------------------------------


def post_lex_greater(model: Model, xs: Sequence[VarRef], tup: Sequence[int]) -> int | None:
    """Post (xs) >lex (tup); fails iff the tuple is the box maximum."""
    return model.post_constraint(LexGreater(model.var_ids(xs), tup))


# -- search ------------------------------------------------------------------


class LeafMemo:
    """Leaf memo at the split of a labeling between two groups of variables.

    An object post attaches one to its model (:meth:`Model.attach`).
    Labeling fixes every one of ``featvars`` before any of ``xs``; from then
    on only the owner's constraints (indices ``owned``) run, when every
    other posted constraint watches only feature variables (see
    :meth:`applies`).  So the rest of the search, its failed trials and its
    first solution, depends only on the fixed tuple and on the domains of
    ``inner`` (every non-feature variable the owner reads).  ``table``
    starts empty and maps each such tuple, a feasible one, to (``inner``
    domains, failed trials, witness over ``xs`` or None), so each subtree
    is searched once.  Every copy of the owner's model (:meth:`Model.copy`)
    shares the memo and its table.

    ``prefixes[k]`` holds every length-k feature prefix that some solution
    extends, closed under prefixes.  The owner posts a check (constraint id
    ``check``) that fails any other prefix.  A search that uses the memo
    parks that check and tests the prefixes itself, so a trial it would
    fail is counted as one failure, and is not made when its own value is
    the one that fails the prefix.
    """

    def __init__(self, featvars: tuple[int, ...], xs: tuple[int, ...], inner: tuple[int, ...],
                 owned: range, check: int, prefixes: tuple[frozenset, ...]) -> None:
        self.featvars = featvars
        self.xs = xs
        self.inner = inner
        self.owned = owned
        self.check = check
        self.prefixes = prefixes
        self.table: dict[tuple[int, ...], tuple] = {}
        self.order = featvars + xs
        self.feats = frozenset(featvars)

    def blocked_by(self, con: Constraint) -> bool:
        """Whether ``con``, posted by anyone but the owner, keeps the memo
        off: it watches a variable that is not a feature."""
        return not self.feats.issuperset(con.watched)

    def applies(self, model: Model, vids: Sequence[int]) -> bool:
        """True when labeling ``vids`` may use the memo: they are featvars
        then xs, and every constraint the owner did not post watches only
        featvars.  Below the split every feature is fixed, and a fixed
        domain changes only by a wipe-out, which fails before any watcher
        is queued, so none of those constraints runs there; what one pruned
        above the split shows in the ``inner`` domains a stored entry is
        checked against.  The model counts the constraints that break the
        second condition as they are posted and retracted, so the test
        reads one number and does not scan them."""
        return model._blockers == 0 and tuple(vids) == self.order


def labeling(model: Model, featvars: Sequence[VarRef], xs: Sequence[VarRef],
             path: Path | None = None) -> LabelResult:
    """Find the lexicographically smallest solution of featvars ++ xs.

    Variables are fixed left to right, scanning each domain by increasing
    value.  Returns the backtrack count together with the solution, or
    ``finished=True`` with the count spent proving that none remains.  The
    model's leaf memo is used when it applies to this search, and gives the
    same count and solution as searching without it.  The model state is
    restored before returning.

    With a ``path`` the search keeps its own path open instead: the model
    stays where the solution was found, and a search with no solution
    closes the path.  After ``Path.climb`` it resumes where the climb
    left the model, and otherwise it searches from the root, where any
    jump was posted since the path's base.  A resumed search that
    exhausts a level goes up the path: ``Path.probe`` gives each level
    above its values over prev's, or None at a level with none, which
    the search passes; the probe's reads join the search's own.
    """
    vids = model.var_ids((*featvars, *xs))
    if not vids:
        raise InvalidArgumentError("labeling needs at least one variable")
    last = len(vids)
    doms, trail, inq, cons = model._doms, model._trail, model._inq, model._constraints
    lo_owners, hi_owners, clauses = model._lo_owners, model._hi_owners, model.clauses
    set_dom, drain, undo = model._set_dom, model._drain, model._undo_to
    base = len(trail)
    nback = 0
    memo = model.leaf_memo
    if memo is not None and not memo.applies(model, vids):
        memo = None
    cut, prefixes = (len(memo.featvars), memo.prefixes) if memo is not None else (-1, ())
    keep = 0  # the feature levels whose marks and trial reads the path keeps
    marks: list = []
    reads: list = []
    mid = 0
    if path is not None:
        keep = len(path.fvids)
        if vids[:keep] != path.fvids:
            raise InvalidArgumentError("the path belongs to other feature variables")
        marks, reads, mid = path.marks, path.reads, model.model_id
    # The queue is empty between searches, so no flag is set on entry.  The
    # memo's check is parked here and its flag cleared on every way out;
    # nothing queues a parked constraint, so no drain clears it.
    if memo is not None:
        inq[memo.check] = True
    found: tuple[int, ...] = ()

    def split(key: tuple[int, ...]) -> bool:
        nonlocal nback, found
        state = tuple([doms[v] for v in memo.inner])
        hit = memo.table.get(key)
        if hit is not None and hit[0] == state:
            nback += hit[1]
            if hit[2] is None:
                return False
            found = key + hit[2]
            return True
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
    # counted at the trial.  A resumed level tries ``vals``, the values
    # above prev's, and ``wide`` says whether its domain under the jump
    # holds more than one value.  On the way back from a solution, each
    # feature level the path keeps records its mark and its trial's reads.
    def dfs(k: int, prefix: tuple[int, ...] | None, vals=None, wide=False) -> bool:
        nonlocal nback, found
        if k == last:
            found = tuple([doms[v][0] for v in vids])
            return True
        if k == cut and prefix is not None:
            return split(prefix)
        vid = vids[k]
        if vals is None:
            vals = doms[vid]
            wide = len(vals) > 1
            if wide and lo_owners[vid]:  # the first value tried
                clauses.add(lo_owners[vid])
        for val in vals:
            nxt = prefix
            if k < cut:
                nxt = prefix + (val,)
                if nxt not in prefixes[k + 1]:
                    nback += 1  # the owner's prefix check would fail this trial
                    continue
            mk = len(trail)
            # on a kept level the trial's reads go to its own set first
            model.clauses = mine = set() if k < keep else clauses
            set_dom(vid, (val,))
            ok = drain()
            if mine is not clauses:
                model.clauses = clauses
                clauses.update(mine)
            if ok:
                if dfs(k + 1, nxt):
                    if k < keep:
                        marks[k] = TrailMark(mid, mk, len(cons))
                        reads[k] = mine
                    return True
            else:
                nback += 1
            undo(mk)
        if wide and hi_owners[vid]:  # the last value tried
            clauses.add(hi_owners[vid])
        return False

    try:
        if path is None:
            dfs(0, ())
        elif path.plan is None:  # a new path, from the base and any jump posted since
            root = set(clauses)  # the jump's reads: a step memo clears the log before a step
            if dfs(0, ()):
                marks[0] = path.base
                reads[0] |= root
        else:  # resumed where climb left the model, then up the path's levels
            plan, path.plan = path.plan, None
            j, nback = plan[:2]
            prev = path.sol
            while True:
                if plan is not None:
                    _, _, vals, wide, pending = plan
                    start = marks[j]
                    if vals and dfs(j, prev[:j], vals, wide):
                        marks[j] = start
                        reads[j] |= pending
                        break
                elif path.watched[j]:
                    raise InternalInvariantError("the jump failed above a level it holds at")
                if j == 0:
                    break
                j -= 1
                plan = path.probe(j)
    finally:
        dfs = split = None  # they refer to each other: free them on return
        model.clauses = clauses  # also when a trial's propagator raised
        if model._queue:  # only when a propagator raised
            model._clear_queue()
        if memo is not None:
            inq[memo.check] = False
        if path is None:
            undo(base)
        elif found:
            path.sol = found[:keep]
            path.end = model.mark()
        else:
            path.close()
    return LabelResult(nback, not found, found)
