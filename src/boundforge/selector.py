"""Incremental selection of most-filtering bound constraints.

The object constraint is posted once; all candidate bounds are posted once
to record, per feature solution, the backtrack count of the fully filtered
search; then a recursive dichotomic search keeps only the candidates whose
absence lets some backtrack count grow.  The incremental engine posts each
selected bound once for the whole run and re-checks solution transitions
without restarting from the first record.

A reference baseline runs the identical control flow but rebuilds the
model from scratch for every transition-checking trial (re-posting the
object constraint, every already selected bound and the trial subset, and
re-checking from the first record).  Every model, in both engines, starts
as a fresh copy of the posted object model of its size
(:meth:`ObjectScenario.fresh`), and each counts as one object post.
Selected lists are equal by construction; the posting counters expose the
incremental savings.

Record semantics: record i stores the backtrack count of the search that
produced solution i (from the lex-greater jump off solution i-1).  The
transition check for a head record posts lex-greater of its own solution
and compares the observed count against the stored count of record i+1;
the final record's successor is the sentinel.  The sentinel itself is
never drained.  Every step, in the compute phase and in the drain, searches
to its full count.

Each run keeps a :class:`StepMemo`, shared by its compute phase and its
engine.  The drain checks the same transition under one candidate subset
after another, and a step whose outcome cannot differ from an earlier
search of it is answered from that search.  ``labelings`` still counts
every step the algorithm takes, searched or answered, so every count and
record is the one a memo-free run gives.

The last run that returned normally is kept, and a run that repeats it
(the second engine of one ``compare``, say) takes its memo and records
instead of running a compute phase; any other run whose records equal
the kept ones returns the kept tuple of them (see :func:`_run`).

The steps come in two step loops, the enumeration and the drain.  Every
step of one loop starts, by definition, from the same model state, the
loop's base, so what the memo reads of that state (the posted bounds and
every domain) is taken once per loop (:class:`StepLoop`), and each step
only checks that the model is where the step before left it.  A step
that starts from the solution the loop's last search found does not post
the lex jump at the base and descend that solution's prefix again: that
search kept its path open (:class:`resume.Path`), and the step climbs it
and resumes there, with the restart's count and solution, so record
semantics are unchanged.  Every enumeration step after the first does
so when the enumeration's feature variables are the leaf memo's own, as
in the compute phase; any other step posts the jump at the base.  A loop
takes the model back to where it found it when it ends, on every way
out.  Each search still goes through ``labeling``, once, and each jump
posted at the base and each bound post through ``post_lex_greater`` or
``post_bound``, once; a resumed step decides its jump before it calls
``labeling``.
"""

from __future__ import annotations

import operator
import time
import weakref
from collections import Counter
from typing import NamedTuple, Sequence

from .bounds import BoundCandidate, post_bound, posted_bounds
from .errors import (
    CatalogSoundnessError,
    InfeasibleModelError,
    InternalInvariantError,
    InvalidArgumentError,
)
from .kernel import Model, TrailMark, VarRef, labeling, post_lex_greater
from .objects import check_model_size, feature_tuples, posted_model
from .resume import Path


class SolutionRecord(NamedTuple):
    """One enumerated feature solution; the sentinel has an empty sol."""

    isol: int
    nback: int
    sol: tuple[int, ...]


class Counters:
    """Post/labeling accounting; posts count object and bound postings only."""

    def __init__(self) -> None:
        self.posts = 0
        self.labelings = 0
        self.by_tag: Counter = Counter()  # postings per (tag, bound or object id)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def posted(self, tag: str, name: str) -> None:
        self.posts += 1
        self.by_tag[tag, name] += 1


class SelectionReport(NamedTuple):
    selected: tuple[str, ...]
    posts: int
    labelings: int
    wall_ms: int


class ObjectScenario:
    """A combinatorial object kind plus size; builds fresh posted models.

    Checked when built: an object or n that no model can serve raises
    :class:`InvalidArgumentError`.  Scenarios are immutable, and those with
    equal fields are equal and hash alike.
    """

    def __init__(self, object: str, n: int):  # object: a key of objects.FEATURES
        check_model_size(object, n)
        self.__dict__.update(object=object, n=n)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.object, self.n) == (other.object, other.n)

    def __hash__(self):
        return hash((self.object, self.n))

    def __repr__(self):
        return f"ObjectScenario({self.object!r}, {self.n!r})"

    def fresh(self, counters: Counters) -> tuple[Model, list[VarRef], list[VarRef]]:
        """A fresh model with the object posted, copied from the posted
        template of this object and n (``objects.posted_model``); counts
        one object post."""
        built = posted_model(self.object, self.n)
        counters.posted("ctr", self.object)
        if built is None:
            raise InfeasibleModelError(f"{self.object} constraint failed at n={self.n}")
        return built


class SelectionOutcome(NamedTuple):
    """Report plus the artifacts needed by verification harnesses."""

    report: SelectionReport
    selected: tuple[BoundCandidate, ...]
    records: tuple[SolutionRecord, ...]
    counters: Counters


# -- enumeration ---------------------------------------------------------------


def enumerate_all_solutions(
    model: Model,
    featvars: Sequence[VarRef],
    xs: Sequence[VarRef],
    counters: Counters | None = None,
    memo: StepMemo | None = None,
) -> list[SolutionRecord]:
    """Enumerate all feature solutions in ascending lex order.

    Each step searches from the previous solution, as if it posted
    feature-vars >lex previous-solution, labeled, and retracted the lex
    constraint (see :func:`_search`).  The terminal sentinel carries 0
    backtracks when the lex posting itself failed, or the full exhaustion
    count when the last labeling proved no solution remains.  With a
    ``memo``, steps go through it.  The model is left as it was.  Only
    an enumeration over the leaf memo's own ``featvars`` is chained
    (see :class:`StepLoop`); any other restarts every step.
    """
    counters = counters if counters is not None else Counters()
    leaf = model.leaf_memo
    chained = leaf is not None and model.var_ids(featvars) == leaf.featvars
    loop = StepLoop(model, memo, chained)
    records: list[SolutionRecord] = []
    prev: tuple[int, ...] | None = None
    try:
        while True:
            res = _step(model, featvars, xs, prev, counters, memo, loop)
            if res is None or res.finished:
                records.append(SolutionRecord(len(records), 0 if res is None else res.nback, ()))
                return records
            prev = res.sol[: len(featvars)]
            records.append(SolutionRecord(len(records), res.nback, prev))
    finally:
        loop.close()


def _step(model, featvars, xs, prev, counters, memo, loop, expected=None):
    """One step of the algorithm, searched or answered by ``memo``, whose
    ``loop`` (:class:`StepLoop`) holds what the steps of this loop share.
    A model whose trail or constraints changed since the step before
    raises :class:`InternalInvariantError`.

    ``labelings`` counts every step whose lex post succeeds, whether it
    was searched here or answered from an earlier search.  ``expected`` is
    the stored count a drain step is compared with (see :class:`StepMemo`).
    """
    if model.mark() != loop.end():
        raise InternalInvariantError("the model changed between two steps of one loop")
    res = _search(model, featvars, xs, prev, loop.path) if memo is None else memo.step(
        model, featvars, xs, prev, loop, expected)
    if res is not None:
        counters.labelings += 1
    return res


def _search(model, featvars, xs, prev, path=None):
    """Post featvars >lex prev (skipped when prev is None), label, retract.

    Returns the labeling result, or None when the lex posting failed (the
    failed post leaves the model unchanged).  The lex constraint is
    retracted also when the search raises.

    With a ``path`` (:class:`resume.Path`) the step gives the same result
    without the retraction: the search's path stays open for the next
    step.  When ``prev`` is the path's own solution, the path climbs to
    where the jump holds and the search resumes there; else the path is
    closed and the jump posted at the root.  Either way a failed jump is
    decided before ``labeling`` is called, and ``labeling`` is called once.
    """
    if path is not None:
        if prev is not None and prev == path.sol:
            if not path.climb(prev):
                return None
        else:
            path.close()
            if prev is not None and post_lex_greater(model, featvars, prev) is None:
                return None
        return labeling(model, featvars, xs, path)
    mark = model.mark()
    if prev is not None and post_lex_greater(model, featvars, prev) is None:
        return None
    try:
        return labeling(model, featvars, xs)
    finally:
        model.retract_to(mark)


class StepLoop:
    """What every step of one step loop shares, taken once when the loop
    starts: the posted bounds' bits in a step memo's posted sets and every
    domain (``Model.snapshot()``) in the state each step starts from, and,
    in a ``chained`` loop, the open path of the loop's last search
    (:class:`resume.Path`), which needs a model with a leaf memo.

    The enumeration is chained: each of its steps starts from the solution
    the step before found.  A drain is not: it keeps no path, since after
    a searched drain step the next one is mostly answered by the step memo
    or starts from another solution.

    With a step memo, the loop gives each posted bound its bit.  The owners
    the ends already have stand (see :class:`StepMemo`).  :meth:`close`
    undoes the path, so the model is left exactly as the loop found it."""

    __slots__ = ("model", "start", "posted", "state", "path")

    def __init__(self, model: Model, memo: StepMemo | None = None, chained: bool = False):
        self.model = model
        self.start = model.mark()
        posted = 0
        if memo is not None:
            bit = memo.bit
            for con in posted_bounds(model):
                con.bit = bit[id(con.bound)]
                posted |= con.bit
        self.posted = posted
        self.state = model.snapshot()
        self.path = Path(model) if chained else None

    def end(self) -> TrailMark:
        """The mark the last step left the model at."""
        path = self.path
        return self.start if path is None else path.end

    def close(self) -> None:
        model, start = self.model, self.start
        if model.mark() != start:
            model.retract_to(start)


class StepMemo:
    """The steps one selection run has searched, to answer its repeats.

    The drain searches the same transition, the step out of one ``prev``,
    under one candidate subset after another.  Each searched step is kept
    under its ``prev`` with its outcome (the labeling result, or None when
    the lex post failed), the set of bounds posted, the clauses its reads
    recorded and the model's domains when it began.  A clause is the set
    of owners of one domain end the search read (see ``kernel``): the
    posted bounds each of which alone reproduces that end.  A later step
    from the same ``prev`` is answered from a stored one, without posting
    or labeling, when its domains at the start are equal to the stored
    ones, its posted set meets every stored clause, and it lies within the
    stored posted set.  Equal candidates post equal propagators, so they
    share one bit of the posted sets and clauses.

    That is sound because a search reads nothing else that a posted set
    could change.  Take the stored search under P and the new one under Q
    within P, from equal start domains, and follow the stored search's
    reads in order.  At each, the new search has made the same decisions,
    and its domains are no smaller, since fewer monotone propagators reach
    a fixpoint no smaller.  The end read is no wider either: one of its
    owners is in Q, and its inputs are fixed alike, since the fix of each
    was read too; or it has no owner, and the lex jump or the object's own
    propagators set it from reads already shown equal.  So every read gets
    the same answer, and the two searches make the same trials, failures
    and leaf replays, so they reach the same count and solution.  A bound
    that pruned only when it was posted shows in the start domains, which
    the domain check compares.  Owners cannot stand in for that check: a
    post that fixes a variable, as ROOT (``rangeM <= 0``) does at partition
    n=2, reads its owner before any step, and a read of a fixed variable
    records nothing, so no clause would keep a step without it from being
    answered.  The owners an end has when a loop starts may stand: reading
    it only adds a clause, and an extra clause only narrows what is answered.

    The equal-outcome rule drops the upper limit: an outcome whose count
    equals the ``expected`` count, the one the drain compares the step
    with, answers a step that posts more bounds, given equal start domains
    and every stored clause met.  It is on only once ``sound`` is set,
    which ``_run`` does when the compute phase found every feasible tuple
    (``objects.feature_tuples``) with every candidate posted, so no
    candidate removes one.  The stored clauses hold only bits of the
    stored set, so the part of Q within it meets them too and gets the
    stored outcome.  More bounds can only
    lower a count (a trial they fail heads a subtree without solutions,
    where the fewer bounds fail at least once), they leave the next
    solution where it was, and the count cannot drop below ``expected``,
    which is that same transition's count with every candidate posted.

    A step loop, the enumeration or one drain, takes its steps from one
    start state, so the posted bits and the start domains are taken once
    per loop (:class:`StepLoop`).  A step that resumes from the path of
    the search before it (see the module docstring) reads the states of
    that path, which earlier searches built; so its clauses also hold the
    reads of every level of the path and of every level probed, by its
    climb or on its search's way up (:meth:`resume.Path.probe`).  Any Q
    that meets them builds the same states and makes the same climb, and
    the climb's outcome is that of the restart under Q.

    One memo belongs to one object size and one candidate list, the one
    it is built from, and to one run at a time.  A run that repeats the
    last run takes its memo (see :func:`_run`), and nothing above depends
    on which run stored an entry, so an entry answers every run that meets
    its conditions.
    """

    def __init__(self, candidates: Sequence[BoundCandidate]):
        bits: dict[BoundCandidate, int] = {}
        # by identity, so no step hashes a candidate; ``candidates`` outlives
        # the memo (a kept run holds them with it), so no identity is reused
        # while it is in use
        self.bit = {id(c): bits.setdefault(c, 1 << len(bits)) for c in candidates}
        self.steps: dict[tuple[int, ...] | None, list] = {}
        self.sound = False  # every candidate known sound: the equal-outcome rule is on

    def step(self, model, featvars, xs, prev, loop: StepLoop, expected=None):
        """The outcome of the step from ``prev`` on ``model``, in the state
        ``loop`` was taken in, compared with ``expected`` by the drain: a
        stored one when the conditions above hold, else searched and
        stored."""
        posted, state = loop.posted, loop.state
        entries = self.steps.setdefault(prev, [])
        for stored, clauses, stored_state, res in entries:
            if posted & ~stored and not (
                    self.sound and res is not None and res.nback == expected):
                continue
            for clause in clauses:
                if not posted & clause:
                    break
            else:
                if state == stored_state:
                    return res
        clauses = model.clauses
        clauses.clear()
        res = _search(model, featvars, xs, prev, loop.path)
        entries.append((posted, tuple(clauses), state, res))
        return res


def _post(model, cands, featvars, n, counters, tag, context):
    """Post bounds, counting each; a failed post means the catalog is unsound."""
    for cand in cands:
        cid = post_bound(model, cand, featvars, n)
        counters.posted(tag, cand.id)
        if cid is None:
            raise CatalogSoundnessError(f"bound {cand.id} failed {context}")


def compute_all_solutions(
    model: Model,
    featvars: Sequence[VarRef],
    xs: Sequence[VarRef],
    candidates: Sequence[BoundCandidate],
    n: int,
    counters: Counters | None = None,
    memo: StepMemo | None = None,
) -> list[SolutionRecord]:
    """Post every candidate, enumerate, sort by (nback, isol), retract posts
    (also when a post or the enumeration raises)."""
    counters = counters if counters is not None else Counters()
    mark = model.mark()
    try:
        _post(model, candidates, featvars, n, counters, "compute", "on the feature box")
        records = enumerate_all_solutions(model, featvars, xs, counters, memo)
    finally:
        model.retract_to(mark)
    records.sort(key=lambda r: (r.nback, r.isol))
    return records


# -- selection engines ----------------------------------------------------------


class _IncrementalEngine:
    """Posts on one shared model; retraction via trail marks."""

    def __init__(self, scenario, model, featvars, xs, drain, by_isol, counters, memo=None):
        self.model = model
        self.featvars = featvars
        self.xs = xs
        self.n = scenario.n
        self.by_isol = by_isol
        self.counters = counters
        self.memo = memo

    def post(self, cands: Sequence[BoundCandidate], tag: str) -> None:
        _post(self.model, cands, self.featvars, self.n, self.counters, tag, "when re-posted")

    def mark(self):
        return self.model.mark()

    def retract(self, mark) -> None:
        self.model.retract_to(mark)

    def enumerate_step(self, sols: list[SolutionRecord]) -> list[SolutionRecord]:
        return _drain(self.model, self.featvars, self.xs, sols, self.by_isol, self.counters,
                      self.memo)


class _BaselineEngine:
    """Rebuilds the model from scratch for every transition-checking trial:
    each trial starts from a fresh copy of the posted object model and
    posts every bound again.

    Selected and trial bounds share one stack: :func:`_select` posts a
    selected bound only once it has retracted its trials."""

    def __init__(self, scenario, model, featvars, xs, drain, by_isol, counters, memo=None):
        self.scenario = scenario
        self.full_drain = list(drain)
        self.by_isol = by_isol
        self.counters = counters
        self.memo = memo
        self.stack: list[BoundCandidate] = []

    def post(self, cands: Sequence[BoundCandidate], tag: str) -> None:
        self.stack.extend(cands)

    def mark(self):
        return len(self.stack)

    def retract(self, mark) -> None:
        del self.stack[mark:]

    def enumerate_step(self, sols: list[SolutionRecord]) -> list[SolutionRecord]:
        model, featvars, xs = self.scenario.fresh(self.counters)
        _post(model, self.stack, featvars, self.scenario.n, self.counters, "baseline",
              "when re-posted")
        return _drain(model, featvars, xs, self.full_drain, self.by_isol, self.counters,
                      self.memo)


def _drain(model, featvars, xs, sols, by_isol, counters, memo=None):
    """Check successive solution transitions until one needs more backtracks.

    Returns the records from that transition's head on, or [] when every
    transition held.  The head record's own solution seeds the lex jump;
    the expected count is the stored count of the record one index later
    (the sentinel for the last real record).  Each step searches to its
    full count unless the memo answers it.
    """
    loop = StepLoop(model, memo)
    try:
        for i, (isol, _, sol) in enumerate(sols):
            succ = by_isol.get(isol + 1)
            if succ is None:
                raise InternalInvariantError(f"no stored record with index {isol + 1}")
            expected = succ.nback
            res = _step(model, featvars, xs, sol, counters, memo, loop, expected)
            observed = 0 if res is None else res.nback
            if observed != expected:
                return sols[i:]
        return []
    finally:
        loop.close()


# -- the recursive selection (shared by both engines) ---------------------------


def split_mid(length: int) -> int:
    """Prefix length of the uneven candidate split (suffix is the shorter side)."""
    if length > 200:
        return length - 100
    if length < 3:
        return (length + 1) // 2
    return (2 * length + 2) // 3


def _select_one(engine, sols, bounds):
    """Dichotomic search for one bound some transition needs: it and the
    candidates left after it, or None first when none is needed.  The
    suffix is posted as a trial; while a transition still degrades, the
    prefix is searched with it left posted, for the caller to retract."""
    if not bounds:
        raise InvalidArgumentError("select_one needs at least one candidate")
    mid = split_mid(len(bounds))
    prefix, suffix = bounds[:mid], bounds[mid:]
    mark = engine.mark()
    engine.post(suffix, "suffix")
    remaining = engine.enumerate_step(sols)
    if remaining and len(bounds) > 1:
        selected, rest = _select_one(engine, remaining, prefix)
        return selected, rest + suffix
    engine.retract(mark)
    if len(bounds) == 1:
        return (prefix[0], []) if remaining else (None, prefix)
    return _select_one(engine, sols, suffix)


def _select(engine, sols, bounds):
    """Select bounds one by one; each found bound stays posted as ``prev``
    for the searches after it."""
    selected = []
    while bounds:
        mark = engine.mark()
        found, bounds = _select_one(engine, sols, bounds)
        engine.retract(mark)
        if found is None:
            break
        selected.append(found)
        if bounds:
            engine.post([found], "prev")
    return selected


# -- entry points ----------------------------------------------------------------


# the last run that returned normally, under the one key "run" (see _run): its
# key, a weak reference to the size's template's leaf memo (so objects.forget
# frees the template's tables) and the candidates, held so the ids in the
# memo's bits stay valid, then its step memo, records and compute-phase posts,
# labelings and by_tag
_KEPT: dict[str, tuple] = {}


def _run(
    engine_cls, scenario: ObjectScenario, candidates: Sequence[BoundCandidate]
) -> SelectionOutcome:
    """The one selection driver; ``engine_cls`` decides how trials are posted.

    A run that repeats the last run that returned normally, on the same
    size's template and the same candidate objects in the same order (say,
    the baseline after the incremental run of one ``compare``), takes that
    run's step memo and records: it adds the stored compute-phase counts
    instead of running the compute phase, and its drains find every step
    the earlier run searched answered (see :class:`StepMemo`).  It still
    builds its own models and posts its own bounds.  Any other run drops
    the kept run before its compute phase, and a run that raises keeps
    nothing, so at most one step memo outlives its run.  A run whose
    compute phase gives records equal to the dropped run's (every order of
    one candidate list, say) returns that run's tuple of them, so the
    outcomes a caller keeps hold one copy.
    """
    cands = tuple(candidates)
    for cand in cands:
        if cand.object != scenario.object:
            raise InvalidArgumentError(
                f"candidate {cand.id} targets {cand.object}, scenario is {scenario.object}"
            )
    counters = Counters()
    start = time.monotonic()
    model, featvars, xs = scenario.fresh(counters)
    leaf = model.leaf_memo
    kept = _KEPT.pop("run", None)  # one atomic take: no two runs share a memo
    if not (kept is not None and kept[0]() is leaf and len(kept[1]) == len(cands)
            and all(map(operator.is_, kept[1], cands))):
        last = kept and kept[3]
        kept = None  # dropped before the compute phase: two memos never live at once
        memo = StepMemo(cands)
        phase = Counters()
        records = tuple(compute_all_solutions(
            model, featvars, xs, cands, scenario.n, phase, memo))
        if records == last:
            records = last
        # every feasible tuple was found with every candidate posted, so no
        # candidate removes one: each is sound for this scenario
        memo.sound = sum(1 for r in records if r.sol) == len(
            feature_tuples(scenario.object, scenario.n))
        kept = (weakref.ref(leaf), cands, memo, records, phase.posts, phase.labelings,
                phase.by_tag)
    _, _, memo, records, posts, labelings, by_tag = kept
    counters.posts += posts
    counters.labelings += labelings
    counters.by_tag.update(by_tag)
    drain = [r for r in records if r.sol]
    by_isol = {r.isol: r for r in records}
    engine = engine_cls(scenario, model, featvars, xs, drain, by_isol, counters, memo)
    selected = _select(engine, drain, list(cands))
    report = SelectionReport(
        selected=tuple(c.id for c in selected),
        posts=counters.posts,
        labelings=counters.labelings,
        wall_ms=int((time.monotonic() - start) * 1000),
    )
    _KEPT["run"] = kept
    return SelectionOutcome(report, tuple(selected), records, counters)


def run_selection(
    scenario: ObjectScenario, candidates: Sequence[BoundCandidate]
) -> SelectionOutcome:
    """Incremental selection; the full outcome, for verification harnesses."""
    return _run(_IncrementalEngine, scenario, candidates)


def run_baseline(
    scenario: ObjectScenario, candidates: Sequence[BoundCandidate]
) -> SelectionOutcome:
    """Baseline selection: identical control flow, full re-posting per trial."""
    return _run(_BaselineEngine, scenario, candidates)
