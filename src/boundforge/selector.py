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

The steps come in two step loops, the enumeration and the drain.  Every
step of one loop starts from the same model state, so what the memo reads
of that state (the posted bounds and every domain) is taken once per loop
(:meth:`StepMemo.loop`), and each step only checks that the state is
still the loop's.  Each search still goes through ``labeling`` and each
post through ``post_lex_greater`` or ``post_bound``, once.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Mapping, NamedTuple, Sequence

from .bounds import BoundCandidate, post_bound, posted_bounds
from .errors import (
    CatalogSoundnessError,
    InfeasibleModelError,
    InternalInvariantError,
    InvalidArgumentError,
)
from .kernel import Model, TrailMark, VarRef, labeling, post_lex_greater
from .objects import canonical_tuples, check_model_size, posted_model


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

    Each step posts feature-vars >lex previous-solution, labels, and
    retracts the lex constraint.  The terminal sentinel carries 0
    backtracks when the lex posting itself failed, or the full exhaustion
    count when the last labeling proved no solution remains.  With a
    ``memo``, steps go through it and each record holds the memo's
    canonical object for its tuple.
    """
    counters = counters if counters is not None else Counters()
    tuples = memo.tuples if memo is not None else {}
    loop = memo.loop(model) if memo is not None else None
    records: list[SolutionRecord] = []
    prev: tuple[int, ...] | None = None
    while True:
        res = _step(model, featvars, xs, prev, counters, memo, loop)
        if res is None or res.finished:
            records.append(SolutionRecord(len(records), 0 if res is None else res.nback, ()))
            return records
        prev = res.sol[: len(featvars)]
        prev = tuples.get(prev, prev)
        records.append(SolutionRecord(len(records), res.nback, prev))


def _step(model, featvars, xs, prev, counters, memo, loop, expected=None):
    """One step of the algorithm, searched or answered by ``memo``, whose
    ``loop`` (:meth:`StepMemo.loop`) holds what the steps of this loop share.

    ``labelings`` counts every step whose lex post succeeds, whether it
    was searched here or answered from an earlier search.  ``expected`` is
    the stored count a drain step is compared with (see :class:`StepMemo`).
    """
    res = _search(model, featvars, xs, prev) if memo is None else memo.step(
        model, featvars, xs, prev, loop, expected)
    if res is not None:
        counters.labelings += 1
    return res


def _search(model, featvars, xs, prev):
    """Post featvars >lex prev (skipped when prev is None), label, retract.

    Returns the labeling result, or None when the lex posting failed (the
    failed post leaves the model unchanged).  The lex constraint is
    retracted also when the search raises.
    """
    mark = model.mark()
    if prev is not None and post_lex_greater(model, featvars, prev) is None:
        return None
    try:
        return labeling(model, featvars, xs)
    finally:
        model.retract_to(mark)


class StepLoop(NamedTuple):
    """What every step of one step loop reads from the model, taken once
    when the loop starts (:meth:`StepMemo.loop`)."""

    mark: TrailMark  # the model's trail length and constraint count
    posted: int  # the posted bounds' bits in the memo's posted sets
    state: tuple[tuple[int, ...], ...]  # every domain, Model.snapshot()


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
    the domain check compares; :meth:`loop` clears every owner, so those
    ends carry no clause.

    The equal-outcome rule drops the upper limit: an outcome whose count
    equals the ``expected`` count, the one the drain compares the step
    with, answers a step that posts more bounds, given equal start domains
    and every stored clause met.  It is on only once ``sound`` is set,
    which ``_run`` does when the compute phase found every feasible tuple
    with every candidate posted, so no candidate removes one.  The stored
    clauses hold only bits of the stored set, so the part of Q within it
    meets them too and gets the stored outcome.  More bounds can only
    lower a count (a trial they fail heads a subtree without solutions,
    where the fewer bounds fail at least once), they leave the next
    solution where it was, and the count cannot drop below ``expected``,
    which is that same transition's count with every candidate posted.

    A step loop, the enumeration or one drain, takes its steps on a model
    that is the same at the start of each: a step posts the lex constraint
    and retracts it, and the loop posts nothing in between.  So the posted
    bits and the start domains are taken once per loop (:meth:`loop`), and
    each step checks in O(1) that the model still has the loop's trail
    length and constraint count.

    One memo belongs to one run and one object size; it is never shared.
    """

    def __init__(self, candidates: Sequence[BoundCandidate], tuples: Mapping):
        bits: dict[BoundCandidate, int] = {}
        # by identity, so no step hashes a candidate; ``candidates`` outlives
        # the memo, so no identity is reused while it is in use
        self.bit = {id(c): bits.setdefault(c, 1 << len(bits)) for c in candidates}
        self.tuples = tuples  # canonical feature tuples, see enumerate_all_solutions
        self.steps: dict[tuple[int, ...] | None, list] = {}
        self.sound = False  # every candidate known sound: the equal-outcome rule is on

    def loop(self, model: Model) -> StepLoop:
        """What the steps of a loop on ``model``, as it stands, share.  It
        gives each posted bound its bit and clears every owner (on the
        trail, so a retraction brings them back)."""
        bit = self.bit
        posted = 0
        for con in posted_bounds(model):
            con.bit = bit[id(con.bound)]
            posted |= con.bit
        model.disown()
        return StepLoop(model.mark(), posted, model.snapshot())

    def step(self, model, featvars, xs, prev, loop: StepLoop, expected=None):
        """The outcome of the step from ``prev`` on ``model``, in the state
        ``loop`` was taken in, compared with ``expected`` by the drain: a
        stored one when the conditions above hold, else searched and
        stored.  A model whose trail or constraints changed since raises
        :class:`InternalInvariantError`."""
        mark, posted, state = loop
        if model.mark() != mark:
            raise InternalInvariantError("the model changed between two steps of one loop")
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
        res = _search(model, featvars, xs, prev)
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
    loop = memo.loop(model) if memo is not None else None
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


def _run(
    engine_cls, scenario: ObjectScenario, candidates: Sequence[BoundCandidate]
) -> SelectionOutcome:
    """The one selection driver; ``engine_cls`` decides how trials are posted."""
    for cand in candidates:
        if cand.object != scenario.object:
            raise InvalidArgumentError(
                f"candidate {cand.id} targets {cand.object}, scenario is {scenario.object}"
            )
    counters = Counters()
    start = time.monotonic()
    model, featvars, xs = scenario.fresh(counters)
    memo = StepMemo(candidates, canonical_tuples(scenario.object, scenario.n))
    records = compute_all_solutions(model, featvars, xs, candidates, scenario.n, counters, memo)
    drain = [r for r in records if r.sol]
    # every feasible tuple was found with every candidate posted, so no
    # candidate removes one: each is sound for this scenario
    memo.sound = len(drain) == len(memo.tuples)
    by_isol = {r.isol: r for r in records}
    engine = engine_cls(scenario, model, featvars, xs, drain, by_isol, counters, memo)
    selected = _select(engine, drain, list(candidates))
    report = SelectionReport(
        selected=tuple(c.id for c in selected),
        posts=counters.posts,
        labelings=counters.labelings,
        wall_ms=int((time.monotonic() - start) * 1000),
    )
    return SelectionOutcome(report, tuple(selected), tuple(records), counters)


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
