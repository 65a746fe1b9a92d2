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
re-checking from the first record).  Selected lists are equal by
construction; the posting counters expose the incremental savings.

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
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .bounds import BoundCandidate, post_bound, posted_bounds
from .errors import (
    CatalogSoundnessError,
    InfeasibleModelError,
    InternalInvariantError,
    InvalidArgumentError,
)
from .kernel import Model, VarRef, labeling, post_lex_greater
from .objects import canonical_tuples, check_model_size, make_model, post_object


@dataclass(frozen=True, slots=True)
class SolutionRecord:
    """One enumerated feature solution; the sentinel has an empty sol."""

    isol: int
    nback: int
    sol: tuple[int, ...]


@dataclass
class Counters:
    """Post/labeling accounting; posts count object and bound postings only."""

    posts: int = 0
    labelings: int = 0
    by_tag: Counter = field(default_factory=Counter)  # postings per (tag, bound or object id)

    def posted(self, tag: str, name: str) -> None:
        self.posts += 1
        self.by_tag[tag, name] += 1


@dataclass(frozen=True)
class SelectionReport:
    selected: tuple[str, ...]
    posts: int
    labelings: int
    wall_ms: int

    def to_json(self) -> dict:
        return {
            "selected": list(self.selected),
            "posts": self.posts,
            "labelings": self.labelings,
            "wall_ms": self.wall_ms,
        }


@dataclass(frozen=True)
class ObjectScenario:
    """A combinatorial object kind plus size; builds fresh posted models."""

    object: str  # a key of objects.FEATURES
    n: int

    def __post_init__(self):
        check_model_size(self.object, self.n)

    def fresh(self, counters: Counters) -> tuple[Model, list[VarRef], list[VarRef]]:
        model, featvars, xs = make_model(self.object, self.n)
        cid = post_object(model, self.object, featvars, xs)
        counters.posted("ctr", self.object)
        if cid is None:
            raise InfeasibleModelError(f"{self.object} constraint failed at n={self.n}")
        return model, featvars, xs


@dataclass(frozen=True)
class SelectionOutcome:
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
    records: list[SolutionRecord] = []
    prev: tuple[int, ...] | None = None
    while True:
        res = _step(model, featvars, xs, prev, counters, memo)
        if res is None or res.finished:
            records.append(SolutionRecord(len(records), 0 if res is None else res.nback, ()))
            return records
        prev = res.sol[: len(featvars)]
        prev = tuples.get(prev, prev)
        records.append(SolutionRecord(len(records), res.nback, prev))


def _step(model, featvars, xs, prev, counters, memo, expected=None):
    """One step of the algorithm, searched or answered by ``memo``.

    ``labelings`` counts every step whose lex post succeeds, whether it
    was searched here or answered from an earlier search.  ``expected`` is
    the stored count a drain step is compared with (see :class:`StepMemo`).
    """
    res = _search(model, featvars, xs, prev) if memo is None else memo.step(
        model, featvars, xs, prev, expected)
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


class StepMemo:
    """The steps one selection run has searched, to answer its repeats.

    The drain searches the same transition, the step out of one ``prev``,
    under one candidate subset after another.  Each searched step is kept
    under its ``prev`` with its outcome (the labeling result, or None when
    the lex post failed), the set of bounds posted, the set of those that
    acted (pruned or failed, lex post included: ``BoundConstraint.acted``
    moved) and the model's domains when it began.  A later step from the
    same ``prev`` is answered from a stored one, without posting or
    labeling, when its domains at the start are equal to the stored ones and
    its posted set lies between the stored acted set and the stored posted
    set.

    That is sound because the propagators are monotone and a fixpoint does
    not depend on propagation order: a posted bound that never pruned or
    failed during a step can be taken away without changing any state the
    step visits, so every fixpoint, failure and count stays the same.  A
    bound that pruned only when it was posted acted before the step began;
    the domain check is what sees it.  Equal candidates post equal
    propagators, so they share one bit of the posted and acted sets.

    The equal-outcome rule drops the upper limit: an outcome whose count
    equals the ``expected`` count, the one the drain compares the step
    with, answers a step that posts more bounds, given equal start domains
    and every stored acted bound posted.  It is on only once ``sound`` is
    set, which ``_run`` does when the compute phase found every feasible
    tuple with every candidate posted, so no candidate removes one.  Then
    more bounds can only lower a count (a trial they fail heads a subtree
    without solutions, where the fewer bounds fail at least once), they
    leave the next solution where it was, and the count cannot drop below
    ``expected``, which is that same transition's count with every
    candidate posted.

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

    def step(self, model, featvars, xs, prev, expected=None):
        """The outcome of the step from ``prev`` on ``model`` as it stands,
        compared with ``expected`` by the drain: a stored one when the
        conditions above hold, else searched and stored."""
        cons = posted_bounds(model)
        bit = self.bit
        posted = 0
        for con in cons:
            posted |= bit[id(con.bound)]
        state = model.snapshot()
        entries = self.steps.setdefault(prev, [])
        for stored, acted, stored_state, res in entries:
            if acted & ~posted:
                continue
            if posted & ~stored and not (
                    self.sound and res is not None and res.nback == expected):
                continue
            if state == stored_state:
                return res
        before = [con.acted for con in cons]
        res = _search(model, featvars, xs, prev)
        acted = 0
        for con, count in zip(cons, before):
            if con.acted != count:
                acted |= bit[id(con.bound)]
        entries.append((posted, acted, state, res))
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

    def post_selected(self, cand: BoundCandidate) -> None:
        _post(self.model, [cand], self.featvars, self.n, self.counters, "prev", "when re-posted")

    def mark(self):
        return self.model.mark()

    def post_suffix(self, cands: Sequence[BoundCandidate]) -> None:
        _post(self.model, cands, self.featvars, self.n, self.counters, "suffix", "when re-posted")

    def retract(self, mark) -> None:
        self.model.retract_to(mark)

    def enumerate_step(self, sols: list[SolutionRecord]):
        return _drain(self.model, self.featvars, self.xs, sols, self.by_isol, self.counters,
                      self.memo)


class _BaselineEngine:
    """Rebuilds the model from scratch for every transition-checking trial."""

    def __init__(self, scenario, model, featvars, xs, drain, by_isol, counters, memo=None):
        self.scenario = scenario
        self.full_drain = list(drain)
        self.by_isol = by_isol
        self.counters = counters
        self.memo = memo
        self.selected_stack: list[BoundCandidate] = []
        self.trial_stack: list[BoundCandidate] = []

    def post_selected(self, cand: BoundCandidate) -> None:
        self.selected_stack.append(cand)

    def mark(self):
        return len(self.trial_stack)

    def post_suffix(self, cands: Sequence[BoundCandidate]) -> None:
        self.trial_stack.extend(cands)

    def retract(self, mark) -> None:
        del self.trial_stack[mark:]

    def enumerate_step(self, sols: list[SolutionRecord]):
        model, featvars, xs = self.scenario.fresh(self.counters)
        _post(model, self.selected_stack + self.trial_stack, featvars, self.scenario.n,
              self.counters, "baseline", "when re-posted")
        return _drain(model, featvars, xs, self.full_drain, self.by_isol, self.counters,
                      self.memo)


def _drain(model, featvars, xs, sols, by_isol, counters, memo=None):
    """Check successive solution transitions until one needs more backtracks.

    Returns (remaining records, missing_bound).  The head record's own
    solution seeds the lex jump; the expected count is the stored count of
    the record one index later (the sentinel for the last real record).
    Each step searches to its full count unless the memo answers it.
    """
    for i, head in enumerate(sols):
        succ = by_isol.get(head.isol + 1)
        if succ is None:
            raise InternalInvariantError(f"no stored record with index {head.isol + 1}")
        res = _step(model, featvars, xs, head.sol, counters, memo, succ.nback)
        observed = 0 if res is None else res.nback
        if observed != succ.nback:
            return list(sols[i:]), True
    return [], False


# -- the recursive selection (shared by both engines) ---------------------------


def split_mid(length: int) -> int:
    """Prefix length of the uneven candidate split (suffix is the shorter side)."""
    if length > 200:
        return length - 100
    if length < 3:
        return (length + 1) // 2
    return (2 * length + 2) // 3


def _select_one(engine, top: bool, sols, bounds):
    if not bounds:
        raise InvalidArgumentError("select_one needs at least one candidate")
    mid = split_mid(len(bounds))
    prefix, suffix = list(bounds[:mid]), list(bounds[mid:])
    mark = engine.mark()
    result = _dicho(engine, sols, len(bounds), prefix, suffix)
    if top:
        engine.retract(mark)
    return result


def _dicho(engine, sols, length, prefix, suffix):
    mark = engine.mark()
    engine.post_suffix(suffix)
    sols2, missing = engine.enumerate_step(sols)
    if missing and length > 1:
        selected, rest = _select_one(engine, False, sols2, prefix)
        return selected, rest + suffix
    engine.retract(mark)
    if length == 1:
        if missing:
            return prefix[0], []
        return None, prefix
    return _select_one(engine, False, sols, suffix)


def _select(engine, sols, bounds, prev):
    if prev is not None:
        engine.post_selected(prev)
    selected, rest = _select_one(engine, True, sols, bounds)
    if selected is not None and rest:
        return [selected] + _select(engine, sols, rest, selected)
    return [] if selected is None else [selected]


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
    selected: list[BoundCandidate] = []
    if candidates:
        by_isol = {r.isol: r for r in records}
        engine = engine_cls(scenario, model, featvars, xs, drain, by_isol, counters, memo)
        selected = _select(engine, drain, list(candidates), None)
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
