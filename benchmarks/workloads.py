"""The three workloads: operations drawn from a seed, and their checks.

A workload is a sequence of rounds; a round is a list of jobs.  A job is
one or more timed library calls plus a check over their outputs.  Round k
draws its inputs from ``random.Random(f"{workload}:{seed}:{k}")``, so the
same seed always gives the same inputs, and the library receives only the
generated candidate lists and shuffle orders.

Why each workload exists:

* ``select-deep``: ``run_selection`` at binseq n=10, the model ceiling.  A
  few long labeling searches where kernel propagation does almost all the
  work and posting almost none.
* ``compare-sweep``: many small ``run_selection``/``run_baseline`` pairs,
  so the fixed per-call costs (model build, posting, the lex-jump post,
  trail retraction) carry a real share.  The only workload that runs the
  baseline engine and the partition propagators.
* ``verify-audit``: ``oracle.audit`` over ``verify``'s default ranges.  No
  kernel or selector code runs at all, so it is the bypass workload for
  every kernel or selector change.  It has nothing to vary and ignores
  the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from boundforge import bounds, oracle, selector
from boundforge.objects import BINSEQ_FEATURES, PARTITION_FEATURES

import golden as golden_mod


@dataclass(frozen=True)
class Job:
    """Timed library calls and the check over their outputs."""

    label: str
    calls: tuple[Callable[[], object], ...]
    check: Callable[[list], list[str]]


# -- checks ----------------------------------------------------------------


def check_golden_selection(outcome, expected: dict) -> list[str]:
    """Compare a selection outcome with its recorded observables."""
    got = golden_mod.selection_observables(
        expected["object"], expected["n"], expected["candidates"], outcome)
    return [
        f"{key}: expected {expected[key]!r:.80}, got {got[key]!r:.80}"
        for key in ("selected", "posts", "labelings", "records")
        if got[key] != expected[key]
    ]


def check_preserved(scenario, outcome, memo: dict) -> list[str]:
    """Posting only the selected bounds on a fresh model reproduces every
    record's backtrack count (acceptance criterion 6)."""
    key = (scenario, tuple(c.id for c in outcome.selected), outcome.records)
    if key not in memo:
        counters = selector.Counters()
        model, featvars, xs = scenario.fresh(counters)
        problems = []
        for cand in outcome.selected:
            if bounds.post_bound(model, cand, featvars, scenario.n) is None:
                problems.append(f"selected bound {cand.id} fails on a fresh model")
        stored = {r.isol: r.nback for r in outcome.records}
        recs = selector.enumerate_all_solutions(model, featvars, xs, counters)
        if len(recs) != len(stored):
            problems.append(f"{len(recs)} records without the other bounds, {len(stored)} with")
        problems += [
            f"record {r.isol}: nback {r.nback} with the selection, {stored.get(r.isol)} with all"
            for r in recs
            if r.nback != stored.get(r.isol)
        ][:3]
        memo[key] = problems
    return memo[key]


def _golden_for(gold: dict, scenario, cands) -> dict | None:
    expected = gold["selections"].get((scenario.object, scenario.n))
    if expected is not None and expected["candidates"] == [c.id for c in cands]:
        return expected
    return None


# -- select-deep -------------------------------------------------------------


class SelectDeep:
    """Rounds of two selections at binseq n=10: catalog order, then a seeded
    catalog shuffle.

    One shuffle's cost varies by about 25 % around the mean, and a run holds
    only a dozen selections, so a run made of shuffles alone spread by up to
    0.18 across seeds.  The catalog-order selection, the golden anchor,
    costs the same in every round and halves the share of that variation.
    """

    name = "select-deep"

    def __init__(self, gold: dict, tiny: bool = False):
        self.gold = gold
        self.scenario = selector.ObjectScenario("binseq", 7 if tiny else 10)
        self.memo: dict = {}

    def sizes(self) -> list[tuple[str, int]]:
        return [(self.scenario.object, self.scenario.n)]

    def round(self, k: int, rng: random.Random) -> list[Job]:
        catalog = bounds.catalog("binseq")
        shuffled = list(catalog)
        rng.shuffle(shuffled)
        return [Job(label, (self._call(cands),), self._check(cands))
                for label, cands in (("catalog", catalog), ("shuffle", shuffled))]

    def _call(self, cands):
        return lambda: selector.run_selection(self.scenario, cands)

    def _check(self, cands):
        def check(outs):
            (outcome,) = outs
            problems = []
            expected = _golden_for(self.gold, self.scenario, cands)
            if expected is not None:
                problems += check_golden_selection(outcome, expected)
            return problems + check_preserved(self.scenario, outcome, self.memo)
        return check


# -- compare-sweep -------------------------------------------------------------


class CompareSweep:
    """Incremental/baseline pairs on small seeded scenarios.

    Every round holds, for each size, one shuffle of the full catalog, one
    half-size sublist with duplicates, and the catalog mixed with decoys.
    Fixing the kinds per size and drawing only their contents keeps the
    cost of a round nearly the same across seeds.  Round 0 starts with the
    catalog-order partition n=8 selection, which has golden observables.
    """

    name = "compare-sweep"

    def __init__(self, gold: dict, tiny: bool = False):
        self.gold = gold
        top = 4 if tiny else 8
        self.size_list = [(obj, n) for obj in ("partition", "binseq") for n in range(3, top + 1)]

    def sizes(self) -> list[tuple[str, int]]:
        return self.size_list + [("partition", 8)]

    def round(self, k: int, rng: random.Random) -> list[Job]:
        jobs = []
        if k == 0:
            jobs.append(self._job("golden", "partition", 8, bounds.catalog("partition")))
        for object_name, n in self.size_list:
            catalog = bounds.catalog(object_name)
            features = PARTITION_FEATURES if object_name == "partition" else BINSEQ_FEATURES

            shuffled = list(catalog)
            rng.shuffle(shuffled)
            jobs.append(self._job("shuffle", object_name, n, shuffled))

            sub = rng.sample(catalog, max(1, len(catalog) // 2))
            sub += rng.sample(sub, min(2, len(sub)))
            rng.shuffle(sub)
            jobs.append(self._job("sublist", object_name, n, sub))

            decoys = [bounds.decoy(object_name, f, n) for f in rng.sample(features, 2)]
            mixed = list(catalog) + decoys
            rng.shuffle(mixed)
            jobs.append(self._job("decoys", object_name, n, mixed))
        return jobs

    def _job(self, label: str, object_name: str, n: int, cands: Sequence) -> Job:
        scenario = selector.ObjectScenario(object_name, n)
        cands = list(cands)
        return Job(
            f"{label}:{object_name}-{n}",
            (lambda: selector.run_selection(scenario, cands),
             lambda: selector.run_baseline(scenario, cands)),
            lambda outs: self._check(scenario, cands, *outs),
        )

    def _check(self, scenario, cands, inc, base) -> list[str]:
        problems = []
        if inc.report.selected != base.report.selected:
            problems.append(f"engines differ: {inc.report.selected} vs {base.report.selected}")
        if inc.records != base.records:
            problems.append("engines recorded different solutions")
        decoys = [s for s in inc.report.selected if s.startswith("decoy:")]
        if decoys:
            problems.append(f"decoys selected: {decoys}")
        if len(inc.report.selected) >= 2 and not inc.report.posts < base.report.posts:
            problems.append(f"incremental posts {inc.report.posts} not below {base.report.posts}")
        expected = _golden_for(self.gold, scenario, cands)
        if expected is not None:
            problems += check_golden_selection(inc, expected)
        return problems


# -- verify-audit ----------------------------------------------------------------


class VerifyAudit:
    """Every catalog bound audited over ``verify``'s default ranges."""

    name = "verify-audit"

    def __init__(self, gold: dict, tiny: bool = False):
        self.gold = gold
        self.ranges = dict(golden_mod.VERIFY_RANGES)
        if tiny:
            self.ranges = {"partition": (1, 6), "binseq": (1, 8)}

    def sizes(self) -> list[tuple[str, int]]:
        return []

    def round(self, k: int, rng: random.Random) -> list[Job]:
        return [
            Job(f"{b.id}:{n}", (lambda b=b, n=n: oracle.audit(b, n),),
                lambda outs, b=b, n=n: self._check(b, n, outs[0]))
            for b in bounds.catalog()
            for n in range(self.ranges[b.object][0], self.ranges[b.object][1] + 1)
        ]

    def _check(self, bound, n, report) -> list[str]:
        row = report.row()
        expected = self.gold["audit"].get((bound.id, n))
        problems = [] if row["violations"] == 0 else [f"{row['violations']} violations"]
        if row != expected:
            problems.append(f"row {row} differs from {expected}")
        return problems


WORKLOADS = {w.name: w for w in (SelectDeep, CompareSweep, VerifyAudit)}


def warm(workload) -> None:
    """Build the catalog and the lazy caches the workload's models need."""
    bounds.catalog()
    for object_name, n in workload.sizes():
        selector.ObjectScenario(object_name, n).fresh(selector.Counters())
