"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines and timings.  Criteria 5-7 share one scenario sweep (module-scoped
fixture) so the equivalence, preservation and incrementality checks all
observe identical runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import pytest

from boundforge import oracle, selector
from boundforge.bounds import catalog, decoy, post_bound
from boundforge.kernel import LabelResult, Model, labeling, post_lex_greater
from boundforge.objects import partition_features
from boundforge.selector import (
    Counters,
    ObjectScenario,
    SolutionRecord,
    compute_all_solutions,
    enumerate_all_solutions,
    run_baseline,
    run_selection,
    split_mid,
)

from kernel_helpers import post, solve_all

PARTITION_AUDIT_N = 10
BINSEQ_AUDIT_N = 14


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {num} ({name}) failed{detail}"


# -- 1: exhaustive bound soundness ------------------------------------------------


def test_criterion_1_bound_soundness():
    start = time.monotonic()
    violations = 0
    instances = 0
    for bound in catalog("partition"):
        for n in range(1, PARTITION_AUDIT_N + 1):
            rep = oracle.audit(bound, n)
            assert rep.instances == len(oracle.enum_partitions(n))
            violations += len(rep.violations)
            instances += rep.instances
    for bound in catalog("binseq"):
        for n in range(1, BINSEQ_AUDIT_N + 1):
            rep = oracle.audit(bound, n)
            assert rep.instances == 2 ** n
            violations += len(rep.violations)
            instances += rep.instances
    elapsed = time.monotonic() - start
    _criterion(
        1, "bound soundness", violations == 0,
        f" ({instances} instance checks, {violations} violations, {elapsed:.1f}s)",
    )


# -- 2: proven tightness of the two range bounds -----------------------------------


def test_criterion_2_proven_tightness():
    ok = True
    for n in range(1, 11):
        by_p_mmin: dict[tuple[int, int], int] = {}
        by_p_mmax: dict[tuple[int, int], int] = {}
        for sizes in oracle.enum_partitions(n):
            f = partition_features(list(sizes))
            key1, key2 = (f.P, f.Mmin), (f.P, f.Mmax)
            by_p_mmin[key1] = max(by_p_mmin.get(key1, -1), f.rangeM)
            by_p_mmax[key2] = max(by_p_mmax.get(key2, -1), f.rangeM)
        for (p, mmin), reached in by_p_mmin.items():
            ok = ok and reached == n - p * mmin
        for (p, mmax), reached in by_p_mmax.items():
            ok = ok and reached == min(p * mmax - n, mmax - 1)
    _criterion(2, "range bounds tight on every admissible group (n<=10)", ok)


# -- 3: closed-form maximum of the sum of squares ------------------------------------


def test_criterion_3_sum_of_squares_maximum():
    ok = True
    for n in range(1, 13):
        best: dict[int, int] = {}
        for sizes in oracle.enum_partitions(n):
            f = partition_features(list(sizes))
            best[f.P] = max(best.get(f.P, 0), f.S)
        for p in range(1, n + 1):
            ok = ok and oracle.max_sum_squares(n, p) == best[p]
    _criterion(3, "sum-of-squares maximum equals brute force (n<=12)", ok)


# -- 4: extreme-part-count bounds respected and attained -------------------------------


def test_criterion_4_extreme_part_count_bounds():
    ok = True
    for n in range(2, 11):
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for sizes in oracle.enum_partitions(n):
            f = partition_features(list(sizes))
            if f.rangeM == 0:
                continue
            omax = sum(1 for s in sizes if s == f.Mmax)
            omin = sum(1 for s in sizes if s == f.Mmin)
            groups.setdefault((f.P, f.Mmin, f.Mmax), []).append((omax, omin))
        for (p, mmin, mmax), seen in groups.items():
            ub_max, ub_min = oracle.omax_omin_bounds(n, p, mmin, mmax)
            ok = ok and all(om <= ub_max and oi <= ub_min for om, oi in seen)
            ok = ok and any(om == ub_max for om, _ in seen)
            ok = ok and any(oi == ub_min for _, oi in seen)
    _criterion(4, "largest/smallest part-count bounds respected and attained (n<=10)", ok)


# -- 5-7: the selection scenario sweep -------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    label: str
    scenario: ObjectScenario
    candidates: tuple
    incremental: selector.SelectionOutcome
    baseline: selector.SelectionOutcome


def _decoys(object_name: str, n: int):
    features = ("S", "rangeM") if object_name == "partition" else ("GS", "DS", "N1")
    return [decoy(object_name, f, n) for f in features]


def _sublists(cat):
    k = len(cat)
    return [
        cat[:1],
        cat[: max(2, k // 4)],
        cat[k // 4: max(k // 2, k // 4 + 1)],
        cat[k // 2:],
        cat[::2],
        cat[1::2] or cat[:1],
    ]


def _scenarios():
    sizes = [("partition", n) for n in range(3, 7)] + [("binseq", n) for n in range(3, 9)]
    for object_name, n in sizes:
        cat = catalog(object_name)
        yield f"{object_name}-{n}-full", object_name, n, list(cat)
        for seed in range(10):
            shuffled = list(cat)
            random.Random(seed).shuffle(shuffled)
            yield f"{object_name}-{n}-shuffle{seed}", object_name, n, shuffled
        for i, sub in enumerate(_sublists(cat)):
            yield f"{object_name}-{n}-sub{i}", object_name, n, list(sub)
        decs = _decoys(object_name, n)
        yield f"{object_name}-{n}-dup", object_name, n, cat + cat[:2]
        yield f"{object_name}-{n}-decoys", object_name, n, cat + decs
        yield f"{object_name}-{n}-decoys-only", object_name, n, list(decs)
        mixed = cat + decs + cat[:2]
        random.Random(99).shuffle(mixed)
        yield f"{object_name}-{n}-mixed", object_name, n, mixed


@pytest.fixture(scope="module")
def sweep() -> list[SweepResult]:
    start = time.monotonic()
    results = []
    for label, object_name, n, cands in _scenarios():
        scenario = ObjectScenario(object_name, n)
        inc = run_selection(scenario, cands)
        base = run_baseline(scenario, cands)
        results.append(SweepResult(label, scenario, tuple(cands), inc, base))
    print(f"\n[sweep: {len(results)} scenarios in {time.monotonic() - start:.1f}s]")
    return results


def test_criterion_5_selector_equivalence(sweep):
    mismatches = [
        r.label for r in sweep
        if r.incremental.report.selected != r.baseline.report.selected
    ]
    _criterion(
        5, "incremental equals baseline on every scenario",
        len(sweep) >= 200 and not mismatches,
        f" ({len(sweep)} scenarios, mismatches: {mismatches or 'none'})",
    )


def test_criterion_6_filtering_preservation(sweep):
    bad = []
    for r in sweep:
        counters = Counters()
        model, featvars, xs = r.scenario.fresh(counters)
        for cand in r.incremental.selected:
            assert post_bound(model, cand, featvars, r.scenario.n) is not None
        stored = {rec.isol: rec.nback for rec in r.incremental.records}
        for rec in enumerate_all_solutions(model, featvars, xs, counters):
            if rec.nback != stored[rec.isol]:
                bad.append((r.label, rec.isol, rec.nback, stored[rec.isol]))
    _criterion(
        6, "selected subset reproduces every per-solution backtrack count",
        not bad, f" (failures: {bad[:5] or 'none'})",
    )


def test_criterion_7_incrementality(sweep):
    eligible = [r for r in sweep if len(r.incremental.report.selected) >= 2]
    each_cheaper = all(
        r.incremental.report.posts < r.baseline.report.posts for r in eligible
    )
    inc_total = sum(r.incremental.report.posts for r in eligible)
    base_total = sum(r.baseline.report.posts for r in eligible)
    ratio = inc_total / base_total if base_total else 0.0
    _criterion(
        7, "incremental posting is measurably cheaper",
        bool(eligible) and each_cheaper and ratio <= 0.8,
        f" ({len(eligible)} scenarios with >=2 selections, posts {inc_total}/{base_total}, ratio {ratio:.3f})",
    )


# -- 8: hand-traced kernel and selector fixtures -----------------------------------------


def test_criterion_8_kernel_fixtures():
    ok = True

    # labeling fixtures
    m = Model()
    a = m.new_var(0, 1)
    ok = ok and labeling(m, [a], []) == LabelResult(0, False, (0,))
    m = Model()
    a = m.new_var(0, 1)
    ok = ok and post(m, ("ge_const", a, 1)) is not None
    ok = ok and labeling(m, [a], []) == LabelResult(0, False, (1,))
    m = Model()
    a = m.new_var(0, 1)
    ok = ok and post(m, ("check", [a], lambda v: v[0] == 1)) is not None
    ok = ok and labeling(m, [a], []) == LabelResult(1, False, (1,))

    # lexicographic jump fixtures
    m = Model()
    a = m.new_var(0, 1)
    ok = ok and post_lex_greater(m, [a], [0]) is not None and m.domain(a) == (1,)
    m = Model()
    a = m.new_var(0, 1)
    ok = ok and post_lex_greater(m, [a], [1]) is None
    m = Model()
    a, b = m.new_var(0, 1), m.new_var(0, 1)
    ok = ok and post_lex_greater(m, [a, b], [0, 1]) is not None
    ok = ok and solve_all(m, [a, b]) == [(1, 0), (1, 1)]

    # retraction fixtures
    m = Model()
    a = m.new_var(0, 5)
    before = m.snapshot()
    mark = m.mark()
    ok = ok and post(m, ("le_const", a, 1)) is not None
    m.retract_to(mark)
    ok = ok and m.snapshot() == before
    mark = m.mark()
    ok = ok and post(m, ("ge_const", a, 9)) is None
    m.retract_to(mark)
    ok = ok and m.snapshot() == before
    mark = m.mark()
    ok = ok and post(m, ("ge_const", a, 2)) is not None
    ok = ok and post(m, ("le_const", a, 2)) is not None
    m.retract_to(mark)
    ok = ok and m.snapshot() == before

    # enumeration record fixture and sorting contract
    m = Model()
    a = m.new_var(0, 1)
    recs = compute_all_solutions(m, [a], [], [], 1)
    ok = ok and recs == [
        SolutionRecord(0, 0, (0,)),
        SolutionRecord(1, 0, (1,)),
        SolutionRecord(2, 0, ()),
    ]

    # split-rule fixtures
    ok = ok and split_mid(250) == 150 and split_mid(2) == 1 and split_mid(9) == 6

    _criterion(8, "hand-traced kernel/selector fixtures bit-exact", ok)
