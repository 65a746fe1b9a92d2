"""Brute-force oracle: enumerations, audits, and the closed-form extremals."""

from __future__ import annotations

import pytest

from boundforge import oracle
from boundforge.bounds import BoundCandidate, by_id, catalog, decoy, verify_on
from boundforge.errors import CatalogError, InvalidArgumentError
from boundforge.objects import binseq_features, feature_tuples, partition_features

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}


def test_enum_partitions_examples():
    assert set(oracle.enum_partitions(3)) == {(3,), (2, 1), (1, 1, 1)}
    assert len(oracle.enum_partitions(5)) == 7
    assert oracle.enum_partitions(1) == [(1,)]


@pytest.mark.parametrize("n,count", sorted(PARTITION_COUNTS.items()))
def test_enum_partitions_counts(n, count):
    parts = oracle.enum_partitions(n)
    assert len(parts) == count
    assert len(set(parts)) == count
    for sizes in parts:
        assert sum(sizes) == n
        assert list(sizes) == sorted(sizes, reverse=True)


def test_enum_binseqs_counts():
    assert list(oracle.enum_binseqs(0)) == [()]
    assert len(set(oracle.enum_binseqs(3))) == 8
    assert sum(1 for _ in oracle.enum_binseqs(10)) == 1024


def test_audit_examples():
    rep = oracle.audit(by_id("B-DS-LB3"), 6)
    assert rep.instances == 64 and not rep.violations

    rep = oracle.audit(by_id("P-S-UB"), 8)
    assert rep.instances == 22 and not rep.violations

    # the one-large-part construction reaches the range bound in every group
    rep = oracle.audit(by_id("P-RANGE-UB1"), 8)
    groups = {}
    for sizes in oracle.enum_partitions(8):
        f = partition_features(list(sizes))
        groups.setdefault((f.P, f.Mmin), []).append(f.rangeM)
    witness_groups = set()
    for feats in rep.witnesses:
        p, mmin, _, rng, _ = feats
        witness_groups.add((p, mmin))
    assert witness_groups == set(groups)


def test_max_sum_squares_examples_and_brute_force_equality():
    assert oracle.max_sum_squares(6, 3) == 18
    for n in range(1, 10):
        assert oracle.max_sum_squares(n, 1) == n * n
        assert oracle.max_sum_squares(n, n) == n
        for p in range(1, n + 1):
            best = max(
                f.S
                for sizes in oracle.enum_partitions(n)
                for f in [partition_features(list(sizes))]
                if f.P == p
            )
            assert oracle.max_sum_squares(n, p) == best
    with pytest.raises(InvalidArgumentError):
        oracle.max_sum_squares(3, 4)


def test_omax_omin_bound_examples():
    assert oracle.omax_omin_bounds(8, 3, 1, 4) == (1, 1)
    assert oracle.omax_omin_bounds(7, 3, 1, 3) == (2, 1)
    assert oracle.omax_omin_bounds(5, 2, 1, 4) == (1, 1)
    with pytest.raises(InvalidArgumentError):
        oracle.omax_omin_bounds(6, 3, 2, 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_omax_omin_bounds_respected_and_attained(n):
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
        assert all(om <= ub_max and oi <= ub_min for om, oi in seen)
        assert any(om == ub_max for om, _ in seen)
        assert any(oi == ub_min for _, oi in seen)


@pytest.mark.parametrize("n", range(2, 11))
def test_two_middle_parts_never_maximize_sum_of_squares(n):
    # a partition with two parts strictly between Mmin and Mmax always has a
    # same-group partner with strictly larger S
    best: dict[tuple, int] = {}
    all_feats = []
    for sizes in oracle.enum_partitions(n):
        f = partition_features(list(sizes))
        key = (f.P, f.Mmin, f.Mmax)
        best[key] = max(best.get(key, 0), f.S)
        all_feats.append((sizes, f))
    for sizes, f in all_feats:
        middles = [s for s in sizes if f.Mmin < s < f.Mmax]
        if len(middles) >= 2:
            assert f.S < best[(f.P, f.Mmin, f.Mmax)]


@pytest.mark.parametrize("n", range(2, 11))
def test_maximizer_middle_part_structure(n):
    # the S-maximal partition of each (P, Mmin, Mmax) group with positive
    # range has exactly one strict-middle part iff the leftover is not a
    # multiple of the range, and that part's size is Mmin + leftover%range
    groups: dict[tuple, tuple[int, tuple[int, ...]]] = {}
    for sizes in oracle.enum_partitions(n):
        f = partition_features(list(sizes))
        if f.rangeM == 0:
            continue
        key = (f.P, f.Mmin, f.Mmax)
        if key not in groups or f.S > groups[key][0]:
            groups[key] = (f.S, sizes)
    for (p, mmin, mmax), (_, sizes) in groups.items():
        rng = mmax - mmin
        leftover = n - p * mmin
        middles = [s for s in sizes if mmin < s < mmax]
        expected = 1 if leftover % rng > 0 else 0
        assert len(middles) == expected, (n, p, mmin, mmax, sizes)
        if expected:
            assert middles[0] == mmin + leftover % rng


def test_audit_refuses_n_above_the_enumeration_ceiling():
    with pytest.raises(InvalidArgumentError, match="binseq n=21 exceeds"):
        oracle.audit(by_id("B-GS-UB1"), 21)
    with pytest.raises(InvalidArgumentError, match="partition n=51 exceeds"):
        oracle.audit(by_id("P-S-UB"), 51)


@pytest.mark.parametrize(
    "object_name,n,message",
    [("binseq", -1, "sequences need n >= 0"), ("partition", 0, "partitions need n >= 1"),
     ("partition", -2, "partitions need n >= 1")],
    ids=["binseq-1", "partition0", "partition-2"],
)
def test_audit_refuses_n_below_the_smallest_size_and_caches_nothing(object_name, n, message):
    bound = next(b for b in catalog() if b.object == object_name)
    before = oracle._feature_table.cache_info().currsize
    with pytest.raises(InvalidArgumentError, match=message):
        oracle.audit(bound, n)
    with pytest.raises(InvalidArgumentError, match=message):
        oracle._feature_table(object_name, n)
    assert oracle._feature_table.cache_info().currsize == before


# -- the table-backed audit against the per-instance loop it replaced ---------

AUDIT_SIZES = {"binseq": range(0, 11), "partition": range(1, 10)}


def _reference_audit(bound, n):
    """Evaluate the bound on every enumerated object, one at a time."""
    report = oracle.AuditReport(bound_id=bound.id, n=n, instances=0)
    if bound.object == "partition":
        feature_iter = (partition_features(list(s)) for s in oracle.enum_partitions(n))
    else:
        feature_iter = (binseq_features(list(bits)) for bits in oracle.enum_binseqs(n))
    for feats in feature_iter:
        report.instances += 1
        verdict = verify_on(bound, feats)
        if report.min_slack is None or verdict.slack < report.min_slack:
            report.min_slack = verdict.slack
        if not verdict.holds:
            report.violations.append((feats.as_tuple(), verdict.lhs, verdict.rhs))
        elif verdict.slack == 0:
            report.witnesses.append(feats.as_tuple())
    return report


def _tightened(bound):
    op = "-" if bound.direction == "upper" else "+"
    return BoundCandidate(bound.id + ":tight", bound.object, bound.target, bound.direction,
                          (op, bound.rhs, 1))


def _audit_cases():
    for bound in catalog():
        yield bound
        yield _tightened(bound)
    yield decoy("binseq", "GS", 6)
    yield decoy("partition", "S", 5)


@pytest.mark.parametrize("bound", list(_audit_cases()), ids=lambda b: b.id)
def test_audit_equals_the_per_instance_reference(bound):
    for n in AUDIT_SIZES[bound.object]:
        assert oracle.audit(bound, n) == _reference_audit(bound, n), n


def test_audit_cases_reach_violations_and_repeated_witnesses():
    reports = [oracle.audit(b, n) for b in _audit_cases() for n in AUDIT_SIZES[b.object]]
    assert any(len(r.violations) > len(set(r.violations)) for r in reports)
    assert any(len(r.witnesses) > len(set(r.witnesses)) for r in reports)
    assert any(r.violations and r.witnesses for r in reports)


@pytest.mark.parametrize(
    "divisor",
    # G is 0 on the all-zero sequence; 3 - N1 is 0 at N1 = 3 and -1 at N1 = 4,
    # and the error names the divisor, so the first object that raises decides it
    ["G", ("-", 3, "N1")],
)
def test_audit_raises_like_the_reference_when_the_rhs_raises(divisor):
    bound = BoundCandidate("div", "binseq", "N1", "upper", ("div", "n", divisor))
    for n in (4, 7):
        with pytest.raises(CatalogError) as expected:
            _reference_audit(bound, n)
        with pytest.raises(CatalogError) as got:
            oracle.audit(bound, n)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


@pytest.mark.parametrize(
    "object_name,n",
    [("binseq", n) for n in range(0, 15)] + [("partition", n) for n in range(1, 36)],
)
def test_feature_table_agrees_with_the_tuple_tables(object_name, n):
    distinct, order = oracle._feature_table(object_name, n)
    tuples = feature_tuples(object_name, n)
    count = 2**n if object_name == "binseq" else len(oracle.enum_partitions(n))
    assert len(distinct) == len(set(distinct))
    assert {f.as_tuple() for f in distinct} == set(tuples)
    assert all(f.n == n for f in distinct)
    assert len(order) == count
    assert set(order) == set(range(len(distinct)))
