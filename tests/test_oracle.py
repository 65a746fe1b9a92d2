"""Brute-force oracle: enumerations, audits, and the closed-form extremals."""

from __future__ import annotations

import pytest

from boundforge import oracle
from boundforge.bounds import by_id
from boundforge.errors import InvalidArgumentError
from boundforge.objects import partition_features

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
    assert rep.instances == 64 and rep.ok

    rep = oracle.audit(by_id("P-S-UB"), 8)
    assert rep.instances == 22 and rep.ok

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
