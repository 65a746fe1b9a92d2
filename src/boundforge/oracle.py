"""Independent brute-force ground truth for the bound catalog.

Everything here enumerates objects exhaustively and evaluates definitions
directly; nothing depends on the constraint kernel, so model behaviour and
catalog formulas can both be audited against it.

``objects.feature_tuples`` feeds the models' prefix check
(``PrefixFeasible``) and leaf memo, and
``test_feature_table_agrees_with_the_tuple_tables`` is the only
independent check of it: with one shared enumerator, an object it
dropped would be missing from the models and from the oracle alike, and
no audit could notice.  So the oracle is the only walk of the objects:
``enum_partitions`` walks all p(n) partitions and ``enum_binseqs`` all
2**n sequences, where ``objects.feature_tuples`` builds both objects'
tables from multiset shapes.

An audit still extracts the features of every object of its size, but it
evaluates each distinct feature tuple once and weights it by how many
objects share it.  The enumeration is kept in a per-process table cache,
one entry per (object, n); the audit results stay pure.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import product
from typing import Iterator

from .bounds import BoundCandidate, verify_on
from .errors import InvalidArgumentError
from .objects import binseq_features, check_size, partition_features


def enum_partitions(n: int) -> list[tuple[int, ...]]:
    """All multisets of positive integers summing to n, non-increasing."""
    check_size("partition", n)
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for first in range(min(cap, rest), 0, -1):
            rec(rest - first, first, acc + (first,))

    rec(n, n, ())
    return out


def enum_binseqs(n: int) -> Iterator[tuple[int, ...]]:
    """All 2**n binary sequences of length n, each exactly once."""
    check_size("binseq", n)
    return product((0, 1), repeat=n)


class AuditReport:
    """Exhaustive check of one bound at one size."""

    def __init__(self, bound_id: str, n: int, instances: int, min_slack: int | None = None):
        self.bound_id = bound_id
        self.n = n
        self.instances = instances
        self.violations: list[tuple[tuple[int, ...], int, int]] = []
        self.witnesses: list[tuple[int, ...]] = []
        self.min_slack = min_slack

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def row(self) -> dict:
        return {
            "bound": self.bound_id,
            "n": self.n,
            "instances": self.instances,
            "violations": len(self.violations),
            "witnesses": len(self.witnesses),
            "min_slack": self.min_slack,
        }

    def to_json(self) -> dict:
        out = self.row()
        out["violation_details"] = [
            {"features": list(f), "lhs": lhs, "rhs": rhs}
            for f, lhs, rhs in self.violations
        ]
        return out


@lru_cache(maxsize=None, typed=True)
def _feature_table(object_name: str, n: int) -> tuple[tuple, array]:
    """Enumerate the objects of size n once per process.

    Returns the distinct feature records in order of first occurrence,
    and, per object in enumeration order, the index of its features there.
    """
    check_size(object_name, n)
    if object_name == "partition":
        feature_iter = (partition_features(list(sizes)) for sizes in enum_partitions(n))
    else:
        feature_iter = (binseq_features(list(bits)) for bits in enum_binseqs(n))
    index: dict = {}
    order = array("I", (index.setdefault(feats, len(index)) for feats in feature_iter))
    return tuple(index), order


def audit(bound: BoundCandidate, n: int) -> AuditReport:
    """Evaluate a bound on every object of size n; collect violations and
    slack-0 witnesses, in enumeration order and with repeats.

    Each distinct feature tuple is evaluated once and weighted by how many
    objects share it.
    """
    distinct, order = _feature_table(bound.object, n)
    rows = [(feats.as_tuple(), *verify_on(bound, feats)) for feats in distinct]
    report = AuditReport(bound_id=bound.id, n=n, instances=len(order),
                         min_slack=min(row[4] for row in rows))
    for i in order:
        tup, holds, lhs, rhs, slack = rows[i]
        if not holds:
            report.violations.append((tup, lhs, rhs))
        elif slack == 0:
            report.witnesses.append(tup)
    return report


def max_sum_squares(n: int, p: int) -> int:
    """Largest sum of squares of p positive integers summing to n."""
    if not 1 <= p <= n:
        raise InvalidArgumentError(f"need 1 <= P <= n, got P={p}, n={n}")
    top = n - (p - 1)
    return top * top + p - 1


def omax_omin_bounds(n: int, p: int, mmin: int, mmax: int) -> tuple[int, int]:
    """Tight upper bounds on the number of largest-size and smallest-size parts."""
    rng = mmax - mmin
    if rng <= 0:
        raise InvalidArgumentError("bounds need Mmax > Mmin")
    r = n - p * mmin
    if r < 0:
        raise InvalidArgumentError("infeasible features: n < P*Mmin")
    return r // rng, p - (-(-r // rng))
