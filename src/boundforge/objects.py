"""Ground feature extraction and constraint models for the two objects.

Partition features are taken over a multiset of part sizes; binary-sequence
features are taken over stretches of 1s and the 0-runs strictly between
them.  The constraint models post, on top of the feature/variable boxes:

* the propagated channels (occurrence counts for partitions, the count of
  1s for binary sequences),
* a check-only feasibility test on the fixed prefix of the feature
  variables (it never prunes a domain, it can only fail, so posted bound
  constraints remain the sole source of feature-domain filtering),
* a ground checker that fires once every sequence variable is fixed and
  pins the feature variables to the extracted values.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import InternalInvariantError, InvalidArgumentError
from .kernel import Constraint, LeafMemo, Model, SumEq, VarRef

PARTITION_FEATURES = ("P", "Mmin", "Mmax", "rangeM", "S")
BINSEQ_FEATURES = ("N1", "G", "Gmin", "Gmax", "rangeG", "GS", "Dmin", "Dmax", "rangeD", "DS")
# each object's features in canonical order: the order of its feature
# variables, of ``as_tuple()`` and, after n, of the slots an rhs reads
FEATURES = {"partition": PARTITION_FEATURES, "binseq": BINSEQ_FEATURES}

# largest n whose feasible feature tuples are enumerated.  The oracle's
# exhaustive walk sets them (Python 3.11 on a 2-core host: 7 s for the 2**n
# sequences at n=20, 3 s for the p(n) partitions at n=50, each about 4x
# more per step of 2 or 10); both tuple tables are built from multiset
# shapes instead, in about 0.02 s for binseq n=20 and 0.8 s for partition
# n=50
MAX_N = {"partition": 50, "binseq": 20}

# largest n a model is built for: the largest whose cold selection of the
# full catalog ends within 30 s (Python 3.11 on a shared 2-core host:
# binseq n=15 in 25 s, n=16 in about 97 s; partition n=14 in 17-30 s,
# n=15 in 153 s)
MODEL_MAX_N = {"partition": 14, "binseq": 15}


def check_size(object_name: str, n: int) -> None:
    """Refuse an unknown object, an n that is not an ``int`` (``bool``
    included), an n below 1 (partitions) or 0 (sequences), or an n above
    the object's enumeration ceiling.

    Every table cache keyed by n checks this first, so
    :func:`feature_tuples`, the one tuple table, holds at most 50 partition
    and 21 binseq entries, and no cache read from it holds more.  Those
    caches are typed, so an equal float or bool misses the entry of its
    int and is refused here.
    """
    ceiling = MAX_N.get(object_name)
    if ceiling is None:
        raise InvalidArgumentError(f"unknown object {object_name!r}")
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidArgumentError(f"n must be an integer, not {n!r}")
    if object_name == "partition" and n < 1:
        raise InvalidArgumentError("partitions need n >= 1")
    if n < 0:
        raise InvalidArgumentError("sequences need n >= 0")
    if n > ceiling:
        raise InvalidArgumentError(
            f"{object_name} n={n} exceeds the enumeration ceiling {ceiling}"
        )


def check_model_size(object_name: str, n: int) -> None:
    """Refuse what :func:`check_size` refuses, then an n outside
    1..``MODEL_MAX_N``: the one check for a model of the object.

    :func:`initial_domains` calls it, so :func:`make_model` and
    ``bounds.decoy`` do, as do :func:`post_object`, :func:`posted_model`,
    :func:`forget` and ``selector.ObjectScenario`` when it is built: a
    scenario that no model can serve fails there, before any model is built.  The CLI's
    ``BOUNDFORGE_MAX_N`` lifts only the CLI's own caps, not this one.
    """
    check_size(object_name, n)
    if n < 1:
        raise InvalidArgumentError(f"{object_name} model needs n >= 1")
    ceiling = MODEL_MAX_N[object_name]
    if n > ceiling:
        raise InvalidArgumentError(f"{object_name} n={n} exceeds the model ceiling {ceiling}")


def _record(name: str, features: tuple[str, ...]) -> type:
    """A feature record type laid out as ``(n, *features)``: the slots an
    rhs reads, built from ``FEATURES`` so the two cannot disagree.
    ``as_tuple()`` drops n."""
    cls = NamedTuple(name, [("n", int)] + [(f, int) for f in features])
    cls.as_tuple = lambda self: self[1:]
    return cls


PartitionFeatures = _record("PartitionFeatures", PARTITION_FEATURES)
BinSeqFeatures = _record("BinSeqFeatures", BINSEQ_FEATURES)


def partition_features(sizes: Sequence[int]) -> PartitionFeatures:
    """Features of a partition given its part sizes (any order)."""
    if not sizes:
        raise InvalidArgumentError("a partition needs at least one part")
    if any(not isinstance(s, int) or s < 1 for s in sizes):
        raise InvalidArgumentError(f"part sizes must be positive integers: {list(sizes)!r}")
    return PartitionFeatures(sum(sizes), *_partition_tuple(sizes))


def _partition_tuple(sizes: Sequence[int]) -> tuple[int, ...]:
    """Unchecked core of :func:`partition_features`, in PARTITION_FEATURES order."""
    mmin, mmax = min(sizes), max(sizes)
    return (len(sizes), mmin, mmax, mmax - mmin, sum([s * s for s in sizes]))


def binseq_features(bits: Sequence[int]) -> BinSeqFeatures:
    """Features of a 0/1 sequence, with all-zero conventions for no stretch."""
    if any(b not in (0, 1) for b in bits):
        raise InvalidArgumentError(f"sequence must be 0/1: {list(bits)!r}")
    return BinSeqFeatures(len(bits), *_binseq_tuple(bits))


def _binseq_tuple(bits: Sequence[int]) -> tuple[int, ...]:
    """Unchecked core of :func:`binseq_features`, in BINSEQ_FEATURES order.

    Stretches are the maximal runs of 1s; gaps are the 0-runs strictly
    between two stretches, so leading and trailing 0s count for neither.
    """
    stretches: list[int] = []
    gaps: list[int] = []
    run = gap = 0
    for b in bits:
        if b:
            if gap:
                gaps.append(gap)
                gap = 0
            run += 1
        elif run:
            stretches.append(run)
            run = 0
            gap = 1
        elif gap:
            gap += 1
    if run:
        stretches.append(run)
    if not stretches:
        return (0,) * len(BINSEQ_FEATURES)
    gmin, gmax = min(stretches), max(stretches)
    dmin, dmax = (min(gaps), max(gaps)) if gaps else (0, 0)
    return (sum(stretches), len(stretches), gmin, gmax, gmax - gmin,
            sum([s * s for s in stretches]), dmin, dmax, dmax - dmin, sum([d * d for d in gaps]))


# -- initial feature boxes ----------------------------------------------------


def initial_domains(object_name: str, n: int) -> dict[str, tuple[int, int]]:
    """Smallest feature boxes provable from the definition alone."""
    check_model_size(object_name, n)
    if object_name == "partition":
        return {
            "P": (1, n),
            "Mmin": (1, n),
            "Mmax": (1, n),
            "rangeM": (0, n - 1),
            "S": (n, n * n),
        }
    d2 = n - 2 if n >= 2 else 0
    return {
        "N1": (0, n),
        "G": (0, (n + 1) // 2),
        "Gmin": (0, n),
        "Gmax": (0, n),
        "rangeG": (0, max(n - 1, 0)),
        "GS": (0, n * n),
        "Dmin": (0, d2),
        "Dmax": (0, d2),
        "rangeD": (0, d2),
        "DS": (0, d2 * d2),
    }


def _sequence_domain(object_name: str, n: int) -> tuple[int, ...]:
    """The domain of each sequence variable of a fresh model: the colours
    1..n of a partition, or the bits of a sequence."""
    return tuple(range(1, n + 1)) if object_name == "partition" else (0, 1)


def make_model(object_name: str, n: int) -> tuple[Model, list[VarRef], list[VarRef]]:
    """Fresh model with the object's feature variables, in ``FEATURES``
    order and with their initial boxes, and n sequence variables."""
    boxes = initial_domains(object_name, n)
    model = Model()
    featvars = [model.new_var(*boxes[name]) for name in FEATURES[object_name]]
    dom = _sequence_domain(object_name, n)
    xs = [model.new_var(dom[0], dom[-1]) for _ in range(n)]
    return model, featvars, xs


# -- feasible feature tuples (ground truth used by the check-only tests) ------


@lru_cache(maxsize=None, typed=True)
def feature_tuples(object_name: str, n: int) -> tuple[tuple[int, ...], ...]:
    """All feasible feature tuples of the object at this n, sorted.

    Both tables are built from multiset shapes, not from the objects;
    ``oracle.enum_partitions`` and ``oracle.enum_binseqs`` walk those.

    A partition's features are the count, least, greatest and sum of
    squares of its parts, so its tuple is the shape of the multiset of its
    part sizes, and every multiset of positive parts summing to n is a
    partition of n: the tuples are the shapes whose sum is exactly n.

    A binseq tuple depends only on the multiset of stretch lengths (G parts
    summing to N1) and the multiset of gap lengths (G-1 parts summing to
    D), and any two such multisets with N1 + D <= n occur together: the
    stretches and gaps alternate in any order, and the n - N1 - D other
    zeros go outside.
    """
    check_size(object_name, n)
    # shapes[k]: (sum, min, max, sum of squares) of every multiset of k
    # positive parts whose sum is at most n; a part added is never above
    # the least one so far, so each multiset is reached in one order
    shapes = [set(), {(p, p, p, p * p) for p in range(1, n + 1)}]
    while shapes[-1]:
        shapes.append({(t + q, q, hi, sq + q * q) for t, lo, hi, sq in shapes[-1]
                       for q in range(1, min(lo, n - t) + 1)})
    if object_name == "partition":
        return tuple(sorted((k, lo, hi, hi - lo, sq) for k, level in enumerate(shapes)
                            for t, lo, hi, sq in level if t == n))
    tuples = {(0,) * len(BINSEQ_FEATURES)}  # no stretch: the all-zero sequence
    for g in range(1, len(shapes) - 1):
        # the least total of g-1 gaps giving each (Dmin, Dmax, rangeD, DS)
        least = {(0, 0, 0, 0): 0} if g == 1 else {}
        for d, dmin, dmax, ds in shapes[g - 1]:
            tail = (dmin, dmax, dmax - dmin, ds)
            if least.get(tail, n + 1) > d:
                least[tail] = d
        tails = sorted(least, key=least.get)
        totals = [least[tail] for tail in tails]
        for n1, gmin, gmax, gs in shapes[g]:
            head = (n1, g, gmin, gmax, gmax - gmin, gs)
            tuples.update([head + tail for tail in tails[:bisect_right(totals, n - n1)]])
    return tuple(sorted(tuples))


@lru_cache(maxsize=None, typed=True)
def _prefix_sets(object_name: str, n: int) -> tuple[frozenset, ...]:
    """Per length k, every length-k prefix of a feasible feature tuple."""
    tuples = feature_tuples(object_name, n)
    width = len(FEATURES[object_name])
    sets: list[set] = [set() for _ in range(width + 1)]
    for tup in tuples:
        for k in range(1, width + 1):
            sets[k].add(tup[:k])
    return tuple(frozenset(s) for s in sets)


# -- model-side constraints ----------------------------------------------------


class PrefixFeasible(Constraint):
    """Check-only test of the fixed prefix of the feature variables.

    Fails when no feasible feature tuple extends the currently fixed prefix.
    Never prunes, so it contributes exactly one backtrack per infeasible
    value tried during labeling and leaves all feature-domain filtering to
    posted bound constraints.
    """

    kind = "prefix_feasible"
    shareable = True

    def __init__(self, featvars: Sequence[int], prefixes: tuple[frozenset, ...]):
        super().__init__(tuple(featvars))
        self.featvars = tuple(featvars)
        self.prefixes = prefixes

    def propagate(self, model: Model) -> bool:
        doms = model._doms
        vals = []
        for vid in self.featvars:
            d = doms[vid]
            if len(d) != 1:
                break
            vals.append(d[0])
        if not vals:
            return True
        return tuple(vals) in self.prefixes[len(vals)]


class GroundChecker(Constraint):
    """When every sequence variable is fixed, pin the feature variables.

    Labeling fixes the sequence variables left to right, so the last one is
    the one usually still open: it is tested first, so a wake-up while it is
    open returns at once.
    """

    kind = "ground_checker"
    shareable = True

    def __init__(self, featvars: Sequence[int], xs: Sequence[int], extract):
        super().__init__(tuple(xs))
        self.featvars = tuple(featvars)
        self.xs = tuple(xs)
        self.extract = extract

    def propagate(self, model: Model) -> bool:
        doms = model._doms
        if self.xs and len(doms[self.xs[-1]]) != 1:
            return True
        vals = []
        for vid in self.xs:
            d = doms[vid]
            if len(d) != 1:
                return True
            vals.append(d[0])
        for fvid, fval in zip(self.featvars, self.extract(vals)):
            d = doms[fvid]
            if (len(d) != 1 or d[0] != fval) and not model.fix(fvid, fval):
                return False
        return True


class PrecedenceCaps(Constraint):
    """Value precedence on partition colors: X1=1 and Xi <= max(prefix)+1."""

    kind = "value_precedence"
    shareable = True

    def __init__(self, xs: Sequence[int]):
        super().__init__(tuple(xs))
        self.xs = tuple(xs)

    def propagate(self, model: Model) -> bool:
        doms = model._doms
        if not model.prune_le(self.xs[0], 1):
            return False
        running_ub = doms[self.xs[0]][-1]
        for vid in self.xs[1:]:
            if not model.prune_le(vid, running_ub + 1):
                return False
            running_ub = max(running_ub, doms[vid][-1])
        return True


class OccurrenceChannel(Constraint):
    """Counting channel between partition colors, occurrence counts, P and S.

    Occurrence bounds come from fixed/possible counts over the colors;
    closures push exhausted or forced values back onto the colors; P is the
    number of used values; S is bracketed by the min/max of the sum of
    squared occurrences subject to the boxes and the total n.  No backward
    pruning from S; the ground checker settles everything at the leaves.

    S is not watched.  The channel never reads S's domain: it prunes S to
    a bracket computed from the occurrence bounds alone.  After a run S
    lies inside that bracket, and a change to S only shrinks it, so S
    stays inside; a change to anything the bracket is computed from
    queues the channel through its other watches.  A wake-up on S alone
    would therefore prune nothing and could not fail.

    ``memo`` replays earlier runs (the subproblem equivalence of Chu,
    Garcia de la Banda and Stuckey, CPAIOR 2010).  A call first reads both
    ends of P and clears their owners (``Model.release``), so no write it
    runs or replays moves an owned end.  The memo maps P's domain to
    one run: its state (the domains of ``watched``, in order), the writes
    it made to them ((vid, new domain), in order, up to and including a
    wipe-out) and its S bracket, or None when it failed.  The model
    records the writes (``Model.writes_since``), and a call in that state
    replays them (``Model.replay``) and prunes S from the bracket.  The run
    reads nothing but the watched domains, so in an equal state it makes
    the same writes, which leave the same trail, queue and flags.  S is in
    neither the state nor the writes: the run never reads it, and each call
    prunes S's own domain.  Any other call runs the channel, and is stored
    only when P's domain has no entry.  Every copy of a partition template
    shares its channel, so there is one memo per n, exact for every model.
    The library's propagators prune P only at its ends, so P's domain is an
    interval and the memo holds at most n(n+1)/2 entries.  ``smax`` keeps
    the exact S maximum of each occurrence box the channel has run on, a
    pure function of the box, so it too is exact for every model.
    """

    kind = "occurrence_channel"
    shareable = True  # its memo is exact for every model, as said above

    def __init__(self, xs: Sequence[int], occ: Sequence[int], p: int, s: int):
        super().__init__(tuple(xs) + tuple(occ) + (p,))
        self.xs = tuple(xs)
        self.occ = tuple(occ)
        self.p = p
        self.s = s
        self.memo: dict[tuple[int, ...], tuple] = {}
        # S's upper end per occurrence box (lbs, ubs, n), at most _SMAX_CACHE
        # entries: emptied when full
        self.smax: dict[tuple, int] = {}
        self._state = itemgetter(*self.watched)  # the watched domains, P last

    def propagate(self, model: Model) -> bool:
        model.release(self.p)  # see the class docstring
        doms = model._doms
        state = self._state(doms)
        key = state[-1]
        hit = self.memo.get(key)
        if hit is not None and hit[0] == state:
            _, writes, bracket = hit
            if not model.replay(writes):
                return False
        else:
            start = model.mark()
            bracket = self._run(model, doms)
            if hit is None:
                self.memo.setdefault(key, (state, model.writes_since(start), bracket))
        if bracket is None:
            return False
        return model.prune_ge(self.s, bracket[0]) and model.prune_le(self.s, bracket[1])

    def _run(self, model: Model, doms: list) -> tuple[int, int] | None:
        """Prune every watched variable, whose domains ``doms`` holds; the S
        bracket, or None on failure."""
        n = len(self.xs)
        fixed = [0] * (n + 1)
        possible = [0] * (n + 1)
        for vid in self.xs:
            d = doms[vid]
            if len(d) == 1:
                fixed[d[0]] += 1
            for v in d:
                possible[v] += 1
        # each helper is called only where it prunes (a prune_ge that leaves
        # the domain non-empty keeps its maximum, so d[-1] is still current)
        for j, ovid in enumerate(self.occ, start=1):
            d = doms[ovid]
            if d[0] < fixed[j] and not model.prune_ge(ovid, fixed[j]):
                return None
            if d[-1] > possible[j] and not model.prune_le(ovid, possible[j]):
                return None
        for j, ovid in enumerate(self.occ, start=1):
            od = doms[ovid]
            if od[-1] == fixed[j] and possible[j] > fixed[j]:
                for vid in self.xs:
                    if len(doms[vid]) > 1 and not model.remove_value(vid, j):
                        return None
            if od[0] == possible[j] and possible[j] > fixed[j]:
                for vid in self.xs:
                    if j in doms[vid] and not model.fix(vid, j):
                        return None
        lbs = [doms[v][0] for v in self.occ]
        ubs = [doms[v][-1] for v in self.occ]
        if sum(lbs) > n or sum(ubs) < n:
            return None
        pmin = sum(1 for lb in lbs if lb >= 1)
        pmax = sum(1 for ub in ubs if ub >= 1)
        if not (model.prune_ge(self.p, pmin) and model.prune_le(self.p, pmax)):
            return None
        pd = doms[self.p]
        if pd[-1] == pmin:
            for ovid, lb in zip(self.occ, lbs):
                if lb == 0 and not model.prune_le(ovid, 0):
                    return None
        if pd[0] == pmax:
            for ovid, ub in zip(self.occ, ubs):
                if ub >= 1 and not model.prune_ge(ovid, 1):
                    return None
        lbs = tuple([doms[v][0] for v in self.occ])
        ubs = tuple([doms[v][-1] for v in self.occ])
        if sum(ubs) < n:
            return None
        key = (lbs, ubs, n)
        smax = self.smax.get(key)
        if smax is None:
            if len(self.smax) >= _SMAX_CACHE:
                self.smax.clear()
            smax = self.smax[key] = _max_sum_squares_in_box(lbs, ubs, n)
        return _min_sum_squares_in_box(lbs, ubs, n), smax


# most occurrence boxes whose S maximum one channel keeps: a cold
# catalog-order partition selection passes 103 distinct boxes at n=8, 342 at
# n=10 and 1 270 at n=12
_SMAX_CACHE = 4096


def _min_sum_squares_in_box(lbs: Sequence[int], ubs: Sequence[int], total: int) -> int:
    # water-filling: each extra unit goes to the smallest current value.  It is
    # exact: a separable convex minimum with unit steps is reached greedily
    vals = list(lbs)
    rest = total - sum(vals)
    while rest > 0:
        best = -1
        for i, v in enumerate(vals):
            if v < ubs[i] and (best < 0 or v < vals[best]):
                best = i
        if best < 0:
            raise InternalInvariantError("occurrence caps cannot hold the total")
        vals[best] += 1
        rest -= 1
    return sum(v * v for v in vals)


def _max_sum_squares_in_box(lbs: Sequence[int], ubs: Sequence[int], total: int) -> int:
    # A convex function's maximum over the box's slice at this total lies at
    # a vertex of that polytope, where every coordinate sits at a bound but
    # at most one, which the total then fixes; with integer data the vertex
    # is integral, so it is also the integer maximum.  The DP runs over
    # (partial sum, free coordinate used) and keeps the largest sum of
    # squares of each.
    best = {(0, False): 0}
    for lo, hi in zip(lbs, ubs):
        step: dict[tuple[int, bool], int] = {}
        for (t, used), sq in best.items():
            moves = [(lo, used), (hi, used)]
            if not used:
                moves += [(v, True) for v in range(lo + 1, hi)]
            for v, u in moves:
                key = (t + v, u)
                if key[0] <= total and step.get(key, -1) < sq + v * v:
                    step[key] = sq + v * v
        best = step
    top = max(best.get((total, False), -1), best.get((total, True), -1))
    if top < 0:
        raise InternalInvariantError("occurrence box cannot hold the total")
    return top


# -- posting -------------------------------------------------------------------


def post_object(
    model: Model, object_name: str, featvars: Sequence[VarRef], xs: Sequence[VarRef]
) -> int | None:
    """Post the object constraint over its feature variables (``FEATURES``
    order) and the n sequence variables ``xs``.

    Solutions project onto exactly the object's feasible feature tuples.
    A partition also gets n hidden occurrence variables, and its colour
    witnesses are value precedence canonical.  Every step is posted, or
    all of them are rolled back: returns the id of the last one posted, or
    None.  On success the model gets its own leaf memo, with an empty
    table: it is filled from this model's searches, and every entry is
    checked against the domains at the split, so it is exact whatever the
    sequence variables' domains were at post time.
    """
    n = len(xs)
    check_model_size(object_name, n)  # refuses the object or n before any new var
    prefixes = _prefix_sets(object_name, n)
    width = len(FEATURES[object_name])
    if len(featvars) != width:
        raise InvalidArgumentError(f"{object_name} takes {width} feature variables")
    fvids = model.var_ids(featvars)
    xvids = model.var_ids(xs)
    check = PrefixFeasible(fvids, prefixes)
    if object_name == "partition":
        ovids = tuple([model.new_var(0, n).id for _ in range(n)])
        inner = xvids + ovids
        steps = [
            PrecedenceCaps(xvids),
            SumEq(ovids, None, n),
            OccurrenceChannel(xvids, ovids, fvids[0], fvids[4]),
            check,
            GroundChecker(fvids, xvids, _partition_ground),
        ]
    else:
        inner = xvids
        steps = [
            SumEq(xvids, fvids[0]),
            check,
            GroundChecker(fvids, xvids, _binseq_tuple),
        ]
    mark = model.mark()
    cid = None
    for con in steps:
        cid = model.post_constraint(con)
        if cid is None:
            model.retract_to(mark)
            return None
    model.attach(LeafMemo(
        fvids, xvids, inner,
        range(mark.ncons, model.mark().ncons),
        mark.ncons + steps.index(check), prefixes,
    ))
    return cid


# one posted model per (object, n) with its feature and sequence variable
# ids, never changed once stored: the size's search state, since its copies
# share its leaf memo and channel, memos included; forget drops it.  Refused
# sizes are never stored, so it holds at most one entry per admitted size.
_TEMPLATES: dict[tuple[str, int], tuple[Model, list[int], list[int]]] = {}


def posted_model(object_name: str, n: int) -> tuple[Model, list[VarRef], list[VarRef]] | None:
    """A fresh model with the object posted, as :func:`make_model` then
    :func:`post_object` build it, or None when the post fails.

    The first call per object and n builds and posts a template; every call
    returns a copy of it (:meth:`Model.copy`), sharing its memos, with new
    handles to its variables.  A failed post is never kept, so each call
    tries it again.
    """
    check_model_size(object_name, n)  # an equal float or bool must not hit an int's entry
    key = (object_name, n)
    template = _TEMPLATES.get(key)
    if template is None:
        model, featvars, xs = make_model(object_name, n)
        if post_object(model, object_name, featvars, xs) is None:
            return None
        template = _TEMPLATES[key] = (model, [v.id for v in featvars], [v.id for v in xs])
    model, fvids, xvids = template
    copy = model.copy()
    mid = copy.model_id
    return copy, [VarRef(mid, v) for v in fvids], [VarRef(mid, v) for v in xvids]


def forget(object_name: str, n: int) -> None:
    """Start this size cold: drop its template, and with it the leaf table
    and the channel memo its copies share.  Copies taken before keep theirs;
    the kept selection run holds the template's leaf memo only weakly, so it
    keeps none of them.  The next run gets a new template, so it takes no
    kept selection run, and its step memo starts empty too (see
    ``selector._run``)."""
    check_model_size(object_name, n)  # an equal float or bool must not drop an int's entry
    _TEMPLATES.pop((object_name, n), None)


def _partition_ground(vals: list[int]) -> tuple[int, ...]:
    counts: dict[int, int] = {}
    for v in vals:
        counts[v] = counts.get(v, 0) + 1
    return _partition_tuple(list(counts.values()))
