"""Catalog of the proven feature bounds and their check-on-fix posting.

Each candidate bounds one feature of an object (partition or binary
sequence) by a guarded integer expression over the remaining features and
n.  The rhs is checked when its candidate is built and compiled on first
use, against the object's fixed layout ``("n",) + FEATURES[object]``:
slot 0 holds n and the next slots the features in canonical order, which
is exactly a feature record of the object.  That layout is the only form
in which features reach an rhs.  Posted on a model, a candidate waits
until every input feature is fixed, then prunes the target's domain to
one side of the evaluated right-hand side.  That pruning is sound for
arbitrary fixed inputs: if the input combination occurs in some feasible
tuple the inequality is proven for it, and if it occurs in none, no
solution can be lost.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import NamedTuple, Sequence

from . import expr as E
from .errors import InvalidArgumentError
from .kernel import Constraint, Model, VarRef
from .objects import FEATURES, initial_domains


class BoundCandidate:
    """One guarded arithmetic bound on a single feature.

    Checked when built: an unknown object, direction or target raises
    :class:`InvalidArgumentError`, and an rhs that is malformed or names
    anything outside the object's layout raises :class:`CatalogError`.
    The rhs is compiled on its first evaluation.  Candidates are immutable,
    and those with equal fields are equal and hash alike.
    """

    def __init__(self, id: str, object: str, target: str, direction: str, rhs: E.Expr):
        if object not in FEATURES:
            raise InvalidArgumentError(f"unknown object {object!r}")
        if direction not in ("upper", "lower"):
            raise InvalidArgumentError(f"unknown direction {direction!r}")
        if target not in FEATURES[object]:
            raise InvalidArgumentError(f"unknown feature {target!r} for {object}")
        E.check_expr(rhs, ("n",) + FEATURES[object])
        self.__dict__.update(id=id, object=object, target=target, direction=direction, rhs=rhs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self) -> tuple:
        return (self.id, self.object, self.target, self.direction, self.rhs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "BoundCandidate(%r, %r, %r, %r, %r)" % self._key()

    @cached_property
    def evaluate(self):
        """The rhs compiled once into one generated function over the
        ``("n",) + FEATURES[object]`` slots."""
        return E.compile_expr(self.rhs, ("n",) + FEATURES[self.object])

    @cached_property
    def inputs(self) -> tuple[str, ...]:
        """Feature names the rhs reads, in canonical feature order."""
        names = E.names(self.rhs)
        return tuple(f for f in FEATURES[self.object] if f in names)

    @cached_property
    def _placements(self) -> dict[tuple[int, ...], tuple]:
        return {}

    def placement(self, fvids: tuple[int, ...]) -> tuple:
        """Where a post of this bound over the feature variables ``fvids``
        (canonical order) reads and writes: its input ids in canonical
        order, its (slot, id) reads with the last input first, its target
        id and its watched ids.

        Kept on the candidate per ``fvids``, at most ``_PLACEMENTS`` of
        them (emptied when full): every model the library builds numbers
        its features alike, so the baseline engine's many re-posts of one
        bound compute this once, and a candidate built for one run takes
        its placements with it when it goes."""
        cache = self._placements
        hit = cache.get(fvids)
        if hit is None:
            features = FEATURES[self.object]
            at = [features.index(f) for f in self.inputs]
            inputs = tuple([fvids[i] for i in at])
            reads = tuple([(i + 1, fvids[i]) for i in reversed(at)])
            if len(cache) >= _PLACEMENTS:
                cache.clear()
            hit = cache[fvids] = (
                inputs, reads, fvids[features.index(self.target)], tuple(dict.fromkeys(inputs)))
        return hit


# most feature-variable numberings whose placement one candidate keeps
_PLACEMENTS = 4


class BoundVerdict(NamedTuple):
    """Outcome of checking one bound on one ground feature tuple."""

    holds: bool
    lhs: int
    rhs: int
    slack: int  # rhs-lhs for upper bounds, lhs-rhs for lower; 0 marks tightness


def _partition_catalog() -> list[BoundCandidate]:
    r = ("-", "n", ("*", "P", "Mmin"))
    rng_pos = (">", "rangeM", 0)
    rng_zero = ("<=", "rangeM", 0)
    mid = ("cases", (rng_pos, ("+", "Mmin", ("mod", r, "rangeM"))), (rng_zero, "Mmin"))
    rr = ("cases", (rng_pos, ("div", r, "rangeM")), (rng_zero, 0))
    sm = ("-", ("sq", "Mmax"), ("sq", "Mmin"))
    smin = ("*", ("sq", "Mmin"), ("-", "P", 1))
    return [
        BoundCandidate(
            "P-S-UB", "partition", "S", "upper",
            ("+", ("+", ("sq", mid), ("*", sm, rr)), smin),
        ),
        BoundCandidate(
            "P-RANGE-UB1", "partition", "rangeM", "upper",
            ("-", "n", ("*", "P", "Mmin")),
        ),
        BoundCandidate(
            "P-RANGE-UB2", "partition", "rangeM", "upper",
            ("min", ("-", ("*", "P", "Mmax"), "n"), ("-", "Mmax", 1)),
        ),
    ]


def _binseq_catalog() -> list[BoundCandidate]:
    return [
        BoundCandidate(
            "B-N1-UB", "binseq", "N1", "upper",
            ("min", ("*", "G", "Gmax"), ("+", ("-", "n", "G"), 1)),
        ),
        BoundCandidate(
            "B-GMAX-LB", "binseq", "Gmax", "lower",
            ("div", "n", ("+", ("-", "n", "N1"), 1)),
        ),
        BoundCandidate(
            "B-GMAX-UB1", "binseq", "Gmax", "upper",
            ("cases",
             (("==", "rangeG", ("*", "n", "rangeD")), ("+", "n", "rangeG")),
             (("!=", "rangeG", ("*", "n", "rangeD")),
              ("+",
               ("div",
                ("-", ("-", ("-", ("-", "n", "rangeG"), "rangeD"), ("min", "rangeD", 1)), 1),
                ("+", ("min", "rangeD", 1), 2)),
               "rangeG"))),
        ),
        BoundCandidate(
            "B-DMIN-UB", "binseq", "Dmin", "upper",
            ("cases",
             (("<=", "G", 1), 0),
             ((">", "G", 1), ("div", ("-", ("+", ("-", "n", "Gmax"), 1), "G"), ("-", "G", 1)))),
        ),
        BoundCandidate(
            "B-DMAX-UB", "binseq", "Dmax", "upper",
            ("*",
             ("iverson", (">=", "G", 2)),
             ("+", ("-", ("-", "n", ("*", "G", "Gmin")), "G"), 2)),
        ),
        BoundCandidate(
            "B-GS-LB1", "binseq", "GS", "lower", ("*", ("sq", "Gmin"), "G"),
        ),
        BoundCandidate(
            "B-GS-LB2", "binseq", "GS", "lower",
            ("+",
             ("+", ("*", ("*", "rangeG", ("+", "rangeG", 1)), ("min", "G", 1)), "rangeG"),
             "G"),
        ),
        BoundCandidate(
            "B-GS-LB3", "binseq", "GS", "lower",
            ("max",
             ("-",
              ("-", ("+", ("sq", "Gmax"), 1), ("iverson", ("==", "Dmin", 0))),
              ("iverson", ("==", "Gmax", 0))),
             0),
        ),
        BoundCandidate(
            "B-GS-UB1", "binseq", "GS", "upper",
            ("cases",
             (("<=", "G", 1), ("max", ("+", ("sq", "N1"), ("-", "G", 1)), 0)),
             ((">", "G", 1),
              ("max", ("+", ("sq", ("+", ("-", "N1", "G"), 1)), ("-", "G", 1)), 0))),
        ),
        BoundCandidate(
            "B-GS-UB2", "binseq", "GS", "upper",
            ("cases",
             (("and", ("==", "rangeD", 0), ("==", ("min", "N1", 1), 1)),
              ("max", ("sq", "N1"), 0)),
             (("and", ("==", "rangeD", 0), ("==", ("min", "N1", 1), 0)), 0),
             ((">=", "rangeD", 1), ("max", ("+", ("sq", ("-", "N1", 2)), 2), 0))),
        ),
        BoundCandidate(
            "B-DS-LB1", "binseq", "DS", "lower", ("*", ("sq", "Dmin"), ("-", "G", 1)),
        ),
        BoundCandidate(
            "B-DS-LB2", "binseq", "DS", "lower",
            ("cases",
             (("<=", "G", 1), 0),
             ((">", "G", 1), ("max", ("+", ("sq", ("+", "rangeD", 1)), ("-", "G", 2)), 0))),
        ),
        BoundCandidate(
            "B-DS-LB3", "binseq", "DS", "lower", ("sq", "Dmax"),
        ),
        BoundCandidate(
            "B-DS-UB1", "binseq", "DS", "upper",
            ("cases", (("<=", "N1", 1), 0), ((">", "N1", 1), ("sq", ("-", "n", "N1")))),
        ),
        BoundCandidate(
            "B-DS-UB2", "binseq", "DS", "upper",
            ("cases",
             ((">=", "G", 2),
              ("max", ("+", ("sq", ("-", ("-", "n", "N1"), ("-", "G", 2))), ("-", "G", 2)), 0)),
             (("<", "G", 2), ("max", ("-", "G", 2), 0))),
        ),
        BoundCandidate(
            "B-GMAX-UB2", "binseq", "Gmax", "upper",
            ("cases",
             (("and", ("==", "G", 1), ("==", "Dmax", 0)), "n"),
             (("and", ("!=", "G", 1), ("==", "Dmax", 0)), ("min", "G", 1)),
             (("and", ("!=", "G", 1), (">=", "Dmax", 1)),
              ("+",
               ("-", ("-", ("-", "n", "Dmax"), ("*", ("-", "G", 2), "Dmin")), "G"),
               ("min", "G", 1)))),
        ),
        BoundCandidate(
            "B-GS-UB3", "binseq", "GS", "upper",
            ("cases",
             (("and", ("==", "G", 1), ("==", "Dmax", 0)), ("max", ("sq", "n"), 0)),
             (("and", ("!=", "G", 1), ("==", "Dmax", 0)),
              ("max", ("+", ("sq", ("min", "G", 1)), ("-", "G", 1)), 0)),
             (("and", ("!=", "G", 1), (">=", "Dmax", 1)),
              ("max",
               ("+",
                ("sq",
                 ("+",
                  ("-", ("-", ("-", "n", "Dmax"), ("*", ("-", "G", 2), "Dmin")), "G"),
                  1)),
                ("-", "G", 1)),
               0))),
        ),
    ]


_CATALOG: list[BoundCandidate] = _partition_catalog() + _binseq_catalog()
_BY_ID: dict[str, BoundCandidate] = {b.id: b for b in _CATALOG}


def catalog(object_name: str | None = None) -> list[BoundCandidate]:
    """The 20 catalog bounds, optionally filtered to one object."""
    if object_name is None:
        return list(_CATALOG)
    if object_name not in FEATURES:
        raise InvalidArgumentError(f"unknown object {object_name!r}")
    return [b for b in _CATALOG if b.object == object_name]


def by_id(bound_id: str) -> BoundCandidate:
    try:
        return _BY_ID[bound_id]
    except KeyError:
        raise InvalidArgumentError(f"unknown bound id {bound_id!r}") from None


def verify_on(bound: BoundCandidate, features) -> BoundVerdict:
    """Check one bound on one ground feature tuple, a feature record of the
    bound's object; pure, never mutates."""
    lhs = getattr(features, bound.target)
    rhs = bound.evaluate(features)
    slack = rhs - lhs if bound.direction == "upper" else lhs - rhs
    return BoundVerdict(slack >= 0, lhs, rhs, slack)


class BoundConstraint(Constraint):
    """Once every rhs input is fixed, prune the target.

    It keeps one slot list in the bound's layout, n in slot 0, and writes
    only the slots the rhs reads; the others are never read.  The list
    belongs to this constraint, so to one model.  ``bit`` is its owner bit
    (see ``kernel``), 0 until a step memo numbers the posted bounds: it
    owns the target end it prunes, and joins the owners of an owned end
    its rhs equals.  A call that fixes or wipes out the target records its
    bit and the owners of the other end; an unmatched guard, its bit.

    The last input is read first: labeling fixes it last, so a wake-up
    while it is open returns at the first test.  The ids it reads and
    writes come from the candidate's :meth:`BoundCandidate.placement`.
    """

    kind = "bound"

    def __init__(self, bound: BoundCandidate, featvar_ids: tuple[int, ...], n: int):
        # watched comes deduplicated from the placement, as Constraint makes it
        self.input_ids, self.reads, self.target_id, self.watched = bound.placement(featvar_ids)
        self.slots = [n] + [0] * len(featvar_ids)
        self.bound = bound
        self.evaluate = bound.evaluate
        self.upper = bound.direction == "upper"
        self.bit = 0

    def propagate(self, model: Model) -> bool:
        doms, slots = model._doms, self.slots
        for slot, vid in self.reads:
            d = doms[vid]
            if len(d) != 1:
                return True
            slots[slot] = d[0]
        try:
            rhs = self.evaluate(slots)
        except E.NoCaseMatched:
            # guards are exhaustive on feasible tuples, so this fixed input
            # combination occurs in no solution; failing the subtree is sound
            if self.bit:
                model.clauses.add(self.bit)
            return False
        tid = self.target_id
        d = doms[tid]
        if self.upper:
            if d[-1] < rhs:
                return True
            if d[-1] == rhs:
                if model._hi_owners[tid]:
                    model._join(tid, self.bit, True)
                return True
            new = d[: bisect_right(d, rhs)]
        else:
            if d[0] > rhs:
                return True
            if d[0] == rhs:
                if model._lo_owners[tid]:
                    model._join(tid, self.bit, False)
                return True
            new = d[bisect_left(d, rhs):]
        # this bound moves one end: it becomes that end's one owner
        lo_owners, hi_owners = model._lo_owners, model._hi_owners
        lo, hi, bit = lo_owners[tid], hi_owners[tid], self.bit
        if len(new) <= 1:  # fixed or wiped out: this bound and the other end were read
            if bit:
                model.clauses.add(bit)
            other = lo if self.upper else hi
            if other and len(d) > 1:
                model.clauses.add(other)
        ok = model._set_dom(tid, new)
        if new and (hi if self.upper else lo) != bit:
            model._trail[-1] = (~tid, (d, lo, hi))  # the entry restores the owners too
            if self.upper:
                hi_owners[tid] = bit
            else:
                lo_owners[tid] = bit
        return ok


def posted_bounds(model: Model) -> list[BoundConstraint]:
    """The bound constraints posted on ``model``, in posting order."""
    return [con for con in model._constraints if type(con) is BoundConstraint]


def post_bound(
    model: Model, bound: BoundCandidate, featvars: Sequence[VarRef], n: int
) -> int | None:
    """Post one bound over the object's feature variables (canonical order);
    the constraint id, or None when the post failed."""
    width = len(FEATURES[bound.object])
    if len(featvars) != width:
        raise InvalidArgumentError(
            f"{bound.id} needs {width} feature variables, got {len(featvars)}"
        )
    return model.post_constraint(BoundConstraint(bound, model.var_ids(featvars), n))


def decoy(object_name: str, feature: str, n: int) -> BoundCandidate:
    """A vacuous upper bound: target <= its own initial domain maximum."""
    boxes = initial_domains(object_name, n)
    if feature not in boxes:
        raise InvalidArgumentError(f"unknown feature {feature!r} for {object_name}")
    return BoundCandidate(
        id=f"decoy:{feature}",
        object=object_name,
        target=feature,
        direction="upper",
        rhs=boxes[feature][1],
    )
