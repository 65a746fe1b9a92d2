"""Catalog of the proven feature bounds and their check-on-fix posting.

Each candidate bounds one feature of an object (partition or binary
sequence) by a guarded integer expression over the remaining features and
n.  Posted on a model, a candidate waits until every input feature is
fixed, then prunes the target's domain to one side of the evaluated
right-hand side.  That pruning is sound for arbitrary fixed inputs: if the
input combination occurs in some feasible tuple the inequality is proven
for it, and if it occurs in none, no solution can be lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import expr as E
from .errors import InvalidArgumentError
from .kernel import Constraint, ConstraintHandle, Model, VarRef
from .objects import (
    BINSEQ_FEATURES,
    PARTITION_FEATURES,
    binseq_initial_domains,
    partition_initial_domains,
)


@dataclass(frozen=True)
class BoundCandidate:
    """One guarded arithmetic bound on a single feature."""

    id: str
    object: str  # "partition" | "binseq"
    target: str
    direction: str  # "upper" | "lower"
    rhs: E.Expr

    def inputs(self) -> tuple[str, ...]:
        """Feature names the rhs reads, in canonical feature order."""
        names = self.rhs.names() - {"n"}
        order = PARTITION_FEATURES if self.object == "partition" else BINSEQ_FEATURES
        return tuple(f for f in order if f in names)


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of checking one bound on one ground feature tuple."""

    holds: bool
    lhs: int
    rhs: int
    slack: int  # rhs-lhs for upper bounds, lhs-rhs for lower; 0 marks tightness


def _n() -> E.Feat:
    return E.feat("n")


def _partition_catalog() -> list[BoundCandidate]:
    P, mmin, mmax, rng = E.feat("P"), E.feat("Mmin"), E.feat("Mmax"), E.feat("rangeM")
    r = E.sub(_n(), E.mul(P, mmin))
    rng_pos = E.cmp(">", rng, 0)
    rng_zero = E.cmp("<=", rng, 0)
    mid = E.cases((rng_pos, E.add(mmin, E.fmod(r, rng))), (rng_zero, mmin))
    rr = E.cases((rng_pos, E.fdiv(r, rng)), (rng_zero, 0))
    sm = E.sub(E.sq(mmax), E.sq(mmin))
    smin = E.mul(E.sq(mmin), E.sub(P, 1))
    return [
        BoundCandidate(
            "P-S-UB", "partition", "S", "upper",
            E.add(E.add(E.sq(mid), E.mul(sm, rr)), smin),
        ),
        BoundCandidate(
            "P-RANGE-UB1", "partition", "rangeM", "upper",
            E.sub(_n(), E.mul(P, mmin)),
        ),
        BoundCandidate(
            "P-RANGE-UB2", "partition", "rangeM", "upper",
            E.emin(E.sub(E.mul(P, mmax), _n()), E.sub(mmax, 1)),
        ),
    ]


def _binseq_catalog() -> list[BoundCandidate]:
    n1, g = E.feat("N1"), E.feat("G")
    gmin, gmax, rg = E.feat("Gmin"), E.feat("Gmax"), E.feat("rangeG")
    dmin, dmax, rd = E.feat("Dmin"), E.feat("Dmax"), E.feat("rangeD")
    out = [
        BoundCandidate(
            "B-N1-UB", "binseq", "N1", "upper",
            E.emin(E.mul(g, gmax), E.add(E.sub(_n(), g), 1)),
        ),
        BoundCandidate(
            "B-GMAX-LB", "binseq", "Gmax", "lower",
            E.fdiv(_n(), E.add(E.sub(_n(), n1), 1)),
        ),
        BoundCandidate(
            "B-GMAX-UB1", "binseq", "Gmax", "upper",
            E.cases(
                (E.cmp("==", rg, E.mul(_n(), rd)), E.add(_n(), rg)),
                (
                    E.cmp("!=", rg, E.mul(_n(), rd)),
                    E.add(
                        E.fdiv(
                            E.sub(E.sub(E.sub(E.sub(_n(), rg), rd), E.emin(rd, 1)), 1),
                            E.add(E.emin(rd, 1), 2),
                        ),
                        rg,
                    ),
                ),
            ),
        ),
        BoundCandidate(
            "B-DMIN-UB", "binseq", "Dmin", "upper",
            E.cases(
                (E.cmp("<=", g, 1), 0),
                (E.cmp(">", g, 1),
                 E.fdiv(E.sub(E.add(E.sub(_n(), gmax), 1), g), E.sub(g, 1))),
            ),
        ),
        BoundCandidate(
            "B-DMAX-UB", "binseq", "Dmax", "upper",
            E.mul(
                E.iverson(E.cmp(">=", g, 2)),
                E.add(E.sub(E.sub(_n(), E.mul(g, gmin)), g), 2),
            ),
        ),
        BoundCandidate(
            "B-GS-LB1", "binseq", "GS", "lower", E.mul(E.sq(gmin), g),
        ),
        BoundCandidate(
            "B-GS-LB2", "binseq", "GS", "lower",
            E.add(E.add(E.mul(E.mul(rg, E.add(rg, 1)), E.emin(g, 1)), rg), g),
        ),
        BoundCandidate(
            "B-GS-LB3", "binseq", "GS", "lower",
            E.emax(
                E.sub(
                    E.sub(E.add(E.sq(gmax), 1), E.iverson(E.cmp("==", dmin, 0))),
                    E.iverson(E.cmp("==", gmax, 0)),
                ),
                0,
            ),
        ),
        BoundCandidate(
            "B-GS-UB1", "binseq", "GS", "upper",
            E.cases(
                (E.cmp("<=", g, 1), E.emax(E.add(E.sq(n1), E.sub(g, 1)), 0)),
                (E.cmp(">", g, 1),
                 E.emax(E.add(E.sq(E.add(E.sub(n1, g), 1)), E.sub(g, 1)), 0)),
            ),
        ),
        BoundCandidate(
            "B-GS-UB2", "binseq", "GS", "upper",
            E.cases(
                (E.both(E.cmp("==", rd, 0), E.cmp("==", E.emin(n1, 1), 1)),
                 E.emax(E.sq(n1), 0)),
                (E.both(E.cmp("==", rd, 0), E.cmp("==", E.emin(n1, 1), 0)), 0),
                (E.cmp(">=", rd, 1), E.emax(E.add(E.sq(E.sub(n1, 2)), 2), 0)),
            ),
        ),
        BoundCandidate(
            "B-DS-LB1", "binseq", "DS", "lower", E.mul(E.sq(dmin), E.sub(g, 1)),
        ),
        BoundCandidate(
            "B-DS-LB2", "binseq", "DS", "lower",
            E.cases(
                (E.cmp("<=", g, 1), 0),
                (E.cmp(">", g, 1), E.emax(E.add(E.sq(E.add(rd, 1)), E.sub(g, 2)), 0)),
            ),
        ),
        BoundCandidate(
            "B-DS-LB3", "binseq", "DS", "lower", E.sq(dmax),
        ),
        BoundCandidate(
            "B-DS-UB1", "binseq", "DS", "upper",
            E.cases(
                (E.cmp("<=", n1, 1), 0),
                (E.cmp(">", n1, 1), E.sq(E.sub(_n(), n1))),
            ),
        ),
        BoundCandidate(
            "B-DS-UB2", "binseq", "DS", "upper",
            E.cases(
                (E.cmp(">=", g, 2),
                 E.emax(E.add(E.sq(E.sub(E.sub(_n(), n1), E.sub(g, 2))), E.sub(g, 2)), 0)),
                (E.cmp("<", g, 2), E.emax(E.sub(g, 2), 0)),
            ),
        ),
        BoundCandidate(
            "B-GMAX-UB2", "binseq", "Gmax", "upper",
            E.cases(
                (E.both(E.cmp("==", g, 1), E.cmp("==", dmax, 0)), _n()),
                (E.both(E.cmp("!=", g, 1), E.cmp("==", dmax, 0)), E.emin(g, 1)),
                (E.both(E.cmp("!=", g, 1), E.cmp(">=", dmax, 1)),
                 E.add(
                     E.sub(E.sub(E.sub(_n(), dmax), E.mul(E.sub(g, 2), dmin)), g),
                     E.emin(g, 1),
                 )),
            ),
        ),
        BoundCandidate(
            "B-GS-UB3", "binseq", "GS", "upper",
            E.cases(
                (E.both(E.cmp("==", g, 1), E.cmp("==", dmax, 0)), E.emax(E.sq(_n()), 0)),
                (E.both(E.cmp("!=", g, 1), E.cmp("==", dmax, 0)),
                 E.emax(E.add(E.sq(E.emin(g, 1)), E.sub(g, 1)), 0)),
                (E.both(E.cmp("!=", g, 1), E.cmp(">=", dmax, 1)),
                 E.emax(
                     E.add(
                         E.sq(E.add(
                             E.sub(E.sub(E.sub(_n(), dmax), E.mul(E.sub(g, 2), dmin)), g),
                             1,
                         )),
                         E.sub(g, 1),
                     ),
                     0,
                 )),
            ),
        ),
    ]
    return out


_CATALOG: list[BoundCandidate] = _partition_catalog() + _binseq_catalog()
_BY_ID: dict[str, BoundCandidate] = {b.id: b for b in _CATALOG}


def catalog(object_name: str | None = None) -> list[BoundCandidate]:
    """The 20 catalog bounds, optionally filtered to one object."""
    if object_name is None:
        return list(_CATALOG)
    if object_name not in ("partition", "binseq"):
        raise InvalidArgumentError(f"unknown object {object_name!r}")
    return [b for b in _CATALOG if b.object == object_name]


def by_id(bound_id: str) -> BoundCandidate:
    try:
        return _BY_ID[bound_id]
    except KeyError:
        raise InvalidArgumentError(f"unknown bound id {bound_id!r}") from None


def _env_of(features, n: int | None) -> dict[str, int]:
    if hasattr(features, "env"):
        env = features.env()
    else:
        env = dict(features)
    if n is not None:
        env["n"] = n
    if "n" not in env:
        raise InvalidArgumentError("feature environment needs n")
    return env


def eval_rhs(bound: BoundCandidate, features, n: int | None = None) -> int:
    """Evaluate the bound's rhs on a valid feature tuple.

    ``features`` is a feature dataclass or a name->value mapping of the
    non-target features (the target may be present; it is ignored).
    """
    return bound.rhs.eval(_env_of(features, n))


def verify_on(bound: BoundCandidate, features, n: int | None = None) -> BoundVerdict:
    """Check one bound on one ground feature tuple; pure, never mutates."""
    env = _env_of(features, n)
    rhs = bound.rhs.eval(env)
    lhs = env[bound.target]
    slack = rhs - lhs if bound.direction == "upper" else lhs - rhs
    return BoundVerdict(holds=slack >= 0, lhs=lhs, rhs=rhs, slack=slack)


class BoundConstraint(Constraint):
    """Check-on-fix propagator: once every rhs input is fixed, prune the target."""

    kind = "bound"

    def __init__(self, bound: BoundCandidate, featvar_ids: Mapping[str, int], n: int):
        self.bound = bound
        self.n = n
        self.input_ids = tuple(featvar_ids[f] for f in bound.inputs())
        self.input_names = bound.inputs()
        self.target_id = featvar_ids[bound.target]
        super().__init__(self.input_ids)

    def propagate(self, model: Model) -> bool:
        doms = model._doms
        env = {"n": self.n}
        for name, vid in zip(self.input_names, self.input_ids):
            d = doms[vid]
            if len(d) != 1:
                return True
            env[name] = d[0]
        try:
            rhs = self.bound.rhs.eval(env)
        except E.NoCaseMatched:
            # guards are exhaustive on feasible tuples, so this fixed input
            # combination occurs in no solution; failing the subtree is sound
            return False
        if self.bound.direction == "upper":
            return model.prune_le(self.target_id, rhs)
        return model.prune_ge(self.target_id, rhs)


def post_bound(
    model: Model, bound: BoundCandidate, featvars: Sequence[VarRef], n: int
) -> ConstraintHandle | None:
    """Post one bound over the object's feature variables (canonical order)."""
    order = PARTITION_FEATURES if bound.object == "partition" else BINSEQ_FEATURES
    if len(featvars) != len(order):
        raise InvalidArgumentError(
            f"{bound.id} needs {len(order)} feature variables, got {len(featvars)}"
        )
    ids = {name: model._check_var(v) for name, v in zip(order, featvars)}
    return model.post_constraint(BoundConstraint(bound, ids, n))


def decoy(object_name: str, feature: str, n: int) -> BoundCandidate:
    """A vacuous upper bound: target <= its own initial domain maximum."""
    boxes = (
        partition_initial_domains(n)
        if object_name == "partition"
        else binseq_initial_domains(n)
    )
    if feature not in boxes:
        raise InvalidArgumentError(f"unknown feature {feature!r} for {object_name}")
    return BoundCandidate(
        id=f"decoy:{feature}",
        object=object_name,
        target=feature,
        direction="upper",
        rhs=E.const(boxes[feature][1]),
    )


def catalog_json() -> list[dict]:
    """Machine-readable catalog (rhs in prefix notation)."""
    return [
        {
            "id": b.id,
            "object": b.object,
            "target": b.target,
            "direction": b.direction,
            "rhs": b.rhs.prefix(),
        }
        for b in _CATALOG
    ]
