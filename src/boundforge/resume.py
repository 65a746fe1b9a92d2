"""Resuming a step loop's search from the path of the search before it.

A step loop searches from one start state, each step from the solution the
step before found, and a step is, by definition, the search after the lex
jump ``featvars >lex prev`` posted at that start state (see ``selector``).
:class:`Path` keeps the last search's path open, one trail mark per
feature level, and :meth:`Path.climb` decides the next jump from the
states the path holds, so that ``kernel.labeling`` resumes where the jump
holds and makes no trial on prev's prefix again.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InternalInvariantError, InvalidArgumentError
from .kernel import LexGreater, Model, TrailMark


class Path:
    """The path of a step loop's last search, kept open for the next step.

    A step loop searches from one start state (``base``), each step from
    the solution before it, and a step is the search after the jump
    ``featvars >lex prev``.  When ``prev`` is the solution this path leads
    to, :meth:`climb` decides the jump from the path's own states, and
    :func:`kernel.labeling` resumes there: no trial on prev's prefix is made again.

    ``marks[j]`` is the model's mark in the state U_j where the path
    decided feature j, below any jump posted at that level; ``reads[j]``
    holds the clauses of building U_j+1 from U_j: that jump's, then the
    trial that fixed feature j.  A resumed step records them all, with
    the reads of every level it probed.  ``sol`` is the path's feature
    values, or None when no path is open and the model is at ``base``;
    ``end`` is the mark the last search left the model at.  ``watched[j]``
    is whether feature j is watched (see below): the jump is posted there.

    Why the climb is exact.  The restart's state at the tie node prev[:j]
    is the fixpoint of U_j plus the jump: both are fixpoints below the
    same box, propagation order does not move a fixpoint, the path's own
    jumps (each below prev) hold wherever the new one does, and
    lex-greater against a constant is domain-complete on boxes (Frisch,
    Hnich, Kiziltan, Miguel and Walsh, AIJ 2006).  At a level that is
    not watched, the jump only drops feature j's values below prev_j, and
    prev_j itself unless the suffix can still exceed prev; while two
    values stay that wakes nothing that acts.  So, from the leaf up: a level
    with no value above prev_j is inconsistent under the jump, since its
    tie subtree is; one value left is the trial that fixes it, made with
    the prefix check active, as at the restart's tie trial above it; a
    watched level posts the jump.  The first level that holds is where
    the restart's one tie failure happens, when prev_j survives there,
    and its values above prev_j, then those of the levels above it, are
    searched exactly as the restart searches them.  A parked prefix check
    moves no count (see ``kernel``), so the count and solution are the
    restart's.

    The rule that makes "wakes nothing that acts" hold is checked, when
    the path is made, on the constraints posted then: feature j is
    watched when one of them watches it, other than the object's prefix
    check (it never prunes, and a search tests the prefixes itself) and
    other than a kind that declares ``acts_when_fixed`` (it acts on
    nothing while feature j is open, as a bound does).  The jumps the step
    loop posts later do not count: each is off a solution below prev.
    """

    def __init__(self, model: Model) -> None:
        memo = model.leaf_memo
        if memo is None:
            raise InvalidArgumentError("a path needs a model with a leaf memo")
        self.model = model
        self.base = self.end = model.mark()
        self.fvids = memo.featvars
        seen = {vid for cid, con in enumerate(model.constraints())
                if cid != memo.check and not con.acts_when_fixed for vid in con.watched}
        self.watched = tuple([vid in seen for vid in self.fvids])
        self.sol: tuple[int, ...] | None = None
        self.marks: list[TrailMark] = [self.base] * len(self.fvids)
        self.reads: list = [frozenset()] * len(self.fvids)
        # set by climb for the labeling call after it: (level, tie failures
        # counted, values to try there, whether the level's domain under the
        # jump is wider than one value, reads for reads[level])
        self.plan: tuple | None = None
        self.lex: LexGreater | None = None

    def close(self) -> None:
        """Undo the path: the model goes back to ``base``."""
        model = self.model
        self.sol = self.plan = None
        if model.mark() != self.base:
            model.retract_to(self.base)
        self.end = self.base

    def _posted(self, reads: set[int]) -> bool:
        """Post the jump, keeping its reads in ``reads`` only."""
        model = self.model
        outer, model.clauses = model.clauses, reads
        try:
            return model.post_constraint(self.lex) is not None
        finally:
            model.clauses = outer

    def _probe(self, j: int, prev: tuple[int, ...]):
        """Level j's part of the climb, from U_j: (plan, reads).  ``plan``
        is where :func:`kernel.labeling` resumes, or None when the level is
        inconsistent under the jump; ``reads`` holds what the probe read:
        the jump's post, or feature j's upper end, whether prev_j survives
        the jump and the forced trial."""
        model = self.model
        vid, t = self.fvids[j], prev[j]
        reads: set[int] = set()
        if self.watched[j]:
            if not self._posted(reads):
                return None, reads
            d = model.dom(vid)
            return (j, int(d[0] == t), d[bisect_right(d, t):], len(d) > 1, reads), reads
        d = model.dom(vid)
        model.read_end(vid, True, reads)  # what lies above t
        vals = d[bisect_right(d, t):]
        outer, model.clauses = model.clauses, reads
        try:
            survives = self.lex.suffix_can_exceed(model, j + 1)
            if not vals:
                return None, reads
            if survives or len(vals) > 1:
                return (j, int(survives), vals, len(vals) + survives > 1, set()), reads
            # the jump fixes feature j: that trial, with the prefix check active
            model.clauses = trial = set()
            mk = model.mark()
            ok = model.trial(vid, vals[0])
            reads |= trial
            if not ok:
                model.back_to(mk)
                return None, reads
            return (j, 0, vals, False, trial), reads
        finally:
            model.clauses = outer

    def climb(self, prev: tuple[int, ...]) -> bool:
        """Decide the jump off ``prev``, the path's solution, from the path's
        states: False when it fails, as its post at the root would; else the
        model is left where :func:`kernel.labeling` resumes (see the class
        docstring) and True.

        The model's clauses gain the reads of every level of the path, which
        built the states the probes read, and of every level probed.  That
        holds every read the step's outcome rests on, and an extra clause
        only narrows what a step memo answers."""
        model = self.model
        self.lex = LexGreater(self.fvids, prev)
        clauses = model.clauses
        for reads in self.reads:
            clauses |= reads
        for j in range(len(self.fvids) - 1, -1, -1):
            model.back_to(self.marks[j])
            plan, reads = self._probe(j, prev)
            clauses |= reads
            if plan is not None:
                self.plan = plan
                return True
        self.close()
        return False

    def above(self, j: int):
        """Level j's values above prev_j under the jump, for a search that
        resumed below it, and the rest of its plan: U_j, with the jump
        posted when the level is watched.  prev_j survives there, since
        the level below holds."""
        model = self.model
        model.back_to(self.marks[j])
        vid, t = self.fvids[j], self.sol[j]
        reads: set[int] = set()
        if self.watched[j]:
            if not self._posted(reads):
                raise InternalInvariantError("the jump failed above a level it holds at")
            model.clauses |= reads
            d = model.dom(vid)
            return d[bisect_right(d, t):], len(d) > 1, reads
        d = model.dom(vid)
        vals = d[bisect_right(d, t):]
        if not vals:  # nothing lies above t
            model.read_end(vid, True, model.clauses)
        return vals, bool(vals), reads
