"""Traced mode: per-layer spans and counts, recorded from outside ``src/``.

The tracer wraps the public functions of each boundforge layer at the name
its caller looks up (``boundforge.selector.labeling``, not
``boundforge.kernel.labeling``, because ``selector`` imports it by name),
and patches ``propagate`` on every ``Constraint`` subclass.  Patches are
installed around one operation at a time, so the benchmark's own checks
run untraced.

Two kinds of probe:

* span probes (operations, selections, model builds, bound posts,
  labeling calls, audits) keep one span per call in memory: name, start,
  end, parent span and operation id;
* aggregate probes (propagators, ``post_constraint``, ``retract_to``,
  feature extraction, ``verify_on``) are called up to millions of times
  per round, so they only add to per-name counts and times.

Every probe keeps the time its nested probes covered, so self times are
exact: ``kernel.labeling.self_s`` is labeling time minus the propagator
time inside it, ``oracle.audit.self_s`` is audit time minus the
extraction and evaluation inside it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

PROPAGATOR_KINDS = (
    "sum_eq",
    "ground_checker",
    "prefix_feasible",
    "bound",
    "lex_greater",
    "occurrence_channel",
    "value_precedence",
)

# Per-layer metrics of the traced run, in report order, with their units.
LAYER_METRICS: dict[str, str] = {
    "kernel.labeling.calls": "count",
    "kernel.labeling.s": "s",
    "kernel.labeling.self_s": "s",
    "kernel.nback": "count",
    **{
        f"kernel.propagate.{kind}.{field}": unit
        for kind in PROPAGATOR_KINDS
        for field, unit in (("calls", "count"), ("fails", "count"), ("s", "s"))
    },
    "kernel.ground_checker.useful_ratio": "ratio",
    "kernel.bound.useful_ratio": "ratio",
    "kernel.post_constraint.calls": "count",
    "kernel.post_constraint.s": "s",
    "kernel.retract_to.calls": "count",
    "kernel.retract_to.s": "s",
    "objects.model_build.calls": "count",
    "objects.model_build.s": "s",
    "objects.features.calls": "count",
    "objects.features.s": "s",
    "bounds.post_bound.calls": "count",
    "bounds.post_bound.s": "s",
    "bounds.verify_on.calls": "count",
    "bounds.verify_on.s": "s",
    "selector.posts": "count",
    "selector.labelings": "count",
    "selector.post_ratio": "ratio",
    "selector.compute.s": "s",
    "selector.dicho.s": "s",
    "selector.run_selection.s": "s",
    "selector.run_baseline.s": "s",
    "oracle.audit.calls": "count",
    "oracle.audit.s": "s",
    "oracle.audit.self_s": "s",
    "oracle.audit.instances": "count",
    "oracle.distinct_ratio": "ratio",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly across traced runs of one seed.
DETERMINISTIC = tuple(name for name, unit in LAYER_METRICS.items() if unit in ("count", "ratio"))


class Probe:
    """Totals of one probe name.  Times are in nanoseconds."""

    __slots__ = ("calls", "fails", "useful", "ns", "child_ns", "prop_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.fails = 0
        self.useful = 0
        self.ns = 0
        self.child_ns = 0
        self.prop_ns = 0


class Tracer:
    """In-memory spans and per-name totals for one traced round."""

    def __init__(self) -> None:
        self.probes: dict[str, Probe] = {}
        self.spans: list[tuple[int, str, int, int, int | None, int | None]] = []
        # open frames: [start_ns, child_ns, prop_ns, span_id or None]
        self.stack: list[list] = []
        self.op_id: int | None = None
        self.t0 = time.perf_counter_ns()
        self.nback = 0
        self.posts = {"incremental": 0, "baseline": 0}
        self.labelings = 0
        self.instances = 0
        self.distinct = 0
        self._audit_seen: set | None = None
        self._patch_list: list | None = None

    def probe(self, name: str) -> Probe:
        p = self.probes.get(name)
        if p is None:
            p = self.probes[name] = Probe()
        return p

    # -- generic wrapping ------------------------------------------------

    def _wrap(self, fn, name: str, span: bool, after=None, before=None):
        probe = self.probe(name)
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span_id = None
            if span:
                span_id = len(spans)
                spans.append(None)  # filled in on exit, keeps ids in start order
            frame = [clock(), 0, 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                probe.calls += 1
                probe.ns += elapsed
                probe.child_ns += frame[1]
                probe.prop_ns += frame[2]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[2] += frame[2]
                if span:
                    spans[span_id] = (
                        span_id, name, frame[0] - self.t0, end - self.t0,
                        self._parent_span(), self.op_id,
                    )
            if after is not None:
                after(result)
            return result

        return wrapper

    def _parent_span(self) -> int | None:
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def _wrap_propagate(self, orig, kind: str, useful):
        """Fast path: propagators call no other probe, so they push no frame."""
        probe = self.probe(f"kernel.propagate.{kind}")
        stack = self.stack
        clock = time.perf_counter_ns

        def propagate(con, model):
            if useful is not None and useful(con, model):
                probe.useful += 1
            start = clock()
            ok = orig(con, model)
            elapsed = clock() - start
            probe.calls += 1
            probe.ns += elapsed
            if not ok:
                probe.fails += 1
            if stack:
                parent = stack[-1]
                parent[1] += elapsed
                parent[2] += elapsed
            return ok

        return propagate

    # -- the layer map -----------------------------------------------------

    def _patches(self):
        """(owner, attribute, replacement) for every traced name."""
        from boundforge import bounds, kernel, objects, oracle, selector

        def all_fixed(vids):
            return lambda con, model: all(len(model.dom(v)) == 1 for v in getattr(con, vids))

        useful = {
            "ground_checker": all_fixed("xs"),
            "bound": all_fixed("input_ids"),
        }

        def on_label(res):
            self.nback += res.nback

        def on_outcome(engine):
            def after(outcome):
                self.posts[engine] += outcome.report.posts
                self.labelings += outcome.report.labelings
            return after

        def audit_start(args):
            self._audit_seen = set()

        def audit_end(report):
            self.instances += report.instances
            self.distinct += len(self._audit_seen)
            self._audit_seen = None

        def feature_seen(args):
            if self._audit_seen is not None:
                self._audit_seen.add(args[1].as_tuple())

        out = []
        for mod in (kernel, objects, bounds):
            for cls in vars(mod).values():
                if (
                    isinstance(cls, type)
                    and issubclass(cls, kernel.Constraint)
                    and cls is not kernel.Constraint
                    and cls.__module__ == mod.__name__
                    and "propagate" in vars(cls)
                ):
                    out.append((cls, "propagate",
                                self._wrap_propagate(cls.propagate, cls.kind, useful.get(cls.kind))))
        out += [
            (kernel.Model, "post_constraint",
             self._wrap(kernel.Model.post_constraint, "kernel.post_constraint", False)),
            (kernel.Model, "retract_to",
             self._wrap(kernel.Model.retract_to, "kernel.retract_to", False)),
            (selector, "labeling",
             self._wrap(selector.labeling, "kernel.labeling", True, after=on_label)),
            (selector, "post_lex_greater",
             self._wrap(selector.post_lex_greater, "kernel.post_lex_greater", False)),
            (selector.ObjectScenario, "fresh",
             self._wrap(selector.ObjectScenario.fresh, "objects.model_build", True)),
            (oracle, "binseq_features",
             self._wrap(oracle.binseq_features, "objects.features", False)),
            (oracle, "partition_features",
             self._wrap(oracle.partition_features, "objects.features", False)),
            (selector, "post_bound",
             self._wrap(selector.post_bound, "bounds.post_bound", True)),
            (oracle, "verify_on",
             self._wrap(oracle.verify_on, "bounds.verify_on", False, before=feature_seen)),
            (selector, "compute_all_solutions",
             self._wrap(selector.compute_all_solutions, "selector.compute", True)),
            (selector, "run_selection",
             self._wrap(selector.run_selection, "selector.run_selection", True,
                        after=on_outcome("incremental"))),
            (selector, "run_baseline",
             self._wrap(selector.run_baseline, "selector.run_baseline", True,
                        after=on_outcome("baseline"))),
            (oracle, "audit",
             self._wrap(oracle.audit, "oracle.audit", True, before=audit_start, after=audit_end)),
        ]
        return out

    @contextmanager
    def operation(self, op_id: int, label: str):
        """Trace one operation: install every probe, open its root span."""
        if self._patch_list is None:
            self._patch_list = self._patches()
        patches = self._patch_list
        saved = [(owner, attr, vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr))
                 for owner, attr, _ in patches]
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        self.op_id = op_id
        span_id = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter_ns()
        self.stack.append([start, 0, 0, span_id])
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[span_id] = (span_id, f"op.{label}", start - self.t0, end - self.t0, None, op_id)
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
            self.op_id = None

    # -- results -----------------------------------------------------------

    def _get(self, name: str) -> Probe:
        return self.probes.get(name) or Probe()

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never enters reads 0."""
        s = 1e-9
        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if field in ("calls", "fails"):
                out[name] = getattr(self._get(base), field)
            elif field == "s":
                out[name] = self._get(base).ns * s
        lab = self._get("kernel.labeling")
        out["kernel.labeling.self_s"] = (lab.ns - lab.prop_ns) * s
        out["kernel.nback"] = self.nback
        for kind in ("ground_checker", "bound"):
            p = self._get(f"kernel.propagate.{kind}")
            out[f"kernel.{kind}.useful_ratio"] = p.useful / p.calls if p.calls else 0.0
        inc, base_posts = self.posts["incremental"], self.posts["baseline"]
        out["selector.posts"] = inc + base_posts
        out["selector.labelings"] = self.labelings
        out["selector.post_ratio"] = inc / base_posts if base_posts else 0.0
        compute = self._get("selector.compute").ns
        engines = self._get("selector.run_selection").ns + self._get("selector.run_baseline").ns
        out["selector.dicho.s"] = (engines - compute) * s
        audit = self._get("oracle.audit")
        out["oracle.audit.self_s"] = (audit.ns - audit.child_ns) * s
        out["oracle.audit.instances"] = self.instances
        calls = self._get("bounds.verify_on").calls
        out["oracle.distinct_ratio"] = self.distinct / calls if calls else 0.0
        out["trace.overhead_s"] = overhead_s
        return out

    def write_jsonl(self, path: Path) -> None:
        """Spans in start order, then one aggregate line per probe name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"span": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")
            for name in sorted(self.probes):
                p = self.probes[name]
                fh.write(json.dumps({"aggregate": name, "calls": p.calls, "fails": p.fails,
                                     "useful": p.useful, "ns": p.ns,
                                     "self_ns": p.ns - p.child_ns}) + "\n")
