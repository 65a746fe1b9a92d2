"""Golden observables the benchmark checks every run against.

The files under ``golden/`` were recorded from the seed commit.  They hold
the paper's observables, which no change may move:

* ``select-binseq-10.json`` and ``select-partition-8.json``: the
  catalog-order selections, with every record ``(isol, nback, sol)``, the
  selected list, ``posts`` and ``labelings``;
* ``audit-rows.json``: one ``verify`` row per (bound, n) over the default
  ranges.

``python3 benchmarks/golden.py`` records them from the current code.  Only
record when a change is meant to move the observables, which should not
happen; every benchmark run checks against the stored files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SELECTIONS = (("binseq", 10), ("partition", 8))
VERIFY_RANGES = {"partition": (1, 10), "binseq": (1, 14)}  # `verify` defaults


def selection_file(object_name: str, n: int) -> Path:
    return GOLDEN_DIR / f"select-{object_name}-{n}.json"


def selection_observables(object_name: str, n: int, candidate_ids, outcome) -> dict:
    """The golden form of one selection outcome."""
    return {
        "object": object_name,
        "n": n,
        "candidates": list(candidate_ids),
        "selected": list(outcome.report.selected),
        "posts": outcome.report.posts,
        "labelings": outcome.report.labelings,
        "records": [[r.isol, r.nback, list(r.sol)] for r in outcome.records],
    }


def load() -> dict:
    """{"selections": {(object, n): observables}, "audit": {(bound, n): row}}."""
    selections = {}
    for object_name, n in SELECTIONS:
        selections[(object_name, n)] = json.loads(selection_file(object_name, n).read_text())
    rows = json.loads((GOLDEN_DIR / "audit-rows.json").read_text())
    return {"selections": selections, "audit": {(r["bound"], r["n"]): r for r in rows}}


def compute() -> dict[str, object]:
    """File name -> freshly computed content, from the library under ``src/``."""
    from boundforge import bounds, oracle, selector

    out: dict[str, object] = {}
    for object_name, n in SELECTIONS:
        cands = bounds.catalog(object_name)
        outcome = selector.run_selection(selector.ObjectScenario(object_name, n), cands)
        out[selection_file(object_name, n).name] = selection_observables(
            object_name, n, [c.id for c in cands], outcome)
    out["audit-rows.json"] = [
        oracle.audit(b, n).row()
        for b in bounds.catalog()
        for n in range(VERIFY_RANGES[b.object][0], VERIFY_RANGES[b.object][1] + 1)
    ]
    return out


def _dump(content) -> str:
    """JSON with one record or row per line, so diffs stay readable."""
    if isinstance(content, list):
        return "[\n" + ",\n".join(" " + json.dumps(row) for row in content) + "\n]\n"
    fields = []
    for key, value in content.items():
        if key == "records":
            text = "[\n" + ",\n".join("  " + json.dumps(r) for r in value) + "\n ]"
        else:
            text = json.dumps(value)
        fields.append(f" {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, content in compute().items():
        (GOLDEN_DIR / name).write_text(_dump(content))
        print(f"wrote {GOLDEN_DIR / name}")


if __name__ == "__main__":
    main()
