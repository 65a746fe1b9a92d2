"""Golden observables: catalog-order selections reproduce the recorded counts.

The files under ``benchmarks/golden/`` hold the paper's observables for the
catalog-order selections: the selected list, ``posts``, ``labelings`` and
every record ``(isol, nback, sol)``.  Any kernel or selector change that
moves one of them is a bug, so these tests compare bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from boundforge.bounds import catalog
from boundforge.selector import ObjectScenario, run_selection

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "golden"


@pytest.mark.parametrize("object_name,n", [("partition", 8), ("binseq", 10)])
def test_catalog_order_selection_matches_golden(object_name, n):
    golden = json.loads((GOLDEN_DIR / f"select-{object_name}-{n}.json").read_text())
    cands = catalog(object_name)
    assert [c.id for c in cands] == golden["candidates"]
    outcome = run_selection(ObjectScenario(object_name, n), cands)
    assert list(outcome.report.selected) == golden["selected"]
    assert outcome.report.posts == golden["posts"]
    assert outcome.report.labelings == golden["labelings"]
    assert [[r.isol, r.nback, list(r.sol)] for r in outcome.records] == golden["records"]
