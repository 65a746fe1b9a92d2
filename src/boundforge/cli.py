"""Batch command line: verify | select | compare | solutions | explain.

Exit codes: 0 success (and zero violations / identical selections),
1 semantic failure (a violation or a selection mismatch), 2 usage or
configuration error.  Output is byte-deterministic for a fixed config and
seed; wall-clock fields are written as 0 unless --timing is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import expr, oracle, selector
from .bounds import BoundCandidate
from .errors import InvalidArgumentError
from .objects import FEATURES, check_size

# documented tractable ceilings; BOUNDFORGE_MAX_N overrides both, and no
# library ceiling (objects.MAX_N, objects.MODEL_MAX_N)
_VERIFY_CAP = {"partition": 12, "binseq": 16}
_MODEL_CAP = {"partition": 8, "binseq": 10}
_VERIFY_DEFAULT_RANGE = {"partition": (1, 10), "binseq": (1, 14)}


def _parse_n(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise InvalidArgumentError(f"bad n specification {text!r} (expected N or A..B)") from None
    if lo < 1 or hi < lo:
        raise InvalidArgumentError(f"bad n range {text!r}")
    return lo, hi


def _check_cap(object_name: str, n_hi: int, model_based: bool) -> None:
    env = os.environ.get("BOUNDFORGE_MAX_N")
    cap = (_MODEL_CAP if model_based else _VERIFY_CAP)[object_name]
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise InvalidArgumentError(f"BOUNDFORGE_MAX_N={env!r} is not an integer") from None
    if n_hi > cap:
        raise InvalidArgumentError(
            f"n={n_hi} exceeds the cap {cap} for {object_name} "
            "(override with BOUNDFORGE_MAX_N)"
        )


def load_candidates(path: str, object_name: str, n: int) -> list[BoundCandidate]:
    """Candidate list file: one bound id per line, # comments, duplicates
    allowed, decoy:<feature> synthesizes a vacuous upper bound."""
    out: list[BoundCandidate] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("decoy:"):
            feature = line.split(":", 1)[1].strip()
            out.append(bounds_mod.decoy(object_name, feature, n))
            continue
        cand = bounds_mod.by_id(line)
        if cand.object != object_name:
            raise InvalidArgumentError(f"bound {line} targets {cand.object}, not {object_name}")
        out.append(cand)
    return out


def _render(args: argparse.Namespace, payload, rows: list[dict], fields: list[str],
            text_lines: list[str]) -> None:
    """Write the payload as json, the rows as csv, or the text lines, per --format."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(text_lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def _single_n(args: argparse.Namespace) -> int:
    """The one n of a model-backed command, checked against its cap."""
    lo, hi = _parse_n(args.n)
    if lo != hi:
        raise InvalidArgumentError(f"{args.cmd} takes a single n, not a range")
    _check_cap(args.object, hi, model_based=True)
    return hi


# -- verify ---------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    if args.bound is not None:
        cand = bounds_mod.by_id(args.bound)
        if args.object is not None and args.object != cand.object:
            raise InvalidArgumentError(f"bound {cand.id} belongs to object {cand.object}")
        selected = [cand]
    else:
        selected = bounds_mod.catalog(args.object)
    objects_audited = list(dict.fromkeys(b.object for b in selected))
    object_name = objects_audited[0] if len(objects_audited) == 1 else "both"

    def size_range(obj: str) -> tuple[int, int]:
        lo, hi = _parse_n(args.n) if args.n is not None else _VERIFY_DEFAULT_RANGE[obj]
        _check_cap(obj, hi, model_based=False)
        check_size(obj, hi)  # the library ceiling too, before the first audit
        return lo, hi

    ranges = {obj: size_range(obj) for obj in objects_audited}
    reports = [
        oracle.audit(b, n)
        for b in selected
        for n in range(ranges[b.object][0], ranges[b.object][1] + 1)
    ]
    total_violations = sum(len(r.violations) for r in reports)
    rows = [r.row() for r in reports]
    payload = {
        "object": object_name,
        "n": {obj: list(rng) for obj, rng in ranges.items()},
        "violations_total": total_violations,
        "reports": [r.to_json() for r in reports],
    }
    lines = [
        f"{r['bound']:<12} n={r['n']:<3} instances={r['instances']:<6} "
        f"violations={r['violations']:<3} witnesses={r['witnesses']:<5} "
        f"min_slack={r['min_slack']}"
        for r in rows
    ]
    lines.append(f"total violations: {total_violations}")
    _render(args, payload, rows,
            ["bound", "n", "instances", "violations", "witnesses", "min_slack"], lines)
    return 0 if total_violations == 0 else 1


# -- select / compare -----------------------------------------------------------


def _scenario_candidates(args, object_name: str, n: int) -> list[BoundCandidate]:
    if args.candidates is not None:
        cands = load_candidates(args.candidates, object_name, n)
    else:
        cands = bounds_mod.catalog(object_name)
    if args.shuffle_seed is not None:
        rng = random.Random(args.shuffle_seed)
        rng.shuffle(cands)
    return cands


def _strip_wall(report: selector.SelectionReport, timing: bool) -> dict:
    return dict(report._asdict(), wall_ms=report.wall_ms if timing else 0)


def cmd_select(args: argparse.Namespace) -> int:
    n = _single_n(args)
    cands = _scenario_candidates(args, args.object, n)
    report = selector.run_selection(selector.ObjectScenario(args.object, n), cands).report
    payload = _strip_wall(report, args.timing)
    row = dict(payload, selected=";".join(payload["selected"]))
    lines = [
        f"selected: {' '.join(payload['selected']) or '(none)'}",
        f"posts: {payload['posts']}",
        f"labelings: {payload['labelings']}",
        f"wall_ms: {payload['wall_ms']}",
    ]
    _render(args, payload, [row], ["selected", "posts", "labelings", "wall_ms"], lines)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    n = _single_n(args)
    cands = _scenario_candidates(args, args.object, n)
    scenario = selector.ObjectScenario(args.object, n)
    inc = selector.run_selection(scenario, cands).report
    base = selector.run_baseline(scenario, cands).report
    identical = inc.selected == base.selected
    payload = {
        "identical": identical,
        "incremental": _strip_wall(inc, args.timing),
        "baseline": _strip_wall(base, args.timing),
    }
    engines = (("incremental", inc), ("baseline", base))
    rows = [
        dict(payload[name], engine=name, selected=";".join(r.selected))
        for name, r in engines
    ]
    lines = [f"identical: {identical}"] + [
        f"{name + ':':<12} selected={' '.join(r.selected) or '(none)'} "
        f"posts={r.posts} labelings={r.labelings}"
        for name, r in engines
    ]
    _render(args, payload, rows, ["engine", "selected", "posts", "labelings", "wall_ms"], lines)
    return 0 if identical else 1


# -- solutions --------------------------------------------------------------------


def cmd_solutions(args: argparse.Namespace) -> int:
    n = _single_n(args)
    scenario = selector.ObjectScenario(args.object, n)
    cands = bounds_mod.catalog(args.object)

    counters = selector.Counters()
    model, featvars, xs = scenario.fresh(counters)
    without = selector.enumerate_all_solutions(model, featvars, xs, counters)
    # each step retracts what it posts, so the bounded run reuses the model
    with_all = selector.compute_all_solutions(model, featvars, xs, cands, n, counters)
    with_by_isol = {r.isol: r for r in with_all}

    rows = []
    dominated = True
    for rec in without:
        paired = with_by_isol.get(rec.isol)
        nb_with = paired.nback if paired is not None else None
        if nb_with is not None and nb_with > rec.nback:
            dominated = False
        rows.append(
            {
                "isol": rec.isol,
                "sol": " ".join(map(str, rec.sol)),
                "nback_without": rec.nback,
                "nback_with_bounds": nb_with,
            }
        )
    payload = {
        "object": args.object,
        "n": n,
        "lex_order": rows,
        "sorted_by_nback_without": [
            r.isol for r in sorted(without, key=lambda r: (r.nback, r.isol))
        ],
        "sorted_by_nback_with_bounds": [r.isol for r in with_all],
        "nback_dominated_with_bounds": dominated,
    }
    lines = [
        f"isol={r['isol']:<4} sol=[{r['sol']}] "
        f"nback={r['nback_without']} nback_all_bounds={r['nback_with_bounds']}"
        for r in rows
    ]
    lines.append(f"dominated with bounds: {dominated}")
    _render(args, payload, rows, ["isol", "sol", "nback_without", "nback_with_bounds"], lines)
    return 0


# -- explain ----------------------------------------------------------------------


def _render_prefix(node, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if not isinstance(node, tuple):
        return [f"{pad}{node}"]
    head, rest = expr.parts(node)
    lines = [f"{pad}({head}"]
    for child in rest:
        lines.extend(_render_prefix(child, indent + 1))
    lines.append(f"{pad})")
    return lines


def cmd_explain(args: argparse.Namespace) -> int:
    cand = bounds_mod.by_id(args.bound_id)
    entry = {
        "id": cand.id,
        "object": cand.object,
        "target": cand.target,
        "direction": cand.direction,
        "inputs": list(cand.inputs),
        "rhs": cand.rhs,
    }
    rel = "<=" if cand.direction == "upper" else ">="
    lines = [
        f"{cand.id}: {cand.object} {cand.target} {rel} rhs({', '.join(cand.inputs)})",
        *_render_prefix(cand.rhs),
    ]
    _render(args, entry, [], [], lines)
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundforge",
        description="Bound-constraint auditing and most-filtering selection",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--out", type=str, default=None)

    pv = sub.add_parser("verify", help="exhaustively audit catalog bounds")
    pv.set_defaults(func=cmd_verify)
    pv.add_argument("--object", choices=list(FEATURES))
    pv.add_argument("--bound", type=str, default=None, help="audit a single bound id")
    pv.add_argument("--n", type=str, default=None, help="size N or range A..B")
    common(pv)

    for name, help_text, takes_candidates, func in (
        ("select", "run the incremental selection", True, cmd_select),
        ("compare", "incremental vs baseline selection", True, cmd_compare),
        ("solutions", "solution/backtrack tables", False, cmd_solutions),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--object", choices=list(FEATURES), required=True)
        p.add_argument("--n", type=str, required=True)
        if takes_candidates:
            p.add_argument("--candidates", type=str, default=None,
                           help="candidate list file (default: full catalog)")
            p.add_argument("--shuffle-seed", type=int, default=None)
        common(p)
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock times in the report")

    pe = sub.add_parser("explain", help="print one bound's expression tree")
    pe.set_defaults(func=cmd_explain)
    pe.add_argument("bound_id", type=str)
    pe.add_argument("--format", choices=["json", "text"], default="text")
    pe.add_argument("--out", type=str, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgumentError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
