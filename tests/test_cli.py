"""Command-line surface: formats, exit codes, determinism, config errors."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import types

import pytest

from boundforge import bounds, oracle, selector
from boundforge.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_bound_json(capsys):
    code, out, _ = run(capsys, ["verify", "--bound", "P-S-UB", "--n", "8", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["violations_total"] == 0
    (report,) = payload["reports"]
    assert report["bound"] == "P-S-UB"
    assert report["instances"] == 22
    assert report["violations"] == 0


def test_verify_range_and_csv(capsys):
    code, out, _ = run(capsys, ["verify", "--object", "partition", "--n", "1..5", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3 * 5
    assert set(rows[0]) == {"bound", "n", "instances", "violations", "witnesses", "min_slack"}
    assert all(r["violations"] == "0" for r in rows)


def test_verify_binseq_full_catalog_range(capsys):
    code, out, _ = run(capsys, ["verify", "--object", "binseq", "--n", "1..12", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 17 * 12
    assert all(r["violations"] == "0" for r in rows)


def test_verify_unknown_bound_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--bound", "NOPE"])
    assert code == 2
    assert "unknown bound" in err


def test_bad_n_specification_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--object", "partition", "--n", "five"])
    assert code == 2


def test_select_default_catalog_json(capsys):
    code, out, _ = run(capsys, ["select", "--object", "partition", "--n", "5"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"selected", "posts", "labelings", "wall_ms"}
    assert payload["selected"]
    assert payload["wall_ms"] == 0  # deterministic output unless --timing


def _timed_reports(monkeypatch):
    """Patch the clock ``selector`` reads so that the first run takes 1.5 s
    and the second 2.25 s; returns the list each run's report goes to."""
    ticks = iter([0.0, 1.5, 10.0, 12.25])
    monkeypatch.setattr(selector, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    reports = []
    for name in ("run_selection", "run_baseline"):
        def recorded(scenario, cands, real=getattr(selector, name)):
            outcome = real(scenario, cands)
            reports.append(outcome.report)
            return outcome
        monkeypatch.setattr(selector, name, recorded)
    return reports


@pytest.mark.parametrize("timing", [True, False])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_select_timing_prints_the_reports_wall_ms(monkeypatch, capsys, timing, fmt):
    reports = _timed_reports(monkeypatch)
    argv = ["select", "--object", "partition", "--n", "4", "--format", fmt]
    code, out, _ = run(capsys, argv + ["--timing"] * timing)
    assert code == 0
    (report,) = reports
    assert report.wall_ms == 1500
    wall_ms = report.wall_ms if timing else 0
    if fmt == "json":
        assert json.loads(out)["wall_ms"] == wall_ms
    else:
        assert f"\nwall_ms: {wall_ms}\n" in out


@pytest.mark.parametrize("timing", [True, False])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_compare_timing_prints_each_reports_wall_ms(monkeypatch, capsys, timing, fmt):
    reports = _timed_reports(monkeypatch)
    argv = ["compare", "--object", "partition", "--n", "4", "--format", fmt]
    code, out, _ = run(capsys, argv + ["--timing"] * timing)
    assert code == 0
    assert [r.wall_ms for r in reports] == [1500, 2250]
    expected = [r.wall_ms if timing else 0 for r in reports]
    if fmt == "json":
        payload = json.loads(out)
        printed = [payload[engine]["wall_ms"] for engine in ("incremental", "baseline")]
    else:
        printed = [int(row["wall_ms"]) for row in csv.DictReader(io.StringIO(out))]
    assert printed == expected


def test_select_shuffle_seed_is_byte_deterministic(capsys):
    argv = ["select", "--object", "binseq", "--n", "6", "--shuffle-seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_select_candidate_file_with_comments_duplicates_decoys(tmp_path, capsys):
    listing = tmp_path / "cands.txt"
    listing.write_text(
        "# comment line\n"
        "P-S-UB\n"
        "P-S-UB  # duplicate is fine\n"
        "decoy:S\n"
        "P-RANGE-UB1\n"
    )
    code, out, _ = run(
        capsys,
        ["select", "--object", "partition", "--n", "4", "--candidates", str(listing)],
    )
    assert code == 0
    payload = json.loads(out)
    assert "decoy:S" not in payload["selected"]


def test_select_empty_candidate_file(tmp_path, capsys):
    listing = tmp_path / "empty.txt"
    listing.write_text("# nothing here\n")
    code, out, _ = run(
        capsys,
        ["select", "--object", "partition", "--n", "4", "--candidates", str(listing)],
    )
    assert code == 0
    assert json.loads(out)["selected"] == []


def test_select_wrong_object_in_candidate_file(tmp_path, capsys):
    listing = tmp_path / "cands.txt"
    listing.write_text("B-GS-LB1\n")
    code, _, err = run(
        capsys,
        ["select", "--object", "partition", "--n", "4", "--candidates", str(listing)],
    )
    assert code == 2


def test_compare_identical_exit_zero(capsys):
    code, out, _ = run(capsys, ["compare", "--object", "partition", "--n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["identical"] is True
    assert payload["incremental"]["selected"] == payload["baseline"]["selected"]
    assert payload["baseline"]["posts"] >= payload["incremental"]["posts"]


def test_compare_mutant_selector_exit_one(monkeypatch, capsys):
    real = selector.run_selection

    def mutant(scenario, cands):
        outcome = real(scenario, cands)
        report = outcome.report
        return dataclasses.replace(outcome, report=selector.SelectionReport(
            report.selected[:-1], report.posts, report.labelings, report.wall_ms
        ))

    monkeypatch.setattr(selector, "run_selection", mutant)
    code, out, _ = run(capsys, ["compare", "--object", "partition", "--n", "4"])
    assert code == 1
    assert json.loads(out)["identical"] is False


def test_solutions_table_binseq_n3(capsys):
    code, out, _ = run(capsys, ["solutions", "--object", "binseq", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    rows = payload["lex_order"]
    assert len(rows) == 6  # 5 feature tuples plus the sentinel row
    assert rows[-1]["sol"] == ""
    assert payload["nback_dominated_with_bounds"] in (True, False)
    assert sorted(payload["sorted_by_nback_with_bounds"]) == [r["isol"] for r in rows]


def test_solutions_text_format(capsys):
    code, out, _ = run(capsys, ["solutions", "--object", "binseq", "--n", "3", "--format", "text"])
    assert code == 0
    assert "dominated with bounds:" in out


def test_explain_text_and_json(capsys):
    code, out, _ = run(capsys, ["explain", "B-DS-LB3"])
    assert code == 0
    assert "DS >= rhs(Dmax)" in out
    code, out, _ = run(capsys, ["explain", "P-S-UB", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "S"
    assert payload["inputs"] == ["P", "Mmin", "Mmax", "rangeM"]


CASE_SPLIT_BOUNDS = {
    "P-S-UB", "B-GMAX-UB1", "B-DMIN-UB", "B-GS-UB1", "B-GS-UB2",
    "B-DS-LB2", "B-DS-UB1", "B-DS-UB2", "B-GMAX-UB2", "B-GS-UB3",
}


@pytest.mark.parametrize("bound", [b.id for b in bounds.catalog()])
def test_explain_text_prints_every_node_as_a_tree(capsys, bound):
    code, out, _ = run(capsys, ["explain", bound])
    assert code == 0
    assert "[" not in out and "'" not in out
    lines = [line.strip() for line in out.splitlines()[1:]]
    assert sum(line.startswith("(") for line in lines) == lines.count(")")
    assert ("(case" in lines) == (bound in CASE_SPLIT_BOUNDS)


def test_explain_unknown_bound(capsys):
    code, _, err = run(capsys, ["explain", "B-NOPE"])
    assert code == 2


def test_max_n_cap_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("BOUNDFORGE_MAX_N", "3")
    code, _, err = run(capsys, ["select", "--object", "binseq", "--n", "5"])
    assert code == 2
    assert "exceeds the cap" in err
    monkeypatch.setenv("BOUNDFORGE_MAX_N", "5")
    code, out, _ = run(capsys, ["select", "--object", "binseq", "--n", "5"])
    assert code == 0


def test_max_n_above_the_enumeration_ceiling_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("BOUNDFORGE_MAX_N", "40")
    code, out, err = run(capsys, ["select", "--object", "binseq", "--n", "40"])
    assert (code, out) == (2, "")
    assert "binseq n=40 exceeds the enumeration ceiling 20" in err
    monkeypatch.setenv("BOUNDFORGE_MAX_N", "60")
    code, out, err = run(capsys, ["verify", "--bound", "P-S-UB", "--n", "51"])
    assert (code, out) == (2, "")
    assert "partition n=51 exceeds the enumeration ceiling 50" in err
    # every size is checked before the first audit, not when its turn comes
    monkeypatch.setenv("BOUNDFORGE_MAX_N", "21")

    def no_audit(*args):
        raise AssertionError("audited before the ceiling check")

    monkeypatch.setattr(oracle, "audit", no_audit)
    code, out, err = run(capsys, ["verify", "--object", "binseq", "--n", "20..21"])
    assert (code, out) == (2, "")
    assert err == "error: binseq n=21 exceeds the enumeration ceiling 20\n"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["select", "--object", "partition", "--n", "4", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["selected"]


@pytest.mark.parametrize("bad", ["candidates_dir", "out_dir", "candidates_not_utf8"])
def test_bad_file_argument_is_usage_error(bad, tmp_path, capsys):
    argv = ["select", "--object", "partition", "--n", "4"]
    if bad == "candidates_dir":
        argv += ["--candidates", str(tmp_path)]
    elif bad == "out_dir":
        argv += ["--out", str(tmp_path)]
    else:
        path = tmp_path / "cands.txt"
        path.write_bytes(b"\xff\xfeP-S-UB\n")
        argv += ["--candidates", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--bound", "P-S-UB", "--n", "1..4"],
        ["select", "--object", "partition", "--n", "4"],
        ["compare", "--object", "binseq", "--n", "4"],
        ["solutions", "--object", "binseq", "--n", "3"],
    ],
)
def test_out_file_matches_stdout(argv, fmt, tmp_path, capsys):
    argv = argv + ["--format", fmt]
    code, out, _ = run(capsys, argv)
    target = tmp_path / "report"
    assert run(capsys, argv + ["--out", str(target)]) == (code, "", "")
    assert target.read_bytes() == out.encode()
