"""Self-tests of the benchmark: goldens, span arithmetic, and patch restoration.

Run with `python3 -m pytest bench/tests -q` from the repository root.  Inputs
are max-gap-3 sized, so the whole file takes a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL_ARGV = ["search", "--n", "3", "--max-gap", "3", "--json"]


@pytest.fixture()
def small_stream(tmp_path):
    """stdout of a max-gap-3 search and its golden record."""
    path = tmp_path / "small.stdout"
    with open(path, "wb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "gapkit.cli", *SMALL_ARGV],
            stdout=fh, cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")},
        )
    data = path.read_bytes()
    golden = {
        "exit_code": proc.returncode,
        "lines": len(data.splitlines()),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    assert golden["exit_code"] == 1 and golden["lines"] > 0
    return path, golden


def small_checks_calls():
    return run.checks_calls(3, range(4, 6), 3)


@pytest.fixture()
def small_checks_golden():
    result = child.run_checks({"calls": small_checks_calls()})
    assert result["errors"] == 0
    return {"verdicts": result["verdicts"], "digest": result["digest"]}


# -- goldens ------------------------------------------------------------------


def test_untampered_stream_passes(small_stream):
    path, golden = small_stream
    assert run.search_problems(golden, 1, path, random.Random(0)) == []


def test_tampered_stream_fails(small_stream):
    path, golden = small_stream
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["k"] += 1
    lines[0] = (json.dumps(record) + "\n").encode()
    path.write_bytes(b"".join(lines))
    problems = run.search_problems(golden, 1, path, random.Random(0))
    assert any("sha256" in p for p in problems)
    assert any("re-verification" in p for p in problems)


def test_wrong_exit_code_fails(small_stream):
    path, golden = small_stream
    assert run.search_problems(golden, 0, path, random.Random(0)) == ["exit code 0 != 1"]


def test_checks_digest_ignores_call_order(small_checks_golden):
    calls = small_checks_calls()
    random.Random(7).shuffle(calls)
    result = child.run_checks({"calls": calls})
    assert run.checks_problems(small_checks_golden, result) == []


def test_tampered_verdict_fails(small_checks_golden):
    result = child.run_checks({"calls": small_checks_calls()})
    result["verdicts"]["pair"]["pass"] -= 1
    result["verdicts"]["pair"]["fail"] = 1
    assert run.checks_problems(small_checks_golden, result)


def test_tampered_report_fails(small_checks_golden):
    result = child.run_checks({"calls": small_checks_calls()})
    result["digest"] = "0" * 64
    assert run.checks_problems(small_checks_golden, result) == ["report digest differs"]


@pytest.fixture()
def small_bench(monkeypatch, tmp_path, small_stream, small_checks_golden):
    """run.py pointed at max-gap-3 inputs, with one golden deliberately wrong each."""
    _, golden = small_stream
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setitem(
        run.SEARCH_WORKLOADS, "search-dense",
        {"max_gap": 3, "flags": [], "golden": dict(golden, sha256="0" * 64)},
    )
    monkeypatch.setattr(run, "CHECKS_MAX_GAP", 3)
    monkeypatch.setattr(run, "CHECKS_DEGREES", range(4, 6))
    monkeypatch.setattr(run, "CHECKS_GOLDEN", dict(small_checks_golden, digest="0" * 64))


@pytest.mark.parametrize("name", ["search-dense", "checks"])
def test_corrupted_output_counts_as_failed(small_bench, name):
    with run.Launcher(time.monotonic() + 120) as launcher:
        result, detail = run.measure(launcher, name, seed=1, seconds=0)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert detail["failed_frac"] == 1.0


def test_wall_takes_each_units_fastest_pass():
    # three units over two passes: 3 from the first pass, 1 and 2 from the second
    assert run.fastest_sum_s([[3, 5, 7], [4, 1, 2]]) == pytest.approx(6e-9)
    # a pass cut into another number of units is left out
    assert run.fastest_sum_s([[3, 5, 7], [4, 1, 2], [1, 1]]) == pytest.approx(6e-9)


def test_stream_segments_follow_byte_multiples(monkeypatch):
    monkeypatch.setattr(run, "SEGMENT_BYTES", 10)
    # reads at 1 s (6 bytes), 2 s (25 bytes: past 10 and 20) and 3 s (31); exit at 4 s
    marks = [(1.0, 6), (2.0, 25), (3.0, 31)]
    assert run.stream_segments_ns(marks, 4.0) == [2e9, 0, 1e9, 1e9]


# -- span arithmetic ----------------------------------------------------------


def test_self_time_on_hand_built_tree():
    #   0: root [0, 100]
    #   1:   a  [10, 40]
    #   2:     leaf [20, 30]
    #   3:   b  [50, 90]
    #   4:   c  [95, 120]  reaches past its parent; only [95, 100] is covered
    #   5:   d  [60, 70]   overlaps b; counted once
    start = [0, 10, 20, 50, 95, 60]
    end = [100, 40, 30, 90, 120, 70]
    parent = [-1, 0, 1, 0, 0, 0]
    assert spans.self_times(start, end, parent) == [100 - 30 - 40 - 5, 20, 10, 40, 25, 10]


def test_layer_summary_sums_per_name():
    names = ["cli.main", "search.verify", "infconv.oracle", "search.verify", "infconv.oracle"]
    start = [0, 10, 12, 50, 55]
    end = [100, 30, 22, 60, 58]
    parent = [-1, 0, 1, 0, 3]
    summary = spans.layer_summary(names, start, end, parent)
    assert summary["cli.main"] == {"calls": 1, "total_s": 100e-9, "self_s": 70e-9}
    assert summary["search.verify"]["calls"] == 2
    assert summary["search.verify"]["total_s"] == pytest.approx(30e-9)
    assert summary["search.verify"]["self_s"] == pytest.approx(17e-9)
    assert summary["infconv.oracle"]["self_s"] == pytest.approx(13e-9)


# -- patching -----------------------------------------------------------------


def all_sites():
    for table in (spans.SPAN_SITES, spans.GENERATOR_SITES, spans.COUNT_SITES):
        for sites in table.values():
            yield from sites


def current(site):
    owner, attr = spans.resolve_site(site)
    return getattr(owner, attr)


@pytest.mark.parametrize("trace", ["spans", "count"])
def test_traced_search_restores_names_and_keeps_stdout(tmp_path, small_stream, trace):
    _, golden = small_stream
    before = {site: current(site) for site in all_sites()}
    job = {
        "kind": "search", "argv": SMALL_ARGV, "stdout": str(tmp_path / "out"),
        "trace": trace, "run_id": "t", "spans": str(tmp_path / "spans.json"),
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert child.main(str(tmp_path / "job.json"), str(tmp_path / "result.json")) == 0
    assert {site: current(site) for site in all_sites()} == before
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == golden["sha256"]
    result = json.loads((tmp_path / "result.json").read_text())
    if trace == "spans":
        layers = result["layers"]
        assert layers["search.verify"]["calls"] == golden["lines"]
        assert layers["cli.main"]["total_s"] <= result["wall_s"]
        written = json.loads((tmp_path / "spans.json").read_text())
        assert written["run_id"] == "t" and len(written["spans"]) == result["spans"]
    else:
        assert result["counts"]["gapset.gap_function_eval"] > 0


def test_traced_checks_restores_names(tmp_path):
    before = {site: current(site) for site in all_sites()}
    job = {"kind": "checks", "calls": small_checks_calls(), "trace": "spans",
           "run_id": "t", "spans": str(tmp_path / "spans.json")}
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert child.main(str(tmp_path / "job.json"), str(tmp_path / "result.json")) == 0
    assert {site: current(site) for site in all_sites()} == before
    layers = json.loads((tmp_path / "result.json").read_text())["layers"]
    assert layers["checkers.check"]["calls"] == len(small_checks_calls())
