"""One measured pass in a fresh interpreter: `python bench/child.py JOB OUT`.

JOB is a JSON file written by run.py:
  {"kind": "checks", "calls": [...], "trace": "off"|"spans"|"count", ...}
  {"kind": "search", "argv": [...], "stdout": PATH, "trace": ..., ...}
OUT receives one JSON object with the pass's own timings and outputs.

"checks" runs the check calls through the library and times each one.
"search" runs `gapkit.cli.main` in this process with stdout sent to a file;
it is used for traced and counting passes, and for the untraced pass they
are compared with, so that all three measure the same code path.  Untimed
search passes for end-to-end numbers run `python -m gapkit.cli` directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gapkit  # noqa: E402
import gapkit.checkers  # noqa: E402
import gapkit.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def build_calls(calls: list) -> list:
    """Turn [kind, degree, [gap lists]] into (function name, argument tuple)."""
    out = []
    for kind, degree, cusps in calls:
        sets = tuple(gapkit.GapSet(tuple(c)) for c in cusps)
        if kind == "pair":
            out.append(("check_pair_inequality", sets))
        else:
            out.append(("check_" + kind, (gapkit.CurveSpec(degree, sets),)))
    return out


def run_checks(job: dict) -> dict:
    prepared = build_calls(job["calls"])
    checkers = gapkit.checkers
    lat_ns = []
    reports = []
    errors = 0
    clock = time.perf_counter_ns
    cpu0 = time.process_time()
    t0 = clock()
    for fname, args in prepared:
        fn = getattr(checkers, fname)
        c0 = clock()
        try:
            report = fn(*args)
        except Exception as exc:  # a raising check is a failed operation, not a crash
            report = exc
        lat_ns.append(clock() - c0)
        reports.append(report)
    wall_ns = clock() - t0
    cpu_s = time.process_time() - cpu0

    # The digest covers every report, hashed in input order so that the
    # seed's permutation of the calls leaves it unchanged.
    verdicts: dict[str, dict[str, int]] = {}
    digest = hashlib.sha256()
    keys = [json.dumps(call) for call in job["calls"]]
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        kind = job["calls"][i][0]
        report = reports[i]
        if isinstance(report, Exception):
            errors += 1
            verdict, body = "error", repr(report)
        else:
            verdict, body = report.verdict, report.to_json_dict()
        per_kind = verdicts.setdefault(kind, {})
        per_kind[verdict] = per_kind.get(verdict, 0) + 1
        digest.update(keys[i].encode() + b"\t" + json.dumps(body, sort_keys=True).encode() + b"\n")
    return {
        "wall_s": wall_ns / 1e9,
        "cpu_s": cpu_s,
        "lat_ns": lat_ns,
        "verdicts": verdicts,
        "errors": errors,
        "digest": digest.hexdigest(),
    }


def run_search(job: dict) -> dict:
    saved = sys.stdout
    with open(job["stdout"], "w", encoding="utf-8") as fh:
        sys.stdout = fh
        try:
            t0 = time.perf_counter_ns()
            code = gapkit.cli.main(job["argv"])
            fh.flush()
            wall_ns = time.perf_counter_ns() - t0
        finally:
            sys.stdout = saved
    return {"wall_s": wall_ns / 1e9, "exit_code": code}


def main(job_path: str, out_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = Tracer(job.get("run_id", ""))
    if job["trace"] == "spans":
        tracer.install_spans()
    elif job["trace"] == "count":
        tracer.install_counters()
    try:
        result = run_checks(job) if job["kind"] == "checks" else run_search(job)
    finally:
        tracer.restore()
    if job["trace"] == "spans":
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.start)
        tracer.write(job["spans"])
    elif job["trace"] == "count":
        result["counts"] = {name: tracer.count(name) for name in tracer.counters}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
