"""gapkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from ./src
and nothing needs installing.  Workloads (see bench/README.md for why each
exists and which layer it exercises):

  search-dense     search --n 3 --max-gap 5 --json            (verify/emit heavy)
  checks           check_pair_inequality, check_bl, check_flmn over the 26
                   semigroup gap sets with max gap <= 7, in seed order

With --trace 0 the run measures passes of under a second, each in a fresh
interpreter, until S seconds have gone by, and reports end-to-end metrics:
the pass time made of each unit's fastest time (see measure()), the median
peak RSS, and the median of the set-up probes.  With --trace 1 it makes
rounds of one untraced pass and one pass with spans around the public names
each module calls, then one pass that only counts gap_function_eval calls,
and reports per-layer metrics from the fastest traced pass.  Every pass's output is checked against goldens taken at
the commit that introduced this benchmark; a mismatch counts as failed.

The last line of stdout is the result object; the line before it holds the
details (machine, every pass, the full layer table).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from itertools import combinations, combinations_with_replacement
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The whole run must finish well inside the 180 s each run is allowed.
RUN_BUDGET_S = 170.0
# Set-up probes before each pass and after the last, spread over the run.
SETUP_PROBES = 1
# Untraced and traced passes in a --trace 1 run.
TRACE_ROUNDS = 5
# gapkit's stdout reaches a pipe in blocks of about this size.
SEGMENT_BYTES = 8192
VERIFY_SAMPLES = 64
SEARCH_N = 3

SEARCH_WORKLOADS = {
    "search-dense": {
        "max_gap": 5,
        "flags": [],
        "golden": {
            "exit_code": 1,
            "lines": 5915,
            "sha256": "5901f923568853f33419e021db1ff4d82066bc591925bba8979c3213b9aed355",
        },
    },
}

CHECKS_MAX_GAP = 7
CHECKS_DEGREES = range(4, 8)
CHECKS_MAX_CUSPS = 3
CHECKS_GOLDEN = {
    "verdicts": {
        "pair": {"pass": 351},
        "bl": {"pass": 22, "fail": 745},
        "flmn": {"pass": 617, "fail": 150},
    },
    "digest": "a21da7e759bcde3e0f5b5357cf712f4fa87dcb2487982c71793ea9975dad05a1",
}

WORKLOADS = [*SEARCH_WORKLOADS, "checks"]


class BenchError(Exception):
    """The run cannot produce a result (missing source, timeout, crashed child)."""


# -- inputs -------------------------------------------------------------------


def semigroup_gap_sets(max_gap: int) -> list[tuple[int, ...]]:
    """Nonempty gap sets of numerical semigroups with every gap <= max_gap.

    Computed here rather than by gapkit, so the inputs do not depend on the
    code under test.  Order: genus, then lexicographic.
    """
    out = []
    for size in range(1, max_gap + 1):
        for gaps in combinations(range(1, max_gap + 1), size):
            members = [m for m in range(1, max_gap + 1) if m not in gaps]
            if all(a + b not in gaps for a in members for b in members):
                out.append(gaps)
    return out


def checks_calls(max_gap: int, degrees, max_cusps: int) -> list[list]:
    """[kind, degree, cusps] for every pair, and every bl/flmn curve spec."""
    sets = [list(g) for g in semigroup_gap_sets(max_gap)]
    calls = [["pair", None, [a, b]] for a, b in combinations_with_replacement(sets, 2)]
    for degree in degrees:
        genus = (degree - 1) * (degree - 2) // 2
        for count in range(1, max_cusps + 1):
            for cusps in combinations_with_replacement(sets, count):
                if sum(len(c) for c in cusps) == genus:
                    calls.append(["bl", degree, list(cusps)])
                    calls.append(["flmn", degree, list(cusps)])
    return calls


def search_argv(workload: dict) -> list[str]:
    return ["search", "--n", str(SEARCH_N), "--max-gap", str(workload["max_gap"]),
            *workload["flags"], "--json"]


def search_multisets(workload: dict) -> int:
    """Multisets of SEARCH_N sets drawn from all subsets of {1..max_gap}."""
    return math.comb(2 ** workload["max_gap"] + SEARCH_N - 1, SEARCH_N)


# -- goldens ------------------------------------------------------------------


def search_problems(golden: dict, exit_code: int, stdout_path: Path, rng: random.Random) -> list[str]:
    """Differences from the golden stream; sampled lines are re-verified by the oracle.

    The file is streamed rather than read whole: children are spawned from
    this process, and a child's peak RSS starts from this process's peak.
    """
    from gapkit import Violation, verify_violation  # main() puts ./src on the path first

    problems = []
    if exit_code != golden["exit_code"]:
        problems.append(f"exit code {exit_code} != {golden['exit_code']}")
    wanted = set(rng.sample(range(golden["lines"]), min(VERIFY_SAMPLES, golden["lines"])))
    sampled = []
    digest = hashlib.sha256()
    count = 0
    with open(stdout_path, "rb") as fh:
        for count, line in enumerate(fh, 1):
            digest.update(line)
            if count - 1 in wanted:
                sampled.append(line)
    if count != golden["lines"]:
        problems.append(f"{count} lines != {golden['lines']}")
    if digest.hexdigest() != golden["sha256"]:
        problems.append("stdout sha256 differs")
    for line in sampled:
        try:
            ok = verify_violation(Violation.from_json_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            problems.append(f"line fails re-verification: {line[:80]!r}")
    return problems


def checks_problems(golden: dict, result: dict) -> list[str]:
    problems = []
    if result["verdicts"] != golden["verdicts"]:
        problems.append(f"verdict counts {result['verdicts']} != {golden['verdicts']}")
    if result["digest"] != golden["digest"]:
        problems.append("report digest differs")
    return problems


# -- processes ----------------------------------------------------------------


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Launcher:
    """Runs commands through bench/launch.py, one at a time, under a deadline.

    A child still running at the deadline is killed with its whole process
    group, and the run fails.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        # Python settings from the caller's environment (unbuffered output, no
        # bytecode cache, ...) would change what is measured, so children get
        # the defaults a user has, and a fixed hash seed.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("launcher exited")
        return json.loads(line)

    def run(self, cmd: list[str], stdout: Path | None = None) -> dict:
        """exit_code, wall_s, cpu_s and maxrss_kb of one child run to completion."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        request = {"cmd": cmd, "env": self.env, "stdout": None if stdout is None else str(stdout)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        pid = self._reply()["pid"]
        timer = threading.Timer(remaining, _kill_group, (pid,))
        timer.start()
        try:
            result = self._reply()
        finally:
            timer.cancel()
        _kill_group(pid)  # leftovers of the child's session, if any
        if time.monotonic() >= self.deadline:
            raise BenchError(f"timed out: {' '.join(cmd)}")
        return result

    def run_child(self, job: dict, tag: str) -> tuple[dict, dict]:
        """A bench/child.py pass: its own JSON output, and the launcher's measurements."""
        job_path = OUT / f"{tag}.job.json"
        out_path = OUT / f"{tag}.out.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        ran = self.run([sys.executable, str(BENCH / "child.py"), str(job_path), str(out_path)])
        if ran["exit_code"] != 0:
            raise BenchError(f"child pass {tag} exited with {ran['exit_code']}")
        return json.loads(out_path.read_text(encoding="utf-8")), ran


# -- passes -------------------------------------------------------------------


def stream_segments_ns(marks: list, wall_s: float) -> list[int]:
    """Nanoseconds from spawn to the moment stdout first held SEGMENT_BYTES, from
    there to twice as many, and so on; the last segment ends at exit.

    Same output, same segments, so a segment is the same work in every pass.
    """
    times = [0.0]
    edge = SEGMENT_BYTES
    for t, total in marks:
        while total >= edge:
            times.append(t)
            edge += SEGMENT_BYTES
    times.append(wall_s)
    return [round((b - a) * 1e9) for a, b in zip(times, times[1:])]


def search_pass(launcher: Launcher, workload: dict, rng: random.Random) -> dict:
    stdout_path = OUT / "search.stdout"
    ran = launcher.run([sys.executable, "-m", "gapkit.cli", *search_argv(workload)], stdout_path)
    return {
        "wall_s": ran["wall_s"],
        "cpu_s": ran["cpu_s"],
        "peak_rss_mb": ran["maxrss_kb"] / 1024,
        "problems": search_problems(workload["golden"], ran["exit_code"], stdout_path, rng),
        "units_ns": stream_segments_ns(ran["marks"], ran["wall_s"]),
    }


def checks_pass(launcher: Launcher, calls: list) -> dict:
    result, ran = launcher.run_child({"kind": "checks", "trace": "off", "calls": calls}, "checks")
    lat_ms = sorted(ns / 1e6 for ns in result["lat_ns"])
    return {
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": ran["maxrss_kb"] / 1024,
        "check_p50_ms": statistics.median(lat_ms),
        "check_p99_ms": statistics.quantiles(lat_ms, n=100)[98],
        "problems": checks_problems(CHECKS_GOLDEN, result),
        "units_ns": result["lat_ns"],
    }


def setup_probe(launcher: Launcher, name: str) -> float:
    """Fresh interpreter, import gapkit, the workload's entry point on a trivial input."""
    if name == "checks":
        job = {"kind": "checks", "trace": "off", "calls": [["pair", None, [[1], [1]]]]}
        job_path = OUT / "setup.job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        cmd = [sys.executable, str(BENCH / "child.py"), str(job_path), str(OUT / "setup.out.json")]
    else:
        cmd = [sys.executable, "-m", "gapkit.cli", "search", "--n", "1", "--pool", "-"]
    ran = launcher.run(cmd)
    if ran["exit_code"] != 0:
        raise BenchError(f"set-up probe exited with {ran['exit_code']}")
    return ran["wall_s"]


def seeded_checks_calls(seed: int) -> list:
    calls = checks_calls(CHECKS_MAX_GAP, CHECKS_DEGREES, CHECKS_MAX_CUSPS)
    random.Random(seed).shuffle(calls)
    return calls


# -- runs ---------------------------------------------------------------------


def fastest_sum_s(per_pass_ns: list[list[int]]) -> float:
    """Seconds: the sum over units of each unit's least time over the passes.

    Passes cut into another number of units than most (a wrong output) are
    left out.
    """
    n = statistics.mode(len(units) for units in per_pass_ns)
    return sum(map(min, zip(*(units for units in per_pass_ns if len(units) == n)))) / 1e9


def measure(launcher: Launcher, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced run: passes until about `seconds` have gone by, set-up probes between them.

    A pass starts only if half a typical pass still fits, so a run lasts
    about `seconds` whatever the host's speed.

    A pass is cut into units of the same work in every pass: the check calls,
    or the stretches between the moments the search's stdout reached each
    multiple of SEGMENT_BYTES.  wall_s is the sum over the units of each
    unit's fastest time in the run.  The host's speed swings by up to 1.8x
    in spells from milliseconds to minutes, so a slower time measures the
    host, not gapkit, and a quiet moment as long as one unit comes far more
    often than one as long as a whole pass (see "Noise" in README.md).
    """
    rng = random.Random(seed)
    if name == "checks":
        calls = seeded_checks_calls(seed)
        ops_per_pass = len(calls)
        one_pass = lambda: checks_pass(launcher, calls)  # noqa: E731
    else:
        workload = SEARCH_WORKLOADS[name]
        ops_per_pass = search_multisets(workload)
        one_pass = lambda: search_pass(launcher, workload, rng)  # noqa: E731
    setup = []
    passes = []
    started = time.monotonic()
    while True:
        setup += [setup_probe(launcher, name) for _ in range(SETUP_PROBES)]
        passes.append(one_pass())
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.monotonic() - started + typical / 2 > seconds:
            break
    setup += [setup_probe(launcher, name) for _ in range(SETUP_PROBES)]

    # An operation is one call for checks and one run for the search workloads.
    op_count = ops_per_pass if name == "checks" else 1
    failed = sum(op_count for p in passes if p["problems"])
    wall = fastest_sum_s([p.pop("units_ns") for p in passes])
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ops_per_s": (ops_per_pass / wall, "1/s"),
    }
    detail = {
        "setup_probes_s": setup,
        "passes": passes,
        "median_wall_s": statistics.median(p["wall_s"] for p in passes),
        "fastest_wall_s": min(p["wall_s"] for p in passes),
        "ops_per_pass": ops_per_pass,
        "failed_frac": failed / (op_count * len(passes)),
    }
    if name == "checks":
        detail["checks_per_s"] = ops_per_pass / wall
        detail["check_p50_ms"] = statistics.median(p["check_p50_ms"] for p in passes)
        detail["check_p99_ms"] = statistics.median(p["check_p99_ms"] for p in passes)
    else:
        detail["multisets_per_s"] = ops_per_pass / wall
    return {"metrics": metrics, "attempted": op_count * len(passes), "failed": failed}, detail


def traced(launcher: Launcher, name: str, seed: int) -> tuple[dict, dict]:
    """Untraced, span-traced and counting passes of the same in-process code path.

    Untraced and traced passes alternate for TRACE_ROUNDS rounds; the
    fastest of each kind is kept, for the reason measure() gives.
    """
    rng = random.Random(seed)
    run_id = f"{name}-{seed}-{os.getpid()}-{time.time_ns()}"
    if name == "checks":
        base = {"kind": "checks", "calls": seeded_checks_calls(seed)}
        op_count = len(base["calls"])
    else:
        workload = SEARCH_WORKLOADS[name]
        stdout_path = OUT / "search.stdout"
        base = {"kind": "search", "argv": search_argv(workload), "stdout": str(stdout_path)}
        op_count = 1

    results = {}
    problems = []
    modes = ["off", "spans"] * TRACE_ROUNDS + ["count"]
    for i, mode in enumerate(modes):
        spans_path = OUT / f"spans-{name}-{i}.json"
        job = dict(base, trace=mode, run_id=run_id, spans=str(spans_path))
        result, _ran = launcher.run_child(job, f"traced-{mode}")
        if name == "checks":
            result["problems"] = checks_problems(CHECKS_GOLDEN, result)
        else:
            result["problems"] = search_problems(workload["golden"], result["exit_code"], stdout_path, rng)
        result["spans_file"] = str(spans_path) if mode == "spans" else None
        problems.append(result["problems"])
        if mode not in results or result["wall_s"] < results[mode]["wall_s"]:
            results[mode] = result
    failed = op_count * sum(1 for p in problems if p)

    layers = results["spans"]["layers"]
    traced_wall = results["spans"]["wall_s"]

    def layer(key: str, field: str) -> float:
        return layers.get(key, {}).get(field, 0)

    metrics = {
        "infconv.oracle_s": (layer("infconv.oracle", "total_s"), "s"),
        "infconv.oracle_calls": (layer("infconv.oracle", "calls"), "count"),
        "alexpoly.poly_mul_s": (layer("alexpoly.poly_mul", "total_s"), "s"),
        "alexpoly.poly_mul_calls": (layer("alexpoly.poly_mul", "calls"), "count"),
        "alexpoly.expand_s": (layer("alexpoly.expand", "total_s"), "s"),
        "alexpoly.expand_calls": (layer("alexpoly.expand", "calls"), "count"),
        "alexpoly.from_gaps_s": (layer("alexpoly.from_gaps", "total_s"), "s"),
        "alexpoly.from_gaps_calls": (layer("alexpoly.from_gaps", "calls"), "count"),
        "gapset.gap_function_eval_calls": (
            results["count"]["counts"]["gapset.gap_function_eval"], "count"),
        "search.verify_calls": (layer("search.verify", "calls"), "count"),
        "infconv.fold_calls": (layer("infconv.fold", "calls"), "count"),
        "traced_wall_s": (traced_wall, "s"),
        "trace_overhead_frac": (traced_wall / results["off"]["wall_s"] - 1, "frac"),
    }
    self_sum = sum(row["self_s"] for row in layers.values())
    detail = {
        "run_id": run_id,
        "untraced_wall_s": results["off"]["wall_s"],
        "count_pass_wall_s": results["count"]["wall_s"],
        "spans": results["spans"]["spans"],
        "spans_file": results["spans"]["spans_file"],
        "layer_table": layers,
        "named_layers": {
            "search.verify_s": layer("search.verify", "total_s"),
            "search.scan_s": layer("search.scan", "self_s"),
            "search.construct_s": layer("search.construct", "total_s"),
            "cli.emit_s": layer("cli.main", "self_s"),
            "infconv.fold_s": layer("infconv.fold", "total_s"),
            "checkers.self_s": layer("checkers.check", "self_s"),
        },
        "accounted_frac": self_sum / traced_wall,
        "problems": dict(zip(modes, problems)),
    }
    return {"metrics": metrics, "attempted": len(modes) * op_count, "failed": failed}, detail


def machine() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gapkit" / "__init__.py").is_file():
        print(f"error: no gapkit source under {SRC}; run from a gapkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    info = machine()
    try:
        with Launcher(time.monotonic() + RUN_BUDGET_S) as launcher:
            if args.trace:
                result, detail = traced(launcher, args.workload, args.seed)
            else:
                result, detail = measure(launcher, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    info["loadavg_end"] = os.getloadavg()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": info, **detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
