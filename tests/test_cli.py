"""Command-line interface: golden outputs, exit codes, and JSON wire formats."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from gapkit import GapSet, SearchConfig, Violation, alexpoly, search_violations, verify_violation
from gapkit.cli import _cusps_json, _json_ready, _violation_json, main

from conftest import gap_sets

_mul = alexpoly._mul


def _mul_off_by_one(a, b):
    """The polynomial product with one too many at t^0."""
    product = _mul(a, b)
    product[0] += 1
    return product


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGaps:
    def test_from_generators_golden(self, capsys):
        code, out, err = run_cli(capsys, "gaps", "from-generators", "3", "4")
        assert (code, out, err) == (0, "1,2,5\n", "")

    def test_from_generators_order_invariant(self, capsys):
        assert run_cli(capsys, "gaps", "from-generators", "4", "3")[1] == "1,2,5\n"

    def test_from_generators_empty_renders_dash(self, capsys):
        assert run_cli(capsys, "gaps", "from-generators", "1")[:2] == (0, "-\n")

    def test_from_generators_json(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "from-generators", "3", "4", "--json")
        assert code == 0
        assert json.loads(out) == [1, 2, 5]

    def test_from_generators_not_coprime(self, capsys):
        code, out, err = run_cli(capsys, "gaps", "from-generators", "4", "6")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_validate_yes(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "validate", "1,2,5")
        assert (code, out) == (0, "semigroup complement: yes\n")

    def test_validate_no(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "validate", "2")
        assert (code, out) == (1, "semigroup complement: no\n")

    def test_validate_json(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "validate", "2", "--json")
        assert code == 1
        assert json.loads(out) == {"gaps": [2], "semigroup_complement": False}


class TestGapfn:
    def test_eval(self, capsys):
        assert run_cli(capsys, "gapfn", "eval", "1,3", "2")[:2] == (0, "1\n")

    def test_eval_negative_point(self, capsys):
        code, out, _ = run_cli(capsys, "gapfn", "eval", "1,3", "-2")
        assert (code, out) == (0, "4\n")

    def test_eval_json(self, capsys):
        _, out, _ = run_cli(capsys, "gapfn", "eval", "1,3", "-2", "--json")
        assert json.loads(out) == {"m": -2, "value": 4}

    def test_table_default_range(self, capsys):
        code, out, _ = run_cli(capsys, "gapfn", "table", "1,3")
        assert code == 0
        assert out == "0\t2\n1\t2\n2\t1\n3\t1\n4\t0\n"

    def test_table_negative_range_equals_form(self, capsys):
        # "--range -2..4" would read as an option; the = form is required
        code, out, _ = run_cli(capsys, "gapfn", "table", "1,3", "--range=-2..4")
        assert code == 0
        assert out == "-2\t4\n-1\t3\n0\t2\n1\t2\n2\t1\n3\t1\n4\t0\n"

    def test_table_json_default_is_step_function(self, capsys):
        _, out, _ = run_cli(capsys, "gapfn", "table", "1,3", "--json")
        assert json.loads(out) == {"genus": 2, "values": [2, 2, 1, 1, 0]}

    def test_table_json_explicit_range(self, capsys):
        _, out, _ = run_cli(capsys, "gapfn", "table", "1,3", "--range=2..5", "--json")
        assert json.loads(out) == {"start": 2, "values": [1, 1, 0, 0]}

    def test_table_empty_set(self, capsys):
        _, out, _ = run_cli(capsys, "gapfn", "table", "-", "--json")
        assert json.loads(out) == {"genus": 0, "values": [0]}

    @pytest.mark.parametrize("bad", ["4..2", "x..y", "1..", "1...3"])
    def test_malformed_range(self, capsys, bad):
        code, _, err = run_cli(capsys, "gapfn", "table", "1,3", f"--range={bad}")
        assert code == 2
        assert "error:" in err


class TestAlex:
    def test_from_gaps(self, capsys):
        code, out, _ = run_cli(capsys, "alex", "from-gaps", "1,2,5,7")
        assert (code, out) == (0, "1,-1,0,1,0,-1,1,-1,1\n")

    def test_to_gaps(self, capsys):
        code, out, _ = run_cli(capsys, "alex", "to-gaps", "1,-1,1,-1,1")
        assert (code, out) == (0, "1,3\n")

    def test_to_gaps_empty(self, capsys):
        assert run_cli(capsys, "alex", "to-gaps", "1")[:2] == (0, "-\n")

    def test_to_gaps_rejects_non_gap_polynomial(self, capsys):
        code, _, err = run_cli(capsys, "alex", "to-gaps", "1,0,1")
        assert code == 2
        assert "error:" in err

    def test_mul_golden(self, capsys):
        code, out, _ = run_cli(capsys, "alex", "mul", "1,-1,1", "1,-1,1")
        assert (code, out) == (0, "1,-2,3,-2,1\n")

    def test_mul_one_factor_prints_it_back(self, capsys):
        assert run_cli(capsys, "alex", "mul", "1,-1,1")[:2] == (0, "1,-1,1\n")

    def test_mul_three_factors(self, capsys):
        _, out, _ = run_cli(
            capsys, "alex", "mul", "1,-1,1", "1,-1,1,-1,1", "1,-1,0,1,0,-1,1,-1,1"
        )
        assert out == "1,-3,5,-5,4,-3,3,-4,7,-10,11,-9,6,-3,1\n"

    def test_json_big_integers_become_strings(self, capsys):
        from gapkit import IntPolynomial, poly_mul

        factor = "1,-1,1,-1,1"
        code, out, _ = run_cli(capsys, "alex", "mul", *([factor] * 40), "--json")
        assert code == 0
        coeffs = json.loads(out)
        expected = reduce(
            poly_mul, [IntPolynomial.from_text(factor)] * 40
        ).coefficients
        assert max(abs(c) for c in expected) > 2**53  # the string path is exercised
        assert any(isinstance(c, str) for c in coeffs)
        assert tuple(int(c) for c in coeffs) == expected


class TestExpand:
    def test_golden(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "1,-2,3,-2,1", "2")
        assert (code, out) == (0, "2,0,1\n")

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "expand", "1,-2,3,-2,1", "2", "--json")
        assert json.loads(out) == {"genus": 2, "ks": [2, 0, 1]}

    def test_wrong_genus(self, capsys):
        code, _, err = run_cli(capsys, "expand", "1,-1,1", "2")
        assert code == 2
        assert "error:" in err

    def test_negative_genus(self, capsys):
        assert run_cli(capsys, "expand", "1", "-1")[0] == 2


class TestInfconv:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "infconv", "1;1,3")
        assert code == 0
        assert out == "0\t3\n1\t3\n2\t2\n3\t2\n4\t1\n5\t1\n6\t0\n"

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "infconv", "1;1,3;1,2,5,7", "--json")
        assert json.loads(out) == {
            "genus": 7,
            "values": [7, 7, 6, 5, 5, 4, 4, 3, 3, 2, 2, 2, 1, 1, 0],
        }

    def test_range_with_negative_points(self, capsys):
        _, out, _ = run_cli(capsys, "infconv", "1;1,3", "--range=-2..1", "--json")
        assert json.loads(out) == {"start": -2, "values": [5, 4, 3, 3]}

    def test_strict_rejects_non_semigroup_gaps(self, capsys):
        code, _, err = run_cli(capsys, "infconv", "2", "--strict")
        assert code == 2
        assert "not the gap set" in err

    def test_strict_accepts_semigroup_gaps(self, capsys):
        assert run_cli(capsys, "infconv", "1,2,5", "--strict")[0] == 0


class TestCheck:
    def test_bl_pass_golden(self, capsys):
        code, out, err = run_cli(capsys, "check", "bl", "--degree", "4", "--cusps", "1;1;1")
        assert code == 0
        assert err == ""
        assert out == "bl: pass\nj=-1: 6 == 6\nj=0: 3 == 3\nj=1: 1 == 1\nj=2: 0 == 0\n"

    def test_bl_fail(self, capsys):
        code, out, _ = run_cli(capsys, "check", "bl", "--degree", "4", "--cusps", "1,2;1")
        assert code == 1
        assert out.startswith("bl: fail\n")
        assert "j=1: 0 == 1  [violated]\n" in out
        assert 'witness: {"j": 1}' in out

    def test_flmn_genus_mismatch_golden(self, capsys):
        code, out, err = run_cli(capsys, "check", "flmn", "--degree", "4", "--cusps", "1")
        assert code == 2
        assert out == ""
        assert err == "error: total cusp genus 1 != required (d-1)(d-2)/2 = 3\n"

    def test_flmn_single_cusp_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check", "flmn", "--degree", "3", "--cusps", "1")
        assert code == 0
        assert 'witness: {"single_cusp_equality": true}' in out

    def test_pair(self, capsys):
        code, out, _ = run_cli(capsys, "check", "pair", "--cusps", "1;1,3")
        assert code == 0
        assert out.startswith("pair: pass\n")

    def test_pair_wrong_count(self, capsys):
        code, _, err = run_cli(capsys, "check", "pair", "--cusps", "1;1;1")
        assert code == 2
        assert "exactly two" in err

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "bl", "--degree", "4", "--cusps", "1;1;1", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["check"] == "bl"
        assert doc["verdict"] == "pass"
        assert doc["rows"][0] == {"j": -1, "lhs": 6, "rhs": 6, "relation": "==", "equal": True}
        assert doc["witness"] is None

    def test_json_and_text_agree(self, capsys):
        _, text_out, _ = run_cli(capsys, "check", "bl", "--degree", "3", "--cusps", "1")
        _, json_out, _ = run_cli(capsys, "check", "bl", "--degree", "3", "--cusps", "1", "--json")
        doc = json.loads(json_out)
        lines = text_out.splitlines()
        assert lines[0] == f"{doc['check']}: {doc['verdict']}"
        assert len(lines) == 1 + len(doc["rows"])  # no witness printed when null


class TestSearch:
    POOL = "1;1,3;1,2,5,7"

    def test_pool_json_stream(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "3", "--pool", self.POOL, "--json")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 32
        docs = [json.loads(line) for line in lines]
        assert docs[0] == {"cusps": [[1], [1], [1]], "j": 2, "k": 3, "bound": 2}
        assert {"cusps": [[1], [1, 3], [1, 2, 5, 7]], "j": 2, "k": 6, "bound": 5} in docs
        for doc in docs:
            assert verify_violation(Violation.from_json_dict(doc))

    def test_json_lines_read_back_as_the_violations_searched(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "30", "--pool", "1,3", "--json")
        assert code == 1
        docs = [json.loads(line) for line in out.splitlines()]
        # k beyond 2^53 is written as its decimal string
        assert len(docs) == 58 and sum(isinstance(doc["k"], str) for doc in docs) == 28
        read = [Violation.from_json_dict(doc) for doc in docs]
        assert read == list(search_violations(SearchConfig(n=30, pool=(GapSet((1, 3)),))))
        assert all(map(verify_violation, read))
        for k in ("7", "x"):
            with pytest.raises(ValueError, match="must be integers"):
                Violation.from_json_dict({**docs[0], "k": k})

    def test_pool_text_stream(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "3", "--pool", self.POOL)
        assert code == 1
        assert out.splitlines()[0] == "1;1;1 j=2 k=3 bound=2"
        assert "1;1,3;1,2,5,7 j=2 k=6 bound=5" in out.splitlines()

    def test_pool_out_of_order_prints_cusps_in_genus_lex_order(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "3", "--pool", UNORDERED_POOL, "--json")
        assert code == 1
        lines = [json.loads(line)["cusps"] for line in out.splitlines()]
        assert lines
        for cusps in lines:
            assert cusps == sorted(cusps, key=lambda c: (len(c), c))

    def test_no_hits_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "2", "--max-gap", "4")
        assert (code, out) == (0, "")

    def test_require_bl(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--n", "3", "--pool", "1;1,3", "--require-bl", "4"
        )
        assert code == 1
        assert out == "1;1;1 j=2 k=3 bound=2\n"

    def test_workers_match_single_process(self, capsys):
        _, reference, _ = run_cli(capsys, "search", "--n", "3", "--pool", self.POOL, "--json")
        _, parallel, _ = run_cli(
            capsys, "search", "--n", "3", "--pool", self.POOL, "--json", "--workers", "2"
        )
        assert parallel == reference

    def test_checkpoint_replay_matches(self, capsys, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        args = ("search", "--n", "3", "--pool", self.POOL, "--json", "--checkpoint", path)
        code1, first_run, _ = run_cli(capsys, *args)
        code2, second_run, _ = run_cli(capsys, *args)
        assert code1 == code2 == 1
        assert second_run == first_run

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_replayed_units_are_reverified(self, capsys, tmp_path, workers):
        path = tmp_path / "ck.jsonl"
        args = ("search", "--n", "3", "--pool", self.POOL, "--json", "--checkpoint", str(path))
        assert run_cli(capsys, *args)[0] == 1
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        assert record == {"hits": 15, "unit": 0}
        # still a well-formed record, but not the count a rescan of unit 0 gives
        record["hits"] = 14
        lines[1] = (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()
        data = b"".join(lines)
        path.write_bytes(data)
        code, out, err = run_cli(capsys, *args, "--workers", workers)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("internal error: ")
        assert path.read_bytes() == data

    def test_checkpoint_damaged_before_last_line_exits_two(self, capsys, tmp_path):
        path = tmp_path / "ck.jsonl"
        args = ("search", "--n", "2", "--pool", "1;1,3;1,2,5,7;2", "--checkpoint", str(path))
        assert run_cli(capsys, *args)[0] == 0
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 5
        lines[1] = b"garbled}\n"
        data = b"".join(lines)
        path.write_bytes(data)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert "malformed record" in err
        assert path.read_bytes() == data

    @pytest.mark.parametrize(
        "name, errno",
        [("missing/ck.jsonl", 2), (".", 21)],
        ids=["missing-directory", "a-directory"],
    )
    def test_checkpoint_that_cannot_be_opened_exits_two(self, capsys, tmp_path, name, errno):
        path = tmp_path / name
        args = ("search", "--n", "3", "--pool", self.POOL, "--checkpoint", str(path))
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: [Errno {errno}] ")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--n", "0", "--max-gap", "3"),
            ("search", "--n", "2"),
            ("search", "--n", "2", "--max-gap", "3", "--pool", "1"),
            ("search", "--n", "2", "--max-gap", "3", "--shard", "3/2"),
            ("search", "--n", "2", "--max-gap", "3", "--shard", "a/b"),
            ("search", "--n", "2", "--max-gap", "3", "--workers", "0"),
            ("search", "--n", "2", "--max-gap", "3", "--require-bl", "2"),
            ("search", "--n", "3", "--pool", "1;1,3;1,2,5,7;1"),
        ],
    )
    def test_invalid_configurations(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error:" in err


# an explicit pool in neither genus nor lex order, so most multisets' paths are out of order
UNORDERED_POOL = "1,2,5,7;1;1,3;2;3,5"


class TestSearchStreamBytes:
    """Whole search streams pinned by the sha256 of their stdout bytes."""

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                ("--n", "3", "--max-gap", "5", "--json"),
                "5901f923568853f33419e021db1ff4d82066bc591925bba8979c3213b9aed355",
            ),
            (
                ("--n", "3", "--max-gap", "6", "--json"),
                "954bf990bf9edfeb06ca46366028a441cb12c6e0b2df38827ad0daeeee1f227d",
            ),
            (
                ("--n", "3", "--max-gap", "4"),
                "05da7f056e7bb578c02826fa3fa992f954db2f472656d9941d92934411ffb4e5",
            ),
            (
                # 2,393 lines, some at j past the max-gap sum of their multiset
                ("--n", "5", "--max-gap", "3", "--json"),
                "ec5a1c29a449618d4adf05aa2edc581e9aca20b435cf6971a5e32f7ab6974cbf",
            ),
            (
                # the first stream again, each unit scanned and verified in a worker
                ("--n", "3", "--max-gap", "5", "--json", "--workers", "2"),
                "5901f923568853f33419e021db1ff4d82066bc591925bba8979c3213b9aed355",
            ),
            (
                ("--n", "3", "--pool", UNORDERED_POOL, "--json"),
                "a4732331c300359b7f487688fb85026d1b2e704e4efb5405030fc5bdc0a8da3d",
            ),
            (
                ("--n", "3", "--pool", UNORDERED_POOL),
                "0295a6300e8704ea2e7169cc3585392871783b24a510d8410978553ffe714b07",
            ),
            (
                # 726 lines from the multisets that pass the degree-5 bl identity
                ("--n", "3", "--require-bl", "5", "--max-gap", "6", "--json"),
                "cdb500707a6a593d7d65f99d98895250744cfbadec2cfc7d10bf6575edaf258d",
            ),
            (
                # the paper's configuration: 17 lines, the same that max gap 11 gives
                ("--n", "3", "--semigroup-only", "--require-bl", "5", "--max-gap", "9", "--json"),
                "413559af08e919f28f1045e791cfa1a7d88864f5d075c4004fe1d8fe79f0aada",
            ),
            (
                # 58 lines: 28 with k beyond 2^53, printed as strings, and 4 with
                # k in [10^15, 2^53], printed as ints
                ("--n", "30", "--pool", "1,3", "--json"),
                "1e741aeddd5a2c2f329ad3726e948b4f71c7b735191daef1014a97356ef07aeb",
            ),
            (
                ("--n", "30", "--pool", "1,3"),
                "f3e3689dd52d0492966f4009ece7b33955659cc82c84b82e12ceffad582f0d9b",
            ),
        ],
    )
    def test_stdout_digest(self, flags, digest):
        proc = subprocess.run(
            [sys.executable, "-m", "gapkit.cli", "search", *flags],
            capture_output=True,
        )
        assert (proc.returncode, proc.stderr) == (1, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


class TestSearchResumes:
    """A checkpointed run, then its serial and two-worker resumes, each print the pinned stream."""

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                # the resume skips 1 of 64 units
                ("--n", "3", "--max-gap", "6", "--json"),
                "954bf990bf9edfeb06ca46366028a441cb12c6e0b2df38827ad0daeeee1f227d",
            ),
            (
                # hits in 11 of 64 units, so the resume skips 53
                ("--n", "3", "--require-bl", "5", "--max-gap", "6", "--json"),
                "cdb500707a6a593d7d65f99d98895250744cfbadec2cfc7d10bf6575edaf258d",
            ),
        ],
        ids=["max-gap-6", "require-bl-5"],
    )
    def test_resumes_give_the_pinned_stream(self, tmp_path, flags, digest):
        path = tmp_path / "ck.jsonl"
        argv = [sys.executable, "-m", "gapkit.cli", "search", *flags, "--checkpoint", str(path)]
        runs = {"first": [], "serial": [], "workers": ["--workers", "2"]}
        for run, extra in runs.items():
            proc = subprocess.run(argv + extra, capture_output=True)
            assert (proc.returncode, proc.stderr) == (1, b""), run
            assert hashlib.sha256(proc.stdout).hexdigest() == digest, run
        # a record holds a unit's hit count, not its hits
        assert path.stat().st_size <= 4096


# Integers on both sides of 2^53, with exactly 15, 16 and 17 digits among them.
EDGE_INTS = st.sampled_from(
    [2**53 - 1, 2**53, 2**53 + 1, 10**15 - 1, 10**15, 10**16 - 1, 10**16, 10**17]
).flatmap(lambda v: st.sampled_from([v, -v]))
WIDE_INTS = st.one_of(st.integers(-1000, 1000), st.integers(-(2**70), 2**70), EDGE_INTS)


@st.composite
def violations(draw):
    # gap elements stay small: a GapSet keeps a bitmask as wide as its largest element
    cusps = draw(st.lists(gap_sets(max_element=12, max_size=4), min_size=1, max_size=4))
    j, a, b = draw(WIDE_INTS), draw(WIDE_INTS), draw(WIDE_INTS)
    return Violation(tuple(cusps), j, max(a, b) + (a == b), min(a, b))


class TestEncoders:
    """The search line encoder prints exactly json.dumps of the _json_ready form."""

    @given(violations())
    def test_search_line_is_the_json_of_the_violation(self, violation):
        reference = json.dumps(_json_ready(violation.to_json_dict()))
        assert _violation_json(violation, _cusps_json(violation.cusps, {})) == reference


class TestSearchFullGolden:
    """The exhaustive n=3, max-gap-8 scan: 3 to 7.5 minutes on 2 cores, ~4.4M output lines."""

    DISTINGUISHED = {"cusps": [[1], [1, 3], [1, 2, 5, 7]], "j": 2, "k": 6, "bound": 5}
    FIRST = {"cusps": [[1], [1], [1]], "j": 2, "k": 3, "bound": 2}
    LAST = {
        "cusps": [[1, 2, 3, 4, 5, 6, 7, 8]] * 3,
        "j": 9,
        "k": 17,
        "bound": 16,
    }
    TOTAL = 4373263
    SHA256 = "900e9891e368ce51b8705adecd51539f6e0e4904acdf3894382165814280d45a"

    def test_full_stream(self):
        import jsonschema

        schema = {
            "type": "object",
            "required": ["cusps", "j", "k", "bound"],
            "additionalProperties": False,
            "properties": {
                "cusps": {
                    "type": "array",
                    "minItems": 3,
                    "maxItems": 3,
                    "items": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                },
                "j": {"type": "integer", "minimum": 1},
                "k": {"type": "integer"},
                "bound": {"type": "integer"},
            },
        }
        # Run the module with this interpreter, not an installed script, so the
        # stream comes from the same gapkit that verify_violation is imported from.
        proc = subprocess.Popen(
            [sys.executable, "-m", "gapkit.cli", "search", "--n", "3", "--max-gap", "8", "--json"],
            stdout=subprocess.PIPE,
        )
        digest = hashlib.sha256()
        count = 0
        first = last = None
        saw_distinguished = False
        try:
            for line in proc.stdout:
                digest.update(line)
                doc = json.loads(line)
                if count == 0:
                    first = doc
                last = doc
                if doc == self.DISTINGUISHED:
                    saw_distinguished = True
                if count % 100000 == 0:
                    jsonschema.validate(doc, schema)
                    assert verify_violation(Violation.from_json_dict(doc))
                count += 1
        finally:
            proc.stdout.close()
            returncode = proc.wait()
        assert returncode == 1
        assert count == self.TOTAL
        assert first == self.FIRST
        assert last == self.LAST
        assert saw_distinguished
        assert digest.hexdigest() == self.SHA256


class TestTopLevel:
    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2

    def test_missing_arguments(self, capsys):
        assert main(["gaps", "from-generators"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gapkit" in capsys.readouterr().out

    @pytest.mark.skipif(
        shutil.which("gapkit") is None,
        reason="no installed gapkit console script on PATH (pip install -e . provides one)",
    )
    def test_installed_script(self):
        exe = shutil.which("gapkit")
        assert exe is not None
        proc = subprocess.run(
            [exe, "gaps", "from-generators", "3", "4"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout == "1,2,5\n"

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        def disagree(*args):
            raise RuntimeError("internal: window minimum 4 != table value 5 at j=2")

        monkeypatch.setattr("gapkit.cli.check_pair_inequality", disagree)
        code, out, err = run_cli(capsys, "check", "pair", "--cusps", "1;1,3")
        assert code == 3
        assert out == ""
        assert err == "internal error: internal: window minimum 4 != table value 5 at j=2\n"

    def test_out_of_memory_exits_three(self, capsys, monkeypatch):
        # exit 1 would read as "not a semigroup complement"
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("gapkit.cli.is_semigroup_complement", exhausted)
        code, out, err = run_cli(capsys, "gaps", "validate", "1,2")
        assert (code, out, err) == (3, "", "internal error: out of memory\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("gaps", "validate", "1000000000000000"),
            # no GapSet holds a gap near 2^53, so every search line prints its gaps as ints
            ("search", "--n", "1", "--pool", "1000000000000000", "--json"),
        ],
        ids=["gaps-validate", "search"],
    )
    def test_real_allocation_failure_exits_three(self, argv):
        # a 10^15-bit gap mask cannot be allocated under a 10^9-byte address-space cap
        resource = pytest.importorskip("resource")
        limit = 10**9

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "gapkit.cli", *argv],
            capture_output=True,
            preexec_fn=cap_address_space,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"", b"internal error: out of memory\n")

    def test_broken_worker_pool_exits_three(self, capsys, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def crash(*args, **kwargs):
            raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr("gapkit.cli.search_violations", crash)
        code, _, err = run_cli(capsys, "search", "--n", "2", "--max-gap", "3", "--workers", "2")
        assert code == 3
        assert err.startswith("internal error: ")

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="workers must inherit the patch"
    )
    def test_dead_worker_exits_three(self, capsys, monkeypatch):
        # every worker inherits the patched scan and dies in its first unit
        monkeypatch.setattr("gapkit.search._scan_unit", lambda *args: os._exit(1))
        code, out, err = run_cli(capsys, "search", "--n", "2", "--max-gap", "3", "--workers", "2")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: ")

    @pytest.mark.parametrize(
        "target, exc, argv",
        [
            ("gapkit.search._scan_unit", IndexError, ("search", "--n", "2", "--max-gap", "3")),
            ("gapkit.search._scan_unit", IndexError, ("search", "--n", "2", "--max-gap", "3", "--workers", "2")),
            ("gapkit.checkers._checked", TypeError, ("check", "bl", "--degree", "4", "--cusps", "1;1;1")),
            ("gapkit.alexpoly._div_t1", IndexError, ("expand", "1,-2,3,-2,1", "2")),
        ],
        ids=["search", "search-workers", "check-bl", "expand"],
    )
    def test_unexpected_exception_exits_three(self, capsys, monkeypatch, target, exc, argv):
        # exit 1 would read as a checked negative, and a traceback is no report
        if "--workers" in argv and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers must inherit the patch")

        def fault(*args):
            raise exc("a planted fault")

        monkeypatch.setattr(target, fault)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", "internal error: a planted fault\n")

    @pytest.mark.parametrize(
        "target, fault, argv, message",
        [
            (
                "gapkit.infconv._pair_table_unit",
                lambda va, vb: [1, 2, 0],
                ("infconv", "1;1,3"),
                "each step must fall by 0 or 1, not at index 0",
            ),
            (
                "gapkit.search._scan_unit",
                lambda layout, first, require_bl: [((first,), 2, 2, 2)],
                ("search", "--n", "1", "--pool", "1"),
                "not a violation: k = 2 <= bound = 2",
            ),
            (
                "gapkit.alexpoly._mul",
                _mul_off_by_one,
                ("check", "flmn", "--degree", "4", "--cusps", "1;1;1"),
                "P(1) = 3 != 1",
            ),
        ],
        ids=["climbing-fold-table", "scan-hit-with-k-at-bound", "product-off-by-one"],
    )
    def test_computed_value_breaking_an_input_rule_exits_three(self, capsys, monkeypatch, target, fault, argv, message):
        # the rule is an input rule, but the value is gapkit's own, so exit 2 would blame the input
        monkeypatch.setattr(target, fault)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", f"internal error: internal: {message}\n")

    def test_closed_stdout_exits_quietly(self):
        # 5,915 lines, far more than a pipe holds, so the child is still writing
        argv = [sys.executable, "-m", "gapkit.cli", "search", "--n", "3", "--max-gap", "5", "--json"]
        for workers in ([], ["--workers", "2"]):
            with subprocess.Popen(argv + workers, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
                assert proc.stdout.readline().startswith(b'{"cusps"')
                proc.stdout.close()
                err = proc.stderr.read()
                assert proc.wait(timeout=60) == 141, workers
            assert err == b"", workers

    def test_resumed_workers_exit_quietly(self, tmp_path):
        # a completed checkpoint resumed by two workers, 15 times: a pool still
        # shutting down at exit writes a traceback to stderr in only some runs
        argv = [sys.executable, "-m", "gapkit.cli", "search", "--n", "3", "--max-gap", "5", "--json"]
        argv += ["--checkpoint", str(tmp_path / "ck.jsonl")]
        first = subprocess.run(argv, capture_output=True, timeout=60)
        assert (first.returncode, first.stderr) == (1, b"")
        resume = argv + ["--workers", "2"]
        runs = [subprocess.run(resume, capture_output=True, timeout=60) for _ in range(15)]
        failed = [r for r in runs if (r.returncode, r.stderr, r.stdout) != (1, b"", first.stdout)]
        assert not failed, f"{len(failed)} of 15 runs: {failed[0].stderr.decode()}"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gapkit.cli", "expand", "1,-2,3,-2,1", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2,0,1\n"
