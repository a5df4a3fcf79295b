"""Multiset enumeration and the violation search, with sharding and checkpoints."""

from __future__ import annotations

import gc
import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from gapkit import (
    ConfigInvalid,
    CurveSpec,
    GapSet,
    GenusMismatch,
    SearchConfig,
    Violation,
    alexander_from_gaps,
    check_bl,
    enumerate_gap_sets,
    expand_k_sequence,
    inf_conv_n,
    poly_mul,
    search_violations,
    verify_violation,
)
from gapkit import search

from conftest import gap_sets

A = GapSet((1,))
B = GapSet((1, 3))
C = GapSet((1, 2, 5, 7))

TRIPLE_POOL = (A, B, C)
# unit 0 starts at the empty set, so its multisets are pairs in effect and have no hits;
# units 1-3 have 15, 12 and 5
SPARSE_CONFIG = SearchConfig(n=3, pool=(GapSet(()), A, B, C))


def violation_key(v):
    return (tuple(g.elements for g in v.cusps), v.j)


def run(config, **kwargs):
    return list(search_violations(config, **kwargs))


class TestEnumerateGapSets:
    def test_power_set_of_two(self):
        got = [g.elements for g in enumerate_gap_sets(2)]
        assert got == [(), (1,), (2,), (1, 2)]

    def test_semigroup_filter(self):
        got = [g.elements for g in enumerate_gap_sets(3, semigroup_only=True)]
        assert got == [(), (1,), (1, 2), (1, 3), (1, 2, 3)]

    def test_genus_bound_one_gives_singletons(self):
        got = [g.elements for g in enumerate_gap_sets(8, genus_bound=1)]
        assert got == [(m,) for m in range(1, 9)]

    def test_genus_bound_excludes_empty_set(self):
        got = list(enumerate_gap_sets(3, genus_bound=3))
        assert GapSet(()) not in got
        assert len(got) == 7

    def test_canonical_order(self):
        got = list(enumerate_gap_sets(4))
        assert len(got) == 16
        keys = [(g.genus, g.elements) for g in got]
        assert keys == sorted(keys)

    def test_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_gap_sets(0))
        with pytest.raises(ValueError):
            list(enumerate_gap_sets(3, genus_bound=0))

    def test_bool_genus_bound_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_gap_sets(3, genus_bound=True))

    @pytest.mark.parametrize(
        "args, kwargs",
        [((0,), {}), ((3,), {"genus_bound": 0}), ((3,), {"genus_bound": True})],
        ids=["max-gap-0", "genus-0", "genus-bool"],
    )
    def test_bad_bounds_raise_at_the_call(self, args, kwargs):
        # not at the first item: the call alone raises, with SearchConfig's message
        with pytest.raises(ConfigInvalid, match="must be a positive integer"):
            enumerate_gap_sets(*args, **kwargs)


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig(n=2, max_gap_bound=5)
        assert config.shard == (0, 1)
        assert config.pool is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "max_gap_bound": 5},
            {"n": 2},
            {"n": 2, "max_gap_bound": 0},
            {"n": 2, "max_gap_bound": 5, "pool": (A,)},
            {"n": 2, "semigroup_only": True, "pool": (A,)},
            {"n": 2, "pool": ()},
            {"n": 2, "pool": ((1,),)},
            {"n": 2, "max_gap_bound": 5, "genus_bound": 0},
            {"n": 2, "max_gap_bound": 5, "require_bl": 2},
            {"n": 2, "max_gap_bound": 5, "shard": (1, 1)},
            {"n": 2, "max_gap_bound": 5, "shard": (0, 0)},
            {"n": 2, "max_gap_bound": True},
            {"n": 2, "max_gap_bound": 5, "genus_bound": True},
            {"n": 2, "max_gap_bound": 5, "require_bl": True},
            {"n": 2, "pool": (A, A)},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigInvalid):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize("value", ["no", 1])
    def test_semigroup_only_must_be_a_bool(self, value):
        # a truthy non-bool used to turn the filter on, and 1 wrote a header a True run refuses
        with pytest.raises(ConfigInvalid, match=f"semigroup_only must be a bool, got {value!r}"):
            SearchConfig(n=3, max_gap_bound=5, semigroup_only=value)


class TestViolation:
    def test_cusps_sorted_canonically(self):
        v = Violation((C, A, B), 2, 6, 5)
        assert v.cusps == (A, B, C)

    def test_non_violation_rejected(self):
        with pytest.raises(ValueError):
            Violation((A,), 1, 2, 2)
        with pytest.raises(ValueError):
            Violation((), 1, 3, 2)
        with pytest.raises(ValueError, match="GapSet"):
            Violation(("x",), 1, 3, 2)

    @pytest.mark.parametrize(
        "j, k, bound", [(2, 3.0, 2), (True, 3, 2), (2, 3, 2.0), (2, "3", 2), (2, 3, None)]
    )
    def test_non_integer_fields_rejected(self, j, k, bound):
        with pytest.raises(ValueError, match="must be integers"):
            Violation((A, A, A), j, k, bound)

    def test_json_round_trip(self):
        v = Violation((A, B, C), 2, 6, 5)
        d = v.to_json_dict()
        assert d == {"cusps": [[1], [1, 3], [1, 2, 5, 7]], "j": 2, "k": 6, "bound": 5}
        assert Violation.from_json_dict(json.loads(json.dumps(d))) == v


class TestSearchViolations:
    def test_single_set_identity_means_no_hits(self):
        assert run(SearchConfig(n=1, max_gap_bound=6)) == []

    def test_pairs_have_no_hits(self):
        assert run(SearchConfig(n=2, max_gap_bound=5)) == []

    def test_triple_pool_stream(self):
        found = run(SearchConfig(n=3, pool=TRIPLE_POOL))
        assert len(found) == 32
        assert found[0] == Violation((A, A, A), 2, 3, 2)
        distinguished = [(v.j, v.k, v.bound) for v in found if v.cusps == (A, B, C)]
        assert distinguished == [(2, 6, 5), (8, 4, 2), (10, 3, 2)]

    def test_hits_past_the_max_gap_sum(self):
        # five cusps <2,3>: k_6 = 8 > I(7) = 2, past the max-gap sum 5
        found = run(SearchConfig(n=5, pool=(A,)))
        assert [(v.j, v.k, v.bound) for v in found] == [(2, 10, 4), (4, 15, 3), (6, 8, 2)]

    def test_index_zero_never_emitted(self):
        assert all(v.j >= 1 for v in run(SearchConfig(n=3, pool=TRIPLE_POOL)))

    def test_emitted_violations_verify(self):
        for v in run(SearchConfig(n=3, pool=TRIPLE_POOL)):
            assert verify_violation(v)

    def test_tampered_violation_fails_verification(self):
        v = Violation((A, B, C), 3, 6, 5)  # genuine index is 2
        assert not verify_violation(v)

    def test_deterministic(self):
        config = SearchConfig(n=3, max_gap_bound=3)
        assert run(config) == run(config)

    def test_failed_reverification_raises(self, monkeypatch):
        monkeypatch.setattr("gapkit.search.verify_violation", lambda v: False)
        with pytest.raises(RuntimeError, match="re-verification"):
            run(SearchConfig(n=3, pool=TRIPLE_POOL))

    def test_scan_hit_that_is_no_violation_is_an_internal_error(self, monkeypatch):
        # the same values from a caller are an input error
        with pytest.raises(ValueError, match="not a violation"):
            Violation((A,), 2, 2, 2)
        monkeypatch.setattr("gapkit.search._scan_unit", lambda layout, first, require_bl: [((first,), 2, 2, 2)])
        with pytest.raises(RuntimeError, match="^internal: not a violation: k = 2 <= bound = 2$"):
            run(SearchConfig(n=1, pool=(A,)))

    @pytest.mark.parametrize(
        "pool", [TRIPLE_POOL, (C, A, B, GapSet((2,)), GapSet((3, 5)))], ids=["genus-lex", "unordered"]
    )
    def test_unit_hits_list_cusps_in_genus_lex_order(self, pool):
        layout = search._prep_pool(pool, 3)
        hits = 0
        for unit in range(len(pool)):
            for v in search._unit_violations(pool, layout, None, unit):
                hits += 1
                assert [g.elements for g in v.cusps] == sorted(
                    (g.elements for g in v.cusps), key=lambda e: (len(e), e)
                )
        assert hits

    def test_shards_partition_the_stream(self):
        reference = run(SearchConfig(n=3, max_gap_bound=3))
        pieces = []
        for index in range(3):
            pieces += run(SearchConfig(n=3, max_gap_bound=3, shard=(index, 3)))
        assert sorted(pieces, key=violation_key) == sorted(reference, key=violation_key)
        assert reference  # the partition test is not vacuous

    def test_shard_beyond_pool_is_empty(self):
        assert run(SearchConfig(n=3, pool=(A,), shard=(1, 2))) == []

    def test_require_bl_keeps_only_matching_multisets(self):
        unfiltered = run(SearchConfig(n=3, pool=(A, B)))
        filtered = run(SearchConfig(n=3, pool=(A, B), require_bl=4))
        assert filtered == [Violation((A, A, A), 2, 3, 2)]
        assert len(unfiltered) > len(filtered)

    def test_workers_do_not_change_output(self):
        config = SearchConfig(n=3, pool=TRIPLE_POOL)
        assert run(config, workers=2) == run(config)

    @pytest.mark.parametrize(
        "pool, started", [((A,), []), (TRIPLE_POOL, [3])], ids=["one-unit", "three-units"]
    )
    def test_no_more_processes_than_units(self, monkeypatch, pool, started):
        # the spy runs the units on threads, so the test starts no process
        sizes = []

        def spy(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", spy)
        config = SearchConfig(n=3, pool=pool)
        assert run(config, workers=4) == run(config)
        assert sizes == started

    @pytest.mark.parametrize("workers", [0, True])
    def test_invalid_workers_rejected_before_checkpoint_opens(self, tmp_path, workers):
        path = tmp_path / "ck.jsonl"
        with pytest.raises(ConfigInvalid, match="workers"):
            run(SearchConfig(n=3, pool=TRIPLE_POOL), checkpoint_path=str(path), workers=workers)
        assert not path.exists()

    def test_invalid_workers_raise_at_the_call(self):
        with pytest.raises(ConfigInvalid, match="workers must be at least 1, got 0"):
            search_violations(SearchConfig(n=2, max_gap_bound=2), workers=0)

    def test_failed_layout_leaves_no_open_checkpoint(self, tmp_path, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("gapkit.search._prep_pool", exhausted)
        path = tmp_path / "ck.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(MemoryError):
                run(SearchConfig(n=2, max_gap_bound=3), checkpoint_path=str(path))
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert not path.exists()


def hit_tuples(found):
    """Violations in brute_force's shape."""
    return [(tuple(g.elements for g in v.cusps), v.j, v.k, v.bound) for v in found]


def brute_force(pool, n, require_bl=None):
    """Every hit of every multiset, one multiset at a time, through the public operations."""
    found = []
    for idx in combinations_with_replacement(range(len(pool)), n):
        cusps = tuple(pool[i] for i in idx)
        genus = sum(g.genus for g in cusps)
        conv = inf_conv_n(cusps)
        if require_bl is not None:
            d = require_bl
            if genus != (d - 1) * (d - 2) // 2 or any(
                conv(j * d + 1) != (j - d + 1) * (j - d + 2) // 2 for j in range(-1, d - 1)
            ):
                continue
        ks = expand_k_sequence(reduce(poly_mul, map(alexander_from_gaps, cusps)), genus)
        for j in range(1, len(ks.ks)):
            if ks.at(j) > conv(j + 1):
                found.append((tuple(g.elements for g in cusps), j, ks.at(j), conv(j + 1)))
    return found


class TestScanAgainstBruteForce:
    """The search's depth-first scan against a plain per-multiset evaluation."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(gap_sets(max_element=12, max_size=7), min_size=1, max_size=6, unique=True)
    )
    def test_random_pools(self, n, pool):
        pool = tuple(sorted(pool, key=lambda g: (g.genus, g.elements)))
        assert hit_tuples(run(SearchConfig(n=n, pool=pool))) == brute_force(pool, n)

    def test_require_bl(self, monkeypatch):
        pool = tuple(enumerate_gap_sets(4))
        verdicts = []
        real_bl_holds = search._bl_holds

        def recording(*args):
            verdicts.append(real_bl_holds(*args))
            return verdicts[-1]

        monkeypatch.setattr("gapkit.search._bl_holds", recording)
        multisets = list(combinations_with_replacement(pool, 3))
        # degree: (multisets passing, multisets at the bl genus).  The genus
        # sums run 0..12, so bl genus 1 and 10 sit near both ends; the 16
        # triples of genus 10 pass row j = -1 at degree 6 and fail a later row.
        expected = {3: (3, 4), 4: (26, 48), 5: (93, 178), 6: (0, 16)}
        for degree, (passing, at_genus) in expected.items():
            verdicts.clear()
            found = run(SearchConfig(n=3, pool=pool, require_bl=degree))
            assert hit_tuples(found) == brute_force(pool, 3, require_bl=degree)
            assert all(check_bl(CurveSpec(degree, v.cusps)).passed for v in found)
            failing = sum(not passes_bl(degree, cusps) for cusps in multisets)
            assert len(verdicts) == len(multisets)
            assert verdicts.count(False) == failing == len(multisets) - passing
            genus = (degree - 1) * (degree - 2) // 2
            assert sum(sum(g.genus for g in cusps) == genus for cusps in multisets) == at_genus

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "pool",
        [(GapSet(()),), (GapSet(()), A, B, GapSet((2, 3)))],
        ids=["empty-set-only", "empty-set-among-others"],
    )
    def test_pools_with_the_empty_set(self, pool, n):
        assert hit_tuples(run(SearchConfig(n=n, pool=pool))) == brute_force(pool, n)

    def test_slots_wider_than_a_byte(self):
        pool = (GapSet(()), A, GapSet((1, 2, 4)), GapSet((1, 2, 3, 6)))
        assert search._slot_bits(pool, 4) > 8
        got = hit_tuples(run(SearchConfig(n=4, pool=pool)))
        assert got
        assert got == brute_force(pool, 4)

    def test_slot_one_bit_too_narrow_raises(self, monkeypatch):
        # n = 2, genus 8: the bound gives 3*8 + 1 = 25, so 6-bit slots; k_0's
        # positive side is U_0 = 2*8 = 16, the top bit of a 5-bit slot
        pool = (GapSet(tuple(range(1, 9))),)
        real_slot_bits = search._slot_bits
        assert real_slot_bits(pool, 2) == 6
        assert search._scan_unit(search._prep_pool(pool, 2), 0, None) == []
        monkeypatch.setattr("gapkit.search._slot_bits", lambda p, n: real_slot_bits(p, n) - 1)
        with pytest.raises(RuntimeError, match="top bit"):
            search._scan_unit(search._prep_pool(pool, 2), 0, None)

    def test_k0_mismatch_raises(self):
        # T of the second set off by one at slot 1: U moves k_0 but not the table.
        # The same error in the first set would move t and the table together.
        layout = search._prep_pool((A, B), 3)
        s, t, row0, rows = layout.sets[1]
        bad = layout._replace(sets=(layout.sets[0], (s, t + (1 << layout.bits), row0, rows)))
        with pytest.raises(RuntimeError, match="k_0 does not equal the convolution at 1"):
            search._scan_unit(bad, 0, None)


def passes_bl(degree, cusps):
    try:
        return check_bl(CurveSpec(degree, cusps)).passed
    except GenusMismatch:
        return False


@pytest.fixture
def scanned(monkeypatch):
    """The first pool index of every unit scanned from here on, in order."""
    firsts = []
    scan_unit = search._scan_unit

    def spy(layout, first, require_bl):
        firsts.append(first)
        return scan_unit(layout, first, require_bl)

    monkeypatch.setattr("gapkit.search._scan_unit", spy)
    return firsts


class TestCheckpoint:
    CONFIG = SearchConfig(n=3, pool=TRIPLE_POOL)

    def test_file_layout(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        reference = run(self.CONFIG)
        assert run(self.CONFIG, checkpoint_path=path) == reference
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(l) for l in fh]
        assert "config" in lines[0]
        assert lines[0]["config"]["n"] == 3
        assert lines[1:] == [{"hits": 15, "unit": 0}, {"hits": 12, "unit": 1}, {"hits": 5, "unit": 2}]

    def test_completed_run_replays_without_recompute(self, tmp_path, monkeypatch):
        # every unit of the pairs has no hits, so a resume scans none of them
        config = SearchConfig(n=2, pool=TRIPLE_POOL)
        path = str(tmp_path / "ck.jsonl")
        assert run(config, checkpoint_path=path) == []

        def boom(*args, **kwargs):
            raise AssertionError("unit was recomputed despite checkpoint")

        monkeypatch.setattr("gapkit.search._scan_unit", boom)
        assert run(config, checkpoint_path=path) == []

    def test_resume_scans_only_units_with_hits(self, tmp_path, scanned):
        path = str(tmp_path / "ck.jsonl")
        reference = run(SPARSE_CONFIG)
        assert [len([v for v in reference if v.cusps[0] == g]) for g in (A, B, C)] == [15, 12, 5]
        assert run(SPARSE_CONFIG, checkpoint_path=path) == reference
        scanned.clear()
        assert run(SPARSE_CONFIG, checkpoint_path=path) == reference
        assert scanned == [1, 2, 3]

    def test_record_is_written_only_after_its_hits_verify(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.jsonl"
        monkeypatch.setattr("gapkit.search.verify_violation", lambda v: False)
        with pytest.raises(RuntimeError, match="re-verification"):
            run(self.CONFIG, checkpoint_path=str(path))
        lines = path.read_bytes().splitlines()
        assert len(lines) == 1  # the header, and no record of the failed unit 0
        assert "config" in json.loads(lines[0])

    def test_partial_run_resumes(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        reference = run(self.CONFIG)
        stream = search_violations(self.CONFIG, checkpoint_path=path)
        first = next(stream)
        stream.close()
        assert first == reference[0]
        assert run(self.CONFIG, checkpoint_path=path) == reference

    def test_config_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        run(self.CONFIG, checkpoint_path=path)
        with pytest.raises(ConfigInvalid, match="different configuration"):
            run(SearchConfig(n=2, pool=TRIPLE_POOL), checkpoint_path=path)

    def test_torn_final_line_ignored(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        reference = run(self.CONFIG, checkpoint_path=path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"unit": 99, "violations"')
        assert run(self.CONFIG, checkpoint_path=path) == reference

    def test_torn_append_is_dropped_before_resuming(self, tmp_path, scanned):
        path = tmp_path / "ck.jsonl"
        reference = run(SPARSE_CONFIG, checkpoint_path=str(path))
        data = path.read_bytes()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(data[: last_start + 10])  # the last unit's record, torn
        assert run(SPARSE_CONFIG, checkpoint_path=str(path)) == reference
        assert path.read_bytes() == data

        scanned.clear()
        assert run(SPARSE_CONFIG, checkpoint_path=str(path)) == reference
        assert scanned == [1, 2, 3]

    @pytest.mark.parametrize("cut", [10, 0, -1], ids=["ten-byte-prefix", "empty", "no-newline"])
    def test_torn_header_starts_afresh(self, tmp_path, cut):
        fresh = tmp_path / "fresh.jsonl"
        reference = run(self.CONFIG, checkpoint_path=str(fresh))
        header = fresh.read_bytes().splitlines(keepends=True)[0]
        path = tmp_path / "ck.jsonl"
        path.write_bytes(header[:cut])
        assert run(self.CONFIG, checkpoint_path=str(path)) == reference
        assert path.read_bytes() == fresh.read_bytes()

    def test_foreign_file_is_left_alone(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a checkpoint\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match="different configuration"):
            run(self.CONFIG, checkpoint_path=str(path))
        assert path.read_text(encoding="utf-8") == "not a checkpoint\n"

    @pytest.mark.parametrize("other", ["text", "configuration"])
    def test_foreign_file_raises_at_the_call(self, tmp_path, other):
        path = tmp_path / "ck.jsonl"
        if other == "text":
            path.write_text("not a checkpoint\n", encoding="utf-8")
        else:
            run(SearchConfig(n=2, pool=TRIPLE_POOL), checkpoint_path=str(path))
        data = path.read_bytes()
        with pytest.raises(ConfigInvalid, match="different configuration"):
            search_violations(self.CONFIG, checkpoint_path=str(path))
        assert path.read_bytes() == data

    @pytest.mark.parametrize(
        "record",
        [
            # records in the layout written before records held counts lack hits, whatever else is wrong
            '{"unit": 0, "violations": [{"j": 1}]}',
            "5",
            "garbled}",
            '{"note": 1}',
            # a float or a bool compares equal to the int that re-verification expects
            '{"unit": 0, "violations": [{"cusps": [[1], [1], [1]], "j": 2, "k": 3.0, "bound": 2}]}',
            '{"unit": 0, "violations": [{"cusps": [[1], [1], [1]], "j": true, "k": 3, "bound": 2}]}',
            # a unit that is not an int, not one of this run's units 0-2, or repeated
            '{"unit": 0.0, "violations": []}',
            '{"unit": false, "violations": []}',
            '{"unit": 3, "violations": []}',
            '{"unit": 0, "violations": []}\n{"unit": 0, "violations": []}',
            # a record whose hits are missing or not a list
            '{"unit": 0}',
            '{"unit": 0, "violations": {}}',
            # a count that is not an int >= 0: a float or a bool compares equal to one
            '{"hits": 1.0, "unit": 0}',
            '{"hits": true, "unit": 0}',
            '{"hits": -1, "unit": 0}',
            '{"hits": "15", "unit": 0}',
            '{"hits": null, "unit": 0}',
            # the unit checks above, on records that carry a count
            '{"hits": 0}',
            '{"hits": 0, "unit": 0.0}',
            '{"hits": 0, "unit": false}',
            '{"hits": 0, "unit": 3}',
            '{"hits": 15, "unit": 0}\n{"hits": 15, "unit": 0}',
        ],
    )
    def test_malformed_record_is_rejected_and_left_alone(self, tmp_path, record):
        path = tmp_path / "ck.jsonl"
        run(self.CONFIG, checkpoint_path=str(path))
        header = path.read_bytes().splitlines(keepends=True)[0]
        data = header + record.encode() + b"\n"
        path.write_bytes(data)
        with pytest.raises(ConfigInvalid, match="malformed record"):
            run(self.CONFIG, checkpoint_path=str(path))
        assert path.read_bytes() == data

    @pytest.mark.parametrize(
        "config, header",
        [
            (
                SearchConfig(n=3, max_gap_bound=5),
                '{"config":{"genus_bound":null,"max_gap_bound":5,"n":3,"pool":null,'
                '"require_bl":null,"semigroup_only":false,"shard":[0,1]}}\n',
            ),
            (
                SearchConfig(n=2, pool=(GapSet((1,)), GapSet((1, 3))), require_bl=4, shard=(1, 2)),
                '{"config":{"genus_bound":null,"max_gap_bound":null,"n":2,"pool":[[1],[1,3]],'
                '"require_bl":4,"semigroup_only":false,"shard":[1,2]}}\n',
            ),
        ],
    )
    def test_header_holds_every_config_field(self, tmp_path, config, header):
        # the header bytes decide whether a file resumes this configuration
        path = tmp_path / "ck.jsonl"
        run(config, checkpoint_path=str(path))
        with open(path, encoding="utf-8") as fh:
            assert fh.readline() == header

    def test_checkpoint_of_a_dense_run_is_small(self, tmp_path):
        # one short record per unit: 5,915 hits in 32 units
        path = tmp_path / "ck.jsonl"
        assert len(run(SearchConfig(n=3, max_gap_bound=5), checkpoint_path=str(path))) == 5915
        assert path.stat().st_size < 2048
