"""Exhaustive and pruned search for indices where k_j exceeds the bound I(j+1).

Multisets of n gap sets are drawn from a pool, either enumerated in (genus,
lex) order or given explicitly and taken in the order given.  The scan
carries each prefix's elementary symmetric sums of the gap polynomials and its
convolution table as packed integers, one coefficient per fixed-width bit
slot; every hit is re-verified, before it is emitted, through the checks' k
read (checkers._k_sequence, the product polynomial expanded) and the
independent oracle route, which share no arithmetic with the scan.
Every index j >= 1 of the k-sequence is checked.  Index 0 is skipped because
k_0 and I(1) always agree; that identity is asserted per multiset rather than
assumed.

Work units are keyed by the first pool index of the multiset, which makes
sharding deterministic and lets a checkpoint file record each completed unit's
hit count as an append-only JSON line.  Whichever process runs a unit scans it and
re-verifies its hits there; the parent only records or checks counts and yields.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice
from math import comb
from typing import Iterator, NamedTuple, Optional, Sequence

from .alexpoly import alexander_from_gaps, expand_k_sequence, poly_mul  # noqa: F401  (span sites for bench/spans.py)
from .checkers import _cusps, _k_sequence, bl_rows
from .errors import ConfigInvalid, _internal
from .gapset import GapFunction, GapSet, _is_int, is_semigroup_complement
from .infconv import inf_conv_eval

__all__ = [
    "SearchConfig",
    "Violation",
    "enumerate_gap_sets",
    "search_violations",
    "verify_violation",
]


@dataclass(frozen=True)
class SearchConfig:
    """What to search: multiset size, pool of gap sets, filters, and sharding.

    The pool is either enumerated (all subsets of {1..max_gap_bound}, with
    optional genus cap and semigroup filter) or given explicitly via pool,
    as distinct gap sets scanned in the order given.
    require_bl keeps only multisets passing the degree-d convolution identity.
    shard = (index, count) selects every count-th work unit.
    """

    n: int
    max_gap_bound: Optional[int] = None
    genus_bound: Optional[int] = None
    semigroup_only: bool = False
    require_bl: Optional[int] = None
    shard: tuple[int, int] = (0, 1)
    pool: Optional[tuple[GapSet, ...]] = None

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise ConfigInvalid(f"n must be a positive integer, got {self.n!r}")
        # the value goes into a checkpoint's header as it is, so 1 would not resume a True run
        if type(self.semigroup_only) is not bool:
            raise ConfigInvalid(f"semigroup_only must be a bool, got {self.semigroup_only!r}")
        if self.pool is not None:
            pool = tuple(self.pool)
            if not pool:
                raise ConfigInvalid("pool must be nonempty when given")
            seen = set()
            for g in pool:
                if not isinstance(g, GapSet):
                    raise ConfigInvalid(f"pool entries must be GapSet values, got {type(g).__name__}")
                if g in seen:
                    raise ConfigInvalid(f"duplicate pool entry {list(g.elements)}")
                seen.add(g)
            if self.max_gap_bound is not None or self.genus_bound is not None or self.semigroup_only:
                raise ConfigInvalid("an explicit pool cannot be combined with enumeration bounds or filters")
            object.__setattr__(self, "pool", pool)
        else:
            if self.max_gap_bound is None:
                raise ConfigInvalid("either max_gap_bound or pool is required")
            _genus_range(self.max_gap_bound, self.genus_bound)
        if self.require_bl is not None and (not _is_int(self.require_bl) or self.require_bl < 3):
            raise ConfigInvalid(f"require_bl must be a degree >= 3, got {self.require_bl!r}")
        shard = tuple(self.shard)
        if (
            len(shard) != 2
            or not all(map(_is_int, shard))
            or shard[1] < 1
            or not 0 <= shard[0] < shard[1]
        ):
            raise ConfigInvalid(f"shard must be (index, count) with 0 <= index < count, got {self.shard!r}")
        object.__setattr__(self, "shard", shard)


@dataclass(frozen=True)
class Violation:
    """A multiset of cusps and an index j with k_j > I(j+1); j, k and bound are ints."""

    cusps: tuple[GapSet, ...]
    j: int
    k: int
    bound: int

    def __post_init__(self):
        cusps = _cusps(self.cusps)
        j, k, bound = self.j, self.k, self.bound
        if not (type(j) is type(k) is type(bound) is int or _is_int(j) and _is_int(k) and _is_int(bound)):
            raise ValueError(f"j, k and bound must be integers, got {j!r}, {k!r}, {bound!r}")
        if k <= bound:
            raise ValueError(f"not a violation: k = {k} <= bound = {bound}")
        object.__setattr__(self, "cusps", tuple(sorted(cusps, key=_genus_lex)))

    def to_json_dict(self) -> dict:
        return {
            "cusps": [list(g.elements) for g in self.cusps],
            "j": self.j,
            "k": self.k,
            "bound": self.bound,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Violation":
        """The violation of a to_json_dict dict or of a search line, which may hold j, k or bound as a string."""
        j, k, bound = (_json_int(data[key]) for key in ("j", "k", "bound"))
        return cls(tuple(GapSet(tuple(c)) for c in data["cusps"]), j, k, bound)


# JSON output writes an integer beyond 2^53 in magnitude, past a double's exact range, as its decimal string
_JSON_INT_LIMIT = 2**53


def _json_int(value):
    """value, or the int of a decimal string beyond 2^53 in magnitude, as JSON output writes it."""
    if type(value) is str and re.fullmatch(r"-?[1-9][0-9]*", value) and abs(int(value)) > _JSON_INT_LIMIT:
        return int(value)
    return value


def _genus_lex(gap_set: GapSet) -> tuple:
    """Sort key of the (genus, lex) order, read without the genus property."""
    return len(gap_set.elements), gap_set.elements


def enumerate_gap_sets(
    max_gap_bound: int, genus_bound: Optional[int] = None, semigroup_only: bool = False
) -> Iterator[GapSet]:
    """All subsets of {1..max_gap_bound} passing the filters, by genus then lex.

    A genus bound caps the genus at genus_bound and drops the empty set; with
    no bound every genus from 0 up to max_gap_bound appears.  Bad bounds raise
    ConfigInvalid here, at the call, not at the first item.
    """
    genera = _genus_range(max_gap_bound, genus_bound)
    gaps = range(1, max_gap_bound + 1)
    return (
        gap_set
        for genus in genera
        for gap_set in map(GapSet, combinations(gaps, genus))
        if not semigroup_only or is_semigroup_complement(gap_set)
    )


def _genus_range(max_gap_bound: int, genus_bound: Optional[int]) -> range:
    """The genera enumerate_gap_sets walks; a bound that is not a positive integer raises ConfigInvalid."""
    if not _is_int(max_gap_bound) or max_gap_bound < 1:
        raise ConfigInvalid(f"max_gap_bound must be a positive integer, got {max_gap_bound!r}")
    if genus_bound is None:
        return range(max_gap_bound + 1)
    if not _is_int(genus_bound) or genus_bound < 1:
        raise ConfigInvalid(f"genus_bound must be a positive integer, got {genus_bound!r}")
    return range(1, min(genus_bound, max_gap_bound) + 1)


def verify_violation(violation: Violation) -> bool:
    """Recompute both sides through the public operations and confirm k > bound."""
    ks = _k_sequence(violation.cusps)
    bound = inf_conv_eval(violation.cusps, violation.j + 1)
    return (
        ks.at(violation.j) == violation.k
        and bound == violation.bound
        and violation.k > violation.bound
    )


def search_violations(
    config: SearchConfig,
    checkpoint_path: Optional[str] = None,
    workers: int = 1,
) -> Iterator[Violation]:
    """Scan all multisets of the pool and yield violations in pool order.

    With a checkpoint path, each finished unit's hit count is appended to the
    file, and a resumed run skips the units recorded with no hits and scans the
    rest again; a new count that differs from its record raises RuntimeError
    before any hit of that unit is yielded.  Workers scan, build and re-verify
    their own units; they change only the wall time, never the output.
    A bad argument or checkpoint raises at the call; only the generator appends or forks.
    """
    if not _is_int(workers) or workers < 1:
        raise ConfigInvalid(f"workers must be at least 1, got {workers!r}")
    pool = config.pool or tuple(
        enumerate_gap_sets(config.max_gap_bound, config.genus_bound, config.semigroup_only)
    )
    shard_index, shard_count = config.shard
    units = range(shard_index, len(pool), shard_count)

    done: dict[int, int] = {}
    if checkpoint_path is not None:
        # every field, so a field added later cannot resume a different configuration
        fields = {**vars(config), "pool": config.pool and [list(g.elements) for g in pool]}
        header = _json_line({"config": fields})
        done, intact = _load_checkpoint(checkpoint_path, header, units)

    unit_violations = partial(_unit_violations, pool, _prep_pool(pool, config.n), config.require_bl)
    # a record is trusted for one thing only: that its unit had no hits
    todo = [i for i in units if done.get(i) != 0]
    # a pool forks every worker at the first submit, so start no more than there are units
    workers = min(workers, len(todo))

    def stream() -> Iterator[Violation]:
        out_file = executor = None
        try:
            if checkpoint_path is not None:
                out_file = open(checkpoint_path, "a", encoding="utf-8")
                # drop a torn tail, so that the next record starts on a line of its own
                out_file.truncate(intact)
                if intact == 0:
                    out_file.write(header)
                    out_file.flush()
            if workers > 1:
                from concurrent.futures import ProcessPoolExecutor

                executor = ProcessPoolExecutor(max_workers=workers)
                results = _in_order(executor, unit_violations, todo, _UNITS_PER_WORKER * workers)
            else:
                results = map(unit_violations, todo)

            for i, violations in zip(todo, results):
                if i in done:
                    if len(violations) != done[i]:
                        raise RuntimeError(f"internal: unit {i} has {len(violations)} hits, recorded {done[i]}")
                elif out_file is not None:
                    out_file.write(_json_line({"hits": len(violations), "unit": i}))
                    out_file.flush()
                yield from violations
        finally:
            if executor is not None:
                # waiting lets the pool's manager thread end before the interpreter does
                executor.shutdown(wait=True, cancel_futures=True)
            if out_file is not None:
                out_file.close()

    return stream()


# -- internals ------------------------------------------------------------------

# Units in flight per worker: enough to keep every worker busy, few enough
# that finished units do not pile up in the parent.
_UNITS_PER_WORKER = 2


def _in_order(executor, fn, tasks: list, window: int) -> Iterator:
    """fn over the tasks in the executor, in task order, at most `window` in flight."""
    tasks = iter(tasks)
    pending = deque(executor.submit(fn, task) for task in islice(tasks, window))
    while pending:
        result = pending.popleft().result()
        pending.extend(executor.submit(fn, task) for task in islice(tasks, 1))
        yield result


def _unit_violations(pool: tuple, layout: _Layout, require_bl: Optional[int], unit: int) -> list:
    """The violations of a unit, scanned, built and re-verified in the process running it."""
    violations = []
    for at, j, k, bound in _scan_unit(layout, unit, require_bl):
        violation = _internal(Violation, tuple(pool[x] for x in at), j, k, bound)
        if not verify_violation(violation):
            raise RuntimeError(f"internal: violation failed oracle re-verification: {violation}")
        violations.append(violation)
    return violations


class _Layout(NamedTuple):
    """What the packed scan needs about a pool and a multiset size n.

    A packed integer holds coefficient j in bits [bits*j, bits*j + bits).
    high has the top bit of each of the scan's slots.  tails[k - 3] is
    (k, even, odd) for k = 3..n, the even-parity and odd-parity terms of
    (t-1)^(k-2), packed.  Each entry of sets is (S, T, row0, rows) for one
    gap set, see _prep_pool.
    """

    n: int
    bits: int
    high: int
    tails: tuple
    sets: tuple


def _slot_bits(pool: Sequence[GapSet], n: int) -> int:
    """Slot width: every slot value the scan forms stays below 2**(bits - 1).

    With G the largest genus, the prefix sums w of the sets' T and the
    convolution tables stay at most n*G, and e_k(S_1..S_n) has coefficients
    at most C(n,k)*G^(k-1).  The sum pos is U + e_2 + sum over k >= 3 of e_k
    times the even-parity part of (t-1)^(k-2), whose coefficients add up to
    2^(k-3); the sum rhs is bounded the same way.  A row of the table
    minimum holds at most (n+1)*G + 1 in its filled low slots.
    """
    g = max(gap_set.genus for gap_set in pool)
    top = max(
        n * g + sum(comb(n, k) * g ** (k - 1) * 2 ** max(k - 3, 0) for k in range(2, n + 1)),
        (n + 1) * g + 1,
    )
    return top.bit_length() + 1


def _prep_pool(pool: Sequence[GapSet], n: int) -> _Layout:
    """Packed per-set data for scanning multisets of n sets from the pool.

    For a gap set c: S is its 0/1 gap polynomial and T holds I_c(j) at
    slot j, so slot 0 is its genus and T >> bits holds I_c(j+1).  The table
    minimum T <> I_c is the slotwise minimum of rows, one per split x in {0}
    and {g+1 : g in c}: I_c is constant from one such x up to the next gap
    and a table is nonincreasing, so the smallest x of each stretch wins.
    Row x is (T << bits*x) + add, where add puts I_c(x) in slots x and up and
    a value above every convolution in the slots below x, which no split
    beyond the point may win (the 1-Lipschitz window).  row0 is the add of
    x = 0; every other row has the value above every convolution in slot 0,
    so the minimum keeps the genus sum there.
    """
    bits = _slot_bits(pool, n)
    width = n * (max(gap_set.max_gap for gap_set in pool) + 1) + 1
    ones = sum(1 << bits * j for j in range(width))
    high = ones << bits - 1
    above = n * max(gap_set.genus for gap_set in pool) + 1

    def packed(values) -> int:
        return sum(v << bits * j for j, v in enumerate(values))

    tails = []
    for k in range(3, n + 1):
        m = k - 2
        signed = [comb(m, i) * (-1) ** (m - i) for i in range(m + 1)]
        tails.append(
            (k, packed(max(c, 0) for c in signed), packed(max(-c, 0) for c in signed))
        )
    sets = []
    for gap_set in pool:
        values = GapFunction(gap_set).table()
        rows = []
        for g in gap_set.elements:
            below = ones & ((1 << bits * (g + 1)) - 1)
            rows.append((bits * (g + 1), above * below + values[g + 1] * (ones - below)))
        sets.append(
            (
                sum(1 << bits * g for g in gap_set.elements),
                packed(values),
                gap_set.genus * ones,
                tuple(rows),
            )
        )
    return _Layout(n, bits, high, tuple(tails), tuple(sets))


def _scan_unit(layout: _Layout, first: int, require_bl: Optional[int]) -> list:
    """All violations among multisets whose smallest pool index is `first`.

    Depth-first over nondecreasing index tuples `at`.  Each prefix carries,
    packed, e_1..e_n of its gap polynomials, w (the sum of the sets' T) and
    its convolution table, so each prefix is computed once; slot 0 of w and
    of the table is the genus sum, and U = w >> bits sums I_c(j+1).  With
    every cusp polynomial 1 + (t-1) S_c, the product is the sum of
    e_k (t-1)^k, and K = U + e_2 + (t-1) e_3 + (t-1)^2 e_4 + ...  K may go
    negative, so a leaf compares two nonnegative sums instead: pos (U, e_2
    and the even-parity terms) against rhs (the odd-parity terms plus the
    table at j+1); j is a hit where pos_j > rhs_j.
    """
    n, bits, high, tails, sets = layout
    mask = (1 << bits) - 1
    below_top = bits - 1
    found = []
    bl = None if require_bl is None else bl_rows(require_bl)

    def leaf(es: list, w: int, table: int, at: tuple) -> None:
        if bl is not None and not _bl_holds(table, bits, bl):
            return
        pos = (w >> bits) + es[2]
        rhs = table >> bits
        for k, even, odd in tails:
            pos += es[k] * even
            rhs += es[k] * odd
        if (pos | rhs) & high:
            raise RuntimeError("internal: a packed slot reached its top bit")
        if (pos ^ rhs) & mask:
            raise RuntimeError("internal: k_0 does not equal the convolution at 1")
        # top bit of slot j clear where rhs_j - pos_j < 0; lowest slot first.
        # Slot 0 never hits, as k_0 = I(1) above, and past the support both sums are 0.
        hits = ~((rhs | high) - pos) & high
        while hits:
            low = hits & -hits
            hits ^= low
            j = low.bit_length() // bits - 1
            bound = table >> bits * (j + 1) & mask
            kj = (pos >> bits * j & mask) - (rhs >> bits * j & mask) + bound
            found.append((at, j, kj, bound))

    def descend(es: list, w: int, table: int, at: tuple) -> None:
        depth = len(at)
        if depth == n:
            leaf(es, w, table, at)
            return
        for idx in range(at[-1], len(sets)):
            s, t_c, row0, rows = sets[idx]
            grown = es[:]
            for k in range(depth + 1, 0, -1):
                grown[k] += grown[k - 1] * s
            new = table + row0
            for shift, add in rows:
                # slotwise minimum of new and row: where new_j >= row_j the
                # top bit of diff survives and the low bits hold new_j - row_j
                row = (table << shift) + add
                diff = (new | high) - row
                ge = diff & high
                new -= diff & (ge - (ge >> below_top))
            descend(grown, w + t_c, new, at + (idx,))

    s, table, _, _ = sets[first]
    # e_0..e_n, and an e_2 = 0 that a single set needs at its leaf
    descend([1, s] + [0] * n, table, table, (first,))
    return found


def _bl_holds(table: int, bits: int, rows: tuple) -> bool:
    """The bl identity read off a packed table, for the bl_rows of a degree.

    Below 0 the convolution is its value at 0, the genus sum in slot 0, plus
    the distance, so row j = -1, which comes first, holds exactly when the
    genus sum is bl_genus of the degree.
    """
    mask = (1 << bits) - 1
    for _, point, target in rows:
        lhs = (table & mask) - point if point <= 0 else table >> bits * point & mask
        if lhs != target:
            return False
    return True


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _load_checkpoint(path: str, header: str, units: range) -> tuple[dict[int, int], int]:
    """The hit count of each unit the checkpoint records, and the byte length of its intact part.

    Only the last line can be torn by an interrupted run, so a final line with
    no newline is left out of the intact part.  A first line that is neither
    this configuration's header nor a torn piece of it means a foreign file,
    and a whole line that does not load as a record of a new unit of this run
    (not JSON, no unit, a unit that is not an int of `units` or that is
    already recorded, hits that are missing or not an int >= 0, as in a file
    written before records held counts) a damaged one; both raise
    ConfigInvalid.  A missing file has no intact part.
    """
    done: dict[int, int] = {}
    expected = header.encode()
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return done, 0
    with fh:
        first = fh.readline()
        if first != expected:
            if expected.startswith(first):
                return done, 0
            raise ConfigInvalid(f"checkpoint {path} was written by a different configuration")
        intact = len(first)
        for line in fh:
            if not line.endswith(b"\n"):
                break
            try:
                record = json.loads(line)
                unit, hits = record["unit"], record["hits"]
                # 0.0 and False would stand for unit 0, and a repeat would replace it
                if not _is_int(unit) or unit not in units or unit in done:
                    raise ValueError(f"unit {unit!r} is not a new unit of this run")
                # a float or a bool compares equal to the count it would skip
                if not _is_int(hits) or hits < 0:
                    raise ValueError(f"hits {hits!r} is not a count")
                done[unit] = hits
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigInvalid(
                    f"checkpoint {path} has a malformed record after byte {intact}: {exc!r}"
                ) from None
            intact += len(line)
    return done, intact

