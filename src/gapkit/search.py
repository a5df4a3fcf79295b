"""Exhaustive and pruned search for indices where k_j exceeds the bound I(j+1).

Multisets of n gap sets are drawn from an enumerated (or explicitly given)
pool in canonical order.  For each multiset the k-coefficients come from the
product polynomial and the bound from the pairwise convolution fold; every hit
is re-verified through the independent oracle route before it is emitted.
Index 0 is skipped in the scan because k_0 and I(1) always agree; that
identity is asserted per multiset rather than assumed.

Work units are keyed by the first pool index of the multiset, which makes
sharding deterministic and lets a checkpoint file record completed units as
append-only JSON lines.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .alexpoly import (
    IntPolynomial,
    KSequence,
    _div_t1,
    _mul,
    alexander_from_gaps,
    expand_k_sequence,
    poly_mul,
)
from .errors import ConfigInvalid
from .gapset import GapFunction, GapSet, is_semigroup_complement
from .infconv import _pair_table_unit, inf_conv_eval

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
    optional genus cap and semigroup filter) or given explicitly via pool.
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
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ConfigInvalid(f"n must be a positive integer, got {self.n!r}")
        if self.pool is not None:
            pool = tuple(self.pool)
            if not pool:
                raise ConfigInvalid("pool must be nonempty when given")
            for g in pool:
                if not isinstance(g, GapSet):
                    raise ConfigInvalid(f"pool entries must be GapSet values, got {type(g).__name__}")
            if self.max_gap_bound is not None or self.genus_bound is not None or self.semigroup_only:
                raise ConfigInvalid("an explicit pool cannot be combined with enumeration bounds or filters")
            object.__setattr__(self, "pool", pool)
        else:
            if self.max_gap_bound is None:
                raise ConfigInvalid("either max_gap_bound or pool is required")
            if not isinstance(self.max_gap_bound, int) or self.max_gap_bound < 1:
                raise ConfigInvalid(f"max_gap_bound must be a positive integer, got {self.max_gap_bound!r}")
            if self.genus_bound is not None and (
                not isinstance(self.genus_bound, int) or self.genus_bound < 1
            ):
                raise ConfigInvalid(f"genus_bound must be a positive integer, got {self.genus_bound!r}")
        if self.require_bl is not None and (
            not isinstance(self.require_bl, int) or self.require_bl < 3
        ):
            raise ConfigInvalid(f"require_bl must be a degree >= 3, got {self.require_bl!r}")
        shard = tuple(self.shard)
        if (
            len(shard) != 2
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in shard)
            or shard[1] < 1
            or not 0 <= shard[0] < shard[1]
        ):
            raise ConfigInvalid(f"shard must be (index, count) with 0 <= index < count, got {self.shard!r}")
        object.__setattr__(self, "shard", shard)


@dataclass(frozen=True)
class Violation:
    """A multiset of cusps and an index j with k_j > I(j+1)."""

    cusps: tuple[GapSet, ...]
    j: int
    k: int
    bound: int

    def __post_init__(self):
        cusps = tuple(sorted(self.cusps, key=lambda g: (g.genus, g.elements)))
        if not cusps:
            raise ValueError("at least one cusp required")
        for g in cusps:
            if not isinstance(g, GapSet):
                raise ValueError(f"cusps must be GapSet values, got {type(g).__name__}")
        if self.k <= self.bound:
            raise ValueError(f"not a violation: k = {self.k} <= bound = {self.bound}")
        object.__setattr__(self, "cusps", cusps)

    def to_json_dict(self) -> dict:
        return {
            "cusps": [list(g.elements) for g in self.cusps],
            "j": self.j,
            "k": self.k,
            "bound": self.bound,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Violation":
        return cls(
            tuple(GapSet(tuple(c)) for c in data["cusps"]),
            data["j"],
            data["k"],
            data["bound"],
        )


def enumerate_gap_sets(
    max_gap_bound: int, genus_bound: Optional[int] = None, semigroup_only: bool = False
) -> Iterator[GapSet]:
    """All subsets of {1..max_gap_bound} passing the filters, by genus then lex.

    A genus bound caps the genus at genus_bound and drops the empty set; with
    no bound every genus from 0 up to max_gap_bound appears.
    """
    if not isinstance(max_gap_bound, int) or isinstance(max_gap_bound, bool) or max_gap_bound < 1:
        raise ValueError(f"max_gap_bound must be a positive integer, got {max_gap_bound!r}")
    if genus_bound is None:
        genus_range = range(max_gap_bound + 1)
    else:
        if not isinstance(genus_bound, int) or genus_bound < 1:
            raise ValueError(f"genus_bound must be a positive integer, got {genus_bound!r}")
        genus_range = range(1, min(genus_bound, max_gap_bound) + 1)
    for genus in genus_range:
        for combo in combinations(range(1, max_gap_bound + 1), genus):
            gap_set = GapSet(combo)
            if semigroup_only and not is_semigroup_complement(gap_set):
                continue
            yield gap_set


def verify_violation(violation: Violation) -> bool:
    """Recompute both sides through the public operations and confirm k > bound."""
    ks = _k_sequence(violation.cusps)
    bound = inf_conv_eval(violation.cusps, violation.j + 1)
    return (
        ks.at(violation.j) == violation.k
        and bound == violation.bound
        and violation.k > violation.bound
    )


# A search emits each multiset's violations together and runs through multisets
# sharing a prefix, so the k-sequence is kept per multiset and the product per prefix.
@lru_cache(maxsize=64)
def _k_sequence(cusps: tuple[GapSet, ...]) -> KSequence:
    return expand_k_sequence(_alexander_product(cusps), sum(g.genus for g in cusps))


@lru_cache(maxsize=1024)
def _alexander_product(cusps: tuple[GapSet, ...]) -> IntPolynomial:
    if len(cusps) == 1:
        return alexander_from_gaps(cusps[0])
    return poly_mul(_alexander_product(cusps[:-1]), _alexander_product(cusps[-1:]))


def search_violations(
    config: SearchConfig,
    checkpoint_path: Optional[str] = None,
    workers: int = 1,
) -> Iterator[Violation]:
    """Scan all multisets of the pool and yield violations in canonical order.

    With a checkpoint path, completed work units are replayed from the file
    instead of recomputed, and newly finished units are appended to it, so an
    interrupted run resumes where it stopped and reproduces the same stream.
    Worker processes change only the wall time, never the output.
    """
    pool = _resolved_pool(config)
    shard_index, shard_count = config.shard
    units = [i for i in range(len(pool)) if i % shard_count == shard_index]

    done: dict[int, list] = {}
    out_file = None
    if checkpoint_path is not None:
        done, intact = _load_checkpoint(checkpoint_path, _config_fingerprint(config))
        # drop a torn tail, so that the next record starts on a line of its own
        os.truncate(checkpoint_path, intact)
        out_file = open(checkpoint_path, "a", encoding="utf-8")
        if not done and os.path.getsize(checkpoint_path) == 0:
            out_file.write(_json_line({"config": _config_fingerprint(config)}))
            out_file.flush()

    pending = [i for i in units if i not in done]
    executor = None
    futures = {}
    prep = None
    try:
        if workers > 1 and pending:
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(max_workers=workers)
            futures = {i: executor.submit(_scan_unit_task, config, i) for i in pending}
        else:
            prep = _prep_pool(pool)

        for i in units:
            if i in done:
                violations = [Violation.from_json_dict(d) for d in done[i]]
            else:
                if i in futures:
                    found = futures.pop(i).result()
                else:
                    found = _scan_unit(prep, config.n, i, config.require_bl)
                violations = [
                    Violation(tuple(pool[x] for x in path), j, k, bound)
                    for path, j, k, bound in found
                ]
                if out_file is not None:
                    out_file.write(
                        _json_line(
                            {"unit": i, "violations": [v.to_json_dict() for v in violations]}
                        )
                    )
                    out_file.flush()
            for violation in violations:
                if not verify_violation(violation):
                    raise RuntimeError(
                        f"internal: violation failed oracle re-verification: {violation}"
                    )
                yield violation
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        if out_file is not None:
            out_file.close()


# -- internals ------------------------------------------------------------------


def _resolved_pool(config: SearchConfig) -> tuple[GapSet, ...]:
    if config.pool is not None:
        return config.pool
    return tuple(
        enumerate_gap_sets(config.max_gap_bound, config.genus_bound, config.semigroup_only)
    )


def _prep_pool(pool: Sequence[GapSet]) -> list:
    """Per-set data for the hot loop: polynomial, step table, max gap, genus."""
    return [
        (
            list(alexander_from_gaps(g).coefficients),
            list(GapFunction(g).table()),
            g.max_gap,
            g.genus,
        )
        for g in pool
    ]


def _scan_unit(prep: list, n: int, first: int, require_bl: Optional[int]) -> list:
    """All violations among multisets whose smallest pool index is `first`.

    Depth-first over nondecreasing index tuples, carrying the prefix product
    polynomial and prefix convolution table so each prefix is computed once.
    """
    found = []
    path = [first]
    coeffs0, table0, max_gap0, genus0 = prep[first]

    def leaf(poly: list, table: list, genus_sum: int, max_gap_sum: int) -> None:
        if require_bl is not None and not _bl_holds(table, genus_sum, require_bl):
            return
        ks = _expand_list(poly, genus_sum)
        k0 = ks[0] if ks else 0
        if k0 != (table[1] if len(table) > 1 else 0):
            raise RuntimeError("internal: k_0 does not equal the convolution at 1")
        for j in range(1, max_gap_sum + 1):
            kj = ks[j] if j < len(ks) else 0
            bound = table[j + 1] if j + 1 < len(table) else 0
            if kj > bound:
                found.append((tuple(path), j, kj, bound))

    def descend(depth: int, start: int, poly: list, table: list, genus_sum: int, max_gap_sum: int) -> None:
        if depth == n:
            leaf(poly, table, genus_sum, max_gap_sum)
            return
        for idx in range(start, len(prep)):
            coeffs, step_table, max_gap, genus = prep[idx]
            path.append(idx)
            descend(
                depth + 1,
                idx,
                _mul(poly, coeffs),
                _pair_table_unit(table, step_table),
                genus_sum + genus,
                max_gap_sum + max_gap,
            )
            path.pop()

    descend(1, first, coeffs0, table0, genus0, max_gap0)
    return found


def _expand_list(poly: list, genus: int) -> list:
    coeffs = list(poly)
    while len(coeffs) < 2:
        coeffs.append(0)
    coeffs[0] -= 1 - genus
    coeffs[1] -= genus
    first, r1 = _div_t1(coeffs)
    if r1:
        raise RuntimeError("internal: product of gap polynomials has P(1) != 1")
    ks, r2 = _div_t1(first)
    if r2:
        raise RuntimeError("internal: genus bookkeeping failed on a product polynomial")
    return ks


def _bl_holds(table: list, genus_sum: int, degree: int) -> bool:
    if genus_sum != (degree - 1) * (degree - 2) // 2:
        return False
    for j in range(-1, degree - 1):
        point = j * degree + 1
        if point <= 0:
            lhs = genus_sum - point
        elif point < len(table):
            lhs = table[point]
        else:
            lhs = 0
        if lhs != (j - degree + 1) * (j - degree + 2) // 2:
            return False
    return True


def _config_fingerprint(config: SearchConfig) -> dict:
    return {
        "n": config.n,
        "max_gap_bound": config.max_gap_bound,
        "genus_bound": config.genus_bound,
        "semigroup_only": config.semigroup_only,
        "require_bl": config.require_bl,
        "shard": list(config.shard),
        "pool": None if config.pool is None else [list(g.elements) for g in config.pool],
    }


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _load_checkpoint(path: str, fingerprint: dict) -> tuple[dict[int, list], int]:
    """Units recorded in the checkpoint, and the byte length of its intact part.

    The intact part ends after the last whole line that parses; what follows is
    the torn append of an interrupted run.  A first line that is neither this
    configuration's header nor a torn piece of it means a foreign file.
    """
    done: dict[int, list] = {}
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8"):
            pass
        return done, 0
    header = _json_line({"config": fingerprint}).encode()
    with open(path, "rb") as fh:
        first = fh.readline()
        if first != header:
            if header.startswith(first):
                return done, 0
            raise ConfigInvalid(f"checkpoint {path} was written by a different configuration")
        intact = len(first)
        for line in fh:
            if not line.endswith(b"\n"):
                break
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if "unit" in record:
                done[record["unit"]] = record.get("violations", [])
            intact += len(line)
    return done, intact


_TASK_CACHE: dict[str, tuple] = {}


def _scan_unit_task(config: SearchConfig, first: int) -> list:
    """Worker entry: cache the prepared pool per process, then scan one unit."""
    key = json.dumps(_config_fingerprint(config), sort_keys=True)
    entry = _TASK_CACHE.get(key)
    if entry is None:
        entry = (config.n, config.require_bl, _prep_pool(_resolved_pool(config)))
        _TASK_CACHE[key] = entry
    n, require_bl, prep = entry
    return _scan_unit(prep, n, first, require_bl)
