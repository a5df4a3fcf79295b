"""Shared hypothesis strategies, and cold gapkit caches for every test."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from gapkit import GapSet, alexpoly, checkers, cli, gapset, infconv, search

# Every lru_cache in gapkit: alexander_from_gaps in alexpoly, _min_table and
# _fold in infconv, _k_sequence and _product in checkers.
GAPKIT_CACHES = [
    value
    for module in (alexpoly, checkers, cli, gapset, infconv, search)
    for value in vars(module).values()
    if hasattr(value, "cache_clear")
]


@pytest.fixture(autouse=True)
def cold_caches():
    """Empty every gapkit cache before each test, so that a table kept by an
    earlier test cannot hide a kernel that a later test patches."""
    for cache in GAPKIT_CACHES:
        cache.cache_clear()


def gap_sets(max_element: int = 20, max_size: int = 8):
    return st.builds(
        lambda s: GapSet(tuple(s)),
        st.sets(st.integers(min_value=1, max_value=max_element), max_size=max_size),
    )
