"""Span recording around gapkit's public names, from outside the program.

A traced run replaces module attributes (the names a gapkit module resolves at
call time) with wrappers that open a span on entry and close it on exit.
Spans live in flat in-memory arrays and are written once, when the run ends.
Every replaced attribute is put back by `Tracer.restore`, so the program code
is untouched once the run is over.

Self time of a span is its duration minus the part of its interval covered
by its children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter_ns

# Layer name -> attribute sites, as "module:attr" or "module:Class.attr".
# Each site is where a gapkit module resolves the name at call time, so that
# the wrapper sees every call that module makes.
SPAN_SITES = {
    "cli.main": ["gapkit.cli:main"],
    "search.verify": ["gapkit.search:verify_violation"],
    "search.construct": ["gapkit.search:Violation.__post_init__"],
    "infconv.oracle": ["gapkit.search:inf_conv_eval", "gapkit.checkers:inf_conv_eval"],
    "infconv.fold": ["gapkit.checkers:inf_conv_n", "gapkit.checkers:inf_conv_pair"],
    "alexpoly.poly_mul": ["gapkit.search:poly_mul", "gapkit.checkers:poly_mul"],
    "alexpoly.expand": ["gapkit.search:expand_k_sequence", "gapkit.checkers:expand_k_sequence"],
    "alexpoly.from_gaps": [
        "gapkit.search:alexander_from_gaps",
        "gapkit.checkers:alexander_from_gaps",
    ],
    "checkers.check": [
        "gapkit.checkers:check_pair_inequality",
        "gapkit.checkers:check_bl",
        "gapkit.checkers:check_flmn",
    ],
}

# search_violations is a generator: one span per next(), so that the time the
# CLI spends formatting and writing between items stays in cli.main.
GENERATOR_SITES = {"search.scan": ["gapkit.cli:search_violations"]}

# The counter is too costly to run with spans (millions of calls), so it has
# a pass of its own.
COUNT_SITES = {
    "gapset.gap_function_eval": [
        "gapkit.gapset:gap_function_eval",
        "gapkit.infconv:gap_function_eval",
        "gapkit.checkers:gap_function_eval",
        "gapkit.cli:gap_function_eval",
    ]
}


def resolve_site(site: str):
    """Return (owner, attribute) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans of one run: name, start, end and parent, all sharing run_id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: dict[str, list[int]] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, ix: int) -> int:
        sid = len(self.start)
        self.name.append(ix)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def span_function(self, name: str, fn):
        ix = self._name_index(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            sid = open_(ix)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        return wrapper

    def span_generator(self, name: str, fn):
        ix = self._name_index(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    sid = open_(ix)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(sid)
                    yield item
            finally:
                it.close()

        return wrapper

    def count_function(self, name: str, fn):
        box = self.counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, sites: dict, make) -> None:
        for name, site_list in sites.items():
            for site in site_list:
                owner, attr = resolve_site(site)
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, make(name, original))

    def install_spans(self) -> None:
        self._patch(SPAN_SITES, self.span_function)
        self._patch(GENERATOR_SITES, self.span_generator)

    def install_counters(self) -> None:
        self._patch(COUNT_SITES, self.count_function)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def count(self, name: str) -> int:
        return self.counters.get(name, [0])[0]

    def summary(self) -> dict[str, dict]:
        return layer_summary([self.names[n] for n in self.name], self.start, self.end, self.parent)

    def write(self, path: str) -> None:
        """One JSON document: run id, name table, one [name, start, end, parent] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"run_id": self.run_id, "names": self.names}
            fh.write(json.dumps(header)[:-1] + ',"spans":[')
            fh.write(
                ",".join(
                    "[%d,%d,%d,%d]" % row
                    for row in zip(self.name, self.start, self.end, self.parent)
                )
            )
            fh.write("]}\n")


def self_times(start, end, parent) -> list[int]:
    """Per span: duration minus the union of its children's intervals, clipped to it."""
    children: dict[int, list[int]] = {}
    for sid, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(sid)
    out = []
    for sid in range(len(start)):
        s0, e0 = start[sid], end[sid]
        covered = 0
        reach = s0
        for c_start, c_end in sorted((start[c], end[c]) for c in children.get(sid, ())):
            lo = max(c_start, reach)
            hi = min(c_end, e0)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(e0 - s0 - covered)
    return out


def layer_summary(names, start, end, parent) -> dict[str, dict]:
    """Per layer name: calls, inclusive seconds and self seconds."""
    rows: dict[str, list[int]] = {}
    for name, s0, e0, self_ns in zip(names, start, end, self_times(start, end, parent)):
        row = rows.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += e0 - s0
        row[2] += self_ns
    return {
        name: {"calls": calls, "total_s": total / 1e9, "self_s": own / 1e9}
        for name, (calls, total, own) in rows.items()
    }
