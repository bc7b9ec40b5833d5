"""Outside-in span tracer for the warpagg benchmark.

The tracer times calls into the program's public functions without editing
the program: :func:`patched` swaps every ``warpagg`` module attribute that is
bound to a traced function for a wrapper that records a span, and puts the
original back when the block ends. Private helpers are never wrapped, so
their time shows up as the self time of the public function that calls them.

Spans live in memory (name, start, end, parent span, operation id) until the
run writes them out with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    op: int      # id shared by every span under one root


class Tracer:
    """Records nested spans from one thread, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ops = 0

    def open(self, name: str) -> int:
        if self._stack:
            parent = self._stack[-1]
            op = self.spans[parent].op
        else:
            parent, op = -1, self._ops
            self._ops += 1
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), math.nan, parent, op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``observe(counts, args, kwargs, result)``, when given, runs after a
        call returns and may bump counters from the arguments and result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        Path(path).write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                          "spans": rows, "counts": dict(self.counts)}))


def _warpagg_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "warpagg" or n.startswith("warpagg."))]


@contextmanager
def patched(tracer: Tracer, targets: dict):
    """Trace ``targets`` ({"module.function": observe-or-None}) in the block.

    Every attribute of every loaded ``warpagg`` module that is bound to a
    target function is replaced, so calls are seen whichever module's name
    the caller looks up; all of them are restored on exit.
    """
    swaps = []
    try:
        for qualname, observe in targets.items():
            mod_name, fn_name = qualname.rsplit(".", 1)
            original = getattr(importlib.import_module(f"warpagg.{mod_name}"), fn_name)
            wrapper = tracer.wrap(qualname, original, observe)
            for mod in _warpagg_modules():
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    swaps.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(swaps):
            setattr(mod, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]]
        out.append((s.end - s.start) - _covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out
