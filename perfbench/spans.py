"""In-memory spans around the benchmark's calls into the program.

A span holds a name, start and end (``time.perf_counter`` seconds), the
index of the span that encloses it (-1 at top level) and a group label
shared by the spans of one unit of work, such as one sweep cell.  Spans
stay in memory and are written when the run ends.  A span's self time is
its duration minus the time its direct children cover.

Untraced runs use ``NULL``, whose spans cost one method call and do
not record anything.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class Tracer:
    """Records nested spans; see the module docstring."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.group = ""

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.group])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def self_seconds(self) -> tuple[dict[str, float], Counter]:
        """Total self time and number of spans, per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        counts: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - child
            counts[name] += 1
        return totals, counts

    def write(self, path: str, record: dict) -> None:
        keys = ("name", "start", "end", "parent", "group")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"record": record, "spans": [dict(zip(keys, s)) for s in self.spans]},
                fh,
                separators=(",", ":"),
            )


class NullTracer:
    """Stand-in for untraced runs."""

    enabled = False
    group = ""

    def span(self, name: str):
        return _NO_SPAN


NULL = NullTracer()


def watch_next_dist(lm, tracer) -> set:
    """Span every ``next_dist`` call made on *lm*, by the library included.

    Installs a per-instance wrapper (``sample`` and ``logprob`` reach it
    through ``self.next_dist``) and returns the set of distinct histories
    seen, keyed by the public ``pad_prefix``.  ``unwatch`` removes it.
    """
    original = lm.next_dist
    histories: set = set()

    def next_dist(prefix):
        histories.add(lm.pad_prefix(prefix))
        with tracer.span("lm.next_dist"):
            return original(prefix)

    lm.next_dist = next_dist
    return histories


def unwatch(lm) -> None:
    lm.__dict__.pop("next_dist", None)
