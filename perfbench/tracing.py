"""Spans around calls into mtsk, and counters read from its logs and warnings.

Spans are recorded by the benchmark around public calls; nothing inside
``src/`` is instrumented.  A disabled tracer calls straight through, so the
same cell code serves the untimed check pass and the traced pass.
"""
from __future__ import annotations

import logging
import re
import time
import warnings
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder: each span is [name, start, end, parent index]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per layer (the span name's prefix before the dot).

        A span's self time is its duration minus its children's; children
        here are sequential calls, so their durations do not overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


# Log messages of the mtsk loggers, keyed by their format string prefix, and
# how each adds to a counter.
_LOG_COUNTERS = (
    ("member (q1=", "tck.member_attempts_failed", lambda args: 1),
    ("skipping member", "tck.members_skipped", lambda args: 1),
    ("component(s) %s stayed empty", "tck.components_stayed_empty", lambda args: len(args[0])),
    ("%d sample(s) underflowed", "tck.underflow_samples", lambda args: int(args[0])),
    ("truncation to %d day(s)", "cohort.samples_dropped", lambda args: int(args[1])),
    ("excluded %d patient(s)", "cohort.samples_dropped", lambda args: int(args[0])),
    ("dropped %d sample(s)", "cohort.samples_dropped", lambda args: int(args[0])),
    ("cell failed", "evaluate.cells_failed_logged", lambda args: 1),
)

_KPCA_PADDED = re.compile(r"(\d+) of \d+ requested kPCA dimensions exceed")


class _CountingHandler(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        msg = str(record.msg)
        for prefix, name, amount in _LOG_COUNTERS:
            if msg.startswith(prefix):
                self.counts[name] += amount(record.args)
                return
        self.counts["log.other"] += 1


@contextmanager
def counting():
    """Count mtsk log records and warnings raised in this process.

    The ``mtsk`` logger stops propagating while counting, so counted
    messages do not also reach stderr.
    """
    counts: Counter = Counter()
    logger = logging.getLogger("mtsk")
    handler = _CountingHandler(counts)
    saved = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield counts
        for w in caught:
            match = _KPCA_PADDED.search(str(w.message))
            if match:
                counts["cluster.kpca_dims_padded"] += int(match.group(1))
            else:
                counts[f"warnings.{w.category.__name__}"] += 1
    finally:
        logger.removeHandler(handler)
        logger.propagate = saved
