"""In-memory spans around the benchmark's calls into the toolkit.

A span is ``(name, start, end, parent, op, error)``: ``parent`` is the index
of the enclosing span in ``Tracer.spans`` (-1 at top level), ``op`` the id of
the op it belongs to and ``error`` the flag of a toolkit error that escaped
the call, or None.  Spans stay in memory until the worker writes them out at
the end of its run.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self._parent = -1

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, idx
        error = None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            error = getattr(err, "flag", None) or type(err).__name__
            raise
        finally:
            end = perf_counter()
            self._parent = parent
            self.spans[idx] = (name, start, end, parent, self.op, error)


def self_times(spans: list[tuple]) -> dict[int, dict[str, float]]:
    """Per op, the summed self time of each span name.

    A span's self time is its duration minus the durations of its direct
    children; spans of one worker never overlap except by nesting.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, error in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, op, error) in enumerate(spans):
        out[op][name] += end - start - child[i]
    return out
