"""The benchmark's one timer: spans with a name, start, end and parent.

Both runs time their operations through a ``Recorder``; the traced run also
wraps calls into the package with ``Recorder.wrap``, so the per-layer spans
and the end-to-end timings come from the same clock and the same code.
Spans stay in memory as plain lists ``[name, start, end, parent, counts]``
and are written out when the process ends.  Standard library only.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1, None])
        self._open.append(idx)
        return idx

    def end(self, idx: int, counts: dict | None = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = counts
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` gives
        the span's counts, evaluated after its end time is taken."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                self.spans[idx][4] = count(args, result)
            return result

        return wrapper

    def clear(self) -> None:
        if self._open:
            raise RuntimeError("cannot clear while spans are open")
        self.spans.clear()


def totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy (inclusive) seconds, self seconds, summed counts.

    Self time is a span's duration minus the time its child spans cover; the
    process is single-threaded, so children never overlap.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        t = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "counts": {}})
        t["calls"] += 1
        t["busy"] += end - start
        t["self"] += end - start - child_s[i]
        for key, value in (counts or {}).items():
            t["counts"][key] = t["counts"].get(key, 0) + value
    return out
