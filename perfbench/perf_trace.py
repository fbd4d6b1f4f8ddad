"""In-memory spans recorded around calls into the program's layers.

The traced pass installs timing wrappers on the program's public entry
points from the outside -- each patched where its caller looks the name up
-- so the program itself carries no benchmark code.  Spans stay in memory
and are written out once the pass ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """Collects ``[name, start, end, parent, request_id]`` spans per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- context ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_thread_context(self, parent: int | None, request_id=None) -> None:
        """Parent span and request id for top-level spans of this thread."""
        self._local.root = parent
        self._local.request_id = request_id

    @property
    def request_id(self):
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value) -> None:
        self._local.request_id = value

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "root", None)
        span = [name, time.perf_counter(), None, parent, self.request_id]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced wrapper (restored by ``unpatch``)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def closed_spans(self) -> list[list]:
        return [span for span in self.spans if span[2] is not None]


def _union_length(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` is a sequence of ``(name, start, end, parent, ...)`` with
    ``parent`` an index into ``spans`` or ``None``.  Children running on
    other threads may overlap each other; their covered part is counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span[3]
        if parent is not None:
            children[parent].append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(index, ())
            if child_end > start and child_start < end
        ]
        result.append((end - start) - _union_length(clipped))
    return result


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
    return dict(totals)


def covered_length(spans, parent: int) -> float:
    """Wall time of span ``parent`` covered by at least one of its children."""
    start, end = spans[parent][1], spans[parent][2]
    return _union_length(
        (max(start, span[1]), min(end, span[2]))
        for span in spans
        if span[3] == parent and span[2] > start and span[1] < end
    )
