"""Self-time arithmetic and the span recorder of the benchmark."""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perf_trace import (  # noqa: E402
    SpanRecorder,
    covered_length,
    layer_totals,
    self_times,
)

# root [0, 10]
#   a [1, 4]         -> self 3 - 1 = 2 (child c covers [2, 3])
#     c [2, 3]       -> self 1
#   b [3.5, 9]       -> self 5.5 - 3 = 2.5 (d and e overlap: [4, 7] covered once)
#     d [4, 6]       (another thread)
#     e [5, 7]       (another thread)
#   f [9.5, 12]      -> runs past its parent; clipped to [9.5, 10] there
SPANS = [
    ("root", 0.0, 10.0, None),
    ("a", 1.0, 4.0, 0),
    ("b", 3.5, 9.0, 0),
    ("c", 2.0, 3.0, 1),
    ("d", 4.0, 6.0, 2),
    ("e", 5.0, 7.0, 2),
    ("f", 9.5, 12.0, 0),
]


def test_self_time_subtracts_the_union_of_child_intervals():
    own = self_times(SPANS)
    # root: children a, b, f cover [1, 9] and [9.5, 10] -> 8.5 of 10
    assert own == pytest.approx([1.5, 2.0, 2.5, 1.0, 2.0, 2.0, 2.5])


def test_covered_length_clips_children_to_the_parent():
    assert covered_length(SPANS, 0) == pytest.approx(8.5)
    assert covered_length(SPANS, 2) == pytest.approx(3.0)
    assert covered_length(SPANS, 3) == 0.0


def test_layer_totals_group_spans_by_name():
    spans = [
        ("root", 0.0, 4.0, None),
        ("solver", 0.0, 1.0, 0),
        ("solver", 2.0, 3.5, 0),
        ("template", 2.5, 3.0, 2),
    ]
    totals = layer_totals(spans)
    assert totals["solver"]["calls"] == 2
    assert totals["solver"]["total_s"] == pytest.approx(2.5)
    assert totals["solver"]["self_s"] == pytest.approx(2.0)
    assert totals["root"]["self_s"] == pytest.approx(1.5)


class _Target:
    def work(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return value + 1


def test_recorder_nests_patched_calls_and_restores_them():
    recorder = SpanRecorder()
    raw_work = _Target.__dict__["work"]
    recorder.patch(_Target, "work", "layer.work")
    recorder.patch(_Target, "build", "layer.build")
    root = recorder.begin("workload")
    assert _Target().work(3) == 6
    assert _Target.build(3) == 4
    recorder.end(root)
    recorder.unpatch()
    assert _Target.__dict__["work"] is raw_work
    assert isinstance(_Target.__dict__["build"], classmethod)
    names = [span[0] for span in recorder.closed_spans()]
    assert names == ["workload", "layer.work", "layer.build"]
    assert all(span[3] == 0 for span in recorder.closed_spans()[1:])


def test_thread_context_carries_parent_and_request_id():
    recorder = SpanRecorder()
    root = recorder.begin("workload")

    def client(request_id):
        recorder.set_thread_context(root, request_id)
        span = recorder.begin("client.request")
        recorder.end(span)

    threads = [threading.Thread(target=client, args=(f"r{i}",)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    recorder.end(root)
    requests = [span for span in recorder.closed_spans() if span[0] == "client.request"]
    assert sorted(span[4] for span in requests) == ["r0", "r1"]
    assert all(span[3] == root for span in requests)
