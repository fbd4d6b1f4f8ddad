"""Tail-percentile rule and failure accounting of the benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import perf_stats as stats  # noqa: E402


class TestTail:
    def test_leaves_ten_samples_beyond_and_reports_the_count(self):
        samples = list(range(100, 0, -1))  # unsorted on purpose
        value, percentile, count = stats.tail(samples)
        assert count == 100
        assert sum(1 for sample in samples if sample > value) == 10
        assert value == 90 and percentile == pytest.approx(90.0)

    def test_is_the_highest_such_percentile(self):
        samples = [float(i) for i in range(250)]
        value, percentile, count = stats.tail(samples)
        beyond = sum(1 for sample in samples if sample > value)
        assert beyond == 10  # one rank higher would leave only nine
        assert percentile == pytest.approx(100.0 * 240 / 250)
        assert count == 250

    def test_smallest_sample_set_with_a_tail(self):
        value, percentile, count = stats.tail([5.0] + [9.0] * 10)
        assert (value, count) == (5.0, 11)
        assert percentile == pytest.approx(100.0 / 11)

    def test_too_few_samples_have_no_tail(self):
        with pytest.raises(ValueError):
            stats.tail([1.0] * 10)


class TestFailRatio:
    def test_counts_every_kind_of_failure(self):
        ops = [
            {"status": 200, "ok": True},
            {"status": 429, "ok": False},
            {"status": 504, "ok": False},
            {"status": 200, "ok": False},
            {"failed_points": 1},
            {"failures": 2},
            {"correct": False},
            None,
            {},
        ]
        assert stats.failure_counts([{"ops": ops, "counters": {}}]) == (9, 7)
        assert stats.fail_ratio([{"ops": ops, "counters": {}}]) == pytest.approx(7 / 9)

    @pytest.mark.parametrize(
        "counter",
        ["resilience.retries", "resilience.pool_respawns", "resilience.degraded"],
    )
    def test_a_retried_or_degraded_pass_fails_all_its_operations(self, counter):
        clean = {"ops": [{}, {}], "counters": {"resilience.attempts": 4}}
        poisoned = {"ops": [{}, {}, {}], "counters": {counter: 1}}
        assert stats.failure_counts([clean, poisoned]) == (5, 3)

    def test_clean_passes_have_zero_fail_ratio(self):
        passes = [{"ops": [{"status": 200, "ok": True}] * 4, "counters": {}}] * 2
        assert stats.fail_ratio(passes) == 0.0

