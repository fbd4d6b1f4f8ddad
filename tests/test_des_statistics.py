"""Tests of the DES statistics collectors and batch-means confidence intervals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.des.batch_means import BatchMeansEstimator
from repro.des.statistics import Counter, Tally, TimeWeightedStatistic


class TestTally:
    def test_matches_numpy_statistics(self, rng):
        values = rng.normal(5.0, 2.0, size=500)
        tally = Tally()
        for value in values:
            tally.record(value)
        assert tally.count == 500
        assert tally.mean == pytest.approx(np.mean(values))
        assert tally.variance == pytest.approx(np.var(values, ddof=1))
        assert tally.standard_deviation == pytest.approx(np.std(values, ddof=1))
        assert tally.minimum == pytest.approx(values.min())
        assert tally.maximum == pytest.approx(values.max())

    def test_empty_tally_behaviour(self):
        tally = Tally()
        assert tally.mean == 0.0
        assert tally.variance == 0.0
        with pytest.raises(ValueError):
            _ = tally.minimum
        with pytest.raises(ValueError):
            _ = tally.maximum

    def test_single_observation(self):
        tally = Tally()
        tally.record(3.5)
        assert tally.mean == 3.5
        assert tally.variance == 0.0

    def test_reset(self):
        tally = Tally("delays")
        tally.record(1.0)
        tally.reset()
        assert tally.count == 0
        assert tally.name == "delays"

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                           max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_property_against_numpy(self, values):
        tally = Tally()
        for value in values:
            tally.record(value)
        assert tally.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert tally.variance == pytest.approx(np.var(values, ddof=1), rel=1e-6, abs=1e-6)


class TestTimeWeightedStatistic:
    def test_piecewise_constant_average(self):
        stat = TimeWeightedStatistic(initial_value=0.0, start_time=0.0)
        stat.update(2.0, time=1.0)   # value 0 for [0,1)
        stat.update(4.0, time=3.0)   # value 2 for [1,3)
        # value 4 for [3,5): average = (0*1 + 2*2 + 4*2) / 5 = 2.4
        assert stat.time_average(5.0) == pytest.approx(2.4)

    def test_average_at_last_update(self):
        stat = TimeWeightedStatistic()
        stat.update(10.0, time=2.0)
        stat.update(0.0, time=4.0)
        assert stat.time_average() == pytest.approx(5.0)

    def test_maximum_tracking(self):
        stat = TimeWeightedStatistic(initial_value=1.0)
        stat.update(7.0, time=1.0)
        stat.update(3.0, time=2.0)
        assert stat.maximum == 7.0

    def test_updates_must_be_ordered(self):
        stat = TimeWeightedStatistic()
        stat.update(1.0, time=5.0)
        with pytest.raises(ValueError):
            stat.update(2.0, time=4.0)

    def test_query_before_last_update_rejected(self):
        stat = TimeWeightedStatistic()
        stat.update(1.0, time=5.0)
        with pytest.raises(ValueError):
            stat.time_average(4.0)

    def test_zero_window_returns_current_value(self):
        stat = TimeWeightedStatistic(initial_value=3.0, start_time=2.0)
        assert stat.time_average(2.0) == 3.0

    def test_reset_restarts_window(self):
        stat = TimeWeightedStatistic(initial_value=10.0)
        stat.update(10.0, time=5.0)
        stat.reset(time=5.0)
        stat.update(0.0, time=6.0)
        # After the reset only [5, 7) counts: value 10 for [5,6), 0 for [6,7).
        assert stat.time_average(7.0) == pytest.approx(5.0)


class TestCounter:
    def test_increment_and_rate(self):
        counter = Counter()
        counter.increment()
        counter.increment(4)
        assert counter.count == 5
        assert counter.rate(10.0) == pytest.approx(0.5)

    def test_zero_elapsed_time(self):
        counter = Counter()
        counter.increment()
        assert counter.rate(0.0) == 0.0

    def test_negative_values_rejected(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.increment(-1)
        with pytest.raises(ValueError):
            counter.rate(-1.0)

    def test_reset(self):
        counter = Counter()
        counter.increment(3)
        counter.reset()
        assert counter.count == 0


class TestBatchMeans:
    def test_confidence_interval_matches_t_formula(self):
        batch_means = [10.0, 12.0, 9.0, 11.0, 13.0]
        estimator = BatchMeansEstimator(confidence_level=0.95)
        for value in batch_means:
            estimator.add_batch_mean(value)
        interval = estimator.confidence_interval()
        n = len(batch_means)
        expected_half = stats.t.ppf(0.975, n - 1) * np.std(batch_means, ddof=1) / math.sqrt(n)
        assert interval.mean == pytest.approx(np.mean(batch_means))
        assert interval.half_width == pytest.approx(expected_half)
        assert interval.batches == n

    @pytest.mark.parametrize("confidence_level", [0.8, 0.9, 0.95, 0.98, 0.99])
    def test_quantile_is_bitwise_students_t(self, confidence_level):
        # The estimator calls scipy.special.stdtrit; scipy.stats stays the
        # independent oracle and the two must agree to the last bit.
        for n in range(2, 501):
            values = [0.0] * (n - 1) + [float(n)]  # grand mean exactly 1.0
            estimator = BatchMeansEstimator(confidence_level=confidence_level)
            for value in values:
                estimator.add_batch_mean(value)
            interval = estimator.confidence_interval()
            variance = sum((value - 1.0) ** 2 for value in values) / (n - 1)
            standard_error = math.sqrt(variance / n)
            quantile = stats.t.ppf(0.5 + confidence_level / 2.0, df=n - 1)
            assert interval.half_width == float(quantile) * standard_error, n

    def test_interval_contains_and_bounds(self):
        estimator = BatchMeansEstimator()
        for value in (1.0, 2.0, 3.0):
            estimator.add_batch_mean(value)
        interval = estimator.confidence_interval()
        assert interval.lower <= interval.mean <= interval.upper
        assert interval.contains(interval.mean)
        assert not interval.contains(interval.upper + 1.0)

    def test_single_batch_gives_infinite_half_width(self):
        estimator = BatchMeansEstimator()
        estimator.add_batch_mean(5.0)
        interval = estimator.confidence_interval()
        assert interval.mean == 5.0
        assert math.isinf(interval.half_width)

    def test_add_observations_batches_correctly(self):
        estimator = BatchMeansEstimator()
        estimator.add_observations(range(100), batches=10)
        assert estimator.batch_count == 10
        assert estimator.mean() == pytest.approx(np.mean(range(100)), abs=0.5)

    def test_add_observations_requires_enough_data(self):
        estimator = BatchMeansEstimator()
        with pytest.raises(ValueError):
            estimator.add_observations([1.0], batches=5)
        with pytest.raises(ValueError):
            estimator.add_observations(range(100), batches=1)

    def test_no_data_raises(self):
        estimator = BatchMeansEstimator()
        with pytest.raises(ValueError):
            estimator.mean()
        with pytest.raises(ValueError):
            estimator.confidence_interval()

    def test_invalid_confidence_level(self):
        with pytest.raises(ValueError):
            BatchMeansEstimator(confidence_level=1.5)

    def test_coverage_of_iid_normal_batches(self, rng):
        """~95% of intervals built from i.i.d. normal batch means cover the true mean."""
        true_mean = 4.0
        covered = 0
        trials = 300
        for _ in range(trials):
            estimator = BatchMeansEstimator(confidence_level=0.95)
            for value in rng.normal(true_mean, 1.0, size=8):
                estimator.add_batch_mean(value)
            if estimator.confidence_interval().contains(true_mean):
                covered += 1
        assert covered / trials == pytest.approx(0.95, abs=0.05)

    def test_relative_half_width(self):
        estimator = BatchMeansEstimator()
        for value in (10.0, 10.5, 9.5, 10.2):
            estimator.add_batch_mean(value)
        interval = estimator.confidence_interval()
        assert interval.relative_half_width == pytest.approx(
            interval.half_width / interval.mean
        )

    def test_reset(self):
        estimator = BatchMeansEstimator()
        estimator.add_batch_mean(1.0)
        estimator.reset()
        assert estimator.batch_count == 0
