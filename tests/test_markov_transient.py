"""Tests of transient analysis via uniformisation."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from repro.markov.transient import (
    poisson_truncation_point,
    poisson_window,
    transient_distribution,
    uniformize,
    uniformized_series,
)


def three_state_generator() -> np.ndarray:
    generator = np.array(
        [[-3.0, 2.0, 1.0], [0.5, -1.5, 1.0], [2.0, 2.0, -4.0]]
    )
    return generator


class TestUniformize:
    def test_uniformized_matrix_is_stochastic(self):
        p, rate = uniformize(three_state_generator())
        rows = np.asarray(p.sum(axis=1)).ravel()
        assert rows == pytest.approx(np.ones(3))
        assert rate >= 4.0

    def test_explicit_rate_must_cover_exit_rates(self):
        with pytest.raises(ValueError, match="smaller than the maximum exit rate"):
            uniformize(three_state_generator(), rate=1.0)

    def test_zero_generator_yields_identity(self):
        p, rate = uniformize(np.zeros((3, 3)))
        assert np.allclose(p.toarray(), np.eye(3))
        assert rate > 0


def _linear_scan_truncation(mean: float, tol: float) -> int:
    """The historical linear scan (the small-mean reference implementation)."""
    pmf = np.exp(-mean)
    cdf = pmf
    k = 0
    guard = int(mean + 12.0 * np.sqrt(mean) + 30.0)
    while cdf < 1.0 - tol and k < guard:
        k += 1
        pmf *= mean / k
        cdf += pmf
    return k


class TestPoissonTruncation:
    def test_zero_mean(self):
        assert poisson_truncation_point(0.0, 1e-10) == 0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_truncation_point(-1.0, 1e-10)

    @pytest.mark.parametrize("mean", [0.5, 5.0, 50.0])
    def test_truncation_covers_requested_mass(self, mean):
        from scipy.stats import poisson

        point = poisson_truncation_point(mean, 1e-9)
        assert poisson.cdf(point, mean) >= 1 - 1e-9

    def test_truncation_grows_with_mean(self):
        assert poisson_truncation_point(100.0, 1e-9) > poisson_truncation_point(1.0, 1e-9)

    def test_small_means_bitwise_match_the_linear_scan(self):
        """Below the jump threshold the scan result is reproduced exactly."""
        rng = np.random.default_rng(20020527)
        means = list(rng.uniform(0.001, 32.0, 100)) + [1.0, 31.999, 32.0]
        for mean in means:
            for tol in (1e-6, 1e-9, 1e-12, 1e-15):
                assert poisson_truncation_point(mean, tol) == _linear_scan_truncation(
                    mean, tol
                ), (mean, tol)

    @pytest.mark.parametrize("mean", [50.0, 200.0, 1234.5, 2e4, 1e6])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_large_mean_jump_is_certified_and_tight(self, mean, tol):
        """The normal-approximation jump must cover the requested mass and
        land within a fraction of a standard deviation of the exact quantile."""
        from scipy.stats import poisson

        point = poisson_truncation_point(mean, tol)
        assert poisson.cdf(point, mean) >= 1 - tol
        exact = int(poisson.ppf(1 - tol, mean))
        assert exact <= point <= exact + 0.5 * np.sqrt(mean) + 10

    def test_large_mean_jump_is_constant_cost(self):
        """The jump must not degenerate into an O(mean) walk."""
        import time

        start = time.perf_counter()
        for _ in range(100):
            poisson_truncation_point(5e6, 1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5  # the linear scan would need minutes


class TestPoissonWindow:
    @pytest.mark.parametrize("mean", [0.0, 0.5, 5.0, 31.9, 32.5, 100.0, 3180.0])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_window_covers_the_requested_mass(self, mean, tol):
        from scipy.stats import poisson

        left, right, weights = poisson_window(mean, tol)
        assert weights.shape == (right - left + 1,)
        covered = poisson.cdf(right, mean) - poisson.cdf(left - 1, mean)
        assert covered >= 1 - tol
        assert weights.sum() == pytest.approx(1.0, abs=tol)

    @pytest.mark.parametrize("mean", [0.0, 1e-3, 0.5, 5.0, 20.0])
    def test_small_means_start_at_zero(self, mean):
        left, _, _ = poisson_window(mean, 1e-12)
        assert left == 0

    def test_weights_match_the_poisson_pmf(self):
        from scipy.stats import poisson

        left, right, weights = poisson_window(250.0, 1e-12)
        expected = poisson.pmf(np.arange(left, right + 1), 250.0)
        assert weights == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("mean", [1e3, 1e5, 2e6])
    def test_weights_do_not_underflow_at_large_means(self, mean):
        """exp(-mean) underflows past ~745; the mode-centred weights never do."""
        left, right, weights = poisson_window(mean, 1e-12)
        assert np.all(np.isfinite(weights)) and np.all(weights > 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert left < mean < right
        # The mode weight is the normal density's peak, 1 / sqrt(2 pi mean).
        assert weights.max() == pytest.approx(1 / np.sqrt(2 * np.pi * mean), rel=1e-3)

    def test_large_mean_window_is_cheap(self):
        """Same time bound as the 5e6 truncation-point test."""
        import time

        start = time.perf_counter()
        for _ in range(100):
            poisson_window(2e6, 1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_window(-1.0, 1e-12)


def birth_death_generator(states: int, birth: float, death: float) -> np.ndarray:
    generator = np.zeros((states, states))
    for i in range(states - 1):
        generator[i, i + 1] = birth
        generator[i + 1, i] = death
    generator -= np.diag(generator.sum(axis=1))
    return generator


class TestUniformizedSeries:
    @staticmethod
    def counted_step(calls: list):
        """``v -> v P`` of the three-state chain, appending to ``calls``."""
        p, _ = uniformize(three_state_generator())
        pt = p.T.tocsr()

        def step(vector):
            calls.append(1)
            return pt @ vector

        return step

    def test_series_skips_terms_left_of_the_window(self):
        """R products are taken, but only weights from L on are accumulated."""
        _, lam = uniformize(three_state_generator())
        calls = []
        mean = 400.0
        left, right, _ = poisson_window(mean, 1e-12)
        assert left > 0
        pi0 = np.array([1.0, 0.0, 0.0])
        result = uniformized_series(self.counted_step(calls), pi0, mean, 1e-12)
        assert len(calls) == right
        expected = pi0 @ expm(three_state_generator() * (mean / lam))
        assert result == pytest.approx(expected, abs=1e-12)

    def test_first_step_replaces_the_first_product(self):
        pi0 = np.array([0.2, 0.3, 0.5])
        plain_calls, reused_calls = [], []
        plain = uniformized_series(self.counted_step(plain_calls), pi0, 7.0, 1e-12)
        first = self.counted_step([])(pi0)
        reused = uniformized_series(
            self.counted_step(reused_calls), pi0, 7.0, 1e-12, first_step=first
        )
        assert len(reused_calls) == len(plain_calls) - 1
        assert np.array_equal(plain, reused)


class TestTransientDistribution:
    def test_matches_matrix_exponential(self):
        generator = three_state_generator()
        initial = np.array([1.0, 0.0, 0.0])
        for time in (0.1, 0.7, 2.5):
            expected = initial @ expm(generator * time)
            actual = transient_distribution(generator, initial, time)
            assert actual == pytest.approx(expected, abs=1e-12)

    def test_matches_matrix_exponential_far_past_the_underflow_mean(self):
        """One series covers Lambda t >> 745, where exp(-Lambda t) underflows."""
        generator = birth_death_generator(50, birth=5.0, death=5.0)
        initial = np.zeros(50)
        initial[0] = 1.0
        _, lam = uniformize(generator)
        for time in (100.0, 400.0):
            assert lam * time > 745.0
            expected = initial @ expm(generator * time)
            actual = transient_distribution(generator, initial, time)
            assert actual == pytest.approx(expected, abs=1e-12)

    def test_time_zero_returns_initial(self):
        initial = np.array([0.2, 0.3, 0.5])
        result = transient_distribution(three_state_generator(), initial, 0.0)
        assert result == pytest.approx(initial)

    def test_long_horizon_reaches_stationarity(self):
        from repro.markov.solvers import steady_state_gth

        generator = three_state_generator()
        stationary = steady_state_gth(generator).distribution
        late = transient_distribution(generator, [1.0, 0.0, 0.0], 500.0)
        assert late == pytest.approx(stationary, abs=1e-8)

    def test_initial_distribution_is_normalised(self):
        result = transient_distribution(three_state_generator(), [2.0, 0.0, 0.0], 0.5)
        assert result.sum() == pytest.approx(1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            transient_distribution(three_state_generator(), [1.0, 0.0, 0.0], -1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            transient_distribution(three_state_generator(), [1.0, 0.0], 1.0)

    def test_zero_mass_initial_rejected(self):
        with pytest.raises(ValueError, match="positive finite mass"):
            transient_distribution(three_state_generator(), [0.0, 0.0, 0.0], 1.0)
