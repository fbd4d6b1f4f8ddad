"""Shared fixtures for the test suite.

The fixtures provide small model configurations whose Markov chains have a few
hundred to a few thousand states, so that every exact solver finishes in well
under a second and the full test suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parameters import GprsModelParameters
from repro.traffic.presets import TRAFFIC_MODEL_1, TRAFFIC_MODEL_3


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a test taking tens of seconds (deselect with -m 'not slow')"
    )


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the default result cache at a per-test directory.

    CLI commands cache under ``~/.cache/gprs-repro`` by default; tests must
    neither pollute the real cache nor be served stale entries from it.
    """
    monkeypatch.setenv("GPRS_REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


@pytest.fixture
def small_parameters() -> GprsModelParameters:
    """A small but non-trivial configuration (about 1000 states)."""
    return GprsModelParameters.from_traffic_model(
        TRAFFIC_MODEL_3,
        total_call_arrival_rate=0.5,
        buffer_size=4,
        max_gprs_sessions=3,
    )


@pytest.fixture
def medium_parameters() -> GprsModelParameters:
    """A medium configuration (a few thousand states) for solver comparisons."""
    return GprsModelParameters.from_traffic_model(
        TRAFFIC_MODEL_3,
        total_call_arrival_rate=0.6,
        buffer_size=10,
        max_gprs_sessions=5,
    )


@pytest.fixture
def light_traffic_parameters() -> GprsModelParameters:
    """A low-load configuration using traffic model 1 (8 kbit/s browsing)."""
    return GprsModelParameters.from_traffic_model(
        TRAFFIC_MODEL_1,
        total_call_arrival_rate=0.2,
        buffer_size=5,
        max_gprs_sessions=4,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded random generator for statistical tests."""
    return np.random.default_rng(12345)
