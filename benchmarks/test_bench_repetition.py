"""Benchmarks of the repetition-reuse pass: coarse correction, propagator
memoisation, pipelined network scheduling.

Three independent hot paths waste work repeated across nearly-identical
solves; each gets an A/B benchmark here, and each records its numbers in the
run ledger named by ``GPRS_REPRO_BENCH_FILE`` when it is set (see
``_helpers.persist_timings``; the committed history is
``BENCH_repetition.jsonl``):

* ``test_coarse_correction_sweep_count_k100`` -- at the paper's buffer depth
  (K=100) the two-level coarse-space correction must cut the structured
  solver's sweep count by >= 1.5x, with fully converged measures agreeing to
  1e-8 precision.
* ``test_propagator_replay_diurnal`` -- re-solving the ``diurnal-24h``
  trajectory must be >= 2x faster once the propagator cache holds its
  segments (measured: the replay skips the entire matvec chain), with
  bitwise-identical sampled series.
* ``test_pipelined_network_sweep_16pt`` -- a 16-point ``homogeneous-7``
  sweep scheduled points x cells through one shared pool must be bitwise
  identical for any job count, and faster than the per-point schedule when
  more than one core is available (on a single core the two schedules do the
  same work sequentially, so only the bitwise contract is asserted).

The ``*_smoke`` variants run the same machinery at the smallest sizes for
the CI ``perf-smoke`` job.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _helpers import persist_timings
from repro.core.handover import balance_handover_rates
from repro.core.measures import compute_measures
from repro.core.parameters import GprsModelParameters
from repro.core.state_space import GprsStateSpace
from repro.core.structured_solver import StructuredSolveContext, solve_structured
from repro.core.template import GeneratorTemplate
from repro.experiments.scale import ExperimentScale
from repro.network.sweep import network_sweep_payloads
from repro.runtime import scenario
from repro.traffic.presets import TRAFFIC_MODEL_3
from repro.transient import PropagatorCache, TransientModel


# ---------------------------------------------------------------------- #
# (a) Coarse-space sweep correction
# ---------------------------------------------------------------------- #
def _structured_pair(buffer_size: int, sessions: int, rate: float, tol: float):
    """Solve one configuration cold with the correction off and on (timed)."""
    params = GprsModelParameters.from_traffic_model(
        TRAFFIC_MODEL_3, rate, buffer_size=buffer_size, max_gprs_sessions=sessions
    )
    space = GprsStateSpace(
        gsm_channels=params.gsm_channels,
        buffer_size=buffer_size,
        max_sessions=sessions,
    )
    balance = balance_handover_rates(params)
    template = GeneratorTemplate.build(params, space)
    generator = template.generator(
        params,
        gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
        gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
    )
    context = StructuredSolveContext.build(params, space)
    outcomes = {}
    for coarse in (False, True):
        start = time.perf_counter()
        result = solve_structured(
            params,
            space,
            generator,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
            tol=tol,
            context=context,
            coarse_correction=coarse,
        )
        outcomes[coarse] = (result, time.perf_counter() - start)
    return params, space, balance, outcomes


def test_coarse_correction_sweep_count_k100():
    """K=100 paper-depth solve: >= 1.5x fewer sweeps, 1e-8 measure agreement."""
    params, space, balance, at_tol = _structured_pair(100, 10, 0.5, 1e-9)
    plain, plain_seconds = at_tol[False]
    corrected, corrected_seconds = at_tol[True]
    ratio = plain.iterations / corrected.iterations
    print()
    print(
        f"K=100 ({space.size} states), rate 0.5: plain {plain.iterations} sweeps "
        f"({plain_seconds:.2f}s), corrected {corrected.iterations} sweeps "
        f"({corrected.coarse_corrections} correction(s), {corrected_seconds:.2f}s) "
        f"-> {ratio:.2f}x fewer sweeps"
    )
    assert corrected.coarse_corrections >= 1
    assert ratio >= 1.5

    # Agreement at the tolerance floor, 1e-8 precision per measure (relative
    # for the large-magnitude ones -- mean queue length at K=100 amplifies
    # distribution rounding by ~K x states).
    _, _, _, deep = _structured_pair(100, 10, 0.5, 1e-14)
    plain_measures = compute_measures(
        params, space, deep[False][0].distribution, balance
    ).as_dict()
    corrected_measures = compute_measures(
        params, space, deep[True][0].distribution, balance
    ).as_dict()
    for key, value in plain_measures.items():
        scale = max(1.0, abs(value))
        assert abs(corrected_measures[key] - value) <= 1e-8 * scale

    persist_timings(
        "coarse-correction-k100",
        {
            "states": space.size,
            "plain_sweeps": plain.iterations,
            "corrected_sweeps": corrected.iterations,
            "corrections": corrected.coarse_corrections,
            "plain_seconds": round(plain_seconds, 4),
            "corrected_seconds": round(corrected_seconds, 4),
            "sweep_ratio": round(ratio, 3),
        },
        wall_s=round(plain_seconds + corrected_seconds, 4),
    )


def test_coarse_correction_smoke():
    """CI smoke: a deep-buffer smoke-sized chain engages and improves."""
    _, space, _, outcomes = _structured_pair(60, 4, 0.5, 1e-9)
    plain, _ = outcomes[False]
    corrected, _ = outcomes[True]
    print()
    print(
        f"smoke K=60 ({space.size} states): plain {plain.iterations} sweeps, "
        f"corrected {corrected.iterations} sweeps "
        f"({corrected.coarse_corrections} correction(s))"
    )
    assert corrected.coarse_corrections >= 1
    assert corrected.iterations < plain.iterations


# ---------------------------------------------------------------------- #
# (b) Memoised segment propagators
# ---------------------------------------------------------------------- #
def test_propagator_replay_diurnal():
    """Re-solving diurnal-24h >= 2x faster via replay, bitwise-same series."""
    spec = scenario("diurnal-24h")
    params = spec.parameters(ExperimentScale.smoke()).with_arrival_rate(0.5)
    profile = spec.transient
    cache = PropagatorCache()

    start = time.perf_counter()
    cold = TransientModel(profile, params, propagator_cache=cache).solve()
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = TransientModel(profile, params, propagator_cache=cache).solve()
    warm_seconds = time.perf_counter() - start

    speedup = cold_seconds / warm_seconds
    print()
    print(
        f"diurnal-24h (smoke preset): cold {cold_seconds:.2f}s "
        f"({cold.matvecs} matvecs), memoised {warm_seconds:.3f}s "
        f"({warm.propagator_hits} replay(s), {warm.matvecs} matvecs) "
        f"-> {speedup:.1f}x faster"
    )
    assert warm.propagator_hits == profile.schedule.number_of_segments
    assert warm.matvecs == 0
    for metric in cold.points[0].values:
        assert warm.series(metric) == cold.series(metric)
    assert np.array_equal(warm.final_distribution, cold.final_distribution)
    assert speedup >= 2.0

    persist_timings(
        "propagator-replay-diurnal",
        {
            "segments": profile.schedule.number_of_segments,
            "cold_seconds": round(cold_seconds, 4),
            "replay_seconds": round(warm_seconds, 4),
            "cold_matvecs": cold.matvecs,
            "speedup": round(speedup, 2),
        },
        wall_s=round(cold_seconds + warm_seconds, 4),
    )


# ---------------------------------------------------------------------- #
# (c) Pipelined points x cells network scheduling
# ---------------------------------------------------------------------- #
def _sixteen_point_spec():
    rates = tuple(0.1 + 0.05 * index for index in range(16))
    return scenario("homogeneous-7").replace(arrival_rates=rates)


def test_pipelined_network_sweep_16pt():
    """16-point homogeneous-7: bitwise == serial, faster when cores allow.

    Both arms are timed twice, interleaved, and compared on their best runs
    (the convention of the other wall-clock benchmarks) so one load spike on
    a shared runner cannot decide the comparison.
    """
    scale = ExperimentScale.smoke()
    spec = _sixteen_point_spec()
    jobs = 2

    sequential_seconds, pipelined_seconds = [], []
    pipelined = None
    for _ in range(2):
        start = time.perf_counter()
        network_sweep_payloads(spec, scale, jobs=jobs)
        sequential_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        pipelined = network_sweep_payloads(spec, scale, jobs=jobs, pipelined=True)
        pipelined_seconds.append(time.perf_counter() - start)
    serial = network_sweep_payloads(spec, scale, jobs=1, pipelined=True)

    dispatched = sum(payload["pipelined_jobs"] for payload, _ in pipelined)
    cores = os.cpu_count() or 1
    print()
    print(
        f"16-point homogeneous-7 (smoke preset, jobs={jobs}, {cores} core(s)): "
        f"per-point {min(sequential_seconds):.2f}s, "
        f"pipelined {min(pipelined_seconds):.2f}s "
        f"({dispatched} jobs through the shared pool)"
    )
    assert [payload for payload, _ in pipelined] == [
        payload for payload, _ in serial
    ]
    assert dispatched >= 16 * 7 * 2  # every point, every cell, >= 2 iterations
    if cores >= 2:
        # On one core both schedules execute the same work sequentially, so
        # the pipeline's barrier-filling cannot show up on wall clock.
        assert min(pipelined_seconds) < min(sequential_seconds)

    persist_timings(
        "pipelined-network-16pt",
        {
            "points": 16,
            "cells": 7,
            "jobs": jobs,
            "cores": cores,
            "sequential_seconds": round(min(sequential_seconds), 4),
            "pipelined_seconds": round(min(pipelined_seconds), 4),
            "dispatched_jobs": dispatched,
        },
        wall_s=round(min(sequential_seconds) + min(pipelined_seconds), 4),
    )


def test_pipelined_smoke():
    """CI smoke: a small pipelined sweep is bitwise independent of jobs."""
    from repro.network import hexagonal_cluster

    scale = ExperimentScale.smoke()
    spec = scenario("homogeneous-7").replace(
        network=hexagonal_cluster(3), arrival_rates=(0.2, 0.4, 0.6, 0.8)
    )
    serial = network_sweep_payloads(spec, scale, pipelined=True, jobs=1)
    parallel = network_sweep_payloads(spec, scale, pipelined=True, jobs=2)
    print()
    print(
        f"4-point 3-cell pipelined smoke: "
        f"{sum(p['pipelined_jobs'] for p, _ in serial)} jobs, bitwise jobs=1 == jobs=2"
    )
    assert [payload for payload, _ in serial] == [payload for payload, _ in parallel]
