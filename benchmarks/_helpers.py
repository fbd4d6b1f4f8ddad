"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import os
from pathlib import Path

from repro import obs
from repro.experiments.reporting import format_figure_result, format_scenario_result
from repro.experiments.scale import ExperimentScale
from repro.runtime import run_sweep, scenario

__all__ = [
    "run_once",
    "report",
    "run_scenario_once",
    "report_scenario",
    "persist_timings",
]

#: Environment variable naming the ledger :func:`persist_timings` appends to;
#: unset, nothing is written.  Records are the same schema-versioned JSONL
#: format the CLI's ``--ledger`` emits, so benchmark telemetry and production
#: telemetry share one format (and one ``gprs-repro report`` /
#: :func:`repro.obs.compare` toolchain).  The committed history lives in
#: ``benchmarks/BENCH_repetition.jsonl``; point the variable there to extend it.
BENCH_FILE_ENV = "GPRS_REPRO_BENCH_FILE"


def persist_timings(name: str, record: dict, *, wall_s: float = 0.0) -> Path | None:
    """Append one run-ledger record for benchmark ``name``.

    Only when ``GPRS_REPRO_BENCH_FILE`` names a ledger: a plain test run
    measures without writing anything, so it never modifies tracked files.

    ``record``'s integer values become ledger counters and its float values
    ledger gauges, so two records of the same benchmark diff through
    :func:`repro.obs.compare` exactly like two production runs; the raw
    record is also kept verbatim under ``args``.  When the ledger already
    holds an earlier record of this benchmark, the delta against the latest
    one is printed (visible with ``pytest -s`` and in CI logs) -- repeated
    runs accumulate a perf trajectory with built-in regression diffs.

    Persistence is best effort: an unset variable or an unwritable ledger
    (read-only checkout, sandboxed CI) returns ``None`` and never fails the
    benchmark that produced the numbers.

    Every record carries the process's cumulative resilience counters
    (retries, timeouts, pool respawns, degradation to serial) in its
    ``resilience`` block: a benchmark run that silently degraded to
    in-process execution times something other than the parallel path it
    claims to, so the record keeps the evidence a perf comparison needs to
    disqualify itself.  The ``store`` block does the same for the artifact
    store: a benchmark that unknowingly replayed warm store entries times
    the replay path, not the solve it claims to measure.
    """
    target = os.environ.get(BENCH_FILE_ENV)
    if not target:
        return None
    path = Path(target)
    counters = {
        key: value
        for key, value in record.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }
    gauges = {
        key: float(value) for key, value in record.items() if isinstance(value, float)
    }
    totals = obs.current_registry().snapshot().get("counters", {})
    resilience = obs.resilience_block({"counters": totals})
    store = obs.store_block({"counters": totals})
    entry = obs.make_record(
        command="benchmark",
        target=name,
        args=dict(record),
        wall_s=wall_s,
        metrics={"counters": counters, "gauges": gauges, "histograms": {}},
        resilience=resilience,
        store=store,
    )
    previous = None
    try:
        if path.exists():
            candidates = [
                existing
                for existing in obs.read_ledger(str(path))
                if existing.get("target") == name
            ]
            previous = candidates[-1] if candidates else None
    except (OSError, ValueError):
        previous = None
    try:
        obs.append_record(str(path), entry)
    except OSError:
        return None
    if previous is not None:
        print()
        print(f"[{name}] vs previous run:")
        print(obs.render_compare(obs.compare(previous, entry)))
    return path


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The figure sweeps are deterministic and expensive (dozens of CTMC
    solutions), so repeating them for statistical timing would only slow the
    suite down without adding information.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def report(result) -> None:
    """Print the regenerated figure data (visible with ``pytest -s`` and in CI logs)."""
    print()
    print(format_figure_result(result))


def run_scenario_once(benchmark, name: str, scale: ExperimentScale | None = None,
                      *, jobs: int = 1):
    """Run one registered runtime scenario exactly once under benchmark timing.

    The cache is disabled so the benchmark always measures real solver work;
    cache behaviour itself is benchmarked separately (see
    ``test_bench_runtime.py``).
    """
    spec = scenario(name)
    return benchmark.pedantic(
        run_sweep,
        args=(spec,),
        kwargs={"scale": scale, "jobs": jobs, "cache": None},
        rounds=1,
        iterations=1,
    )


def report_scenario(result) -> None:
    """Print a scenario sweep result (visible with ``pytest -s`` and in CI logs)."""
    print()
    print(format_scenario_result(result))
