"""Summary statistics and failure accounting shared by the runner and tests.

Stdlib only: the runner imports this module before it knows whether the
program under test can be imported at all.
"""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MARGIN = 10

#: Registry counters whose growth marks a whole pass as failed: a pool that
#: retried, respawned or degraded to serial did not run the workload it was
#: asked to run, even when every answer came back right.
POISON_COUNTERS = (
    "resilience.retries",
    "resilience.pool_respawns",
    "resilience.degraded",
)


def median(values) -> float:
    return float(statistics.median(values))


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_MARGIN`` samples beyond it.

    Returns ``(value, percentile, count)``: ``value`` is the
    ``TAIL_MARGIN + 1``-th largest sample, ``percentile`` the share of
    samples at or below its rank (in percent) and ``count`` the number of
    samples.  Fewer than ``TAIL_MARGIN + 1`` samples have no such percentile.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_MARGIN:
        raise ValueError(
            f"a tail needs more than {TAIL_MARGIN} samples, got {count}"
        )
    rank = count - TAIL_MARGIN - 1
    return float(ordered[rank]), 100.0 * (rank + 1) / count, count


def operation_failed(op: dict) -> bool:
    """One attempted operation (a sweep point or a served request) failed.

    An operation fails when it never completed (``None``), or when it carries
    an HTTP status other than 200, an ``ok: false`` response, failed sweep
    points, ``SweepFailure`` records, or an answer that did not pass the
    correctness gate.
    """
    if op is None:
        return True
    return (
        op.get("status", 200) != 200
        or not op.get("ok", True)
        or op.get("failed_points", 0) > 0
        or op.get("failures", 0) > 0
        or not op.get("correct", True)
    )


def pass_poisoned(counters: dict) -> bool:
    """True when a pass retried, respawned or degraded its worker pool."""
    return any(counters.get(name, 0) > 0 for name in POISON_COUNTERS)


def failure_counts(passes) -> tuple[int, int]:
    """``(attempted, failed)`` over passes of ``{"ops": [...], "counters": {...}}``.

    Every operation of a poisoned pass counts as failed.
    """
    attempted = failed = 0
    for outcome in passes:
        ops = outcome["ops"]
        attempted += len(ops)
        if pass_poisoned(outcome.get("counters", {})):
            failed += len(ops)
        else:
            failed += sum(1 for op in ops if operation_failed(op))
    return attempted, failed


def fail_ratio(passes) -> float:
    """Failed operations over attempted ones (1 when nothing was attempted)."""
    attempted, failed = failure_counts(passes)
    return failed / attempted if attempted else 1.0
