"""Unified observability: hierarchical spans, typed metrics, run ledger.

Three layers, one per module:

- :mod:`repro.obs.trace` -- zero-cost-when-disabled hierarchical spans with
  monotonic wall/CPU timings, aggregated into a span tree plus flat
  per-name totals.
- :mod:`repro.obs.metrics` -- a process-local registry of typed
  counters/gauges/histograms with PID-guarded merge semantics across the
  ``ProcessPoolExecutor`` boundary.
- :mod:`repro.obs.ledger` -- the schema-versioned JSONL run ledger, the
  ``gprs-repro report`` rendering, and the :func:`~repro.obs.ledger.compare`
  helper the benchmarks share.

The standing contract: instrumentation never changes numbers.  Tracing on
vs. off is bitwise identical, and the disabled path costs one contextvar
read per span site.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ledger": (
            "SCHEMA",
            "SCHEMA_VERSION",
            "append_record",
            "compare",
            "make_record",
            "read_ledger",
            "render_compare",
            "render_report",
            "resilience_block",
            "service_block",
            "spec_digest",
            "store_block",
            "validate_record",
        ),
        "metrics": (
            "MetricsRegistry",
            "absorb_export",
            "activate_registry",
            "current_registry",
            "export_delta",
            "global_registry",
        ),
        "trace": (
            "NULL_TRACER",
            "SpanNode",
            "Tracer",
            "activate_tracer",
            "current_tracer",
        ),
    },
)
