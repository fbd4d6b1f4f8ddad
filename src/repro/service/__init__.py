"""Warm scenario service: a long-lived process answering scenario requests.

The service (``gprs-repro serve``) keeps the expensive per-process state of
a scenario solve -- generator templates, the artifact store's memory tier,
the result cache and persistent worker pools -- alive across requests, so
repeat and near-repeat requests replay instead of resolving.  Requests pass
through a hardened admission layer (:mod:`repro.service.admission`):
bounded concurrency, request coalescing, backpressure, per-request
deadlines, graceful drain and a crash-consistent request journal.  The
client (``gprs-repro client``) and protocol helpers live here too.

Served answers are bitwise identical to the cold CLI path after stripping
run provenance; :func:`~repro.service.protocol.canonical_text` defines
exactly that comparison.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "admission": (
            "AdmissionQueue",
            "Draining",
            "Overloaded",
            "RequestJournal",
            "RequestTimeout",
        ),
        "client": ("DEFAULT_URL", "ServiceClient", "ServiceError"),
        "protocol": (
            "PROTOCOL_VERSION",
            "canonical_payload",
            "canonical_text",
            "normalise_request",
            "request_key",
        ),
        "server": ("ScenarioService", "create_server", "serve"),
    },
)
