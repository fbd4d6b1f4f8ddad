"""The benchmark's workloads and the seed-driven choice of their inputs.

Every seed picks its inputs from a fixed finite set, so the committed
reference answers (``references/``) cover every seed.  Batch workloads pick
one sweep per scenario; the serving workload draws a request order.  Stdlib
only: the runner generates inputs before it imports the program.
"""

from __future__ import annotations

import random


#: Arrival-rate lattice in [0.05, 1.0] calls/s shared by the batch workloads.
RATE_LATTICE = tuple(round(0.05 * i, 10) for i in range(1, 21))


def _strided_sweeps(
    width: int, stride: int, lattice: tuple[float, ...] = RATE_LATTICE
) -> tuple[tuple[float, ...], ...]:
    """Sweeps of ``width`` rates ``stride`` lattice steps apart.

    Every sweep spans low and high load, so the solver work of a pass
    barely depends on which sweep the seed picks.
    """
    last = len(lattice) - 1 - stride * (width - 1)
    return tuple(
        tuple(lattice[offset + stride * k] for k in range(width))
        for offset in range(last + 1)
    )


# Network fixed points converge in fewer sweeps below 0.3 calls/s, so a pass
# there would be measurably cheaper and read as noise across seeds.
_UPPER_LATTICE = tuple(rate for rate in RATE_LATTICE if rate >= 0.3 - 1e-9)

#: Batch workloads: each item is ``(scenario, preset, candidate sweeps)``.
BATCH_ITEMS = {
    "cell-paper": (
        ("figure12", "paper", _strided_sweeps(3, 7)),
        ("heavy-gprs", "paper", _strided_sweeps(3, 7)),
    ),
    "network-pool": (
        ("hotspot-cluster", "default", _strided_sweeps(3, 5, _UPPER_LATTICE)),
        ("ring-16", "default", _strided_sweeps(3, 5, _UPPER_LATTICE)),
    ),
    "transient-chain": (
        ("diurnal-24h", "smoke", _strided_sweeps(1, 1, _UPPER_LATTICE[::2])),
        ("flash-crowd", "smoke", _strided_sweeps(1, 1, _UPPER_LATTICE[::2])),
    ),
}

#: The 18 single-cell scenarios the serving workload requests.
SERVE_SCENARIOS = (
    "bursty-sessions", "degraded-radio", "dense-cell", "figure10",
    "figure11", "figure12", "figure13", "figure14", "figure15", "figure5",
    "figure6", "figure7", "figure8", "figure9", "heavy-gprs", "large-buffer",
    "no-flow-control", "voice-first",
)
#: Cache hits per re-solve in one round of the serving workload (80% / 20%).
HITS_PER_RESOLVE = 4

#: Execution settings and pacing per workload.  ``jobs`` is the worker count
#: of the measured passes (traced passes always run ``jobs=1``: times can only
#: be taken in-process).  ``pass_s`` is the nominal duration of one pass,
#: which turns ``--seconds`` into a fixed number of passes: two runs with the
#: same settings always measure the same amount of work.
WORKLOADS = {
    "cell-paper": {"jobs": 1, "pass_s": 7.0},
    "network-pool": {"jobs": 2, "pass_s": 3.0},
    "transient-chain": {"jobs": 1, "pass_s": 9.0},
    "serve-mix": {"jobs": 1, "pass_s": 7.0, "clients": 2},
}
MIN_PASSES = 3


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / WORKLOADS[workload]["pass_s"]))


def _choice_index(seed: int, count: int) -> int:
    """Seed -> index in ``range(count)``; seeds differing mod ``count`` differ."""
    return (seed * 7919 + 104729) % count


def batch_inputs(workload: str, seed: int) -> list[dict]:
    """The sweeps one run of a batch workload solves, chosen by ``seed``."""
    items = BATCH_ITEMS[workload]
    radices = [len(choices) for _, _, choices in items]
    total = 1
    for radix in radices:
        total *= radix
    index = _choice_index(seed, total)
    inputs = []
    for (scenario, preset, choices), radix in zip(items, radices):
        index, digit = divmod(index, radix)
        inputs.append(
            {"scenario": scenario, "preset": preset, "rates": list(choices[digit])}
        )
    return inputs


def serve_sequence(seed: int, pass_index: int) -> list[dict]:
    """One round of the serving mix in a seed-shuffled order.

    Every round holds the same multiset -- each scenario ``HITS_PER_RESOLVE``
    times as a pre-warmed ``smoke`` hit and once as a ``default`` re-solve
    with ``cache: false`` -- so the seed changes the order and interleaving
    of requests, not the amount of work.
    """
    requests = []
    for scenario in SERVE_SCENARIOS:
        requests += [
            {"scenario": scenario, "preset": "smoke", "cache": True, "kind": "hit"}
        ] * HITS_PER_RESOLVE
        requests.append(
            {"scenario": scenario, "preset": "default", "cache": False,
             "kind": "resolve"}
        )
    random.Random(f"serve-mix:{seed}:{pass_index}").shuffle(requests)
    return [dict(request) for request in requests]


def reference_inputs(workload: str) -> list[dict]:
    """Every input any seed can produce (what ``references/`` must cover)."""
    if workload == "serve-mix":
        return [
            {"scenario": scenario, "preset": preset, "rates": None}
            for scenario in SERVE_SCENARIOS
            for preset in ("smoke", "default")
        ]
    return [
        {"scenario": scenario, "preset": preset, "rates": list(rates)}
        for scenario, preset, choices in BATCH_ITEMS[workload]
        for rates in choices
    ]


def input_key(scenario: str, preset: str, rates) -> str:
    """Reference-file key of one sweep input."""
    axis = "preset-axis" if rates is None else ",".join(f"{r:g}" for r in rates)
    return f"{scenario}|{preset}|{axis}"
