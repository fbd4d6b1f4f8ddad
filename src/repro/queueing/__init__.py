"""Analytic queueing-theory building blocks.

The GPRS Markov model of the paper embeds two Erlang-loss (M/M/c/c) systems:
one for the number of active GSM voice calls and one for the number of active
GPRS sessions (Section 4.2, Eqs. (1)-(7)).  Their closed-form solutions are
used both to balance the handover flows entering and leaving the cell
(Eqs. (4)-(5)) and to compute carried voice traffic, blocking probabilities and
the average number of GPRS sessions.

This subpackage provides those closed forms plus the generic fixed-point
iteration framework used for the handover balance, and a set of companion
models that extend the paper's admission and sharing assumptions:

* :class:`~repro.queueing.guard_channel.GuardChannelSystem` -- cutoff-priority
  admission that reserves guard channels for handover calls;
* :class:`~repro.queueing.engset.EngsetSystem` -- the finite-population
  correction of the Erlang-loss model;
* :class:`~repro.queueing.priority.PreemptivePrioritySharing` -- the
  voice-over-data priority rule analysed by time-scale decomposition;
* :class:`~repro.queueing.map_queue.MapMcKQueue` -- the BSC buffer as a
  MAP/M/c/K queue, solved exactly through the block-tridiagonal machinery.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "engset": ("EngsetSystem",),
        "erlang": (
            "ErlangLossSystem",
            "erlang_b",
            "erlang_b_recursive",
            "erlang_c",
            "offered_load",
        ),
        "fixed_point": ("FixedPointResult", "fixed_point_iteration"),
        "guard_channel": ("GuardChannelSystem",),
        "littles_law": (
            "mean_queue_length_from_delay",
            "mean_waiting_time",
            "utilization",
        ),
        "map_queue": ("MapMcKQueue",),
        "mmck": ("MMcKQueue",),
        "priority": ("PreemptivePrioritySharing",),
    },
)
