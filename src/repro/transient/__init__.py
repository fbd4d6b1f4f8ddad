"""Transient analysis: time-varying workloads solved by adaptive uniformisation.

The paper's Markov model is solved in steady state, but the questions
operators ask -- what happens to blocking and throughput during the morning
busy-hour ramp, a flash crowd, a partial-capacity outage -- are inherently
non-stationary.  This package composes the repository's existing ingredients
(the uniformisation primitive, bitwise generator templates, the Erlang-loss
handover balance) into a time-dependent model:

* :mod:`repro.transient.schedule` -- :class:`RateSchedule` /
  :class:`WorkloadProfile`: piecewise-constant time-varying parameter
  schedules (diurnal ramps, flash-crowd spikes, outage steps), dict
  round-trippable and content-digestable for scenario specs and cache keys.
* :mod:`repro.transient.model` -- :class:`TransientModel`: per-segment
  generators rebuilt through shared generator templates, quasi-stationary
  handover rates seeded segment to segment, adaptive uniformisation that
  carries the distribution across breakpoints (remapping it across
  state-space shape changes), detects steady state to stop early, and emits
  the QoS-measure trajectory.
* :mod:`repro.transient.propagator` -- :class:`PropagatorCache`: memoised
  segment propagators keyed by a content digest of everything a propagation
  is a function of; repeated identical segments (diurnal cycles, staircase
  sweeps, re-runs) are served by checkpointed replay at zero matvec cost,
  bitwise identical to recomputation.
* :mod:`repro.transient.sweep` -- arrival-rate sweeps of whole trajectories,
  cached under profile-aware keys with independent trajectories solved in
  parallel.

Quickstart::

    from repro import GprsModelParameters, traffic_model
    from repro.transient import TransientModel, flash_crowd

    params = GprsModelParameters.from_traffic_model(
        traffic_model(3), total_call_arrival_rate=0.5,
        buffer_size=10, max_gprs_sessions=5)
    result = TransientModel(flash_crowd(), params).solve()
    print(result.series("packet_loss_probability"))
"""

# No submodule here imports repro.runtime at module level (sweep defers
# those imports into its functions): the runtime package reaches into
# repro.transient.schedule for its scenario registry, and the dependency must
# stay one-directional for both packages to import standalone.

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "schedule": (
            "SEGMENT_OVERRIDE_FIELDS",
            "RateSchedule",
            "ScheduleSegment",
            "WorkloadProfile",
            "busy_hour_ramp",
            "constant_workload",
            "diurnal_cycle",
            "flash_crowd",
            "outage_recovery",
        ),
        "model": (
            "SegmentTrace",
            "TrajectoryPoint",
            "TransientModel",
            "TransientResult",
        ),
        "propagator": ("PropagatorCache", "SegmentReplay", "default_propagator_cache"),
        "sweep": (
            "TransientSweepPoint",
            "TransientSweepResult",
            "run_transient_sweep",
            "transient_sweep_payloads",
        ),
    },
)
