"""Time-dependent solution of the GPRS cell under a workload schedule.

:class:`TransientModel` turns the steady-state CTMC of the paper into a
time-dependent one.  A :class:`~repro.transient.schedule.WorkloadProfile`
describes the workload as piecewise-constant segments; within each segment
the chain is time-homogeneous, so the solve walks the schedule:

1. **Per-segment generators through templates.**  Each segment's generator is
   produced by a :class:`~repro.core.template.GeneratorTemplate` shared
   across all segments with the same fixed configuration -- the transitions
   are enumerated once per distinct shape and only the ``data`` arrays are
   rewritten per segment (a ramp of N multiplier steps enumerates exactly
   once).
2. **Quasi-stationary handover rates.**  The handover balance of Eqs. (4)-(5)
   is re-solved per segment, seeded with the previous segment's balanced
   rates: the incoming handover flows track the schedule piecewise (the
   quasi-stationary approximation -- exact for the constant schedule, and the
   standard closure for slowly varying loads).
3. **Adaptive uniformisation.**  Within a segment the distribution advances
   from sample time to sample time by the uniformised Poisson series
   (:mod:`repro.markov.transient`), one Fox-Glynn-weighted series per
   advance whatever its length.  Before each advance the stationarity
   residual ``||pi P - pi||_inf`` is measured; once it falls below
   ``steady_state_tol`` the distribution is numerically invariant for the
   remainder of the segment and all further matrix-vector products are
   skipped (the early stop that makes long constant tails free).
4. **Distribution carried across breakpoints.**  At a segment boundary the
   state distribution continues unchanged.  If the segment changes the
   state-space *shape* (an outage dropping channels, a buffer resize), the
   distribution is remapped by clamping each coordinate into the new bounds
   and accumulating the mass -- physically, calls/packets/sessions beyond the
   new capacity are dropped at the breakpoint; a growing shape embeds the old
   states exactly.

The QoS measures of Eqs. (6)-(11) are evaluated at every sample time with the
active segment's parameters and handover rates, yielding the trajectory the
CLI and the scenario runtime report.  The CTMC measures (carried data
traffic, queue length, packet loss, delay, throughput) follow the transient
distribution and relax smoothly; the Erlang-loss measures (voice blocking,
session counts) inherit the quasi-stationary closure and step with the
segments -- exactly as in the steady-state model, where both families meet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.handover import HandoverBalance, balance_handover_rates
from repro.core.measures import compute_measures
from repro.core.model import GprsMarkovModel
from repro.core.parameters import GprsModelParameters
from repro.core.state_space import GprsStateSpace
from repro.core.template import GeneratorTemplate
from repro.markov.transient import uniformize, uniformized_series
from repro.obs.metrics import current_registry
from repro.obs.trace import current_tracer
from repro.transient.propagator import (
    PropagatorCache,
    SegmentReplay,
    default_propagator_cache,
    segment_key,
)
from repro.transient.schedule import WorkloadProfile

__all__ = ["SegmentTrace", "TrajectoryPoint", "TransientModel", "TransientResult"]


# ---------------------------------------------------------------------- #
# Uniformised propagation within one segment
# ---------------------------------------------------------------------- #
class _SegmentPropagator:
    """Advances a distribution under one fixed generator via uniformisation."""

    def __init__(self, generator, *, truncation_tol: float):
        p, self.lam = uniformize(generator)
        # Row-vector products ``pi P`` dominate the cost; precompute the
        # transposed CSR so every product is a plain csr @ vector kernel.
        self._pt = p.T.tocsr()
        self._truncation_tol = truncation_tol
        self.matvecs = 0

    def step(self, pi: np.ndarray) -> np.ndarray:
        """One application of the uniformised DTMC, ``pi P``."""
        self.matvecs += 1
        return self._pt @ pi

    def advance(
        self, pi: np.ndarray, dt: float, first_step: np.ndarray | None = None
    ) -> np.ndarray:
        """Propagate ``pi`` forward by ``dt`` seconds (one Poisson series).

        ``first_step`` optionally supplies a precomputed ``pi P`` (the
        stationarity check's product) reused as the first series term, so the
        check costs nothing extra on segments that keep evolving.
        """
        if dt <= 0.0:
            return pi
        return uniformized_series(
            self.step, pi, self.lam * dt, self._truncation_tol, first_step=first_step
        )


def _remap_distribution(
    pi: np.ndarray, old_space: GprsStateSpace, new_space: GprsStateSpace
) -> np.ndarray:
    """Carry a distribution across a state-space shape change.

    Every coordinate is clamped into the new bounds and the mass accumulated:
    at a capacity-losing breakpoint the users/packets beyond the new limits
    are dropped on the spot, at a capacity-gaining one the old states embed
    exactly.  Total probability mass is conserved.
    """
    states = old_space.all_states()
    n = np.minimum(states.gsm_calls, new_space.gsm_channels)
    k = np.minimum(states.buffered_packets, new_space.buffer_size)
    m = np.minimum(states.gprs_sessions, new_space.max_sessions)
    r = np.minimum(states.sessions_off, m)
    indices = new_space.index(n, k, m, r)
    remapped = np.zeros(new_space.size)
    np.add.at(remapped, indices, pi)
    return remapped


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrajectoryPoint:
    """The QoS measures at one sample time of the trajectory."""

    time_s: float
    segment: int
    arrival_rate: float
    values: dict[str, float]

    def metric(self, name: str) -> float:
        return self.values[name]

    def as_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "segment": self.segment,
            "arrival_rate": self.arrival_rate,
            "values": dict(self.values),
        }


@dataclass(frozen=True)
class SegmentTrace:
    """Diagnostics of one schedule segment's share of the solve."""

    index: int
    start_time_s: float
    end_time_s: float
    arrival_rate: float
    gsm_handover_rate: float
    gprs_handover_rate: float
    states: int
    template_reused: bool
    remapped: bool
    matvecs: int
    #: Time at which the stationarity residual fell below tolerance and the
    #: remaining propagation of the segment was skipped (``None`` = never).
    stationary_from_s: float | None
    #: Achieved stationarity residual ``||pi P - pi||_inf`` at the early stop
    #: (``None`` when the segment never early-stopped).
    stationarity_residual: float | None = None
    #: Whether this segment was served by a memoised propagator replay
    #: (``matvecs`` is then 0; the recorded residual is reported unchanged).
    replayed: bool = False

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "start_time_s": self.start_time_s,
            "end_time_s": self.end_time_s,
            "arrival_rate": self.arrival_rate,
            "gsm_handover_rate": self.gsm_handover_rate,
            "gprs_handover_rate": self.gprs_handover_rate,
            "states": self.states,
            "template_reused": self.template_reused,
            "remapped": self.remapped,
            "matvecs": self.matvecs,
            "stationary_from_s": self.stationary_from_s,
            "stationarity_residual": self.stationarity_residual,
            "replayed": self.replayed,
        }


@dataclass(frozen=True)
class TransientResult:
    """A solved QoS trajectory plus per-segment diagnostics.

    Attributes
    ----------
    points:
        One :class:`TrajectoryPoint` per sample time, in time order.
    segments:
        One :class:`SegmentTrace` per schedule segment.
    matvecs:
        Total matrix-vector products spent (the cost unit of uniformisation).
    templates_built:
        Distinct generator templates enumerated; segments beyond the first
        with the same fixed configuration only rewrite ``data`` arrays.
    early_stopped_segments:
        Segments whose propagation ended early on the stationarity residual.
    propagator_hits:
        Segments served by a memoised propagator replay instead of re-running
        the matvec chain (see :mod:`repro.transient.propagator`); their
        matvec cost is 0 and their sampled series are bitwise identical to a
        recomputation.
    """

    profile: WorkloadProfile
    base_parameters: GprsModelParameters
    points: tuple[TrajectoryPoint, ...]
    segments: tuple[SegmentTrace, ...]
    matvecs: int
    templates_built: int
    early_stopped_segments: int
    propagator_hits: int
    final_distribution: np.ndarray = field(repr=False, compare=False)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(point.time_s for point in self.points)

    def series(self, metric: str) -> tuple[float, ...]:
        """One measure across the trajectory, aligned with :attr:`times`."""
        return tuple(point.values[metric] for point in self.points)

    def peak(self, metric: str) -> float:
        """Largest value of ``metric`` along the trajectory."""
        return max(self.series(metric))

    def time_averages(self) -> dict[str, float]:
        """Trapezoidal time average of every measure over the trajectory.

        This is the scalar summary the scenario runtime stores per sweep
        point (same keys as the steady-state measures, so transient sweep
        points render through the same reports).
        """
        times = np.array(self.times)
        if times.shape[0] == 1 or times[-1] <= times[0]:
            return dict(self.points[0].values)
        weights = np.zeros(times.shape[0])
        gaps = np.diff(times)
        weights[:-1] += 0.5 * gaps
        weights[1:] += 0.5 * gaps
        span = times[-1] - times[0]
        averages = {}
        for key in self.points[0].values:
            series = np.array([point.values[key] for point in self.points])
            averages[key] = float(np.dot(weights, series) / span)
        return averages

    def peaks(self) -> dict[str, float]:
        """Largest value of every measure along the trajectory."""
        return {key: self.peak(key) for key in self.points[0].values}

    def as_dict(self) -> dict:
        """JSON-serialisable rendering (used by the cache and ``--json``)."""
        return {
            "profile": {
                "name": self.profile.name,
                "digest": self.profile.digest(),
                "initial": self.profile.initial,
                "duration_s": self.profile.total_duration_s,
                "segments": self.profile.schedule.number_of_segments,
            },
            "base_arrival_rate": self.base_parameters.total_call_arrival_rate,
            "times": list(self.times),
            "points": [point.as_dict() for point in self.points],
            "segments": [trace.as_dict() for trace in self.segments],
            "time_averages": self.time_averages(),
            "peaks": self.peaks(),
            "matvecs": self.matvecs,
            "templates_built": self.templates_built,
            "early_stopped_segments": self.early_stopped_segments,
            "propagator_hits": self.propagator_hits,
        }


# ---------------------------------------------------------------------- #
# The transient model
# ---------------------------------------------------------------------- #
class TransientModel:
    """Time-dependent GPRS cell model under a piecewise-constant workload.

    Parameters
    ----------
    profile:
        The workload schedule, sampling grid and initial condition.
    base_parameters:
        Parameters of the unperturbed cell; each segment's multiplier and
        overrides apply on top (the arrival rate of this object is the sweep
        axis of transient sweeps).
    solver_method / solver_tol:
        Steady-state solver used for the ``"stationary"`` initial condition
        (see :class:`~repro.core.model.GprsMarkovModel`).
    truncation_tol:
        Poisson mass dropped by the truncated series of each advance.
    steady_state_tol:
        Stationarity residual ``||pi P - pi||_inf`` below which the remaining
        propagation of a segment is skipped (0 disables the early stop).
        The residual equals ``||pi Q||_inf / Lambda``, not the distance to
        stationarity: on a slowly mixing chain the skipped tail can still be
        ``residual * Lambda / gap`` away from the true fixed point, so
        tighten (or disable) the threshold when a trajectory must *converge*
        to a target accuracy rather than merely stop changing.
    share_templates:
        When ``False`` every segment enumerates its own fresh
        :class:`~repro.core.template.GeneratorTemplate` even if an earlier
        segment had the identical fixed configuration -- the A/B knob of the
        template-reuse benchmark.  Results are bitwise identical either way
        (templates are bitwise-faithful).
    memoise_propagators:
        Serve repeated identical segments -- same effective configuration,
        handover rates, advance intervals, tolerances *and* starting
        distribution -- by checkpointed replay from the propagator cache
        instead of re-running the matvec chain (see
        :mod:`repro.transient.propagator`).  Replays are bitwise identical to
        recomputation by construction; ``False`` disables the cache entirely
        (the A/B knob of the memoisation benchmark).
    propagator_cache:
        The :class:`~repro.transient.propagator.PropagatorCache` to use;
        defaults to the process-wide shared cache, so repeated solves in one
        process (re-runs, A/B arms, neighbouring sweep points) reuse each
        other's segments.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        base_parameters: GprsModelParameters,
        *,
        solver_method: str = "auto",
        solver_tol: float = 1e-10,
        truncation_tol: float = 1e-12,
        steady_state_tol: float = 1e-9,
        share_templates: bool = True,
        memoise_propagators: bool = True,
        propagator_cache: PropagatorCache | None = None,
    ) -> None:
        if not isinstance(profile, WorkloadProfile):
            raise ValueError("profile must be a WorkloadProfile")
        if truncation_tol <= 0:
            raise ValueError("truncation_tol must be positive")
        if steady_state_tol < 0:
            raise ValueError("steady_state_tol must be non-negative")
        self._profile = profile
        self._base = base_parameters
        self._solver = solver_method
        self._solver_tol = solver_tol
        self._truncation_tol = truncation_tol
        self._steady_tol = steady_state_tol
        self._share_templates = share_templates
        self._memoise = memoise_propagators
        self._propagator_cache = propagator_cache

    @property
    def profile(self) -> WorkloadProfile:
        return self._profile

    def segment_parameters(self) -> list[GprsModelParameters]:
        """The effective parameters of every segment (base plus overrides)."""
        return [
            segment.parameters(self._base)
            for segment in self._profile.schedule.segments
        ]

    # ------------------------------------------------------------------ #
    # Scaffolding
    # ------------------------------------------------------------------ #
    def _build_scaffolding(
        self, seg_params: list[GprsModelParameters]
    ) -> tuple[list[GprsStateSpace], list[GeneratorTemplate], list[bool], int]:
        """One state space per shape and one template per fixed configuration."""
        spaces: dict[tuple, GprsStateSpace] = {}
        templates: dict[tuple, GeneratorTemplate] = {}
        seg_spaces: list[GprsStateSpace] = []
        seg_templates: list[GeneratorTemplate] = []
        reused: list[bool] = []
        built = 0
        for index, params in enumerate(seg_params):
            shape = (params.gsm_channels, params.buffer_size, params.max_gprs_sessions)
            space = spaces.get(shape)
            if space is None:
                space = GprsStateSpace(
                    gsm_channels=params.gsm_channels,
                    buffer_size=params.buffer_size,
                    max_sessions=params.max_gprs_sessions,
                )
                spaces[shape] = space
            fingerprint = GeneratorTemplate.fingerprint_of(params)
            template = templates.get(fingerprint) if self._share_templates else None
            if template is None:
                template = GeneratorTemplate.build(params, space)
                templates[fingerprint] = template
                built += 1
                reused.append(False)
            else:
                reused.append(True)
            seg_spaces.append(space)
            seg_templates.append(template)
        return seg_spaces, seg_templates, reused, built

    def _initial_distribution(
        self,
        params: GprsModelParameters,
        space: GprsStateSpace,
        template: GeneratorTemplate,
    ) -> np.ndarray:
        if self._profile.initial == "empty":
            pi = np.zeros(space.size)
            pi[space.index(0, 0, 0, 0)] = 1.0
            return pi
        # "stationary": the steady state of the first segment's configuration,
        # solved through the very same template/handover path -- a constant
        # schedule therefore starts exactly on the fixed point the
        # steady-state solver reports (the validation anchor's premise).
        model = GprsMarkovModel(
            params,
            solver_method=self._solver,
            solver_tol=self._solver_tol,
            generator_template=template,
            state_space=space,
        )
        return model.stationary_distribution()

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def solve(self) -> TransientResult:
        """Walk the schedule and return the sampled QoS trajectory."""
        with current_tracer().span(
            "transient.solve", segments=self._profile.schedule.number_of_segments
        ):
            result = self._solve_impl()
        registry = current_registry()
        registry.count("transient.solves")
        registry.count("transient.segments", len(result.segments))
        registry.count("transient.matvecs", result.matvecs)
        registry.count("transient.templates_built", result.templates_built)
        registry.count("transient.early_stopped_segments", result.early_stopped_segments)
        registry.count("transient.replayed_segments", result.propagator_hits)
        return result

    def _solve_impl(self) -> TransientResult:
        schedule = self._profile.schedule
        tracer = current_tracer()
        seg_params = self.segment_parameters()
        with tracer.span("transient.scaffolding"):
            seg_spaces, seg_templates, seg_reused, templates_built = (
                self._build_scaffolding(seg_params)
            )

        # Quasi-stationary handover rates, each *distinct* configuration
        # balanced once (seeded by the previous segment's rates) and reused
        # verbatim for every repetition.  The balance is a pure function of
        # the segment parameters, so reuse is at least as accurate as
        # re-balancing -- and it makes repeated segments bitwise-identical
        # configurations, which is what lets the propagator cache serve them
        # (a re-balance from a drifted seed moves the rates by ulps forever).
        balances: list[HandoverBalance] = []
        balance_by_params: dict[GprsModelParameters, HandoverBalance] = {}
        previous: HandoverBalance | None = None
        with tracer.span("transient.handover_balance"):
            for params in seg_params:
                balance = balance_by_params.get(params)
                if balance is None:
                    balance = balance_handover_rates(
                        params,
                        initial_gsm_handover_rate=(
                            None
                            if previous is None
                            else previous.gsm_handover_arrival_rate
                        ),
                        initial_gprs_handover_rate=(
                            None
                            if previous is None
                            else previous.gprs_handover_arrival_rate
                        ),
                    )
                    balance_by_params[params] = balance
                balances.append(balance)
                previous = balance

        sample_times = self._profile.sample_times()
        sample_segments = [schedule.segment_at(t) for t in sample_times]

        with tracer.span("transient.initial_distribution"):
            pi = self._initial_distribution(
                seg_params[0], seg_spaces[0], seg_templates[0]
            )

        cache = None
        if self._memoise:
            # Explicit None test: an empty PropagatorCache is falsy (__len__).
            cache = (
                self._propagator_cache
                if self._propagator_cache is not None
                else default_propagator_cache()
            )

        points: list[TrajectoryPoint] = []
        traces: list[SegmentTrace] = []
        total_matvecs = 0
        early_stops = 0
        propagator_hits = 0
        sample_cursor = 0
        current_time = 0.0
        segment_start = 0.0
        last_segment = schedule.number_of_segments - 1

        for seg_index in range(schedule.number_of_segments):
            params = seg_params[seg_index]
            space = seg_spaces[seg_index]
            balance = balances[seg_index]
            segment_end = segment_start + schedule.segments[seg_index].duration_s

            remapped = False
            if seg_index > 0 and space is not seg_spaces[seg_index - 1]:
                pi = _remap_distribution(pi, seg_spaces[seg_index - 1], space)
                remapped = True

            # The advance targets of this segment: every sample time falling
            # inside it, plus the breakpoint carry (except after the final
            # segment).  Their consecutive gaps are the exact dt sequence the
            # propagation is a function of -- the replay key's time axis.
            segment_samples: list[float] = []
            while (
                sample_cursor < len(sample_times)
                and sample_segments[sample_cursor] == seg_index
            ):
                segment_samples.append(sample_times[sample_cursor])
                sample_cursor += 1
            targets = list(segment_samples)
            if seg_index < last_segment:
                # Carry the distribution to the breakpoint even when no
                # sample touches the remainder of the segment.
                targets.append(segment_end)
            intervals: list[float] = []
            previous_time = current_time
            for target in targets:
                intervals.append(max(0.0, target - previous_time))
                previous_time = target

            key = None
            replay = None
            if cache is not None and targets:
                key = segment_key(
                    params,
                    gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
                    gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
                    truncation_tol=self._truncation_tol,
                    steady_state_tol=self._steady_tol,
                    intervals=tuple(intervals),
                    initial=pi,
                )
                replay = cache.get(key)

            stationary_from: float | None = None
            stationary_residual: float | None = None

            if replay is not None:
                # Checkpointed replay: the recorded distributions are what
                # the matvec chain would reproduce, served at zero cost.
                propagator_hits += 1
                segment_matvecs = 0
                for position, target in enumerate(targets):
                    pi = replay.checkpoints[position]
                    current_time = target
                    if position < len(segment_samples):
                        points.append(
                            TrajectoryPoint(
                                time_s=target,
                                segment=seg_index,
                                arrival_rate=params.total_call_arrival_rate,
                                values=compute_measures(
                                    params, space, pi, balance
                                ).as_dict(),
                            )
                        )
                if replay.stationary_offset_s is not None:
                    stationary_from = segment_start + replay.stationary_offset_s
                    stationary_residual = replay.stationary_residual
            else:
                generator = seg_templates[seg_index].generator(
                    params,
                    gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
                    gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
                )
                propagator = _SegmentPropagator(
                    generator, truncation_tol=self._truncation_tol
                )

                def advance_to(target: float) -> None:
                    nonlocal pi, current_time, stationary_from, stationary_residual
                    dt = max(0.0, target - current_time)
                    if dt > 0.0 and stationary_from is None:
                        # One product decides whether any more are needed:
                        # once the residual stalls the distribution is
                        # invariant for the rest of this (time-homogeneous)
                        # segment.  A segment that keeps evolving reuses the
                        # product as the first series term, so the check
                        # itself costs nothing extra.
                        stepped = propagator.step(pi)
                        residual = float(np.max(np.abs(stepped - pi)))
                        if residual <= self._steady_tol:
                            stationary_from = current_time
                            stationary_residual = residual
                        else:
                            pi = propagator.advance(pi, dt, first_step=stepped)
                    current_time = target

                checkpoints: list[np.ndarray] = []
                for position, target in enumerate(targets):
                    advance_to(target)
                    checkpoints.append(pi)
                    if position < len(segment_samples):
                        points.append(
                            TrajectoryPoint(
                                time_s=target,
                                segment=seg_index,
                                arrival_rate=params.total_call_arrival_rate,
                                values=compute_measures(
                                    params, space, pi, balance
                                ).as_dict(),
                            )
                        )
                segment_matvecs = propagator.matvecs
                if key is not None:
                    cache.put(
                        key,
                        SegmentReplay(
                            checkpoints=tuple(checkpoints),
                            matvecs=segment_matvecs,
                            stationary_offset_s=(
                                None
                                if stationary_from is None
                                else stationary_from - segment_start
                            ),
                            stationary_residual=stationary_residual,
                        ),
                    )

            if stationary_from is not None:
                early_stops += 1
            traces.append(
                SegmentTrace(
                    index=seg_index,
                    start_time_s=segment_start,
                    end_time_s=segment_end,
                    arrival_rate=params.total_call_arrival_rate,
                    gsm_handover_rate=balance.gsm_handover_arrival_rate,
                    gprs_handover_rate=balance.gprs_handover_arrival_rate,
                    states=space.size,
                    template_reused=seg_reused[seg_index],
                    remapped=remapped,
                    matvecs=segment_matvecs,
                    stationary_from_s=stationary_from,
                    stationarity_residual=stationary_residual,
                    replayed=replay is not None,
                )
            )
            total_matvecs += segment_matvecs
            segment_start = segment_end

        return TransientResult(
            profile=self._profile,
            base_parameters=self._base,
            points=tuple(points),
            segments=tuple(traces),
            matvecs=total_matvecs,
            templates_built=templates_built,
            early_stopped_segments=early_stops,
            propagator_hits=propagator_hits,
            # A replayed final segment hands out the cache's read-only copy;
            # the result's distribution must stay writable (and detached from
            # the cache) regardless of how it was produced.
            final_distribution=pi if pi.flags.writeable else pi.copy(),
        )
