"""Memoised segment propagators: checkpointed replay of repeated segments.

Schedules repeat themselves: a diurnal cycle visits the same load twice a day
(the cosine is symmetric around its peak), staircase sweeps walk the same
multipliers up and down, and every re-run of a trajectory -- a warm cache
miss on a neighbouring sweep point, an A/B comparison, the second day of a
periodic schedule whose first day has settled -- re-solves propagations it
has already performed.  The uniformisation matvec chain is by far the
dominant cost of a transient solve, and it is a *pure function*: the
distributions a segment produces are fully determined by the segment's
generator (itself a pure function of the effective parameters and the
balanced handover rates), the chain of advance intervals, the uniformisation
tolerances, and the distribution the segment starts from.

:class:`PropagatorCache` therefore keys a **content digest** of exactly those
inputs to a :class:`SegmentReplay`: the distribution checkpoints at each
advance target, the final distribution, the matvec count the original run
spent, and the early-stop bookkeeping (whether the stationarity shortcut
fired, at which offset, and at what achieved residual).  A repeated identical
(configuration, durations, truncation, start) segment is then served by
*checkpointed replay* -- the recorded distributions are handed back, bitwise
identical to what re-running the matvec chain would produce, at zero matvec
cost.  A near-miss (any input differing, even by one ulp in an interval)
simply misses the cache and is recomputed, so memoisation can never change a
trajectory -- only skip work that would reproduce known numbers.

The cache is bounded by a byte budget (distribution checkpoints are the
payload) with least-recently-used eviction, and is shared process-wide by
default so consecutive :class:`~repro.transient.model.TransientModel` solves
in one process -- cache-miss sweep points, repeated CLI runs, benchmark A/B
arms -- reuse each other's segments.  Worker processes of a transient sweep
each hold their own instance (the cache is deliberately not shipped across
process boundaries), which keeps parallel sweeps bitwise identical to serial
ones.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.parameters import GprsModelParameters
from repro.obs.metrics import current_registry

__all__ = [
    "ENTRY_OVERHEAD_BYTES",
    "PropagatorCache",
    "SegmentReplay",
    "default_propagator_cache",
    "segment_key",
]

#: Default byte budget of the process-wide cache (checkpoint payload only).
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


def segment_key(
    params: GprsModelParameters,
    *,
    gsm_handover_arrival_rate: float,
    gprs_handover_arrival_rate: float,
    truncation_tol: float,
    steady_state_tol: float,
    intervals: tuple[float, ...],
    initial: np.ndarray,
) -> str:
    """Content digest of one segment propagation.

    Hashes everything the propagation is a function of: the effective segment
    parameters, the balanced handover rates (together they determine the
    generator bitwise, through the bitwise-faithful template path), the
    uniformisation tolerances, the exact advance intervals (the ``dt`` of each
    :meth:`advance_to` call, which absorb the sampling grid and the segment
    duration), and the raw bytes of the starting distribution.  Any
    difference anywhere -- a parameter, an interval ulp, a single bit of the
    start vector -- changes the key, so a hit guarantees a bitwise-faithful
    replay.
    """
    rendering = json.dumps(
        asdict(params), sort_keys=True, separators=(",", ":"), default=repr
    )
    digest = hashlib.sha256()
    digest.update(rendering.encode("utf-8"))
    digest.update(
        np.array(
            [
                gsm_handover_arrival_rate,
                gprs_handover_arrival_rate,
                truncation_tol,
                steady_state_tol,
            ]
        ).tobytes()
    )
    digest.update(np.asarray(intervals, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(initial).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class SegmentReplay:
    """The recorded outcome of one segment propagation.

    Attributes
    ----------
    checkpoints:
        The distribution after each advance target, in target order.  The
        record stores its own read-only copies (one per distinct array -- a
        segment that early-stops repeats the same vector across targets), so
        neither the producing solve nor any consumer of a replayed result
        can mutate cached data.
    matvecs:
        Matrix-vector products the original run spent (a replay spends 0).
    stationary_offset_s:
        Segment-relative time at which the stationarity shortcut fired
        (``None`` = the segment never early-stopped).
    stationary_residual:
        The achieved stationarity residual ``||pi P - pi||_inf`` at the early
        stop (``None`` when the segment never early-stopped).
    """

    checkpoints: tuple[np.ndarray, ...]
    matvecs: int
    stationary_offset_s: float | None
    stationary_residual: float | None

    def __post_init__(self) -> None:
        # Snapshot the checkpoints: aliased entries (an early-stopped segment
        # hands the same vector to every remaining target) stay aliased, so
        # the copy -- like the byte accounting -- is per distinct array.
        copies: dict[int, np.ndarray] = {}
        frozen = []
        for checkpoint in self.checkpoints:
            copy = copies.get(id(checkpoint))
            if copy is None:
                copy = checkpoint.copy()
                copy.setflags(write=False)
                copies[id(checkpoint)] = copy
            frozen.append(copy)
        object.__setattr__(self, "checkpoints", tuple(frozen))

    @property
    def nbytes(self) -> int:
        distinct = {id(checkpoint): checkpoint for checkpoint in self.checkpoints}
        return sum(checkpoint.nbytes for checkpoint in distinct.values())


def _store_key(key: str) -> str:
    """Artifact-store key of one segment digest (lazy import: see module)."""
    from repro.store.artifacts import artifact_key

    return artifact_key("propagator", {"segment": key})


def _maybe_float(value) -> float | None:
    return None if value is None else float(value)


def _replay_digest(replay: SegmentReplay) -> str:
    """Content digest of a replay's checkpoint payload.

    Recorded at ``put`` time and re-verified on every hit, so a cached replay
    whose arrays were corrupted in place (a stray writer defeating the
    read-only flags, a buggy consumer, an injected fault) is detected and
    recomputed instead of silently replayed into a trajectory.
    """
    digest = hashlib.sha256()
    for checkpoint in replay.checkpoints:
        digest.update(np.ascontiguousarray(checkpoint).tobytes())
    return digest.hexdigest()[:16]


#: Per-entry bookkeeping bytes beyond the checkpoint payload: the 16-hex
#: verification digest, the scalar metadata (matvec count, early-stop offset
#: and residual) and the OrderedDict slot itself.  Budgets and the
#: ``cache.propagator.bytes`` gauge include it so the in-memory accounting
#: reports consistently with the artifact store's on-disk sizes (which pay
#: the same metadata inside each archive).
ENTRY_OVERHEAD_BYTES = 160


@dataclass
class PropagatorCache:
    """Bounded, LRU-evicting store of :class:`SegmentReplay` records.

    Entries carry the digest of their checkpoint bytes; a hit whose stored
    distributions no longer match that digest is dropped (counted under
    ``cache.propagator.corrupt``) and served as a miss, so corrupt state is
    re-solved rather than replayed.

    When an ambient :class:`~repro.store.artifacts.ArtifactStore` is active
    (or one is passed as ``store``), the cache reads and writes through it:
    every ``put`` also persists the replay as a binary artifact, and an
    in-memory miss falls back to the store before reporting a true miss --
    so parallel trajectory workers and entirely fresh processes replay
    segments their siblings or predecessors solved.  Store artifacts are the
    exact checkpoint bytes, so a store hit preserves the bitwise-replay
    guarantee.  ``store=None`` disables the tier (per-process behaviour,
    exactly as before).

    Thread-safe: the LRU dict, byte accounting and hit/miss counters all
    mutate under one re-entrant lock, so the service tier's concurrent
    solve threads can share the process-wide default cache.
    """

    max_bytes: int = DEFAULT_CACHE_BYTES
    store: object = "ambient"
    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    store_hits: int = 0
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _bytes: int = 0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    @staticmethod
    def entry_bytes(replay: SegmentReplay) -> int:
        """Bytes one stored entry accounts for (payload + bookkeeping)."""
        return replay.nbytes + ENTRY_OVERHEAD_BYTES

    def _resolve_store(self):
        if self.store == "ambient":
            from repro.store.artifacts import current_store

            return current_store()
        return self.store

    def get(self, key: str) -> SegmentReplay | None:
        """Return the replay stored under ``key`` (refreshing its LRU slot)."""
        with self._lock:
            return self._get_locked(key)

    def _get_locked(self, key: str) -> SegmentReplay | None:
        entry = self._entries.get(key)
        if entry is None:
            replay = self._load_from_store(key)
            if replay is not None:
                self.hits += 1
                self.store_hits += 1
                current_registry().count("cache.propagator.hits")
                current_registry().count("cache.propagator.store_hits")
                return replay
            self.misses += 1
            current_registry().count("cache.propagator.misses")
            return None
        replay, digest = entry
        if _replay_digest(replay) != digest:
            self._entries.pop(key)
            self._bytes -= self.entry_bytes(replay)
            self.corrupt += 1
            self.misses += 1
            current_registry().count("cache.propagator.corrupt")
            current_registry().count("cache.propagator.misses")
            current_registry().gauge("cache.propagator.bytes", self._bytes)
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        current_registry().count("cache.propagator.hits")
        return replay

    def put(self, key: str, replay: SegmentReplay) -> None:
        """Store ``replay``, evicting least-recently-used entries over budget."""
        with self._lock:
            if self.entry_bytes(replay) <= self.max_bytes:
                self._insert(key, replay)
            self._persist_to_store(key, replay)

    def _insert(self, key: str, replay: SegmentReplay) -> None:
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= self.entry_bytes(previous[0])
        self._entries[key] = (replay, _replay_digest(replay))
        self._bytes += self.entry_bytes(replay)
        while self._bytes > self.max_bytes and self._entries:
            _, (evicted, _) = self._entries.popitem(last=False)
            self._bytes -= self.entry_bytes(evicted)
            current_registry().count("cache.propagator.evictions")
        current_registry().gauge("cache.propagator.bytes", self._bytes)

    def _load_from_store(self, key: str) -> SegmentReplay | None:
        store = self._resolve_store()
        if store is None:
            return None
        loaded = store.get(_store_key(key))
        if loaded is None:
            return None
        arrays, meta = loaded
        try:
            alias = [int(position) for position in meta["alias"]]
            distinct = [arrays[f"c{index}"] for index in range(len(set(alias)))]
            checkpoints = tuple(distinct[position] for position in alias)
            replay = SegmentReplay(
                checkpoints=checkpoints,
                matvecs=int(meta["matvecs"]),
                stationary_offset_s=_maybe_float(meta.get("stationary_offset_s")),
                stationary_residual=_maybe_float(meta.get("stationary_residual")),
            )
        except (KeyError, IndexError, TypeError, ValueError):
            return None  # malformed artifact: treat as a plain miss
        if self.entry_bytes(replay) <= self.max_bytes:
            self._insert(key, replay)
        return replay

    def _persist_to_store(self, key: str, replay: SegmentReplay) -> None:
        store = self._resolve_store()
        if store is None:
            return
        positions: dict[int, int] = {}
        arrays: dict[str, np.ndarray] = {}
        alias: list[int] = []
        for checkpoint in replay.checkpoints:
            position = positions.get(id(checkpoint))
            if position is None:
                position = len(positions)
                positions[id(checkpoint)] = position
                arrays[f"c{position}"] = checkpoint
            alias.append(position)
        meta = {
            "alias": alias,
            "matvecs": replay.matvecs,
            "stationary_offset_s": replay.stationary_offset_s,
            "stationary_residual": replay.stationary_residual,
        }
        try:
            store.put(_store_key(key), arrays, meta)
        except OSError:
            pass  # an unwritable store degrades to per-process caching

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stored_bytes(self) -> int:
        return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
        current_registry().gauge("cache.propagator.bytes", 0.0)


_DEFAULT_CACHE: PropagatorCache | None = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_propagator_cache() -> PropagatorCache:
    """Return the process-wide cache shared by default across solves."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        with _DEFAULT_CACHE_LOCK:
            if _DEFAULT_CACHE is None:
                _DEFAULT_CACHE = PropagatorCache()
    return _DEFAULT_CACHE
