"""Generator templates: frozen sparsity patterns for arrival-rate sweeps.

Every figure of the paper sweeps the call arrival rate over one fixed
``(N_GSM, K, M)`` state-space shape.  Between two sweep points the transition
*structure* of the chain never changes -- only the rates of the three
arrival event classes do, because the swept rate enters Table 1 solely through

* ``gsm_arrival``        with rate ``lambda_GSM  + lambda_h,GSM``,
* ``gprs_arrival_on``    with rate ``p_on  (lambda_GPRS + lambda_h,GPRS)``,
* ``gprs_arrival_off``   with rate ``p_off (lambda_GPRS + lambda_h,GPRS)``,

all of which are *state-independent scalars*.  Every other event class
(departures, packet arrivals/services, on/off switches) depends only on the
fixed part of the configuration.  Because each of the ten event classes moves
exactly one state coordinate in one direction, no two classes ever produce the
same ``(source, target)`` pair, so every stored entry of the CSR generator is
fed by exactly one event class.

:class:`GeneratorTemplate` exploits this: it enumerates the transitions
**once** per state-space shape, freezes the canonical CSR layouts produced by
:func:`~repro.core.generator.assemble_generator` (both the off-diagonal
intermediate and the final generator), and records for every stored entry
whether it is a fixed rate, one of the three arrival scalars, or a diagonal
element.  Producing the generator for a new sweep point then only

1. copies the precomputed off-diagonal ``data`` array,
2. overwrites the arrival slots with the three new scalars,
3. recomputes the exit rates with the exact ``sum(axis=1)`` call
   :func:`~repro.core.generator.assemble_generator` uses, and
4. scatters off-diagonal values and negated exit rates into the final layout,

with no re-enumeration, no COO assembly and no sort.  Running the *same*
scipy kernel over the *same* element layout is what makes the rewrite
reproduce :func:`~repro.core.generator.build_generator` **bitwise** (same
``indptr``, ``indices`` and ``data``), not merely within rounding: modern
CSR sum kernels keep several SIMD partial sums, so even inserting an exact
zero into a row would change the association order and drift the last ulp.

The guarantee holds for any configuration whose arrival-class scalars are
strictly positive (every sweep the paper runs); at a boundary point where a
scalar is exactly zero the template stores explicit zero entries instead of
dropping them -- structurally a superset whose diagonal can differ from a
fresh assembly at machine rounding, but nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.generator import assemble_generator
from repro.core.parameters import GprsModelParameters
from repro.core.state_space import GprsStateSpace
from repro.core.transitions import enumerate_transitions
from repro.obs.metrics import current_registry
from repro.obs.trace import current_tracer
from repro.store.artifacts import artifact_key, current_store

__all__ = ["GeneratorTemplate"]

#: Arrival rate used for the reference enumeration.  Any strictly positive
#: value yields the same sparsity pattern; 1.0 keeps the reference rates exact.
_REFERENCE_ARRIVAL_RATE = 1.0

#: Event-class codes stored per off-diagonal entry.
_FIXED, _GSM_ARRIVAL, _GPRS_ON, _GPRS_OFF = 0, 1, 2, 3
_EVENT_CODES = {
    "gsm_arrival": _GSM_ARRIVAL,
    "gprs_arrival_on": _GPRS_ON,
    "gprs_arrival_off": _GPRS_OFF,
}


def _fixed_fingerprint(params: GprsModelParameters) -> tuple:
    """Everything a template depends on: the configuration minus the swept rate."""
    traffic = params.traffic
    return (
        params.gprs_fraction,
        params.number_of_channels,
        params.reserved_pdch,
        params.buffer_size,
        params.max_gprs_sessions,
        params.coding_scheme,
        params.mean_gsm_call_duration_s,
        params.mean_gsm_dwell_time_s,
        params.mean_gprs_dwell_time_s,
        params.tcp_threshold,
        params.block_error_rate,
        traffic.packet_calls_per_session,
        traffic.reading_time_s,
        traffic.packets_per_packet_call,
        traffic.packet_interarrival_s,
        traffic.packet_size_bytes,
    )


@dataclass(frozen=True)
class GeneratorTemplate:
    """Reusable CSR skeleton of the GPRS generator for one configuration shape.

    Build once with :meth:`build`, then call :meth:`generator` for every sweep
    point; only the ``data`` arrays are rewritten.  Instances are immutable
    and safe to share across the points of a sweep within one process (the
    returned matrices share the frozen ``indices``/``indptr`` arrays, which no
    solver in this package mutates).
    """

    space: GprsStateSpace
    _fingerprint: tuple = field(repr=False)
    #: Final generator layout (off-diagonal entries plus diagonal slots).
    _indptr: np.ndarray = field(repr=False)
    _indices: np.ndarray = field(repr=False)
    #: Off-diagonal intermediate layout (matches assemble_generator's).
    _off_indptr: np.ndarray = field(repr=False)
    _off_indices: np.ndarray = field(repr=False)
    #: Fixed rates in off-diagonal CSR order (0.0 at arrival slots).
    _off_base_data: np.ndarray = field(repr=False)
    #: Arrival-class slot positions in off-diagonal CSR order.
    _off_gsm_slots: np.ndarray = field(repr=False)
    _off_gprs_on_slots: np.ndarray = field(repr=False)
    _off_gprs_off_slots: np.ndarray = field(repr=False)
    #: Scatter maps into the final ``data`` array.
    _offdiag_slots: np.ndarray = field(repr=False)
    _diag_slots: np.ndarray = field(repr=False)
    _diag_rows: np.ndarray = field(repr=False)

    #: Frozen array fields, in construction order -- also the payload layout
    #: of a template artifact in the cross-process store.
    _ARRAY_FIELDS = (
        "_indptr",
        "_indices",
        "_off_indptr",
        "_off_indices",
        "_off_base_data",
        "_off_gsm_slots",
        "_off_gprs_on_slots",
        "_off_gprs_off_slots",
        "_offdiag_slots",
        "_diag_slots",
        "_diag_rows",
    )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, params: GprsModelParameters, space: GprsStateSpace | None = None
    ) -> "GeneratorTemplate":
        """Enumerate the chain once and freeze its CSR layouts.

        ``params`` supplies the fixed part of the configuration; its own
        arrival rate is irrelevant (a strictly positive reference rate is used
        so that every arrival transition is present in the pattern).

        When an ambient artifact store is active the enumeration is skipped
        entirely on a hit: the frozen CSR arrays are loaded bytes-for-bytes
        (counted under ``template.store_hits`` instead of
        ``template.builds``), so a fresh process pays one archive read where
        a cold one pays the full state-space enumeration.  The rewrite path
        is a pure function of these arrays, so a store-served template
        produces bitwise-identical generators.
        """
        if space is None:
            space = GprsStateSpace(
                gsm_channels=params.gsm_channels,
                buffer_size=params.buffer_size,
                max_sessions=params.max_gprs_sessions,
            )
        store = current_store()
        key = None
        if store is not None:
            key = artifact_key(
                "template",
                {
                    "fingerprint": [repr(part) for part in _fixed_fingerprint(params)],
                    "shape": [space.gsm_channels, space.buffer_size, space.max_sessions],
                },
            )
            loaded = store.get(key)
            if loaded is not None:
                template = cls._from_arrays(params, space, loaded[0])
                if template is not None:
                    current_registry().count("template.store_hits")
                    return template
        current_registry().count("template.builds")
        with current_tracer().span("template.build"):
            template = cls._build(params, space)
        if store is not None:
            try:
                store.put(
                    key,
                    {name: getattr(template, name) for name in cls._ARRAY_FIELDS},
                )
            except OSError:
                pass  # an unwritable store never blocks a solve
        return template

    @classmethod
    def _from_arrays(
        cls,
        params: GprsModelParameters,
        space: GprsStateSpace,
        arrays: dict,
    ) -> "GeneratorTemplate | None":
        """Rebuild a template from stored arrays (``None`` if incomplete)."""
        try:
            fields = {name: arrays[name] for name in cls._ARRAY_FIELDS}
        except KeyError:
            return None
        return cls(space=space, _fingerprint=_fixed_fingerprint(params), **fields)

    @classmethod
    def _build(
        cls, params: GprsModelParameters, space: GprsStateSpace | None
    ) -> "GeneratorTemplate":
        if space is None:
            space = GprsStateSpace(
                gsm_channels=params.gsm_channels,
                buffer_size=params.buffer_size,
                max_sessions=params.max_gprs_sessions,
            )
        reference = params.with_arrival_rate(_REFERENCE_ARRIVAL_RATE)
        batches = enumerate_transitions(
            reference,
            space,
            gsm_handover_arrival_rate=0.0,
            gprs_handover_arrival_rate=0.0,
        )
        reference_generator = assemble_generator(batches, space.size)
        indptr = reference_generator.indptr.copy()
        indices = reference_generator.indices.copy()
        nnz = indices.shape[0]

        # Concatenated COO view of the off-diagonal entries, with one event
        # class per entry (the ten classes never produce duplicate pairs).
        rows_list, cols_list, fixed_list, class_list = [], [], [], []
        for batch in batches:
            if len(batch) == 0:
                continue
            code = _EVENT_CODES.get(batch.event, _FIXED)
            rows_list.append(batch.source)
            cols_list.append(batch.target)
            class_list.append(np.full(len(batch), code, dtype=np.int8))
            fixed_list.append(
                batch.rate if code == _FIXED else np.zeros(len(batch))
            )
        if rows_list:
            coo_row = np.concatenate(rows_list)
            coo_col = np.concatenate(cols_list)
            coo_fixed = np.concatenate(fixed_list)
            coo_class = np.concatenate(class_list)
        else:  # pragma: no cover - degenerate single-state chain
            coo_row = np.empty(0, dtype=np.int64)
            coo_col = np.empty(0, dtype=np.int64)
            coo_fixed = np.empty(0, dtype=float)
            coo_class = np.empty(0, dtype=np.int8)

        # Canonical CSR order of the off-diagonal pattern is unique, so a
        # matrix carrying each entry's COO position maps pattern slots back to
        # the enumeration (positions are offset by one so no stored value is
        # zero -- there are no duplicates, hence no summing, to disturb them).
        order = sp.csr_matrix(
            (np.arange(1, coo_row.shape[0] + 1, dtype=np.float64), (coo_row, coo_col)),
            shape=(space.size, space.size),
        )
        order.sum_duplicates()
        order.sort_indices()
        coo_position = np.rint(order.data).astype(np.int64) - 1
        off_indptr = order.indptr.copy()
        off_indices = order.indices.copy()

        # Slots of the final pattern: the diagonal entries are exactly those
        # with column == row (assemble_generator forbids self-loops), and the
        # off-diagonal slots appear in the same canonical order as ``order``.
        slot_row = np.repeat(
            np.arange(space.size, dtype=np.int64), np.diff(indptr).astype(np.int64)
        )
        is_diag = indices == slot_row
        offdiag_slots = np.flatnonzero(~is_diag)
        if offdiag_slots.shape[0] != coo_position.shape[0]:  # pragma: no cover
            raise AssertionError("off-diagonal pattern does not match the enumeration")

        return cls(
            space=space,
            _fingerprint=_fixed_fingerprint(params),
            _indptr=indptr,
            _indices=indices,
            _off_indptr=off_indptr,
            _off_indices=off_indices,
            _off_base_data=coo_fixed[coo_position],
            _off_gsm_slots=np.flatnonzero(coo_class[coo_position] == _GSM_ARRIVAL),
            _off_gprs_on_slots=np.flatnonzero(coo_class[coo_position] == _GPRS_ON),
            _off_gprs_off_slots=np.flatnonzero(coo_class[coo_position] == _GPRS_OFF),
            _offdiag_slots=offdiag_slots,
            _diag_slots=np.flatnonzero(is_diag),
            _diag_rows=slot_row[is_diag],
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def number_of_states(self) -> int:
        return self.space.size

    @property
    def nnz(self) -> int:
        """Stored entries of the templated generator (including the diagonal)."""
        return int(self._indices.shape[0])

    def matches(self, params: GprsModelParameters) -> bool:
        """True when ``params`` differs from the template only in its arrival rate."""
        return _fixed_fingerprint(params) == self._fingerprint

    @staticmethod
    def fingerprint_of(params: GprsModelParameters) -> tuple:
        """The hashable fixed-configuration key two templated sweeps share.

        Two parameter sets with equal fingerprints can share one template
        (and one structured-solver context); only their total call arrival
        rate and handover rates may differ.
        """
        return _fixed_fingerprint(params)

    # ------------------------------------------------------------------ #
    # Per-point rewrite
    # ------------------------------------------------------------------ #
    def generator(
        self,
        params: GprsModelParameters,
        *,
        gsm_handover_arrival_rate: float,
        gprs_handover_arrival_rate: float,
    ) -> sp.csr_matrix:
        """Return the generator for one sweep point by rewriting ``data`` only.

        ``params`` must share the template's fixed configuration (checked);
        the handover arrival rates are the balanced values of
        :func:`~repro.core.handover.balance_handover_rates`, exactly as for
        :func:`~repro.core.generator.build_generator`.
        """
        if not self.matches(params):
            raise ValueError(
                "parameters do not match the template (only the total call "
                "arrival rate may vary across a templated sweep)"
            )
        if gsm_handover_arrival_rate < 0 or gprs_handover_arrival_rate < 0:
            raise ValueError("handover arrival rates must be non-negative")
        current_registry().count("template.rewrites")

        # Identical arithmetic to enumerate_transitions, so the scalars are
        # bitwise-equal to the rates a fresh enumeration would produce.
        gsm_scale = params.gsm_arrival_rate + gsm_handover_arrival_rate
        gprs_scale = params.gprs_arrival_rate + gprs_handover_arrival_rate
        start_on = params.probability_session_starts_on

        off_data = self._off_base_data.copy()
        off_data[self._off_gsm_slots] = gsm_scale
        off_data[self._off_gprs_on_slots] = start_on * gprs_scale
        off_data[self._off_gprs_off_slots] = (1.0 - start_on) * gprs_scale

        # Same element layout and the same scipy reduction as
        # assemble_generator's ``off_diagonal.sum(axis=1)`` => bitwise-equal
        # exit rates.
        off_diagonal = sp.csr_matrix(
            (off_data, self._off_indices, self._off_indptr),
            shape=(self.space.size, self.space.size),
            copy=False,
        )
        off_diagonal.has_sorted_indices = True
        off_diagonal.has_canonical_format = True
        exit_rates = np.asarray(off_diagonal.sum(axis=1)).ravel()

        # The canonical merge of ``off_diagonal - diags(exit_rates)`` keeps
        # off-diagonal entries in order and yields ``0 - exit`` on the
        # diagonal; scatter both directly into the frozen final layout.
        data = np.empty(self.nnz, dtype=np.float64)
        data[self._offdiag_slots] = off_data
        data[self._diag_slots] = 0.0 - exit_rates[self._diag_rows]

        matrix = sp.csr_matrix(
            (data, self._indices, self._indptr),
            shape=(self.space.size, self.space.size),
            copy=False,
        )
        # The frozen layout is canonical; skip scipy's O(nnz) re-checks.
        matrix.has_sorted_indices = True
        matrix.has_canonical_format = True
        return matrix
