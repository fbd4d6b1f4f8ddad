"""The 3GPP packet-service session model and its IPP representation.

A packet-service session (Fig. 3 of the paper) consists of a geometrically
distributed number of *packet calls* with mean ``N_pc``, separated by
exponentially distributed *reading times* with mean ``D_pc``.  Each packet
call contains a geometrically distributed number of data packets with mean
``N_d`` whose inter-arrival times are exponential with mean ``D_d``.

For the Markov model the session is mapped onto an interrupted Poisson process
(Fig. 4):

* packet generation rate while *on*: ``lambda_packet = 1 / D_d``,
* on -> off rate: ``a = 1 / (N_d * D_d)``  (mean packet-call duration),
* off -> on rate: ``b = 1 / D_pc``          (mean reading time),
* mean session duration: ``1 / mu_GPRS = N_pc * (D_pc + N_d * D_d)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.traffic.units import (
    DATA_PACKET_SIZE_BYTES,
    packets_per_s_to_kbit_per_s,
)

if TYPE_CHECKING:
    from repro.markov.mmpp import InterruptedPoissonProcess

__all__ = ["PacketSessionModel"]


@dataclass(frozen=True)
class PacketSessionModel:
    """Parameters of one 3GPP packet-service session.

    Parameters
    ----------
    packet_calls_per_session:
        Mean number of packet calls per session, ``N_pc`` (geometric).
    reading_time_s:
        Mean reading time between packet calls, ``D_pc`` in seconds
        (exponential).
    packets_per_packet_call:
        Mean number of data packets per packet call, ``N_d`` (geometric).
    packet_interarrival_s:
        Mean inter-arrival time of packets inside a packet call, ``D_d`` in
        seconds (exponential).
    packet_size_bytes:
        Network-layer packet size (480 byte in the paper).
    name:
        Optional human-readable name, e.g. ``"traffic model 1"``.
    """

    packet_calls_per_session: float
    reading_time_s: float
    packets_per_packet_call: float
    packet_interarrival_s: float
    packet_size_bytes: int = DATA_PACKET_SIZE_BYTES
    name: str = "packet session"

    def __post_init__(self) -> None:
        if self.packet_calls_per_session < 1:
            raise ValueError("a session must contain at least one packet call on average")
        if self.packets_per_packet_call < 1:
            raise ValueError("a packet call must contain at least one packet on average")
        if self.reading_time_s <= 0:
            raise ValueError("reading time must be positive")
        if self.packet_interarrival_s <= 0:
            raise ValueError("packet inter-arrival time must be positive")
        if self.packet_size_bytes <= 0:
            raise ValueError("packet size must be positive")

    # ------------------------------------------------------------------ #
    # Derived IPP parameters (Section 3 of the paper)
    # ------------------------------------------------------------------ #
    @property
    def packet_rate(self) -> float:
        """Packet generation rate during a packet call, ``lambda = 1 / D_d``."""
        return 1.0 / self.packet_interarrival_s

    @property
    def on_to_off_rate(self) -> float:
        """IPP on -> off rate ``a = 1 / (N_d * D_d)``."""
        return 1.0 / (self.packets_per_packet_call * self.packet_interarrival_s)

    @property
    def off_to_on_rate(self) -> float:
        """IPP off -> on rate ``b = 1 / D_pc``."""
        return 1.0 / self.reading_time_s

    @property
    def mean_packet_call_duration_s(self) -> float:
        """Mean duration of a packet call, ``1 / a = N_d * D_d`` seconds."""
        return self.packets_per_packet_call * self.packet_interarrival_s

    @property
    def mean_session_duration_s(self) -> float:
        """Mean session duration ``1 / mu_GPRS = N_pc (D_pc + N_d D_d)`` seconds."""
        return self.packet_calls_per_session * (
            self.reading_time_s + self.mean_packet_call_duration_s
        )

    @property
    def session_departure_rate(self) -> float:
        """Session completion rate ``mu_GPRS`` (per second)."""
        return 1.0 / self.mean_session_duration_s

    @property
    def peak_bit_rate_kbit_s(self) -> float:
        """Bit rate during a packet call in kbit/s (the "8 kbit/s" / "32 kbit/s" label)."""
        return packets_per_s_to_kbit_per_s(self.packet_rate, self.packet_size_bytes)

    @property
    def mean_packets_per_session(self) -> float:
        """Mean total number of packets generated per session, ``N_pc * N_d``."""
        return self.packet_calls_per_session * self.packets_per_packet_call

    @property
    def activity_factor(self) -> float:
        """Long-run fraction of time the source spends in the on state."""
        on = self.mean_packet_call_duration_s
        return on / (on + self.reading_time_s)

    @property
    def mean_bit_rate_kbit_s(self) -> float:
        """Long-run average bit rate of one session in kbit/s."""
        return self.peak_bit_rate_kbit_s * self.activity_factor

    def to_ipp(self) -> InterruptedPoissonProcess:
        """Return the interrupted Poisson process representation of one session."""
        # Deferred: markov.mmpp loads scipy.sparse, which the model parameters
        # (and so ``gprs-repro list``) never need.
        from repro.markov.mmpp import InterruptedPoissonProcess

        return InterruptedPoissonProcess(
            packet_rate=self.packet_rate,
            on_to_off_rate=self.on_to_off_rate,
            off_to_on_rate=self.off_to_on_rate,
        )

    def with_name(self, name: str) -> "PacketSessionModel":
        """Return a copy of this model with a different display name."""
        return PacketSessionModel(
            packet_calls_per_session=self.packet_calls_per_session,
            reading_time_s=self.reading_time_s,
            packets_per_packet_call=self.packets_per_packet_call,
            packet_interarrival_s=self.packet_interarrival_s,
            packet_size_bytes=self.packet_size_bytes,
            name=name,
        )
