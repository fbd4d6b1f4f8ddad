"""Traffic models for GPRS data sessions.

The paper adopts the 3GPP/UMTS packet-service session model (ETSI TR 101 112):
a session is an alternating sequence of *packet calls* (bursts of data packets,
e.g. the download of a WWW page) and *reading times*.  The number of packet
calls per session and the number of packets per packet call are geometrically
distributed, reading times and packet inter-arrival times are exponential.

That model is equivalent to an interrupted Poisson process (IPP) for the
purposes of the Markov model; this subpackage provides

* :class:`~repro.traffic.session.PacketSessionModel` -- the 3GPP parameters and
  all derived quantities (IPP rates, session duration, mean bit rate),
* :mod:`~repro.traffic.presets` -- the three traffic models of Table 3,
* :mod:`~repro.traffic.units` -- packet/bit conversions and coding-scheme rates,
* :class:`~repro.traffic.sampling.SessionSampler` -- random sampling of whole
  session traces, shared by the network simulator and the examples,
* :mod:`~repro.traffic.applications` -- application presets (WWW, FTP, e-mail,
  WAP) and weighted application mixes,
* :mod:`~repro.traffic.statistics` -- empirical trace statistics (burstiness
  measures) and fitting the 3GPP/IPP model to a packet trace.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "applications": (
            "APPLICATION_PRESETS",
            "ApplicationMix",
            "MixComponent",
            "application",
        ),
        "presets": (
            "TRAFFIC_MODEL_1",
            "TRAFFIC_MODEL_2",
            "TRAFFIC_MODEL_3",
            "TRAFFIC_MODELS",
            "traffic_model",
        ),
        "sampling": ("PacketCallTrace", "SessionSampler", "SessionTrace"),
        "session": ("PacketSessionModel",),
        "statistics": (
            "TraceStatistics",
            "compute_trace_statistics",
            "detect_packet_calls",
            "fit_ipp",
            "fit_session_model",
        ),
        "units": (
            "CODING_SCHEME_RATES_KBIT_S",
            "DATA_PACKET_SIZE_BYTES",
            "bits_per_packet",
            "kbit_per_s_to_packets_per_s",
            "packets_per_s_to_kbit_per_s",
            "pdch_service_rate",
        ),
    },
)
