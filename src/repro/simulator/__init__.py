"""Detailed network-level simulator of an integrated GSM/GPRS cell cluster.

This is the reproduction of the validation simulator of the paper (originally
written with the CSIM library): a cluster of seven hexagonal cells, each with
its own channel pool and BSC buffer, explicit user mobility with handovers
between neighbouring cells, the 3GPP packet-session traffic model, per-packet
downlink transmission with TDMA-frame/RLC-block granularity and multislot
channel allocation, and TCP flow control with slow start, congestion
avoidance, duplicate-ACK fast retransmit and timeout recovery.

Measurements are collected for the mid cell only (as in the paper) and are
reported with 95% batch-means confidence intervals.

Public entry point: :class:`~repro.simulator.simulation.GprsNetworkSimulator`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cell": ("Cell",),
        "cluster": ("HexagonalCluster",),
        "config": ("SimulationConfig",),
        "radio": ("rlc_blocks_per_packet", "transmission_time"),
        "results": ("CellMeasurements", "SimulationResults"),
        "simulation": ("GprsNetworkSimulator",),
        "tcp": ("TcpConnection",),
    },
)
