"""Reproduction of "Performance Analysis of the General Packet Radio Service".

This package reproduces the analytical model, the validation simulator and the
complete evaluation of Lindemann & Thümmler's GPRS performance study.  The
high-level entry points are:

* :class:`~repro.core.model.GprsMarkovModel` -- the paper's CTMC model of a
  single GSM/GPRS cell; solve it for one configuration and read the
  performance measures (carried data traffic, packet loss probability,
  queueing delay, throughput per user, voice blocking, ...).
* :class:`~repro.core.parameters.GprsModelParameters` -- the full parameter
  set (Table 2) with the Table 3 traffic-model presets from
  :func:`~repro.traffic.presets.traffic_model`.
* :class:`~repro.simulator.simulation.GprsNetworkSimulator` -- the detailed
  discrete-event simulator of a seven-cell cluster with explicit handovers,
  TDMA-frame transmission and TCP flow control, used to validate the CTMC.
* :mod:`~repro.experiments` -- parameter sweeps and the ``figure5`` ...
  ``figure15`` / ``table2`` / ``table3`` regeneration functions.

Quickstart::

    from repro import GprsMarkovModel, GprsModelParameters, traffic_model

    params = GprsModelParameters.from_traffic_model(
        traffic_model(3), total_call_arrival_rate=0.5)
    solution = GprsMarkovModel(params).solve()
    print(solution.measures.carried_data_traffic)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core.handover": ("HandoverBalance", "balance_handover_rates"),
        "core.measures": ("GprsPerformanceMeasures", "compute_measures"),
        "core.model": ("GprsMarkovModel", "GprsModelSolution"),
        "core.parameters": ("GprsModelParameters",),
        "core.state_space": ("GprsStateSpace",),
        "traffic.presets": (
            "TRAFFIC_MODEL_1",
            "TRAFFIC_MODEL_2",
            "TRAFFIC_MODEL_3",
            "traffic_model",
        ),
        "traffic.session": ("PacketSessionModel",),
    },
)
__all__ += ["__version__"]
