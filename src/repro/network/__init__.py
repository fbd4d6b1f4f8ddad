"""Analytic multi-cell network layer: cells coupled by handover flows.

The paper's Markov model covers one cell and closes the handover loop with
the homogeneity assumption (incoming rate = own outgoing rate).  This package
generalises that closure to arbitrary heterogeneous topologies:

* :mod:`repro.network.topology` -- :class:`CellTopology`: a neighbour graph
  with per-edge handover routing probabilities and per-cell parameter
  overrides, plus constructors for the paper's wrap-around hexagonal cluster
  and for ring / grid / hotspot layouts.
* :mod:`repro.network.model` -- :class:`NetworkModel`: the network-wide
  handover-flow fixed point (closed-form Erlang pre-pass, then warm-started
  CTMC outer iterations with cells solved in parallel) and its
  :class:`NetworkResult` (per-cell measures, network aggregates, convergence
  trace, warm-start accounting).
* :mod:`repro.network.sweep` -- arrival-rate sweeps over a whole topology,
  cached under topology-aware keys and warm-continued from point to point.

Quickstart::

    from repro import GprsModelParameters, traffic_model
    from repro.network import NetworkModel, hotspot

    params = GprsModelParameters.from_traffic_model(
        traffic_model(3), total_call_arrival_rate=0.5,
        buffer_size=10, max_gprs_sessions=5)
    result = NetworkModel(hotspot(7, arrival_multiplier=2.5), params).solve()
    print(result.series("voice_blocking_probability"))
"""

# No submodule here imports repro.runtime at module level (sweep defers
# those imports into its functions): the runtime package reaches into
# repro.network.topology for its scenario registry, and the dependency must
# stay one-directional for both packages to import standalone.

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "topology": (
            "CELL_OVERRIDE_FIELDS",
            "CellTopology",
            "grid",
            "hexagonal_cluster",
            "hotspot",
            "ring",
        ),
        "model": (
            "CellSolution",
            "NetworkModel",
            "NetworkResult",
            "network_erlang_rates",
        ),
        "sweep": (
            "NetworkSweepPoint",
            "NetworkSweepResult",
            "network_sweep_payloads",
            "run_network_sweep",
        ),
    },
)
