"""Experiment harness: parameter sweeps and figure/table regeneration.

Every table and figure of the paper's evaluation section has a corresponding
function here:

* :func:`~repro.experiments.tables.table2` and
  :func:`~repro.experiments.tables.table3` -- the parameter tables,
* :func:`~repro.experiments.figures.figure5` ...
  :func:`~repro.experiments.figures.figure15` -- the performance curves.

All figure functions sweep the GSM/GPRS call arrival rate with the analytical
model (and optionally the network simulator for the validation figures 5 and
6) and return a :class:`~repro.experiments.figures.FigureResult` containing
one labelled series per curve of the original figure.  By default the sweeps
run at a *scaled* configuration (smaller BSC buffer and session cap, fewer
arrival-rate points) so that the complete benchmark suite finishes in CI time;
pass ``scale=ExperimentScale.paper()`` for the full Table 2 / Table 3 sizes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "dimensioning": (
            "AdaptivePdchController",
            "AllocationDecision",
            "QosAssessment",
            "QosProfile",
            "evaluate_configuration",
            "maximum_supported_arrival_rate",
            "recommend_reserved_pdch",
        ),
        "extensions": (
            "AdaptiveComparison",
            "GuardChannelTradeoff",
            "LinkAdaptationPoint",
            "adaptive_policy_comparison",
            "arq_impact",
            "guard_channel_tradeoff",
            "link_adaptation_gain",
        ),
        "figures": (
            "FigureResult",
            "FigureSeries",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "figure12",
            "figure13",
            "figure14",
            "figure15",
        ),
        "reporting": ("format_figure_result", "format_table"),
        "runner": ("EXPERIMENTS", "run_experiment"),
        "scale": ("ExperimentScale",),
        "sensitivity": (
            "SensitivityResult",
            "sweep_block_error_rate",
            "sweep_buffer_size",
            "sweep_coding_scheme",
            "sweep_gprs_dwell_time",
            "sweep_tcp_threshold",
        ),
        "sweep": ("SweepResult", "sweep_arrival_rates"),
        "tables": ("table2", "table3"),
    },
)
