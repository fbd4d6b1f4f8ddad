"""Process-oriented discrete-event simulation kernel.

The validation simulator of the paper was written with the proprietary CSIM
library; this subpackage is the from-scratch substitute.  It provides the same
modelling primitives:

* :class:`~repro.des.engine.SimulationEngine` -- event calendar and clock,
* :class:`~repro.des.process.Process` -- generator-based simulation processes
  that ``yield`` timeouts, events and resource requests,
* :class:`~repro.des.resources.Resource` / :class:`~repro.des.resources.Buffer`
  -- counting resources (channel pools) and finite FIFO buffers,
* :mod:`~repro.des.random_variates` -- seeded random-variate streams
  (exponential, geometric, uniform, deterministic, hyperexponential),
* :mod:`~repro.des.statistics` -- tallies, time-weighted statistics and
  counters,
* :mod:`~repro.des.batch_means` -- confidence intervals via the batch-means
  method used for the simulation curves in the paper.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "batch_means": ("BatchMeansEstimator", "ConfidenceInterval"),
        "engine": ("SimulationEngine", "SimulationError", "Event"),
        "process": ("Process", "ProcessInterrupt", "Timeout", "WaitEvent"),
        "random_variates": ("RandomVariateStream",),
        "resources": ("Buffer", "BufferOverflow", "Resource"),
        "statistics": ("Counter", "Tally", "TimeWeightedStatistic"),
    },
)
