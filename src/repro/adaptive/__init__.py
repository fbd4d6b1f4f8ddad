"""Adaptive performance management: dynamic adjustment of the PDCH reservation.

The paper closes with: "Applying adaptive performance management, future work
considers the dynamic adjustment of the number of PDCHs with respect to the
current GSM and GPRS traffic load and the desired performance requirements."
Section 2 also describes the mechanism GPRS provides for it: "A load
supervision procedure monitors the load of the PDCHs in the cell.  According
to the current demand, the number of channels allocated for GPRS can be
changed."

This package implements that future work on top of the reproduction:

* :mod:`repro.adaptive.supervision` -- the load supervision procedure: sliding
  -window estimation of the call arrival rate and of the PDCH utilisation from
  raw event observations;
* :mod:`repro.adaptive.policies` -- allocation policies mapping the supervised
  load to a PDCH reservation: a static baseline, a utilisation-threshold rule
  with hysteresis, and a model-driven policy that queries the paper's CTMC for
  the smallest reservation meeting a QoS profile;
* :mod:`repro.adaptive.controller` -- the controller tying supervisor and
  policy together, plus a quasi-stationary evaluation harness that replays a
  load trajectory and scores the resulting QoS and reallocation churn.

The earlier, simpler :class:`repro.experiments.dimensioning.AdaptivePdchController`
remains available; this package is the richer framework built around the same
idea.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "controller": (
            "AdaptiveAllocationController",
            "ControllerDecision",
            "PolicyEvaluation",
            "evaluate_policy",
        ),
        "policies": (
            "AllocationPolicy",
            "ModelDrivenPolicy",
            "StaticAllocationPolicy",
            "UtilizationThresholdPolicy",
        ),
        "supervision": ("LoadObservation", "LoadSupervisor"),
    },
)
