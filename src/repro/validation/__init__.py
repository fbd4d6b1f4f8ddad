"""Validation utilities: comparing model, simulation and paper claims.

Section 5.2 of the paper validates the Markov model by checking that "almost
all performance curves derived from the Markov model lie in the confidence
intervals of the corresponding curve of the simulator".  This package turns
that criterion -- and the qualitative claims made about every figure -- into
reusable, testable checks:

* :mod:`repro.validation.comparison` -- point-wise and curve-wise comparison
  of analytical values against simulation confidence intervals (coverage
  fraction, relative errors, summary report);
* :mod:`repro.validation.shapes` -- assertions about curve *shapes*:
  monotonicity, dominance/ordering of curves, crossover points, saturation --
  the properties EXPERIMENTS.md records for every reproduced figure.
* :mod:`repro.validation.network` -- the homogeneity anchor of the
  multi-cell layer: a uniform wrap-around network must reproduce the paper's
  single-cell fixed point in every cell.
* :mod:`repro.validation.transient` -- the constant-schedule anchor of the
  transient layer: a time-homogeneous trajectory must preserve (and, from
  any start, converge to) the steady-state solver's measures.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "comparison": (
            "CurveComparison",
            "PointComparison",
            "ValidationReport",
            "compare_model_with_simulation",
            "compare_series",
        ),
        "network": ("HomogeneityCheck", "check_network_homogeneity"),
        "transient": ("TransientAnchorCheck", "check_transient_steady_state"),
        "shapes": (
            "crossover_points",
            "curves_are_ordered",
            "find_threshold_crossing",
            "fraction_within_tolerance",
            "is_monotone",
            "relative_spread",
        ),
    },
)
