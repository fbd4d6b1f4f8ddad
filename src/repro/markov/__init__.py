"""General continuous- and discrete-time Markov chain library.

This subpackage provides the numerical machinery used by the GPRS model in
:mod:`repro.core`:

* :class:`~repro.markov.ctmc.ContinuousTimeMarkovChain` -- a CTMC defined by a
  (sparse or dense) infinitesimal generator matrix, with steady-state and
  transient solution methods.
* :class:`~repro.markov.dtmc.DiscreteTimeMarkovChain` -- a DTMC defined by a
  stochastic matrix.
* :mod:`~repro.markov.solvers` -- numerical steady-state solvers: GTH
  elimination, direct sparse linear solve, uniformised power iteration, Jacobi,
  Gauss--Seidel and SOR sweeps.
* :mod:`~repro.markov.mmpp` -- Markov-modulated Poisson processes, the
  interrupted Poisson process (IPP) used by the 3GPP traffic model, and the
  aggregation of ``m`` identical two-state sources into an ``(m + 1)``-state
  birth--death modulating chain (the key state-space reduction of the paper).
* :mod:`~repro.markov.birth_death` -- closed-form birth--death chain solutions.
* :mod:`~repro.markov.transient` -- transient analysis via uniformisation.
* :mod:`~repro.markov.phase_type` -- phase-type distributions (Erlang,
  hyperexponential, Coxian, two-moment fitting) for relaxing the exponential
  assumptions of the model.
* :mod:`~repro.markov.map_process` -- Markovian arrival processes, the
  second-order generalisation of the MMPP traffic model.
* :mod:`~repro.markov.qbd` -- block-tridiagonal (quasi-birth--death) solution
  techniques: finite-level block elimination and the matrix-geometric method.
* :mod:`~repro.markov.absorption` -- first-passage and absorption analysis
  (e.g. the time until a busy mobile leaves the cell).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "absorption": (
            "AbsorbingCtmcAnalysis",
            "absorption_probabilities",
            "expected_time_to_absorption",
            "first_passage_time_moments",
        ),
        "birth_death": ("BirthDeathChain",),
        "map_process": ("MarkovianArrivalProcess", "map_from_mmpp", "superpose_maps"),
        "phase_type": (
            "PhaseTypeDistribution",
            "coxian_ph",
            "erlang_ph",
            "exponential_ph",
            "fit_two_moments",
            "hyperexponential_ph",
        ),
        "qbd": ("QuasiBirthDeathProcess", "solve_finite_level_chain"),
        "ctmc": ("ContinuousTimeMarkovChain",),
        "dtmc": ("DiscreteTimeMarkovChain",),
        "mmpp": (
            "InterruptedPoissonProcess",
            "MarkovModulatedPoissonProcess",
            "aggregate_identical_ipps",
            "superpose_mmpps",
        ),
        "solvers": (
            "SolverError",
            "SteadyStateResult",
            "solve_steady_state",
            "steady_state_direct",
            "steady_state_gauss_seidel",
            "steady_state_gth",
            "steady_state_power",
        ),
        "transient": ("transient_distribution", "uniformize"),
    },
)
