"""Experiment registry and runner used by the command-line interface.

Every regenerable artefact of the paper -- Tables 2 and 3 and Figures 5 to 15
-- is registered here under its paper name so that ``gprs-repro run figure12``
(or ``python -m repro run figure12``) reproduces it without writing any code.

``run_experiment`` accepts ``jobs`` and ``cache`` and installs them as the
ambient execution options for the duration of the run, so every arrival-rate
sweep inside the experiment is sharded across worker processes and served
from the content-addressed result cache (see :mod:`repro.runtime`).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.experiments import tables
from repro.experiments.reporting import format_figure_result, format_table
from repro.experiments.scale import ExperimentScale

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache

__all__ = ["EXPERIMENTS", "run_experiment"]


def _run_table2(_: ExperimentScale) -> str:
    return format_table("Table 2: base parameter setting of the Markov model", tables.table2())


def _run_table3(_: ExperimentScale) -> str:
    blocks = []
    for name, rows in tables.table3().items():
        blocks.append(format_table(f"Table 3: {name}", rows))
    return "\n\n".join(blocks)


def _figure_runner(name: str) -> Callable[[ExperimentScale], str]:
    def run(scale: ExperimentScale) -> str:
        # figures imports the validation simulator: load it only to run one.
        from repro.experiments import figures

        return format_figure_result(getattr(figures, name)(scale))

    return run


#: Mapping from experiment name to a callable that runs it and returns text.
EXPERIMENTS: dict[str, Callable[[ExperimentScale], str]] = {
    "table2": _run_table2,
    "table3": _run_table3,
    **{f"figure{n}": _figure_runner(f"figure{n}") for n in range(5, 16)},
}


def run_experiment(
    name: str,
    scale: ExperimentScale | None = None,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    warm: bool = True,
    chunk_size: int | None = None,
    retry=None,
    task_timeout: float | None = None,
    strict: bool = False,
    checkpoint=None,
) -> str:
    """Run one registered experiment by name and return its textual report.

    Parameters
    ----------
    name:
        One of the keys of :data:`EXPERIMENTS` (``"table2"`` ... ``"figure15"``).
    scale:
        Experiment scale; defaults to the CI-friendly scaled preset.
    jobs:
        Worker processes used for the arrival-rate sweeps (1 = serial).
    cache:
        Optional result cache consulted before, and filled after, each solve.
    warm:
        Enable sweep-aware incremental solving within chunks of adjacent
        arrival rates (``False`` = independent per-point solves).
    chunk_size:
        Points per warm-started chunk; ``None`` keeps the executor default.
    retry, task_timeout, strict, checkpoint:
        Resilience knobs installed as ambient execution options (see
        :mod:`repro.runtime.resilience`); a figure run treats any terminal
        per-point failure as fatal regardless of ``strict``, because its
        columns cannot carry holes.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        ) from exc
    from repro.runtime.executor import DEFAULT_CHUNK_SIZE, execution_options

    with execution_options(
        jobs=jobs,
        cache=cache,
        warm=warm,
        chunk_size=DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size,
        retry=retry,
        task_timeout=task_timeout,
        strict=strict,
        checkpoint=checkpoint,
    ):
        return runner(scale or ExperimentScale.default())
