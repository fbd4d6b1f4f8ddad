"""Regenerate the committed reference answers in ``references/``.

Usage (from the root of a source checkout)::

    PYTHONPATH=src python3 perfbench/make_references.py [WORKLOAD ...]

References cover every input any seed can produce and are solved cold,
serially, with no result cache and no artifact store.  Regenerate them only
when the program's answers are meant to change -- never to make a failing
benchmark run pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perf_workloads as workloads  # noqa: E402


def answers_for(workload: str) -> dict:
    from repro.experiments.scale import ExperimentScale
    from repro.runtime import run_sweep, scenario

    answers = {}
    for item in workloads.reference_inputs(workload):
        spec = scenario(item["scenario"])
        if item["rates"] is not None:
            spec = spec.replace(arrival_rates=tuple(item["rates"]))
        result = run_sweep(spec, ExperimentScale.from_name(item["preset"]), jobs=1, cache=None)
        if result.failures:
            raise RuntimeError(f"reference solve of {item} failed: {result.failures}")
        answers[workloads.input_key(item["scenario"], item["preset"], item["rates"])] = [
            {"rate": point.arrival_rate, "values": dict(point.values)}
            for point in result.points
        ]
        print(f"{workload}: {item['scenario']} {item['preset']} {item['rates']}", flush=True)
    return answers


def main(argv: list[str]) -> int:
    for workload in argv or sorted(workloads.WORKLOADS):
        document = {
            "workload": workload,
            "tolerance": {"rel": 1e-8, "abs": 1e-8},
            "answers": answers_for(workload),
        }
        path = HERE / "references" / f"{workload}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
