"""Seed determinism, reference coverage and the metric tables."""

import importlib.util
import json
from collections import Counter
from pathlib import Path
import sys

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import perf_workloads as workloads  # noqa: E402

BATCH = sorted(workloads.BATCH_ITEMS)


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", BATCH)
def test_same_seed_same_inputs_different_seed_different_inputs(workload):
    assert workloads.batch_inputs(workload, 7) == workloads.batch_inputs(workload, 7)
    combos = 1
    for _, _, choices in workloads.BATCH_ITEMS[workload]:
        combos *= len(choices)
    seen = {json.dumps(workloads.batch_inputs(workload, seed)) for seed in range(combos)}
    assert len(seen) == combos  # seeds that differ mod the input count differ


def test_serve_sequence_is_seeded_and_keeps_its_mix():
    first = workloads.serve_sequence(3, 0)
    assert first == workloads.serve_sequence(3, 0)
    assert first != workloads.serve_sequence(4, 0)
    assert first != workloads.serve_sequence(3, 1)
    mix = Counter(request["kind"] for request in first)
    assert mix["hit"] == workloads.HITS_PER_RESOLVE * mix["resolve"]
    assert Counter(json.dumps(r, sort_keys=True) for r in first) == Counter(
        json.dumps(r, sort_keys=True) for r in workloads.serve_sequence(99, 5)
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_references_cover_every_input_a_seed_can_produce(workload):
    answers = json.loads((HERE / "references" / f"{workload}.json").read_text())["answers"]
    for item in workloads.reference_inputs(workload):
        key = workloads.input_key(item["scenario"], item["preset"], item["rates"])
        assert key in answers
        if item["rates"] is not None:
            assert [point["rate"] for point in answers[key]] == item["rates"]


def test_serve_mix_requests_every_single_cell_scenario():
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.runtime import list_scenarios

    names = tuple(spec.name for spec in list_scenarios(kind="cell"))
    assert workloads.SERVE_SCENARIOS == names


def test_rates_stay_on_the_lattice():
    for items in workloads.BATCH_ITEMS.values():
        for _, _, choices in items:
            for rates in choices:
                assert set(rates) <= set(workloads.RATE_LATTICE)
                assert all(0.05 <= rate <= 1.0 for rate in rates)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    runner = _load_runner()
    document = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in document["workloads"]} == set(workloads.WORKLOADS)
    end_to_end = runner.END_TO_END
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == end_to_end
    assert {
        m["name"]: (m["unit"], m["better"]) for m in document["per_layer"]
    } == runner.PER_LAYER


def test_importtime_parsing_takes_cumulative_seconds():
    runner = _load_runner()
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        450 |     networkx",
        "import time:        10 |         20 |   repro.simulator",
        "import time:       300 |    1200000 | repro.cli",
    ])
    times = runner.parse_importtime(text)
    assert times["repro.cli"] == pytest.approx(1.2)
    assert times["networkx"] == pytest.approx(450e-6)
    assert times["scipy.stats"] == 0.0


def test_importtime_of_a_lazily_imported_package_sums_its_submodules():
    runner = _load_runner()
    text = "\n".join([
        "import time:       100 |        100 |       scipy.stats._a",
        "import time:        50 |       3000 |     scipy.stats._b",
        "import time:        40 |       2000 |       scipy.stats._c",
        "import time:        20 |       1000 |     scipy.stats.mstats",
        "import time:       500 |      10000 |   repro.des.batch_means",
    ])
    assert runner.parse_importtime(text)["scipy.stats"] == pytest.approx(4000e-6)


def test_pool_workers_never_run_more_blas_threads_than_cores():
    runner = _load_runner()
    assert runner.blas_threads_for(1, 2) is None
    assert runner.blas_threads_for(2, 2) == 1
    assert runner.blas_threads_for(2, 8) == 4
    assert runner.blas_threads_for(4, 2) == 1
    env = runner._program_env(HERE.parent / ".perfbench_run", blas_threads=1)
    assert {env[name] for name in runner.BLAS_THREAD_VARS} == {"1"}
