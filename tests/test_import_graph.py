"""Import-graph guards: the CTMC solve path never loads the simulator stack.

Each check runs in a fresh interpreter, because the test process itself has
long since imported everything.  The guards assert *which* modules load, not
how long that takes, so they are deterministic on any host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.runtime.resilience import _PRELOAD_MODULES

SRC = Path(__file__).resolve().parents[1] / "src"

#: Module prefixes only the discrete-event simulator and its extensions need.
HEAVY = ("scipy.stats", "networkx", "repro.simulator", "repro.des", "repro.radio")

_SMOKE_SWEEP = """
from repro.experiments.reporting import format_scenario_result
from repro.experiments.scale import ExperimentScale
from repro.runtime import run_sweep, scenario
from repro.service.protocol import canonical_text

result = run_sweep(
    scenario("figure12").replace(arrival_rates=(0.3,)),
    ExperimentScale.smoke(),
    cache=None,
)
canonical_text(result.as_dict())
format_scenario_result(result)
"""


def _run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return what it printed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_STORE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_heavy_modules(code: str) -> list[str]:
    report = f"""
import json, sys
{textwrap.dedent(code)}
print(json.dumps(sorted(m for m in sys.modules if m.startswith({HEAVY!r}))))
"""
    return _run_fresh(report)


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.cli",
        "from repro.runtime import executor, scenario",
        "from repro.experiments.scale import ExperimentScale",
        "\n".join(f"import {module}" for module in _PRELOAD_MODULES),
        "from repro.cli import main\nmain(['list'])",
        _SMOKE_SWEEP,
    ],
    ids=["repro", "cli", "runtime", "scale", "preload", "cli-list", "smoke-sweep"],
)
def test_solver_entry_points_skip_the_simulator_stack(code):
    assert _loaded_heavy_modules(code) == []


def test_worker_tasks_import_nothing_beyond_the_preload_set():
    """Pool workers' first tasks (and timed work) pay no import cost."""
    code = f"""
import json, sys
{"; ".join(f"import {module}" for module in _PRELOAD_MODULES)}
from repro.experiments.scale import ExperimentScale
from repro.network.model import _solve_cell_task
from repro.runtime.executor import _solve_chunk_points
from repro.runtime.registry import scenario
from repro.runtime.spec import parameters_to_dict

params = scenario("figure12").parameters(ExperimentScale.smoke())
before = set(sys.modules)
_solve_cell_task((params, "auto", 1e-10, 0.01, 0.001, None))
points = [parameters_to_dict(params.with_arrival_rate(rate)) for rate in (0.3, 0.4)]
_solve_chunk_points(points, "auto", 1e-10, True)
print(json.dumps(sorted(
    m for m in set(sys.modules) - before if m.startswith(("repro.", "scipy."))
)))
"""
    assert _run_fresh(code) == []
