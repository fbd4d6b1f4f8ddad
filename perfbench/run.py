"""End-to-end benchmark of gprs-repro with per-layer attribution.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload cell-paper --seed 1 --seconds 20 --trace 0

Workloads (see ``WORKLOADS.md`` for why each was chosen):

- ``cell-paper``: paper-preset single-cell sweeps, serial;
- ``network-pool``: multi-cell fixed points with a 2-worker pool;
- ``transient-chain``: uniformisation trajectories;
- ``serve-mix``: an HTTP scenario service under 2 closed-loop clients.

Every pass of a workload runs in a fresh interpreter with the repro
environment knobs scrubbed, and this process (a child subreaper) collects
the CPU time and peak memory of the pass and of every process the pass
started.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced pass.  Every
answer is checked against ``references/``; a failed check prints
``"correct": false`` and exits 1.  Without a program to measure (no
``src/repro`` next to this directory) it exits 2 without a result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import perf_stats as stats  # noqa: E402
import perf_workloads as workloads  # noqa: E402
from perf_trace import covered_length, layer_totals  # noqa: E402

#: Converged-agreement tolerance of the repo's tests: |a - b| <= max(rel*|b|, abs).
REL_TOL = 1e-8
ABS_TOL = 1e-8

#: Counters that must stay zero on the batch workloads: a warm replay must
#: never pass for a cold solve.
COLD_COUNTERS = ("store.hits", "cache.result.hits", "cache.propagator.hits")

#: Seconds one pass (or the reaping of what it left behind) may take.
PASS_TIMEOUT_S = 150.0
REAP_TIMEOUT_S = 20.0

#: Modules whose import time ``-X importtime`` attributes (set-up layers).
IMPORT_MODULES = ("repro.cli", "repro.experiments", "repro.simulator", "scipy.stats", "networkx")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}
#: Per-layer metrics of a traced run: name -> (unit, better).  The serving
#: latencies and ``fail_ratio`` are end-to-end in nature but exist only on
#: ``serve-mix`` or read 0 on a healthy run, so they cannot be bounded
#: end-to-end metrics of every workload; measured runs print them too.
PER_LAYER = {
    "fail_ratio": ("1", "lower"),
    "hit_p50_ms": ("ms", "lower"),
    "hit_tail_ms": ("ms", "lower"),
    "resolve_p50_ms": ("ms", "lower"),
    "resolve_tail_ms": ("ms", "lower"),
    "core.structured_solver.solves": ("count", "lower"),
    "core.structured_solver.sweeps": ("count", "lower"),
    "core.structured_solver.sweeps_per_solve": ("count", "lower"),
    "core.structured_solver.coarse_corrections": ("count", "lower"),
    "core.structured_solver.self_s": ("s", "lower"),
    "core.structured_solver.s_per_sweep": ("s", "lower"),
    "core.template.builds": ("count", "lower"),
    "core.template.rewrites": ("count", "lower"),
    "core.template.build_s": ("s", "lower"),
    "core.template.rewrite_s": ("s", "lower"),
    "core.model.solves": ("count", "lower"),
    "core.model.warm_ratio": ("1", "higher"),
    "core.model.steady_state_s": ("s", "lower"),
    "core.model.measures_s": ("s", "lower"),
    "core.handover.calls": ("count", "lower"),
    "core.handover.self_s": ("s", "lower"),
    "network.model.solve_s": ("s", "lower"),
    "network.model.outer_iterations": ("count", "lower"),
    "network.model.cell_solves": ("count", "lower"),
    "network.model.frozen_ratio": ("1", "higher"),
    "network.model.cold_ratio": ("1", "lower"),
    "runtime.resilience.tasks": ("count", "lower"),
    "runtime.resilience.attempts": ("count", "lower"),
    "runtime.resilience.retries": ("count", "lower"),
    "runtime.resilience.pool_respawns": ("count", "lower"),
    "runtime.resilience.degraded": ("count", "lower"),
    "runtime.resilience.pool_wait_s": ("s", "lower"),
    "runtime.executor.chunks": ("count", "lower"),
    "runtime.executor.self_s": ("s", "lower"),
    "transient.model.solve_s": ("s", "lower"),
    "transient.model.segments": ("count", "lower"),
    "transient.model.early_stop_ratio": ("1", "higher"),
    "markov.transient.matvecs": ("count", "lower"),
    "markov.transient.matvec_rate": ("1/s", "higher"),
    "markov.transient.computed_bytes_per_matvec": ("B", "lower"),
    "transient.propagator.hits": ("count", "higher"),
    "transient.propagator.misses": ("count", "lower"),
    "transient.propagator.hit_ratio": ("1", "higher"),
    "runtime.cache.gets": ("count", "lower"),
    "runtime.cache.hit_ratio": ("1", "higher"),
    "runtime.cache.get_s": ("s", "lower"),
    "runtime.cache.puts": ("count", "lower"),
    "runtime.cache.put_s": ("s", "lower"),
    "store.artifacts.gets": ("count", "lower"),
    "store.artifacts.hit_ratio": ("1", "higher"),
    "store.artifacts.get_s": ("s", "lower"),
    "store.artifacts.put_s": ("s", "lower"),
    "store.artifacts.bytes_written": ("B", "lower"),
    "service.admission.queue_wait_ms": ("ms", "lower"),
    "service.admission.coalesced": ("count", "higher"),
    "service.admission.rejected": ("count", "lower"),
    "service.admission.timed_out": ("count", "lower"),
    "service.server.solve_ms": ("ms", "lower"),
    "service.server.render_ms": ("ms", "lower"),
    "service.server.http_ms": ("ms", "lower"),
    "import.repro.cli_s": ("s", "lower"),
    "import.repro.experiments_s": ("s", "lower"),
    "import.repro.simulator_s": ("s", "lower"),
    "import.scipy.stats_s": ("s", "lower"),
    "import.networkx_s": ("s", "lower"),
    "obs.trace_overhead_s": ("s", "lower"),
    "workload.traced_wall_s": ("s", "lower"),
    "workload.unattributed_s": ("s", "lower"),
    "workload.attributed_share": ("1", "higher"),
}


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #
def _become_subreaper() -> None:
    """Adopt orphaned descendants (forkservers, pool workers) for reaping."""
    libc = ctypes.CDLL(None, use_errno=True)
    pr_set_child_subreaper = 36
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads_for(jobs: int, cores: int) -> int | None:
    """BLAS threads per process of a ``jobs``-worker pass on ``cores`` cores.

    A serial pass keeps the library default a user gets (``None``).  A pool
    caps each worker at ``cores // jobs`` threads, so the busy threads never
    outnumber the cores: the oversubscribed default measures the scheduler.
    """
    return None if jobs <= 1 else max(1, cores // jobs)


def _program_env(run_dir: Path, blas_threads: int | None = None) -> dict:
    """A user's environment minus every repro knob and BLAS thread override."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "GPRS_REPRO_")) and key not in BLAS_THREAD_VARS
    }
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, str(blas_threads)))
    home = run_dir / "home"
    home.mkdir(parents=True, exist_ok=True)
    env["HOME"] = str(home)
    env["XDG_CACHE_HOME"] = str(home / ".cache")
    env["PYTHONPYCACHEPREFIX"] = str(run_dir / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    tmp = run_dir / "tmp"
    # Unix socket paths (the forkserver's listener lives in $TMPDIR) are
    # limited to 107 bytes; a deep checkout keeps the system default.
    if len(str(tmp)) <= 60:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def _rusage_totals(usage) -> tuple[float, float]:
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _wait(pid: int, deadline: float, group: int) -> tuple[int, object]:
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return status, usage
        if time.monotonic() > deadline:
            _kill_group(group)
            done, status, usage = os.wait4(pid, 0)
            return status, usage
        time.sleep(0.01)


def _kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_descendants(group: int) -> tuple[float, float]:
    """Wait for every adopted descendant; returns their (cpu_s, max rss MB)."""
    cpu = rss = 0.0
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        try:
            pid, _, usage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return cpu, rss
        if pid:
            used, peak = _rusage_totals(usage)
            cpu += used
            rss = max(rss, peak)
            continue
        if time.monotonic() > deadline:
            _kill_group(group)
        time.sleep(0.01)


def run_process(argv: list[str], env: dict, log: Path, deadline_s: float) -> dict:
    """Run one child to completion plus everything it left running."""
    with open(log, "ab") as sink:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdout=sink, stderr=sink, start_new_session=True
        )
        status, usage = _wait(proc.pid, spawned + deadline_s, proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _, rss = _rusage_totals(usage)
        orphan_cpu, orphan_rss = _reap_descendants(proc.pid)
    return {
        "spawned": spawned,
        "returncode": proc.returncode,
        "orphan_cpu_s": orphan_cpu,
        "peak_rss_mb": max(rss, orphan_rss),
    }


class PassRunner:
    def __init__(self, work: Path, env: dict) -> None:
        self.work = work
        self.env = env
        self.count = 0

    def run(self, job: dict) -> dict:
        self.count += 1
        job = dict(job, out=str(self.work / f"pass{self.count}.out.json"))
        job.setdefault("work_dir", str(self.work / f"pass{self.count}"))
        Path(job["work_dir"]).mkdir(parents=True, exist_ok=True)
        job_path = self.work / f"pass{self.count}.job.json"
        job_path.write_text(json.dumps(job))
        log = self.work / f"pass{self.count}.log"
        proc = run_process(
            [sys.executable, str(HERE / "pass_main.py"), str(job_path)],
            self.env, log, PASS_TIMEOUT_S,
        )
        if proc["returncode"] != 0 or not Path(job["out"]).is_file():
            tail = log.read_text(errors="replace")[-3000:]
            raise RuntimeError(
                f"pass {self.count} ({job['mode']}) exited {proc['returncode']}:\n{tail}"
            )
        outcome = json.loads(Path(job["out"]).read_text())
        outcome.update(proc)
        if "t_ready" in outcome:
            outcome["setup_s"] = outcome["t_ready"] - proc["spawned"]
            # The pass times its own CPU in-process, so its interpreter
            # teardown stays out; children it or this runner reaped count.
            children_cpu = outcome["children_cpu_exit"] + proc["orphan_cpu_s"]
            outcome["cpu_s"] = outcome["cpu_end"] - outcome["cpu_ready"] + children_cpu
        return outcome

    def import_times(self) -> dict:
        """``-X importtime`` cumulative seconds of ``IMPORT_MODULES``."""
        log = self.work / "importtime.log"
        proc = run_process(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            self.env, log, PASS_TIMEOUT_S,
        )
        if proc["returncode"] != 0:
            raise RuntimeError(f"import probe exited {proc['returncode']}")
        return parse_importtime(log.read_text(errors="replace"))


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds per module from ``-X importtime`` output.

    A package imported through a lazy ``__getattr__`` (``from scipy import
    stats``) gets no line of its own; it then costs the sum of its
    shallowest submodule lines.
    """
    pattern = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\| ( *)(\S+)\s*$")
    rows = []
    for line in text.splitlines():
        match = pattern.search(line)
        if match:
            rows.append((match.group(3), len(match.group(2)), int(match.group(1)) / 1e6))
    times = {}
    for module in IMPORT_MODULES:
        own = [seconds for name, _, seconds in rows if name == module]
        if own:
            times[module] = own[0]
            continue
        inside = [(depth, seconds) for name, depth, seconds in rows
                  if name.startswith(module + ".")]
        top = min((depth for depth, _ in inside), default=None)
        times[module] = sum(seconds for depth, seconds in inside if depth == top)
    return times


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #
def load_references(workload: str) -> dict:
    path = HERE / "references" / f"{workload}.json"
    return json.loads(path.read_text())["answers"]


def values_agree(got: dict, want: dict) -> bool:
    if set(got) != set(want):
        return False
    return all(
        abs(got[name] - want[name]) <= max(REL_TOL * abs(want[name]), ABS_TOL)
        for name in want
    )


def check_batch_pass(outcome: dict, references: dict, problems: list) -> None:
    for op in outcome["ops"]:
        answers = references.get(op["key"], [])
        want = answers[op["index"]] if op["index"] < len(answers) else None
        op["correct"] = (
            want is not None
            and abs(want["rate"] - op["rate"]) < 1e-12
            and values_agree(op["values"], want["values"])
        )
        if not op["correct"] and not op["failed_points"]:
            problems.append(f"{op['key']} point {op['index']} disagrees with the reference")
    warm = {name: outcome["counters"].get(name, 0) for name in COLD_COUNTERS}
    if any(warm.values()):
        problems.append(f"warm replay in a cold pass: {warm}")


def check_serve_pass(outcome: dict, references: dict, renders: dict, problems: list) -> None:
    for op in outcome["ops"]:
        if op is None:
            problems.append("a request never completed")
            continue
        answers = references.get(op["key"], [])
        points_ok = len(op["points"]) == len(answers) and all(
            abs(want["rate"] - got["rate"]) < 1e-12
            and values_agree(got["values"], want["values"])
            for got, want in zip(op["points"], answers)
        )
        bytes_ok = op["canonical_sha256"] == renders.get(op["key"])
        expected_hits = len(op["points"]) if op["kind"] == "hit" else 0
        op["correct"] = points_ok and bytes_ok and op["cache_hits"] == expected_hits
        if op["status"] == 200 and not op["correct"]:
            problems.append(
                f"{op['kind']} {op['key']}: values {'ok' if points_ok else 'WRONG'}, "
                f"canonical bytes {'equal' if bytes_ok else 'DIFFER'}, "
                f"cache hits {op['cache_hits']} (expected {expected_hits})"
            )


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def latency_metrics(outcomes: list[dict]) -> tuple[dict, list[str]]:
    """Median and tail latency of served cache hits and re-solves."""
    values, notes = {}, []
    for kind in ("hit", "resolve"):
        latencies = [
            op["latency_ms"]
            for o in outcomes
            for op in o["ops"]
            if op is not None and op["kind"] == kind
        ]
        value, percentile, count = stats.tail(latencies)
        values[f"{kind}_p50_ms"] = stats.median(latencies)
        values[f"{kind}_tail_ms"] = value
        notes.append(f"{kind}_tail_ms is p{percentile:.1f} of {count} samples")
    return values, notes


def end_to_end_metrics(workload: str, outcomes: list[dict]) -> tuple[dict, list[str]]:
    values = {
        "setup_s": stats.median(o["setup_s"] for o in outcomes),
        "wall_s": stats.median(o["wall_s"] for o in outcomes),
        "cpu_s": stats.median(o["cpu_s"] for o in outcomes),
        "peak_rss_mb": stats.median(o["peak_rss_mb"] for o in outcomes),
    }
    fail_ratio = stats.fail_ratio(outcomes)
    values["ok_ratio"] = 1.0 - fail_ratio
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    notes = [f"fail_ratio {fail_ratio:.6g} 1"]
    if workload == "serve-mix":
        latencies, latency_notes = latency_metrics(outcomes)
        notes += [f"{name} {value:.6g} ms" for name, value in latencies.items()]
        notes += latency_notes
    return metrics, notes


def per_layer_metrics(
    counters: dict, traced: dict, untraced: list[dict], imports: dict, pool_wait: float
) -> dict:
    spans = traced["spans"]
    totals = layer_totals(spans)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    c = lambda name: counters.get(name, 0)  # noqa: E731
    solver_self = self_s("core.structured_solver")
    sweeps = c("solver.structured.sweeps")
    moved, products = traced.get("matvec_bytes", (0, 0))
    chain_s = self_s("markov.transient.chain")
    root = next(i for i, span in enumerate(spans) if span[0] == "workload")
    wall = spans[root][2] - spans[root][1]
    covered = covered_length(spans, root)
    requests = [s for s in spans if s[0] == "client.request"]
    entries = calls("service.admission.run")
    queue_waits = traced.get("queue_waits_s", [])
    values = {"fail_ratio": stats.fail_ratio(untraced)}
    if untraced[0]["mode"] == "serve":
        values.update(latency_metrics(untraced)[0])
    else:
        values.update(dict.fromkeys(
            ("hit_p50_ms", "hit_tail_ms", "resolve_p50_ms", "resolve_tail_ms"), 0.0
        ))
    values.update({
        "core.structured_solver.solves": c("solver.structured.solves"),
        "core.structured_solver.sweeps": sweeps,
        "core.structured_solver.sweeps_per_solve": _ratio(sweeps, c("solver.structured.solves")),
        "core.structured_solver.coarse_corrections": c("solver.structured.coarse_corrections"),
        "core.structured_solver.self_s": solver_self,
        "core.structured_solver.s_per_sweep": _ratio(solver_self, traced["counters"].get("solver.structured.sweeps", 0)),
        "core.template.builds": c("template.builds"),
        "core.template.rewrites": c("template.rewrites"),
        "core.template.build_s": self_s("core.template.build"),
        "core.template.rewrite_s": self_s("core.template.rewrite"),
        "core.model.solves": c("model.solves"),
        "core.model.warm_ratio": _ratio(c("model.warm_solves"), c("model.solves")),
        "core.model.steady_state_s": self_s("core.model.steady_state"),
        "core.model.measures_s": self_s("core.model.measures"),
        "core.handover.calls": calls("core.handover"),
        "core.handover.self_s": self_s("core.handover"),
        "network.model.solve_s": total_s("network.model.solve"),
        "network.model.outer_iterations": c("network.outer_iterations"),
        "network.model.cell_solves": c("network.cell_solves"),
        "network.model.frozen_ratio": _ratio(
            c("network.frozen_solves"), c("network.cell_solves") + c("network.frozen_solves")
        ),
        "network.model.cold_ratio": _ratio(c("network.cold_solves"), c("network.cell_solves")),
        "runtime.resilience.tasks": c("resilience.attempts") - c("resilience.retries"),
        "runtime.resilience.attempts": c("resilience.attempts"),
        "runtime.resilience.retries": c("resilience.retries"),
        "runtime.resilience.pool_respawns": c("resilience.pool_respawns"),
        "runtime.resilience.degraded": c("resilience.degraded"),
        "runtime.resilience.pool_wait_s": pool_wait,
        "runtime.executor.chunks": c("executor.chunks"),
        "runtime.executor.self_s": self_s("runtime.executor"),
        "transient.model.solve_s": total_s("transient.model.solve"),
        "transient.model.segments": c("transient.segments"),
        "transient.model.early_stop_ratio": _ratio(
            c("transient.early_stopped_segments"), c("transient.segments")
        ),
        "markov.transient.matvecs": c("transient.matvecs"),
        "markov.transient.matvec_rate": _ratio(products, chain_s),
        "markov.transient.computed_bytes_per_matvec": _ratio(moved, products),
        "transient.propagator.hits": c("cache.propagator.hits"),
        "transient.propagator.misses": c("cache.propagator.misses"),
        "transient.propagator.hit_ratio": _ratio(
            c("cache.propagator.hits"), c("cache.propagator.hits") + c("cache.propagator.misses")
        ),
        "runtime.cache.gets": c("cache.result.hits") + c("cache.result.misses"),
        "runtime.cache.hit_ratio": _ratio(
            c("cache.result.hits"), c("cache.result.hits") + c("cache.result.misses")
        ),
        "runtime.cache.get_s": self_s("runtime.cache.get"),
        "runtime.cache.puts": c("cache.result.writes"),
        "runtime.cache.put_s": self_s("runtime.cache.put"),
        "store.artifacts.gets": c("store.hits") + c("store.misses"),
        "store.artifacts.hit_ratio": _ratio(c("store.hits"), c("store.hits") + c("store.misses")),
        "store.artifacts.get_s": self_s("store.artifacts.get"),
        "store.artifacts.put_s": self_s("store.artifacts.put"),
        "store.artifacts.bytes_written": c("store.bytes_written"),
        "service.admission.queue_wait_ms": 1000.0 * _ratio(sum(queue_waits), len(queue_waits)),
        "service.admission.coalesced": c("service.coalesced"),
        "service.admission.rejected": c("service.rejected"),
        "service.admission.timed_out": c("service.timed_out"),
        "service.server.solve_ms": 1000.0 * _ratio(
            total_s("service.server.solve") - _render_inside_solve(spans), entries
        ),
        "service.server.render_ms": 1000.0 * _ratio(total_s("service.server.render"), entries),
        "service.server.http_ms": 1000.0 * _ratio(
            sum(s[2] - s[1] for s in requests) - total_s("service.admission.admit"),
            len(requests),
        ),
        "obs.trace_overhead_s": wall - untraced[0]["wall_s"],
        "workload.traced_wall_s": wall,
        "workload.unattributed_s": wall - covered,
        "workload.attributed_share": _ratio(covered, wall),
    })
    for module in IMPORT_MODULES:
        values[f"import.{module}_s"] = imports[module]
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, _) in PER_LAYER.items()
    }


def _render_inside_solve(spans) -> float:
    """Render time spent inside ``service.server.solve`` spans (report text)."""
    return sum(
        span[2] - span[1]
        for span in spans
        if span[0] == "service.server.render"
        and span[3] is not None
        and spans[span[3]][0] == "service.server.solve"
    )


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #
def _pass_jobs(workload: str, seed: int, count: int, *, jobs: int, trace: bool = False) -> list[dict]:
    settings = workloads.WORKLOADS[workload]
    if workload == "serve-mix":
        return [
            {"mode": "serve", "workload": workload, "trace": trace,
             "clients": settings["clients"],
             "sequence": workloads.serve_sequence(seed, index)}
            for index in range(count)
        ]
    inputs = workloads.batch_inputs(workload, seed)
    return [
        {"mode": "batch", "workload": workload, "trace": trace, "jobs": jobs,
         "inputs": inputs}
        for _ in range(count)
    ]


def _check(workload: str, outcomes: list[dict], runner: PassRunner) -> list[str]:
    references = load_references(workload)
    problems: list[str] = []
    if workload == "serve-mix":
        cold = runner.run({
            "mode": "cold-render",
            "inputs": workloads.reference_inputs("serve-mix"),
        })
        for outcome in outcomes:
            check_serve_pass(outcome, references, cold["renders"], problems)
    else:
        for outcome in outcomes:
            check_batch_pass(outcome, references, problems)
    return problems


def measured_run(workload: str, seed: int, seconds: int, runner: PassRunner) -> dict:
    jobs = workloads.WORKLOADS[workload]["jobs"]
    count = workloads.passes_for(workload, seconds)
    outcomes = [runner.run(job) for job in _pass_jobs(workload, seed, count, jobs=jobs)]
    problems = _check(workload, outcomes, runner)
    metrics, notes = end_to_end_metrics(workload, outcomes)
    notes.append(f"{count} passes, jobs={jobs}")
    return {"outcomes": outcomes, "problems": problems, "metrics": metrics, "notes": notes}


def traced_run(workload: str, seed: int, runner: PassRunner) -> dict:
    """Per-layer metrics: span times of a traced pass, counts of an untraced one.

    Spans are timed in-process, so traced passes, and the untraced passes
    their overhead is measured against, run ``jobs=1``.  A pooled workload's
    counts come from an extra untraced pass at its own ``jobs``, because
    registry counts merge across the pool boundary.
    """
    jobs = workloads.WORKLOADS[workload]["jobs"]
    imports = runner.import_times()
    # Serving latencies need the request samples of a measured run.
    count = workloads.MIN_PASSES if workload == "serve-mix" else 1
    untraced = [runner.run(job) for job in _pass_jobs(workload, seed, count, jobs=1)]
    traced = runner.run(_pass_jobs(workload, seed, 1, jobs=1, trace=True)[0])
    outcomes = untraced + [traced]
    notes = [f"traced and {count} untraced pass(es) ran jobs=1"]
    counts_from, pool_wait = untraced[0], 0.0
    if jobs != 1:
        real = runner.run(dict(_pass_jobs(workload, seed, 1, jobs=jobs)[0], pool_wait=True))
        outcomes.append(real)
        counts_from, pool_wait = real, real["pool_wait_s"]
        notes.append(f"counts and pool_wait_s come from an untraced jobs={jobs} pass")
    problems = _check(workload, outcomes, runner)
    metrics = per_layer_metrics(counts_from["counters"], traced, untraced, imports, pool_wait)
    return {"outcomes": outcomes, "problems": problems, "metrics": metrics, "notes": notes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _become_subreaper()
    run_dir = ROOT / ".perfbench_run"
    work = run_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    jobs = workloads.WORKLOADS[args.workload]["jobs"]
    cores = len(os.sched_getaffinity(0))
    runner = PassRunner(work, _program_env(run_dir, blas_threads_for(jobs, cores)))
    try:
        if args.trace:
            run = traced_run(args.workload, args.seed, runner)
        else:
            run = measured_run(args.workload, args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = stats.failure_counts(run["outcomes"])
    correct = not run["problems"]
    environment = run["outcomes"][0]["environment"]
    results = run_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({**vars(args), **run, "environment": environment}, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"passes, answers and spans written to {results.relative_to(ROOT)}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for note in run["notes"]:
        print(note)
    for problem in run["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    if len(run["problems"]) > 20:
        print(f"CHECK FAILED: ... {len(run['problems']) - 20} more")
    for name, metric in run["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": run["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
