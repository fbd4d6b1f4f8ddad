"""One pass of a workload in a fresh interpreter (started by ``run.py``).

Usage: ``python3 pass_main.py JOB.json``.  The job file names the mode
(``batch``, ``serve`` or ``cold-render``), the inputs and where to write the
outcome.  The pass reports the monotonic time at which it became ready for
its first timed call, its own CPU time at ready and at the end of the timed
work, the CPU time of the children it reaped itself, the wall time of the
timed work, the program's answers and the ``repro.obs`` registry delta of
the timed work.  A traced pass also reports its spans.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import threading
import time
from pathlib import Path


def _cpu_s(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _blas_threads() -> dict:
    """OpenBLAS thread counts of the libraries numpy and scipy loaded."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = int(getter())
                break
    return found


def _environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------- #
# Layer wrappers (traced passes only)
# ---------------------------------------------------------------------- #
def _install_layer_wrappers(recorder, extras: dict) -> None:
    """Time calls into each layer, patched where the caller looks them up."""
    import repro.core.model as core_model
    import repro.core.structured_solver as structured
    import repro.core.template as template
    import repro.network.model as network_model
    import repro.runtime.cache as result_cache
    import repro.runtime.executor as executor
    import repro.runtime.resilience as resilience
    import repro.store.artifacts as artifacts
    import repro.transient.model as transient_model
    import repro.transient.propagator as propagator

    patch = recorder.patch
    patch(executor, "run_sweep", "runtime.executor")
    patch(executor, "_solve_chunk_points", "runtime.executor")
    patch(resilience.ResilientPool, "run", "runtime.resilience")
    patch(resilience.ResilientPool, "poll", "runtime.resilience")
    patch(core_model.GprsMarkovModel, "_solve_steady_state", "core.model.steady_state")
    patch(core_model, "compute_measures", "core.model.measures")
    patch(transient_model, "compute_measures", "core.model.measures")
    patch(network_model, "build_solver_scaffold", "core.model")
    patch(core_model, "solve_steady_state", "markov.solvers")
    patch(structured, "solve_structured", "core.structured_solver")
    patch(structured.StructuredSolveContext, "build", "core.structured_solver")
    patch(template.GeneratorTemplate, "build", "core.template.build")
    patch(template.GeneratorTemplate, "generator", "core.template.rewrite")
    patch(core_model, "balance_handover_rates", "core.handover")
    patch(transient_model, "balance_handover_rates", "core.handover")
    patch(network_model, "cell_outgoing_rates", "core.handover")
    patch(network_model.NetworkModel, "solve", "network.model.solve")
    patch(network_model.NetworkSolveDriver, "next_jobs", "network.model")
    patch(network_model.NetworkSolveDriver, "absorb", "network.model")
    patch(network_model, "_solve_cell_task", "network.model")
    patch(transient_model.TransientModel, "solve", "transient.model.solve")
    patch(transient_model._SegmentPropagator, "advance", "markov.transient.chain")
    patch(propagator.PropagatorCache, "get", "transient.propagator")
    patch(propagator.PropagatorCache, "put", "transient.propagator")
    patch(result_cache.ResultCache, "get", "runtime.cache.get")
    patch(result_cache.ResultCache, "put", "runtime.cache.put")
    patch(artifacts.ArtifactStore, "get", "store.artifacts.get")
    patch(artifacts.ArtifactStore, "put", "store.artifacts.put")

    # The uniformised propagators: their matvec kernel shapes give the
    # computed bytes moved per product.
    propagators = []
    patch(transient_model._SegmentPropagator, "__init__", "markov.transient.uniformize")
    traced_init = transient_model._SegmentPropagator.__init__

    def init_and_register(self, *args, **kwargs):
        traced_init(self, *args, **kwargs)
        propagators.append(self)

    transient_model._SegmentPropagator.__init__ = init_and_register

    def matvec_bytes() -> tuple[int, int]:
        moved = products = 0
        for prop in propagators:
            matrix = prop._pt
            rows = matrix.shape[0]
            per_product = (
                matrix.nnz * (matrix.data.itemsize + matrix.indices.itemsize)
                + (rows + 1) * matrix.indptr.itemsize
                + 2 * rows * matrix.data.itemsize  # read x, write y
            )
            moved += per_product * prop.matvecs
            products += prop.matvecs
        return moved, products

    extras["matvec_bytes"] = matvec_bytes


def _install_service_wrappers(recorder, extras: dict) -> None:
    """Service-side spans carrying the request id of the client's header."""
    import repro.experiments.reporting as reporting
    import repro.runtime.executor as executor
    import repro.service.admission as admission
    import repro.service.server as server

    patch = recorder.patch
    patch(server.ScenarioService, "admit", "service.admission.admit")
    patch(server.ScenarioService, "_dispatch", "service.server.solve")
    patch(server, "canonical_text", "service.server.render")
    patch(executor.ScenarioRunResult, "as_dict", "service.server.render")
    patch(reporting, "format_scenario_result", "service.server.render")

    patch(server._Handler, "do_POST", "service.server.http")
    traced_post = server._Handler.do_POST

    def do_post(handler):
        recorder.set_thread_context(None, handler.headers.get("X-Request-Id"))
        return traced_post(handler)

    server._Handler.do_POST = do_post

    leaders: dict[int, object] = {}
    queue_waits: list[float] = []
    raw_submit = admission.AdmissionQueue.submit

    def submit(queue, request):
        entry, coalesced = raw_submit(queue, request)
        if not coalesced:
            leaders[id(entry)] = recorder.request_id
        return entry, coalesced

    patch(admission.AdmissionQueue, "_run_entry", "service.admission.run")
    traced_run = admission.AdmissionQueue._run_entry

    def run_entry(queue, entry):
        queue_waits.append(entry.started_at - entry.enqueued_at)
        recorder.set_thread_context(None, leaders.pop(id(entry), None))
        return traced_run(queue, entry)

    recorder._patches.append((admission.AdmissionQueue, "submit", raw_submit))
    admission.AdmissionQueue.submit = submit
    admission.AdmissionQueue._run_entry = run_entry
    extras["queue_waits"] = queue_waits


def _install_pool_wait_timer(extras: dict) -> None:
    """Time the parent spends in a multi-process pool's ``run``/``poll``.

    ``run`` polls internally; only the outermost call is timed.
    """
    import repro.runtime.resilience as resilience

    waits = extras.setdefault("pool_wait_s", [0.0])
    depth = threading.local()

    def timed(raw):
        def call(pool, *args, **kwargs):
            outer = not getattr(depth, "level", 0)
            depth.level = getattr(depth, "level", 0) + 1
            start = time.perf_counter()
            try:
                return raw(pool, *args, **kwargs)
            finally:
                depth.level -= 1
                if outer and not pool.serial:
                    waits[0] += time.perf_counter() - start

        return call

    for name in ("run", "poll"):
        setattr(resilience.ResilientPool, name, timed(getattr(resilience.ResilientPool, name)))


# ---------------------------------------------------------------------- #
# Modes
# ---------------------------------------------------------------------- #
def _point_ops(key: str, result) -> list[dict]:
    failures = len(result.failures)
    return [
        {
            "key": key,
            "index": point.index,
            "rate": point.arrival_rate,
            "values": dict(point.values),
            "failed_points": int(point.failed),
            "failures": failures,
        }
        for point in result.points
    ]


def run_batch(job: dict, recorder, outcome: dict) -> None:
    from repro.experiments.scale import ExperimentScale
    from repro.obs.metrics import global_registry
    from repro.runtime import executor, scenario

    from perf_workloads import input_key

    sweeps = [
        (
            input_key(item["scenario"], item["preset"], item["rates"]),
            scenario(item["scenario"]).replace(arrival_rates=tuple(item["rates"])),
            ExperimentScale.from_name(item["preset"]),
        )
        for item in job["inputs"]
    ]
    extras: dict = {}
    if recorder is not None:
        _install_layer_wrappers(recorder, extras)
    if job.get("pool_wait"):
        _install_pool_wait_timer(extras)
    registry = global_registry()
    outcome["t_ready"] = time.monotonic()
    outcome["cpu_ready"] = _cpu_s()

    baseline = registry.snapshot()
    start = time.perf_counter()
    root = recorder.begin("workload") if recorder is not None else None
    ops = []
    for key, spec, scale in sweeps:
        result = executor.run_sweep(spec, scale, jobs=job["jobs"], cache=None)
        ops += _point_ops(key, result)
    if recorder is not None:
        recorder.end(root)
    outcome["wall_s"] = time.perf_counter() - start
    outcome["cpu_end"] = _cpu_s()
    outcome["counters"] = registry.delta_since(baseline).get("counters", {})
    outcome["ops"] = ops
    if "matvec_bytes" in extras:
        outcome["matvec_bytes"] = extras["matvec_bytes"]()
    if "pool_wait_s" in extras:
        outcome["pool_wait_s"] = extras["pool_wait_s"][0]


def _post(url: str, body: dict, request_id: str) -> tuple[int, dict]:
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json", "X-Request-Id": request_id},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        try:
            payload = json.loads(error.read().decode("utf-8"))
        except ValueError:
            payload = {"ok": False}
        return error.code, payload


def _served_op(request: dict, status: int, response: dict, latency_s: float) -> dict:
    payload = response.get("payload") or {}
    points = payload.get("points") or []
    canonical = response.get("canonical")
    return {
        "key": f"{request['scenario']}|{request['preset']}|preset-axis",
        "kind": request["kind"],
        "status": status,
        "ok": bool(response.get("ok")),
        "latency_ms": 1000.0 * latency_s,
        "failures": int(response.get("failures", 0) or 0),
        "failed_points": sum(1 for point in points if point.get("failed")),
        "cache_hits": int((response.get("cache") or {}).get("hits", 0)),
        "points": [
            {"index": p["index"], "rate": p["arrival_rate"], "values": p["values"]}
            for p in points
        ],
        "canonical_sha256": (
            None
            if canonical is None
            else hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        ),
    }


def run_serve(job: dict, recorder, outcome: dict) -> None:
    import urllib.request

    from repro.obs.metrics import global_registry
    from repro.runtime.cache import ResultCache
    from repro.service.server import ScenarioService, create_server
    from repro.store import ArtifactStore

    from perf_workloads import SERVE_SCENARIOS

    work = Path(job["work_dir"])
    service = ScenarioService(
        jobs=1,
        cache=ResultCache(work / "cache"),
        store=ArtifactStore(work / "store"),
        workers=job["clients"],
    )
    server = create_server(service, port=0)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
            if response.status != 200:
                raise RuntimeError(f"/healthz answered {response.status}")
        for name in SERVE_SCENARIOS:
            status, response = _post(
                f"{base}/run",
                {"command": "sweep", "scenario": name, "preset": "smoke"},
                f"warm-{name}",
            )
            if status != 200 or not response.get("ok"):
                raise RuntimeError(f"pre-warming {name} answered {status}")

        extras: dict = {}
        if recorder is not None:
            _install_layer_wrappers(recorder, extras)
            _install_service_wrappers(recorder, extras)
        registry = global_registry()
        outcome["t_ready"] = time.monotonic()
        outcome["cpu_ready"] = _cpu_s()

        sequence = job["sequence"]
        ops: list = [None] * len(sequence)
        cursor = iter(range(len(sequence)))
        cursor_lock = threading.Lock()
        root = recorder.begin("workload") if recorder is not None else None

        def client() -> None:
            if recorder is not None:
                recorder.set_thread_context(root)
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                request = sequence[index]
                body = {
                    "command": "sweep",
                    "scenario": request["scenario"],
                    "preset": request["preset"],
                    "cache": request["cache"],
                }
                request_id = f"r{index}"
                span = None
                if recorder is not None:
                    recorder.request_id = request_id
                    span = recorder.begin("client.request")
                sent = time.perf_counter()
                status, response = _post(f"{base}/run", body, request_id)
                latency = time.perf_counter() - sent
                if recorder is not None:
                    recorder.end(span)
                ops[index] = _served_op(request, status, response, latency)

        baseline = registry.snapshot()
        start = time.perf_counter()
        clients = [threading.Thread(target=client) for _ in range(job["clients"])]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        if recorder is not None:
            recorder.end(root)
        outcome["wall_s"] = time.perf_counter() - start
        outcome["cpu_end"] = _cpu_s()
        outcome["counters"] = registry.delta_since(baseline).get("counters", {})
        outcome["ops"] = ops
        if "queue_waits" in extras:
            outcome["queue_waits_s"] = list(extras["queue_waits"])
    finally:
        server.shutdown()
        server.server_close()
        service.drain(10.0)
        service.close()


def run_cold_render(job: dict, outcome: dict) -> None:
    """Cold renderings of every serving input (no cache, no store)."""
    from repro.experiments.scale import ExperimentScale
    from repro.runtime import run_sweep, scenario
    from repro.service.protocol import canonical_text

    renders = {}
    for item in job["inputs"]:
        result = run_sweep(
            scenario(item["scenario"]),
            ExperimentScale.from_name(item["preset"]),
            cache=None,
        )
        text = canonical_text(result.as_dict())
        renders[f"{item['scenario']}|{item['preset']}|preset-axis"] = (
            hashlib.sha256(text.encode("utf-8")).hexdigest()
        )
    outcome["renders"] = renders


def main(argv: list[str]) -> int:
    from perf_trace import SpanRecorder

    job = json.loads(Path(argv[1]).read_text())

    recorder = SpanRecorder() if job.get("trace") else None
    outcome: dict = {"mode": job["mode"]}
    if job["mode"] == "batch":
        run_batch(job, recorder, outcome)
    elif job["mode"] == "serve":
        run_serve(job, recorder, outcome)
    elif job["mode"] == "cold-render":
        run_cold_render(job, outcome)
    else:
        raise ValueError(f"unknown pass mode {job['mode']!r}")
    if recorder is not None:
        recorder.unpatch()
        outcome["spans"] = recorder.closed_spans()
    outcome["environment"] = _environment()
    outcome["children_cpu_exit"] = _cpu_s(resource.RUSAGE_CHILDREN)
    Path(job["out"]).write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
