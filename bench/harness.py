"""Set up a workload, run its timed passes in a worker process, check the outputs.

Every pass must exit cleanly and produce the same output digest, and that
digest must match the one recorded in ``references.json`` for the seed when
there is one.  End-to-end metrics are medians: of the set-ups, which run in
this process, and of the untraced passes, which run in the worker.  The
metric names and units are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from passes import MIN_PASSES, Pass
from workloads import Workload, start_server, write_history

# set up at least this many times and for at least this long, counting the
# teardown of each earlier setup; setup_s is the median
SETUP_REPEATS = 5
SETUP_SECONDS = 4.0
# the worker is stopped if its passes overrun --seconds by this much
WORKER_GRACE_S = 100.0
BENCH = Path(__file__).resolve().parent
BENCHMARK = BENCH.parent / "BENCHMARK.json"
REFERENCES = BENCH / "references.json"


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def load_reference(workload: Workload, seed: int) -> str | None:
    """The recorded digest for this workload and seed, if one was recorded."""
    if not REFERENCES.exists():
        return None
    doc = json.loads(REFERENCES.read_text(encoding="utf-8")).get(workload.name)
    if doc is None:
        return None
    if doc["params"] != json.loads(json.dumps(workload.params())):
        raise ValueError(f"references for {workload.name} were recorded with other "
                         "workload parameters; record them again")
    return doc["digests"].get(str(seed))


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    passes: list[Pass]
    setup_s: list[float]
    notes: list[str]


def setup(workload: Workload, seed: int, work: Path):
    """Build the workload's inputs; returns the server of a crawl workload."""
    if workload.crawl:
        return start_server(workload, seed)
    write_history(workload, seed, work / "input")
    return None


def run_worker(request: dict, work: Path) -> dict:
    """Run ``passes.run_passes`` in a fresh interpreter and return its result."""
    request_path, result_path = work / "request.json", work / "result.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(request_path),
                    str(result_path)],
                   stdout=subprocess.DEVNULL, check=True,
                   timeout=request["seconds"] + WORKER_GRACE_S)
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, reference: str | None = None,
                 spans_path: Path | None = None) -> RunResult:
    setup_s: list[float] = []
    server = None
    try:
        started = perf_counter()
        while len(setup_s) < SETUP_REPEATS or perf_counter() - started < SETUP_SECONDS:
            if server is not None:
                server.__exit__(None, None, None)
            t0 = perf_counter()
            server = setup(workload, seed, work)
            setup_s.append(perf_counter() - t0)
        requests_before = server.request_count if server is not None else 0
        result = run_worker({
            "root": str(BENCH.parent),
            "workload": dataclasses.asdict(workload),
            "seed": seed, "seconds": seconds, "trace": trace, "work": str(work),
            "base_url": server.base_url if server is not None else None,
            "spans_path": str(spans_path) if spans_path is not None else None,
        }, work)
        requests = server.request_count - requests_before if server is not None else 0
    finally:
        if server is not None:
            server.__exit__(None, None, None)

    passes = [Pass(**p) for p in result["passes"]]
    notes = list(result["notes"])
    expected = reference or passes[0].digest
    correct = True
    # every HTTP request the fixture server answered is an operation; a
    # traced pass counts the retried ones as failed
    attempted, failed = requests, 0
    for p in passes:
        ok = p.digest == expected and all(c == 0 for c in p.exit_codes.values())
        if p.digest != expected:
            notes.append(f"output digest {p.digest[:12]} differs from "
                         f"{'the reference' if reference else 'the first pass'} "
                         f"{expected[:12]}")
        correct &= ok
        attempted += p.attempted + 1  # the output check is an operation too
        failed += p.failed + (not ok)
    if reference is None:
        notes.append("no recorded reference for this seed; passes checked "
                     "against each other")

    plain = [p for p in passes if not p.traced]
    if trace:
        values = dict(result["layer"])
        values["failed_op_ratio"] = failed / attempted
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(p.wall_s for p in passes if p.traced)
            / statistics.median(p.wall_s for p in plain) - 1.0)
        declared = declared_metrics("per_layer")
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "pipeline_s": statistics.median(p.wall_s for p in plain),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        declared = declared_metrics("end_to_end")
    metrics = {name: (float(values[name]), unit) for name, unit in declared.items()}
    return RunResult(correct, attempted, failed, metrics, passes, setup_s, notes)


def environment(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload.name,
        "params": workload.params(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_repeats": SETUP_REPEATS,
        "setup_seconds": SETUP_SECONDS,
        "min_passes": MIN_PASSES,
    }
