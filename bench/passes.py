"""Timed passes of a workload's CLI commands, and the check of their outputs.

A pass runs the workload's commands through ``reviewtime.cli.main`` in a
fresh output directory.  The benchmark runs the passes of one run in a worker
process of their own (``worker.py``), so that the peak memory that process
reports covers the commands and not the benchmark's set-up.  A traced run
alternates untraced and traced passes, so that the tracing overhead is
measured in the same run, and hooks the program only around the traced ones.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import re
import resource
import shutil
import statistics
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter, process_time

from reviewtime.cli import main as cli_main

import tracing
from workloads import Workload, commands, write_config

MIN_PASSES = 3


# --- output check ----------------------------------------------------------

_NUMBER = re.compile(rb"-?\d+\.\d+(?:[eE][-+]?\d+)?")


def _canonical(data: bytes) -> bytes:
    # nine significant digits: BLAS kernels chosen per CPU may move the last
    # bits of a float, which must not read as a changed result
    return _NUMBER.sub(lambda m: format(float(m.group()), ".9g").encode(), data)


def output_digest(out_dir: Path) -> str:
    """Digest of every data and result file of a pass.

    ``meta/`` is left out, and so is the manifest's ``created_at``: both
    carry wall-clock timestamps.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir)
        if rel.parts[0] == "meta":
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("created_at", None)
            data = json.dumps(doc, sort_keys=True).encode()
        digest.update(rel.as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(_canonical(data)).digest())
    return digest.hexdigest()


# --- one pass --------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    wall_s: float
    # CPU time of this process over the pass; far below wall_s on a
    # single-threaded workload means the pass waited for a processor
    cpu_s: float
    command_s: dict[str, float]
    exit_codes: dict[str, int]
    digest: str
    # operations: CLI commands and rows of eval_*/ablation_* files; a traced
    # pass adds grid points and counts HTTP retries as failed
    attempted: int
    failed: int


def _eval_rows(out: Path) -> tuple[int, int]:
    attempted = failed = 0
    for path in [*out.glob("eval_*.csv"), *out.glob("ablation_*.csv")]:
        if path.name == "ablation_comparisons.csv":
            continue
        with path.open(encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                attempted += 1
                failed += row["failed"] != "0"
    return attempted, failed


def run_pass(workload: Workload, seed: int, work: Path, index: int,
             base_url: str | None = None, tracer: tracing.Tracer | None = None) -> Pass:
    """Run the workload's commands once into ``work/pass<index>``.

    With a tracer, each command is a span; the caller installs the hooks.
    """
    out = work / f"pass{index}"
    config = work / "config.json"
    write_config(config, seed, out, workload, base_url)
    argvs = commands(workload, config, out, work / "input")
    command_s: dict[str, float] = {}
    exit_codes: dict[str, int] = {}
    gc.collect()  # every pass starts from the same heap state
    cpu_started = process_time()
    started = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            t0 = perf_counter()
            if tracer is None:
                exit_codes[argv[0]] = cli_main(argv)
            else:
                exit_codes[argv[0]] = tracer.call("cli." + argv[0], cli_main, argv)
            command_s[argv[0]] = perf_counter() - t0
            if exit_codes[argv[0]] != 0:
                break  # later commands read this one's outputs
    wall = perf_counter() - started
    cpu = process_time() - cpu_started
    rows_attempted, rows_failed = _eval_rows(out)
    # a command skipped after an earlier one failed counts as failed
    commands_failed = sum(1 for a in argvs if exit_codes.get(a[0], 1) != 0)
    return Pass(tracer is not None, wall, cpu, command_s, exit_codes, output_digest(out),
                attempted=len(argvs) + rows_attempted,
                failed=commands_failed + rows_failed)


# --- the passes of one run -------------------------------------------------

def run_passes(workload: Workload, seed: int, seconds: float, trace: bool,
               work: Path, base_url: str | None = None,
               spans_path: Path | None = None) -> dict:
    """Run passes for about ``seconds``; every second pass of a traced run is traced.

    Returns the passes, the per-layer values of a traced run, the notes and
    this process's peak resident memory.
    """
    tracer = tracing.Tracer()
    passes: list[Pass] = []
    traced_runs: list[tuple[list[list], Counter]] = []
    notes: set[str] = set()
    started = perf_counter()
    while True:
        index = len(passes)
        if trace and index % 2 == 1:
            run_id = f"{workload.name}:{seed}:{index}"
            tracer.start_run(run_id)
            with tracing.installed(tracer) as missing:
                p = run_pass(workload, seed, work, index, base_url, tracer)
            notes.update(f"hook target {target} not found; its metrics read 0"
                         for target in missing)
            counts = tracer.counts
            p.attempted += counts["regressors.grid_points"]
            p.failed += counts["regressors.grid_points_failed"] + counts["gerrit.retries"]
            traced_runs.append((tracer.run_spans(run_id), counts))
        else:
            p = run_pass(workload, seed, work, index, base_url)
        passes.append(p)
        shutil.rmtree(work / f"pass{index}", ignore_errors=True)
        typical = statistics.median(q.wall_s for q in passes)
        # a traced run needs two traced passes for its percentiles
        if len(passes) >= MIN_PASSES + trace \
                and perf_counter() - started + typical > seconds:
            break
    if spans_path is not None and trace:
        tracer.write(spans_path)
    return {
        "passes": [asdict(p) for p in passes],
        "layer": tracing.layer_metrics(traced_runs) if trace else None,
        "notes": sorted(notes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
