#!/usr/bin/env python3
"""Benchmark of the reviewtime pipeline, run from the root of a checkout.

    python3 bench/run.py --workload pipeline-fixture --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, runs timed passes of its CLI
commands in a worker process for about ``--seconds`` seconds and checks
every pass's outputs.
Prints the metrics by name with their units; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  A results file with an environment
block goes to ``.bench_out/``, and the spans of a traced run beside it.
"""

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from checkout import use_checkout_source

ROOT = Path.cwd()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    use_checkout_source(ROOT)
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    trace = bool(args.trace)
    out_dir = ROOT / ".bench_out"
    stem = f"{workload.name}-seed{args.seed}"
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=stem + "-", dir=work_root))
    try:
        result = harness.run_workload(
            workload, args.seed, args.seconds, trace, work,
            reference=harness.load_reference(workload, args.seed),
            spans_path=out_dir / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result.passes
    plain = [p for p in passes if not p.traced]
    print(f"{workload.name} seed {args.seed}: {len(plain)} untraced and "
          f"{len(passes) - len(plain)} traced passes; setup x{len(result.setup_s)}")
    for note in result.notes:
        print(f"  note: {note}")
    for name in passes[0].command_s:
        times = [p.command_s[name] for p in plain if name in p.command_s]
        print(f"  {name}: median {statistics.median(times):.3f} s "
              f"of {len(times)} untraced passes")
    print(f"  failed_op_ratio: {result.failed}/{result.attempted} = "
          f"{result.failed / result.attempted:.4g}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    doc = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(json.dumps({
        **doc,
        "env": harness.environment(workload, args.seed, args.seconds, trace),
        "setup_s": result.setup_s,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "command_s": p.command_s,
                    "exit_codes": p.exit_codes, "digest": p.digest}
                   for p in passes],
        "notes": result.notes,
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
