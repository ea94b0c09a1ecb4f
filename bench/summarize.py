#!/usr/bin/env python3
"""Summarize benchmark results files across seeds.

    python3 bench/summarize.py .bench_out/*-trace*.json [--baseline DIR]

For each workload and end-to-end metric, prints the median and quartiles of
the untraced runs and their spread (interquartile distance over the
median) against the metric's bound in BENCHMARK.json.  With ``--baseline``,
writes ``baseline.json`` and ``baseline.md`` into DIR: those figures, the
environment blocks, and the per-layer table of one traced run per workload.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summarize(docs: list[dict], bounds: dict[str, float]) -> dict:
    workloads: dict[str, dict] = {}
    for doc in sorted(docs, key=lambda d: (d["env"]["workload"], d["env"]["seed"])):
        env = doc["env"]
        entry = workloads.setdefault(env["workload"], {
            "env": {k: v for k, v in env.items() if k not in ("seed", "trace")},
            "seeds": [], "correct": True, "attempted": 0, "failed": 0,
            "end_to_end": {}, "per_layer": None})
        entry["correct"] &= doc["correct"]
        entry["attempted"] += doc["attempted"]
        entry["failed"] += doc["failed"]
        if env["trace"]:
            if entry["per_layer"] is None:
                entry["per_layer"] = {"seed": env["seed"], "metrics": doc["metrics"]}
            continue
        entry["seeds"].append(env["seed"])
        for name, metric in doc["metrics"].items():
            entry["end_to_end"].setdefault(name, {"unit": metric["unit"], "values": []})
            entry["end_to_end"][name]["values"].append(metric["value"])
    for entry in workloads.values():
        for name, metric in entry["end_to_end"].items():
            values = metric["values"]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (values[0],) * 3
            metric.update(median=median, q1=q1, q3=q3,
                          spread=(q3 - q1) / median, bound=bounds.get(name))
    return workloads


def render(workloads: dict) -> str:
    lines = []
    for name, entry in workloads.items():
        lines += [f"## {name}", "",
                  f"Seeds {entry['seeds']}; correct {entry['correct']}; "
                  f"failed {entry['failed']} of {entry['attempted']} operations. "
                  "A `!` marks a spread of at least a third of the bound.", "",
                  "| metric | unit | median | q1 | q3 | spread | bound |",
                  "|---|---|---|---|---|---|---|"]
        for metric, m in entry["end_to_end"].items():
            flag = "" if m["bound"] is None or m["spread"] < m["bound"] / 3 else " !"
            lines.append(f"| {metric} | {m['unit']} | {m['median']:.4g} | "
                         f"{m['q1']:.4g} | {m['q3']:.4g} | {m['spread']:.3f}{flag} | "
                         f"{m['bound']} |")
        if entry["per_layer"] is not None:
            lines += ["", f"Per-layer metrics, traced run at seed "
                          f"{entry['per_layer']['seed']}:", "",
                      "| metric | unit | value |", "|---|---|---|"]
            for metric, m in entry["per_layer"]["metrics"].items():
                lines.append(f"| {metric} | {m['unit']} | {m['value']:.6g} |")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in args.results]
    workloads = summarize(docs, bounds)
    text = render(workloads)
    print(text)
    if args.baseline is not None:
        args.baseline.mkdir(parents=True, exist_ok=True)
        (args.baseline / "baseline.json").write_text(
            json.dumps(workloads, indent=1) + "\n", encoding="utf-8")
        (args.baseline / "baseline.md").write_text(
            "# Benchmark baseline\n\n" + text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
