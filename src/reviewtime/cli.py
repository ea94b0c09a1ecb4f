"""Command-line surface wiring the pipeline end to end.

Commands: crawl, filter, featurize, evaluate, compare, ablate, rank, report.
Every command is deterministic given the config file and seed; machine-
readable outputs carry no timestamps (run metadata goes to a side file under
``meta/``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import astuple
from datetime import datetime, timezone
from pathlib import Path

from . import dataset as ds
from . import gerrit
from .config import RunConfig, load_run_config
from .errors import ConfigError, ReviewTimeError, SchemaError
from .evaluation import EvalResult, PipelineConfig, run_online_validation
from .features import DIMENSIONS, FeatureMatrix, featurize
from .importance import dimension_ablation, loco_all
from .stats import compare_pairwise

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2


def _write_meta(out_dir: Path, command: str, started: float, duration: float,
                extra: dict | None) -> None:
    meta_dir = out_dir / "meta"
    meta_dir.mkdir(exist_ok=True)
    ds.write_json(meta_dir / f"{command}.json", {
        "command": command,
        "started_at": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "duration_seconds": round(duration, 3),
        **(extra or {}),
    })


def _pipelines(config: RunConfig) -> tuple[PipelineConfig, ...]:
    if not config.pipelines:
        raise ConfigError("config has no evaluation.pipelines")
    return config.pipelines


# Each command writes its outputs under config.out_dir, which main creates,
# and returns the extra fields of its meta/<command>.json, if any.
def cmd_crawl(config: RunConfig, args) -> dict:
    if config.crawl is None:
        raise ConfigError("config has no crawl section")
    out = config.out_dir
    manifest = gerrit.crawl_project(config.crawl, out / "changes.jsonl",
                                    jobs=args.jobs)
    print(f"crawled {manifest.count} changes -> {out / 'changes.jsonl'}")
    return {"count": manifest.count}


def cmd_filter(config: RunConfig, args) -> None:
    out = config.out_dir
    records, manifest = ds.read_dataset(args.input)
    bot_accounts = config.crawl.bot_accounts if config.crawl \
        else gerrit.DEFAULT_BOT_ACCOUNTS
    kept, report = ds.apply_filters(records, config.filter_policy, bot_accounts)
    kept = ds.sort_by_creation(kept)
    ds.write_dataset(kept, out / "filtered.jsonl", project=manifest.project,
                     query=manifest.crawl_query, filter_policy=config.filter_policy,
                     segments_from_diff=manifest.segments_from_diff)
    ds.write_json(out / "filter_report.json", report)
    print(f"kept {report.kept} of {report.total} records "
          f"(incomplete {report.dropped_incomplete}, reopened {report.dropped_reopened}, "
          f"self {report.dropped_self}, short {report.dropped_short}, "
          f"long {report.dropped_long}) -> {out / 'filtered.jsonl'}")


def cmd_featurize(config: RunConfig, args) -> dict:
    out = config.out_dir
    records, _ = ds.read_dataset(args.input)
    history = ds.read_dataset(args.history)[0] if args.history else None
    matrix = featurize(records, history=history, window_days=config.window_days,
                       policy=config.keywords)
    matrix.to_csv(out / "features.csv")
    print(f"extracted {len(matrix)} x {len(matrix.feature_names)} feature rows "
          f"-> {out / 'features.csv'}")
    return {"rows": len(matrix)}


def _fmt(value: float | None, spec: str) -> str:
    """A summary statistic, or ``n/a`` when no iteration succeeded."""
    return "n/a" if value is None else format(value, spec)


def cmd_evaluate(config: RunConfig, args) -> None:
    out = config.out_dir
    data = FeatureMatrix.from_csv(args.features)
    summaries = {}
    all_failed = []
    for pipeline in _pipelines(config):
        result = run_online_validation(data, pipeline)
        name = pipeline.algorithm.value
        result.to_csv(out / f"eval_{name}.csv")
        summary = summaries[name] = result.summary()
        print(f"{name}: mae mean {_fmt(summary['mae']['mean'], '.3f')} "
              f"(median {_fmt(summary['mae']['median'], '.3f')}), "
              f"sa mean {_fmt(summary['sa']['mean'], '.2f')}")
        if result.records and result.failures == len(result.records):
            all_failed.append(f"{name} ({result.records[0].error})")
    ds.write_json(out / "eval_summary.json", summaries)
    if all_failed:
        raise ReviewTimeError("every iteration failed for "
                              + "; ".join(all_failed))


def cmd_compare(config: RunConfig, args) -> None:
    out = config.out_dir
    keyed = {}
    for path in args.results:
        result = EvalResult.from_csv(path)
        keyed[Path(path).stem.removeprefix("eval_")] = {
            (r.repeat, r.iteration): r.mae for r in result.records if not r.failed}
    if len(keyed) < 2:
        raise ReviewTimeError("compare needs at least two result files")
    # pair the samples by (repeat, iteration), on the keys every file scored
    keys = sorted(set.intersection(*(set(maes) for maes in keyed.values())))
    if not keys:
        raise ReviewTimeError("no (repeat, iteration) is scored in every result file")
    dropped = sorted(set().union(*keyed.values()) - set(keys))
    if dropped:
        print(f"dropped (repeat, iteration) keys not scored in every file: "
              f"{dropped}")
    samples = {name: [maes[k] for k in keys] for name, maes in keyed.items()}
    comparisons = compare_pairwise(samples)
    ds.write_table(out / "comparisons.csv", _COMPARISON_HEADER,
                   map(astuple, comparisons))
    lines = ["| pair | W | p | p(adj) | significant | delta | magnitude |",
             "|---|---|---|---|---|---|---|"]
    for c in comparisons:
        lines.append(f"| {c.left} vs {c.right} | {c.w_statistic:.1f} | "
                     f"{c.p_value:.3g} | {c.p_adjusted:.3g} | "
                     f"{'yes' if c.significant else 'no'} | {c.cliffs_d:.3f} | "
                     f"{c.magnitude} |")
    (out / "comparisons.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))


# the columns of a comparisons CSV, in the order of stats.ComparisonResult's fields
_COMPARISON_HEADER = ("left", "right", "w", "p_value", "p_adjusted", "significant",
                      "cliffs_d", "magnitude")


def cmd_ablate(config: RunConfig, args) -> None:
    out = config.out_dir
    data = FeatureMatrix.from_csv(args.features)
    ablation = dimension_ablation(data, _pipelines(config)[0])
    for mode, result in ablation.results.items():
        result.to_csv(out / f"ablation_{mode}.csv")
    ds.write_table(out / "ablation_comparisons.csv", _COMPARISON_HEADER,
                   map(astuple, ablation.comparisons))
    for mode in ("all", *DIMENSIONS):
        summary = ablation.results[mode].summary()
        print(f"{mode}: mae mean {summary['mae']['mean']:.3f}")


def cmd_rank(config: RunConfig, args) -> None:
    out = config.out_dir
    data = FeatureMatrix.from_csv(args.features)
    units = list(DIMENSIONS) if args.by == "dimension" else None
    importance = loco_all(data, _pipelines(config)[0], units=units)
    importance.to_csv(out / f"loco_{args.by}.csv")
    ds.write_json(out / f"loco_{args.by}_clusters.json", importance.ranking.clusters)
    for rank, cluster in enumerate(importance.ranking.clusters, start=1):
        print(f"rank {rank}: {', '.join(cluster)}")


def cmd_report(config: RunConfig, args) -> dict:
    run_dir = config.out_dir
    artifacts = sorted(
        p.relative_to(run_dir).as_posix()
        for p in run_dir.rglob("*")
        if p.is_file() and "meta" not in p.parts and p.name != "report.md"
    )
    lines = ["# Run report", "", "## Artifacts", ""]
    for artifact in artifacts:
        lines.append(f"- [{artifact}]({artifact})")
    summary_path = run_dir / "eval_summary.json"
    if summary_path.exists():
        lines += ["", "## Model summaries", ""]
        lines.append("| algorithm | MAE mean | MAE median | MRE mean | SA mean |")
        lines.append("|---|---|---|---|---|")
        try:
            summaries = json.loads(summary_path.read_text(encoding="utf-8"))
            lines += [f"| {name} | {_fmt(s['mae']['mean'], '.3f')} "
                      f"| {_fmt(s['mae']['median'], '.3f')} "
                      f"| {_fmt(s['mre']['mean'], '.3f')} "
                      f"| {_fmt(s['sa']['mean'], '.2f')} |"
                      for name, s in sorted(summaries.items())]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed {summary_path}: {exc!r}") from exc
    (run_dir / "report.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"report covering {len(artifacts)} artifacts -> {run_dir / 'report.md'}")
    return {"artifacts": len(artifacts)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewtime",
        description="Predict code review completion time from review histories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("crawl", help="fetch changes from the Gerrit server")
    common(p)
    p.add_argument("--jobs", type=int, default=1, help="concurrent diff fetches")
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser("filter", help="apply the training-data filters")
    common(p)
    p.add_argument("--in", dest="input", required=True, help="input dataset JSONL")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("featurize", help="extract the 50-feature matrix")
    common(p)
    p.add_argument("--in", dest="input", required=True, help="filtered dataset JSONL")
    p.add_argument("--history", default=None,
                   help="unfiltered dataset JSONL for experience features")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("evaluate", help="run online validation per algorithm")
    common(p)
    p.add_argument("--features", required=True, help="feature CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="pairwise statistical comparison of results")
    common(p)
    p.add_argument("results", nargs="+", help="eval result CSV files")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ablate", help="all-features vs single-dimension study")
    common(p)
    p.add_argument("--features", required=True, help="feature CSV")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("rank", help="LOCO importance with ESD ranking")
    common(p)
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--by", choices=["feature", "dimension"], default="feature")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("report", help="consolidated Markdown report for a run")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config, seed_override=args.seed,
                                 out_override=args.out)
        started = time.time()
        config.out_dir.mkdir(parents=True, exist_ok=True)
        extra = args.func(config, args)
        _write_meta(config.out_dir, args.command, started, time.time() - started,
                    extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReviewTimeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
