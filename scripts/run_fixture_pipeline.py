#!/usr/bin/env python3
"""Run the whole pipeline against a synthetic Gerrit server, no network needed.

Spins up the fixture server on a synthetic corpus, then drives the CLI:
crawl -> filter -> featurize -> evaluate -> compare -> ablate -> rank -> report.
After crawl it prints the requests the server answered, such as
"crawl: 41 requests for 40 changes" (one listing page, one patch per change).
Everything lands in --out (default runs/fixture-demo).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reviewtime.cli import main as cli
from reviewtime.gerrit_fixture import FixtureGerritServer, generate_corpus


def build_config(base_url: str, out_dir: Path, seed: int, repeats: int) -> dict:
    return {
        "seed": seed,
        "out_dir": str(out_dir),
        "crawl": {
            "base_url": base_url,
            "page_size": 50,
            "min_request_interval_ms": 0,
        },
        "filter": {"min_hours": 24.0, "max_hours": 504.0},
        "evaluation": {
            "repeats": repeats,
            "pipelines": [
                {"algorithm": "GB",
                 "hyperparameters": {"rounds": 100, "learning_rate": 0.1}},
                {"algorithm": "LR", "hyperparameters": {}},
                {"algorithm": "KNN", "grid": {"k": [1, 3, 5, 10]}},
            ],
        },
    }


def run(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = generate_corpus(args.changes, seed=args.seed)
    with FixtureGerritServer(corpus) as server:
        config_doc = build_config(server.base_url, out, args.seed, args.repeats)
        config = out / "run_config.json"
        config.write_text(json.dumps(config_doc, indent=2), encoding="utf-8")
        steps = [
            ["crawl", "--config", str(config), "--out", str(out)],
            ["filter", "--config", str(config),
             "--in", str(out / "changes.jsonl"), "--out", str(out)],
            ["featurize", "--config", str(config),
             "--in", str(out / "filtered.jsonl"),
             "--history", str(out / "changes.jsonl"), "--out", str(out)],
            ["evaluate", "--config", str(config),
             "--features", str(out / "features.csv"), "--out", str(out)],
            ["compare", "--config", str(config), "--out", str(out),
             str(out / "eval_GB.csv"), str(out / "eval_LR.csv"),
             str(out / "eval_KNN.csv")],
            ["ablate", "--config", str(config),
             "--features", str(out / "features.csv"), "--out", str(out)],
            ["rank", "--config", str(config),
             "--features", str(out / "features.csv"),
             "--by", "dimension", "--out", str(out)],
            ["report", "--config", str(config), "--out", str(out)],
        ]
        for step in steps:
            print(f"\n$ reviewtime {' '.join(step)}")
            code = cli(step)
            if code != 0:
                return code
            if step[0] == "crawl":
                print(f"crawl: {server.request_count} requests for {len(corpus)} changes")
    print(f"\ndone; see {out / 'report.md'}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/fixture-demo")
    parser.add_argument("--changes", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=5)
    sys.exit(run(parser.parse_args()))
