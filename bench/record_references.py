#!/usr/bin/env python3
"""Record the output digests that benchmark runs are checked against.

    python3 bench/record_references.py --seeds 0-31 [--workload NAME ...]

Runs one untimed pass of each workload per seed and writes
``bench/references.json``.  Run it from a checkout root, on a commit whose
outputs are known to be right, and again whenever a workload changes.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from checkout import use_checkout_source

ROOT = Path.cwd()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, as 0-31")
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    use_checkout_source(ROOT)
    import harness
    import passes
    from workloads import WORKLOADS

    doc = json.loads(harness.REFERENCES.read_text(encoding="utf-8")) \
        if harness.REFERENCES.exists() else {}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        entry = doc.setdefault(name, {"params": workload.params(), "digests": {}})
        if entry["params"] != json.loads(json.dumps(workload.params())):
            entry.update(params=workload.params(), digests={})
        for seed in seeds:
            work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
            server = None
            try:
                server = harness.setup(workload, seed, work)
                result = passes.run_pass(workload, seed, work, 0,
                                         server and server.base_url)
            finally:
                if server is not None:
                    server.__exit__(None, None, None)
                shutil.rmtree(work, ignore_errors=True)
            if any(result.exit_codes.values()):
                sys.exit(f"{name} seed {seed}: a command failed: {result.exit_codes}")
            entry["digests"][str(seed)] = result.digest
            print(f"{name} seed {seed}: {result.digest}", flush=True)
    harness.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
