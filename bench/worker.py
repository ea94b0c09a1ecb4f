#!/usr/bin/env python3
"""Worker process of the benchmark: runs the timed passes of one run.

    python3 bench/worker.py REQUEST.json RESULT.json

``harness.run_workload`` writes the request, starts this script in a fresh
interpreter and reads the result that ``passes.run_passes`` returns.
"""

import json
import sys
from pathlib import Path

from checkout import use_checkout_source


def main(request_path: str, result_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    use_checkout_source(Path(request["root"]))
    import passes
    from workloads import Workload

    spans_path = request["spans_path"]
    result = passes.run_passes(
        Workload(**{**request["workload"],
                    "pipelines": tuple(request["workload"]["pipelines"])}),
        request["seed"], request["seconds"], request["trace"],
        Path(request["work"]), request["base_url"],
        spans_path=Path(spans_path) if spans_path else None)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
