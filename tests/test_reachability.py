"""Every module of the package is reached from the program's entry points."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import reviewtime

PACKAGE = Path(reviewtime.__file__).parent
# the CLI, the scripts and bench/ enter the program through these modules
ENTRY_POINTS = ("reviewtime.cli", "reviewtime.gerrit_fixture")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_is_imported_by_an_entry_point():
    code = "".join(f"import {name}\n" for name in ENTRY_POINTS) \
        + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    loaded = set(json.loads(run.stdout))
    modules = {_module_name(p) for p in PACKAGE.rglob("*.py")}
    assert sorted(modules - loaded) == []


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this package; its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_entry_points_load_neither_scipy_nor_requests():
    # scipy is a test dependency only, and requests is imported by a crawl
    code = "".join(f"import {name}\n" for name in ENTRY_POINTS) \
        + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    loaded = json.loads(_run_fresh(code))
    assert [m for m in loaded if m.partition(".")[0] in ("scipy", "requests")] == []


def test_statistics_run_without_scipy():
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from reviewtime.stats import compare_pairwise, scott_knott_esd\n"
            "samples = {'A': [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],\n"
            "           'B': [9.0, 8.5, 9.5, 10.0, 11.0, 12.5],\n"
            "           'C': [1.5, 2.0, 2.5, 4.5, 5.0, 7.0]}\n"
            "print(len(compare_pairwise(samples)))\n"
            "print(scott_knott_esd(samples).clusters)\n")
    assert _run_fresh(code).splitlines() == ["3", "(('B',), ('C', 'A'))"]
