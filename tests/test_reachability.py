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
