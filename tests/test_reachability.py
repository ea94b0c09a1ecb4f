"""Every module of the package is reached from the program's entry points,
and every top-level function and class is named by the program."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import reviewtime

PACKAGE = Path(reviewtime.__file__).parent
REPO = Path(__file__).resolve().parent.parent
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


# definitions that nothing in the program names, each with the reason it stays
UNREFERENCED_ALLOWED = {"extract_all": "criterion 9's reference"}


def test_every_top_level_definition_is_named_by_the_program():
    # the program is src/, scripts/ and bench/ without their tests; a name
    # counts where code reads it, as a name, an attribute or an import
    defined = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.relative_to(REPO)}:{node.lineno}"
    named = set()
    for path in sorted(p for top in ("src", "scripts", "bench")
                       for p in (REPO / top).rglob("*.py")):
        if "tests" in path.relative_to(REPO).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
    unnamed = {name: where for name, where in defined.items()
               if name not in named and name not in UNREFERENCED_ALLOWED}
    assert unnamed == {}
    assert set(UNREFERENCED_ALLOWED) <= defined.keys() - named


def _hook_targets() -> list[str]:
    """The ``"module:attr.path"`` targets of the ``Hook(...)`` calls in
    bench/tracing.py."""
    tree = ast.parse((REPO / "bench" / "tracing.py").read_text(encoding="utf-8"))
    return [node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Hook"]


def test_every_bench_hook_target_resolves_to_a_callable():
    # the tracer patches a method only where its class defines it, and a
    # target it cannot find only leaves its metrics at 0
    targets = _hook_targets()
    assert targets
    unresolved = []
    for target in targets:
        module, _, path = target.partition(":")
        *classes, attr = path.split(".")
        owner = importlib.import_module(module)
        for cls in classes:
            owner = getattr(owner, cls, None)
        found = vars(owner).get(attr) if classes and owner is not None \
            else getattr(owner, attr, None)
        if not callable(found):
            unresolved.append(target)
    assert unresolved == []
