"""Spans and counters recorded around the program's layers, from outside it.

The hooks wrap public functions and methods of each ``reviewtime`` module.
A function bound elsewhere with ``from x import y`` is looked up at its use
site, so a hook rebinds every ``reviewtime`` module attribute that refers to
the original function, not only the defining one.

The hooks are installed only around traced passes, so untraced passes run
the program as it is.  Spans (name, start, end, parent span, run id) and
counters are kept in memory and written out when the benchmark ends.  The
program is single-threaded here (every command runs with ``--jobs 1``), so
one span stack serves the whole process.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from reviewtime.evaluation import N_ITERATIONS
from reviewtime.regressors import Algorithm, is_deterministic


class Tracer:
    def __init__(self):
        self.run_id = ""
        # each span is [name, start, end, parent index, run id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.in_grid = 0
        self._stack: list[int] = []

    def start_run(self, run_id: str) -> None:
        """Tag the spans that follow with ``run_id`` and reset the counters."""
        self.run_id = run_id
        self.counts = Counter()

    def run_spans(self, run_id: str) -> list[list]:
        return [span for span in self.spans if span[4] == run_id]

    def call(self, name: str, fn, *args, **kwargs):
        self.counts["calls:" + name] += 1
        index = len(self.spans)
        span = [name, perf_counter(), None,
                self._stack[-1] if self._stack else None, self.run_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")


# --- hooks -----------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _after_request(counts, args, kwargs, response):
    if response.status_code >= 500 or response.status_code == 429:
        counts["gerrit.retries"] += 1


def _after_normalize(counts, args, kwargs, record):
    # a file without segments had its diff request fail and fell back to
    # classifying the file by its line counts
    counts["gerrit.diff_fallbacks"] += sum(1 for f in record.files
                                           if f.segments is None)


def _after_filter(counts, args, kwargs, result):
    _, report = result
    counts["dataset.kept"] += report.kept
    counts["dataset.total"] += report.total


def _after_featurize(counts, args, kwargs, matrix):
    counts["features.rows"] += len(matrix)


def _after_extractor(counts, args, kwargs, result):
    counts["features.prior_rows"] += len(_arg(args, kwargs, 1, "prior_history"))


def _after_build_graph(counts, args, kwargs, graph):
    counts["collab.graph_nodes"] += len(graph.nodes)
    counts["collab.graph_edges"] += len(graph.edges)


def _fit_name(args, kwargs):
    return "regressors.fit." + Algorithm(_arg(args, kwargs, 0, "spec").algorithm).value


def _after_fit(counts, args, kwargs, model):
    counts["regressors.fits"] += 1
    if "non_convergence" in model.flags:
        counts["regressors.non_convergent_fits"] += 1


def _after_tree_fit(counts, args, kwargs, tree):
    counts["regressors.tree_nodes"] += len(tree.feature)


def _after_grid_search(counts, args, kwargs, spec):
    counts["regressors.grid_points"] += len(_arg(args, kwargs, 1, "grid").points())


def _after_validation(counts, args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    computed = 1 if is_deterministic(config.algorithm) else config.repeats
    counts["evaluation.iterations"] += computed * N_ITERATIONS
    # records of later repeats are copies for deterministic learners
    counts["evaluation.iterations_failed"] += sum(
        1 for r in result.records if r.failed and r.repeat < computed)


@dataclass(frozen=True)
class Hook:
    target: str  # "module:function" or "module:Class.method"
    name: str | Callable  # span name, or a function of (args, kwargs) giving it
    after: Callable | None = None  # after(counts, args, kwargs, result)
    grid_search: bool = False  # calls inside it are grid points
    grid_point: bool = False  # raising inside a grid search fails the point
    on_error: str | None = None  # counter to bump when the call raises


HOOKS = (
    # the crawler retries a transport failure like a 5xx or 429 response
    Hook("requests:Session.get", "gerrit.request", _after_request,
         on_error="gerrit.retries"),
    Hook("reviewtime.gerrit:GerritClient.fetch_change_detail", "gerrit.detail"),
    Hook("reviewtime.gerrit:normalize_change", "gerrit.normalize", _after_normalize),
    Hook("reviewtime.dataset:read_dataset", "dataset.read"),
    Hook("reviewtime.dataset:write_dataset", "dataset.write"),
    Hook("reviewtime.dataset:apply_filters", "dataset.filter", _after_filter),
    Hook("reviewtime.features:featurize", "features.featurize", _after_featurize),
    Hook("reviewtime.features:extract_owner_experience", "features.owner",
         _after_extractor),
    Hook("reviewtime.features:extract_file_history", "features.file_history",
         _after_extractor),
    Hook("reviewtime.collab:build_graph", "collab.build_graph", _after_build_graph),
    Hook("reviewtime.collab:collab_features", "collab.metrics"),
    Hook("reviewtime.collab:betweenness_centrality", "collab.betweenness"),
    Hook("reviewtime.regressors:fit", _fit_name, _after_fit, grid_point=True),
    Hook("reviewtime.regressors.base:TrainedModel.predict", "regressors.predict",
         grid_point=True),
    Hook("reviewtime.regressors.tree:RegressionTree.fit", "regressors.tree_fit",
         _after_tree_fit),
    Hook("reviewtime.regressors.base:grid_search", "regressors.grid_search",
         _after_grid_search, grid_search=True),
    Hook("reviewtime.evaluation:run_online_validation", "evaluation.validate",
         _after_validation),
    Hook("reviewtime.importance:loco_all", "importance.loco_all"),
    Hook("reviewtime.importance:loco_importance", "importance.loco"),
    Hook("reviewtime.importance:dimension_ablation", "importance.ablation"),
    Hook("reviewtime.stats:compare_pairwise", "stats.compare"),
    Hook("reviewtime.stats:scott_knott_esd", "stats.esd"),
    Hook("reviewtime.stats:wilcoxon_signed_rank", "stats.wilcoxon"),
    Hook("reviewtime.preprocess:fit_normalizer", "preprocess.normalize"),
    Hook("reviewtime.preprocess:apply_normalizer", "preprocess.normalize"),
)


def _wrap(tracer: Tracer, hook: Hook, fn):
    def wrapper(*args, **kwargs):
        name = hook.name(args, kwargs) if callable(hook.name) else hook.name
        tracer.in_grid += hook.grid_search
        try:
            result = tracer.call(name, fn, *args, **kwargs)
        except Exception:
            if hook.grid_point and tracer.in_grid:
                tracer.counts["regressors.grid_points_failed"] += 1
            if hook.on_error is not None:
                tracer.counts[hook.on_error] += 1
            raise
        finally:
            tracer.in_grid -= hook.grid_search
        if hook.after is not None:
            hook.after(tracer.counts, args, kwargs, result)
        return result
    return wrapper


def _wrap_appender(tracer: Tracer, original):
    """The crawl appends records through a yielded closure; time each append."""
    @contextmanager
    def appender(path):
        with original(path) as append:
            yield lambda record: tracer.call("dataset.write", append, record)
    return appender


def _use_sites(original) -> list[tuple[object, str]]:
    return [(module, key)
            for name, module in list(sys.modules.items())
            if name == "reviewtime" or name.startswith("reviewtime.")
            for key, value in list(vars(module).items()) if value is original]


@contextmanager
def installed(tracer: Tracer):
    """Patch every hook in place for the duration of the block.

    Yields the targets that were not found, whose metrics then read 0: a
    renamed or inlined function leaves a gap in the trace, not a failed run.
    """
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for hook in HOOKS:
            module, _, path = hook.target.partition(":")
            *classes, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            for cls in classes:
                owner = getattr(owner, cls, None)
            if classes and owner is not None and attr in vars(owner):
                patch(owner, attr, _wrap(tracer, hook, vars(owner)[attr]))
            elif not classes and hasattr(owner, attr):
                original = getattr(owner, attr)
                wrapper = _wrap(tracer, hook, original)
                for site, key in _use_sites(original):
                    patch(site, key, wrapper)
            else:
                missing.append(hook.target)
        from reviewtime import dataset
        if hasattr(dataset, "dataset_appender"):
            patch(dataset, "dataset_appender",
                  _wrap_appender(tracer, dataset.dataset_appender))
        else:
            missing.append("reviewtime.dataset:dataset_appender")
        yield missing
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# --- per-layer metrics -----------------------------------------------------

ALGORITHMS = tuple(a.value for a in Algorithm)
COMMANDS = ("crawl", "filter", "featurize", "evaluate", "compare", "ablate",
            "rank", "report")

# busy time: total duration of the spans with these names
_TOTAL_S = {
    **{f"regressors.fit_s.{a}": (f"regressors.fit.{a}",) for a in ALGORITHMS},
    "regressors.predict_s": ("regressors.predict",),
    "collab.build_graph_s": ("collab.build_graph",),
    "collab.metrics_s": ("collab.metrics",),
    "collab.betweenness_s": ("collab.betweenness",),
    "features.featurize_s": ("features.featurize",),
    "features.owner_s": ("features.owner",),
    "features.file_history_s": ("features.file_history",),
    "gerrit.detail_s": ("gerrit.detail",),
    "gerrit.normalize_s": ("gerrit.normalize",),
    "dataset.read_s": ("dataset.read",),
    "dataset.write_s": ("dataset.write",),
    "dataset.filter_s": ("dataset.filter",),
    "stats.compare_s": ("stats.compare",),
    "stats.esd_s": ("stats.esd",),
    "preprocess.normalize_s": ("preprocess.normalize",),
    **{f"cli.command_s.{c}": (f"cli.{c}",) for c in COMMANDS},
}
# self time: span duration less the part its child spans cover
_SELF_S = {
    "evaluation.self_s": ("evaluation.validate",),
    "importance.self_s": ("importance.loco_all", "importance.loco",
                          "importance.ablation"),
}
# counts: calls of a span name, or a counter kept by a hook
_COUNTS = {
    **{f"regressors.fit_calls.{a}": f"calls:regressors.fit.{a}" for a in ALGORITHMS},
    "regressors.tree_fits": "calls:regressors.tree_fit",
    "regressors.tree_nodes": "regressors.tree_nodes",
    "regressors.grid_points": "regressors.grid_points",
    "regressors.grid_points_failed": "regressors.grid_points_failed",
    "collab.build_graph_calls": "calls:collab.build_graph",
    "features.rows": "features.rows",
    "features.prior_rows": "features.prior_rows",
    "gerrit.requests": "calls:gerrit.request",
    "gerrit.retries": "gerrit.retries",
    "gerrit.diff_fallbacks": "gerrit.diff_fallbacks",
    "evaluation.validations": "calls:evaluation.validate",
    "evaluation.iterations": "evaluation.iterations",
    "evaluation.iterations_failed": "evaluation.iterations_failed",
    "importance.loco_units": "calls:importance.loco",
    "stats.wilcoxon_calls": "calls:stats.wilcoxon",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def pass_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer values of one traced pass, from its spans and counters."""
    total: dict[str, float] = defaultdict(float)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        if parent is not None:
            children[parent].append((start, end))
    self_time: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        self_time[name] += (end - start) - _covered(children[index])

    values = {metric: counts[key] for metric, key in _COUNTS.items()}
    values.update({metric: sum(total[n] for n in names)
                   for metric, names in _TOTAL_S.items()})
    values.update({metric: sum(self_time[n] for n in names)
                   for metric, names in _SELF_S.items()})
    graphs = counts["calls:collab.build_graph"]
    values["collab.graph_nodes_mean"] = _ratio(counts["collab.graph_nodes"], graphs)
    values["collab.graph_edges_mean"] = _ratio(counts["collab.graph_edges"], graphs)
    values["regressors.non_convergence_ratio"] = _ratio(
        counts["regressors.non_convergent_fits"], counts["regressors.fits"])
    values["dataset.kept_ratio"] = _ratio(counts["dataset.kept"],
                                          counts["dataset.total"])
    return values


def nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(passes: list[tuple[list[list], Counter]]) -> dict[str, float]:
    """Combine traced passes: counts from the first, medians of the times.

    Request latency percentiles pool the requests of the first two traced
    passes, so that the sample count repeats from run to run.
    """
    per_pass = [pass_metrics(spans, counts) for spans, counts in passes]
    values = dict(per_pass[0])
    for metric in (*_TOTAL_S, *_SELF_S):
        values[metric] = statistics.median(p[metric] for p in per_pass)
    requests_ms = [(end - start) * 1000.0
                   for spans, _ in passes[:2]
                   for name, start, end, _, _ in spans if name == "gerrit.request"]
    values["gerrit.request_ms.p50"] = nearest_rank(requests_ms, 0.50)
    values["gerrit.request_ms.p98"] = nearest_rank(requests_ms, 0.98)
    values["gerrit.request_samples"] = len(requests_ms)
    return values
