"""Interaction-graph construction and the six owner collaboration metrics."""

from __future__ import annotations

import math
import tracemalloc
from collections import deque
from dataclasses import astuple, replace
from datetime import datetime, timedelta, timezone
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reviewtime import collab, features
from reviewtime.collab import (
    CollabFeatures,
    InteractionGraph,
    betweenness_centrality,
    build_graph,
    clustering_coefficient,
    closeness_centrality,
    collab_features,
    core_number,
    degree_centrality,
    eigenvector_centrality,
)
from reviewtime.dataset import sort_by_creation
from reviewtime.errors import ConvergenceFailureError
from reviewtime.gerrit import CrawlConfig, RawChange, normalize_change
from reviewtime.gerrit_fixture import generate_corpus

import graph_oracles as oracle
from conftest import BASE_TIME, make_message, make_record
from test_dataset import stamps


def graph_from_edges(edges, extra_nodes=()) -> InteractionGraph:
    """A graph from edge pairs, each kept once in first-occurrence order."""
    keys: dict[tuple[int, int], None] = {}
    nodes = set(extra_nodes)
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        keys[key] = None
        nodes.update(key)
    return InteractionGraph(nodes=frozenset(nodes), edges=keys)


TRIANGLE = graph_from_edges([(1, 2), (2, 3), (1, 3)])
STAR = graph_from_edges([(0, 1), (0, 2), (0, 3)])
PATH3 = graph_from_edges([(1, 2), (2, 3)])
ISOLATED = InteractionGraph(nodes=frozenset({1, 2, 9}),
                            edges={(1, 2): None})


class TestWindowStart:
    @settings(max_examples=300, deadline=None)
    @given(stamps, st.integers(0, 3) | st.integers(0, 10**12))
    @example(datetime(1, 1, 2, 5, tzinfo=timezone(timedelta(hours=-8))), 2)
    def test_the_window_starts_at_the_earliest_instant_at_the_latest(self, as_of,
                                                                      window_days):
        start = collab.window_start(as_of, window_days)
        # instants as whole microseconds after the earliest one
        micro = timedelta(microseconds=1)
        position = (as_of - collab._EARLIEST) // micro - window_days * 86_400 * 10**6
        assert (start - collab._EARLIEST) // micro == max(position, 0)
        if window_days < as_of.toordinal():
            assert start == as_of - timedelta(days=window_days)


class TestBuildGraph:
    def test_empty_history(self):
        g = build_graph([], as_of=BASE_TIME, window_days=30)
        assert g.nodes == frozenset() and g.edges == {}

    def test_one_change_two_reviewers(self):
        change = make_record(1, owner=1, created=BASE_TIME - timedelta(days=2),
                             messages=(make_message(2), make_message(3)))
        g = build_graph([change], as_of=BASE_TIME)
        assert list(g.edges) == [(1, 2), (1, 3)]

    def test_repeat_interaction_adds_one_edge(self):
        changes = [
            make_record(i, owner=1, created=BASE_TIME - timedelta(days=i + 1),
                        messages=(make_message(2),))
            for i in range(2)
        ]
        g = build_graph(changes, as_of=BASE_TIME)
        assert list(g.edges) == [(1, 2)]

    def test_repeated_messages_add_one_edge(self):
        change = make_record(1, owner=1, created=BASE_TIME - timedelta(days=1),
                             messages=(make_message(2), make_message(2, hours=2.0)))
        g = build_graph([change], as_of=BASE_TIME)
        assert list(g.edges) == [(1, 2)]

    def test_window_and_as_of_respected(self):
        too_old = make_record(1, owner=1,
                              created=BASE_TIME - timedelta(days=400),
                              messages=(make_message(2),))
        future = make_record(2, owner=1, created=BASE_TIME + timedelta(days=1),
                             messages=(make_message(3),))
        at_boundary = make_record(3, owner=1, created=BASE_TIME,
                                  messages=(make_message(4),))
        g = build_graph([too_old, future, at_boundary], as_of=BASE_TIME,
                        window_days=365)
        assert g.edges == {}

    def test_bot_and_owner_messages_ignored(self):
        change = make_record(1, owner=1, created=BASE_TIME - timedelta(days=1),
                             messages=(
                                 make_message(1),
                                 make_message(9, name="Zuul CI", from_bot=True),
                                 make_message(2),
                             ))
        g = build_graph([change], as_of=BASE_TIME)
        assert list(g.edges) == [(1, 2)]


class TestSpecExamples:
    def test_degree_star_center(self):
        assert degree_centrality(STAR, 0) == 1.0

    def test_degree_star_leaf(self):
        assert degree_centrality(STAR, 1) == pytest.approx(1 / 3)

    def test_degree_isolated(self):
        assert degree_centrality(ISOLATED, 9) == 0.0

    def test_closeness_path_center(self):
        assert closeness_centrality(PATH3, 2) == pytest.approx(1.0)

    def test_closeness_path_end(self):
        assert closeness_centrality(PATH3, 1) == pytest.approx(2 / 3)

    def test_closeness_isolated(self):
        assert closeness_centrality(ISOLATED, 9) == 0.0

    def test_betweenness_path_center(self):
        assert betweenness_centrality(PATH3, 2) == pytest.approx(1.0)

    def test_betweenness_triangle(self):
        assert betweenness_centrality(TRIANGLE, 1) == 0.0

    def test_betweenness_path_end(self):
        assert betweenness_centrality(PATH3, 1) == 0.0

    def test_eigenvector_triangle(self):
        for v in (1, 2, 3):
            assert eigenvector_centrality(TRIANGLE, v) == pytest.approx(1.0)

    def test_eigenvector_star(self):
        assert eigenvector_centrality(STAR, 0) == pytest.approx(1.0, abs=1e-9)
        assert eigenvector_centrality(STAR, 1) == pytest.approx(1 / math.sqrt(3),
                                                                abs=1e-6)

    def test_eigenvector_isolated(self):
        assert eigenvector_centrality(ISOLATED, 9) == 0.0

    def test_clustering_triangle(self):
        assert clustering_coefficient(TRIANGLE, 1) == 1.0

    def test_clustering_star_center(self):
        assert clustering_coefficient(STAR, 0) == 0.0

    def test_clustering_triangle_plus_pendant(self):
        g = graph_from_edges([(1, 2), (2, 3), (1, 3), (1, 4)])
        assert clustering_coefficient(g, 1) == pytest.approx(1 / 3)

    def test_core_triangle(self):
        assert core_number(TRIANGLE, 1) == 2

    def test_core_star_leaf(self):
        assert core_number(STAR, 1) == 1

    def test_core_isolated(self):
        assert core_number(ISOLATED, 9) == 0

    def test_absent_owner_all_zero(self):
        features = collab_features(TRIANGLE, 42)
        assert features == collab.CollabFeatures()


def metrics_tuple(graph, v):
    return (
        degree_centrality(graph, v),
        closeness_centrality(graph, v),
        betweenness_centrality(graph, v),
        eigenvector_centrality(graph, v),
        clustering_coefficient(graph, v),
        core_number(graph, v),
    )


def oracle_tuple(nodes, adj, v):
    return (
        oracle.oracle_degree(nodes, adj, v),
        oracle.oracle_closeness(nodes, adj, v),
        oracle.oracle_betweenness(nodes, adj, v),
        oracle.oracle_eigenvector(nodes, adj, v),
        oracle.oracle_clustering(nodes, adj, v),
        oracle.oracle_core(nodes, adj, v),
    )


def assert_matches_oracle(edges, n):
    nodes = list(range(n))
    graph = graph_from_edges(edges, extra_nodes=nodes)
    adj = oracle.edges_to_adj(nodes, edges)
    for v in nodes:
        got = metrics_tuple(graph, v)
        want = oracle_tuple(nodes, adj, v)
        assert got[0] == want[0], f"degree {edges} {v}"
        assert got[1] == pytest.approx(want[1], abs=1e-9), f"closeness {edges} {v}"
        assert got[2] == pytest.approx(want[2], abs=1e-9), f"betweenness {edges} {v}"
        assert got[3] == pytest.approx(want[3], abs=1e-6), f"eigenvector {edges} {v}"
        assert got[4] == want[4], f"clustering {edges} {v}"
        assert got[5] == want[5], f"core {edges} {v}"


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small(self, n):
        for edges in oracle.enumerate_graphs(n):
            assert_matches_oracle(edges, n)

    def test_sampled_five_six(self):
        rng = np.random.default_rng(42)
        for n in (5, 6):
            all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for _ in range(60):
                mask = rng.random(len(all_edges)) < rng.uniform(0.15, 0.8)
                edges = tuple(e for e, keep in zip(all_edges, mask) if keep)
                assert_matches_oracle(edges, n)


def reference_betweenness(graph, v):
    """Full Brandes accumulation with per-source dicts and predecessor lists.

    The kernel must equal this bit for bit: its float order is the one
    ``betweenness_centrality`` keeps.
    """
    if v not in graph.nodes:
        return 0.0
    n = len(graph.nodes)
    if n < 3:
        return 0.0
    adj = graph.adjacency
    score = 0.0
    for s in graph.nodes:
        dist = {s: 0}
        sigma = {s: 1.0}
        preds: dict[int, list[int]] = {s: []}
        order: list[int] = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    sigma[w] = 0.0
                    preds[w] = []
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        delta = {u: 0.0 for u in order}
        for w in reversed(order):
            for u in preds[w]:
                delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w])
            if w != s and w == v:
                score += delta[w]
    return score / ((n - 1) * (n - 2))


def relabelled(rng, n, edges):
    """A graph of ``edges`` on nodes 0..n-1, on random ids >= 10 000 and
    with the edges inserted in a random order."""
    ids = [int(i) for i in rng.choice(np.arange(10_000, 90_000), n, replace=False)]
    order = rng.permutation(len(edges))
    return graph_from_edges([(ids[edges[k][0]], ids[edges[k][1]]) for k in order],
                            extra_nodes=ids)


def gnp(rng, n, p):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def labelled_graphs(seed):
    """Seeded graphs on ids >= 10 000, in a shuffled order.

    Sparse random graphs (with several components), paths and stars (owners
    of degree 1), and dense graphs with many tied shortest paths: random
    graphs at p = 0.5, complete bipartite graphs and hypercubes.
    """
    rng = np.random.default_rng(seed)
    for n in (12, 25, 40):
        yield relabelled(rng, n, gnp(rng, n, 1.2 / n))
        yield relabelled(rng, n, gnp(rng, n, 3.0 / n))
        yield relabelled(rng, n, gnp(rng, n, 0.5))
    yield relabelled(rng, 9, [(i, i + 1) for i in range(8)])
    yield relabelled(rng, 9, [(0, i) for i in range(1, 9)])
    yield relabelled(rng, 11, [(i, 5 + j) for i in range(5) for j in range(6)])
    yield relabelled(rng, 32, [(i, i ^ (1 << b)) for i in range(32) for b in range(5)
                               if i < i ^ (1 << b)])


def wide_and_deep_graphs(rng, k):
    """A sparse random graph of the history-wide shape (120 nodes, mean
    degree about 5.5), and a k-by-k grid: 2k - 2 levels from a corner, with
    up to C(2k - 2, k - 1) shortest paths between opposite corners."""
    yield relabelled(rng, 120, gnp(rng, 120, 5.5 / 119))
    grid = [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
    grid += [(i * k + j, (i + 1) * k + j) for i in range(k - 1) for j in range(k)]
    yield relabelled(rng, k * k, grid)


def corpus_graphs():
    """Window graphs that ``build_graph`` makes from a fixture history."""
    config = CrawlConfig(base_url="http://fixture.invalid")
    records = [normalize_change(RawChange(doc, BASE_TIME), config)
               for doc in generate_corpus(120, seed=4)]
    for k in range(10, len(records), 10):
        for window_days in (7, 30, 365):
            yield build_graph(records[:k], as_of=records[k].created_at,
                              window_days=window_days)


class TestBetweennessKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_on_labelled_graphs(self, seed):
        for graph in labelled_graphs(seed):
            for v in graph.nodes:
                assert betweenness_centrality(graph, v) == \
                    reference_betweenness(graph, v), (sorted(graph.edges), v)

    @pytest.mark.parametrize("seed, k", [(0, 10), (1, 11), (2, 12)])
    def test_bit_identical_on_wide_and_deep_graphs(self, seed, k):
        rng = np.random.default_rng(seed)
        for graph in wide_and_deep_graphs(rng, k):
            for v in rng.choice(sorted(graph.nodes), 10, replace=False).tolist():
                assert betweenness_centrality(graph, v) == \
                    reference_betweenness(graph, v), (sorted(graph.edges), v)

    @pytest.mark.parametrize("per_block", [1, 2, 7])
    def test_blocks_of_sources_keep_the_bits(self, monkeypatch, per_block):
        # blocks of per_block sources each, and a fresh pass for each graph
        for graph in labelled_graphs(0):
            n = len(graph.nodes)
            monkeypatch.setattr(collab, "BETWEENNESS_BLOCK",
                                per_block * (n + 2 * len(graph.edges)))
            collab._dependency_sums.cache_clear()
            for v in graph.nodes:
                assert betweenness_centrality(graph, v) == \
                    reference_betweenness(graph, v), (sorted(graph.edges), v)

    def test_bit_identical_on_a_graph_of_250_nodes(self):
        rng = np.random.default_rng(5)
        graph = relabelled(rng, 250, gnp(rng, 250, 6 / 249))
        for v in rng.choice(sorted(graph.nodes), 2, replace=False).tolist():
            assert betweenness_centrality(graph, v) == reference_betweenness(graph, v)

    def test_memory_stays_below_one_node_by_node_array(self):
        rng = np.random.default_rng(6)
        n = 1200
        graph = relabelled(rng, n, gnp(rng, n, 6 / (n - 1)))
        v = max(graph.nodes, key=lambda u: len(graph.adjacency[u]))
        graph.shape  # the graph's own, built before tracing
        collab._dependency_sums.cache_clear()
        tracemalloc.start()
        try:
            betweenness_centrality(graph, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block of sources is bounded; one n-by-n float array is n * n * 8
        assert peak < n * n * 8 / 2

    def test_bit_identical_on_corpus_graphs(self):
        graphs = list(corpus_graphs())
        assert max(len(g.nodes) for g in graphs) >= 10
        for graph in graphs:
            for v in graph.nodes:
                assert betweenness_centrality(graph, v) == \
                    reference_betweenness(graph, v), (sorted(graph.edges), v)


def reference_build_graph(history, as_of, window_days=collab.DEFAULT_WINDOW_DAYS):
    """The per-occurrence loop: each pair occurrence adds its nodes again.

    ``build_graph`` must give the same iteration order of nodes, edges and
    neighbour sets, because betweenness sums its floats in that order.
    """
    window_start = as_of - timedelta(days=window_days)
    keys: dict[tuple[int, int], None] = {}
    nodes: set[int] = set()
    for change in history:
        if not (window_start <= change.created_at < as_of):
            continue
        owner = change.owner_id
        participants = {m.author_id for m in change.messages
                        if m.author_id != owner and not m.from_bot}
        for participant in participants:
            key = (owner, participant) if owner < participant else (participant, owner)
            keys[key] = None
            nodes.update(key)
    return InteractionGraph(nodes=frozenset(nodes), edges=keys)


def colliding_histories(seed):
    """Histories on ids 10 000 + 8k and 10 000 + 32k, in a shuffled order.

    The ids fall into the same slots of small set tables, so the iteration
    order of a node or neighbour set depends on the order of insertion.
    """
    rng = np.random.default_rng(seed)
    for step, count in ((8, 6), (8, 14), (32, 40)):
        ids = [10_000 + step * k for k in range(count)]
        records = []
        for number in range(1, 60):
            owner, *others = (int(i) for i in rng.choice(ids, 4, replace=False))
            authors = others[:int(rng.integers(0, 4))] + [owner]
            records.append(make_record(
                number, owner=owner,
                created=BASE_TIME + timedelta(hours=number),
                messages=tuple(make_message(a) for a in rng.permutation(authors))))
        yield records


def assert_same_iteration_order(got, want):
    assert list(got.nodes) == list(want.nodes)
    assert list(got.edges) == list(want.edges)
    for u in want.nodes:
        assert list(got.adjacency[u]) == list(want.adjacency[u])


class TestBuildGraphOrder:
    def test_corpus_windows_iterate_as_the_reference(self):
        config = CrawlConfig(base_url="http://fixture.invalid")
        records = [normalize_change(RawChange(doc, BASE_TIME), config)
                   for doc in generate_corpus(120, seed=4)]
        for k in range(10, len(records), 10):
            for window_days in (7, 30, 365):
                as_of = records[k].created_at
                assert_same_iteration_order(
                    build_graph(records[:k], as_of, window_days),
                    reference_build_graph(records[:k], as_of, window_days))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_colliding_ids_iterate_as_the_reference(self, seed):
        for records in colliding_histories(seed):
            for k in range(5, len(records), 6):
                as_of = records[k].created_at
                for window_days in (1, 365):
                    assert_same_iteration_order(
                        build_graph(records[:k], as_of, window_days),
                        reference_build_graph(records[:k], as_of, window_days))


@lru_cache(maxsize=None)
def creation_ordered_corpus(step=None):
    """``generate_corpus(120, seed=4)`` in creation order.  With a step, its
    accounts move onto 10 000 + step * k, ids that fall into the same slots
    of small set tables, so set order follows insertion order."""
    config = CrawlConfig(base_url="http://fixture.invalid")
    records = sort_by_creation([normalize_change(RawChange(doc, BASE_TIME), config)
                                for doc in generate_corpus(120, seed=4)])
    if step is None:
        return records
    ids = sorted({r.owner_id for r in records}
                 | {m.author_id for r in records for m in r.messages})
    account = {old: 10_000 + step * k for k, old in enumerate(ids)}
    return [replace(r, owner_id=account[r.owner_id],
                    messages=tuple(replace(m, author_id=account[m.author_id])
                                   for m in r.messages))
            for r in records]


class TestGrowGraph:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([None, 8, 32]), st.data())
    def test_growth_iterates_as_a_rebuild(self, step, data):
        records = creation_ordered_corpus(step)
        i = data.draw(st.integers(0, len(records)))
        j = data.draw(st.integers(i, len(records)))
        k = data.draw(st.integers(j, len(records)))
        # every change of the corpus is in the window
        as_of = records[-1].created_at + timedelta(days=1)
        assert as_of - records[0].created_at < timedelta(days=365)
        grown = collab.grow_graph(build_graph(records[i:j], as_of, 365), records[j:k])
        assert_same_iteration_order(grown, build_graph(records[i:k], as_of, 365))

    def test_no_new_pair_returns_the_graph(self):
        records = creation_ordered_corpus()
        as_of = records[-1].created_at + timedelta(days=1)
        graph = build_graph(records, as_of)
        repeat = next(r for r in records if r.interaction_pairs)
        alone = next(r for r in records if not r.interaction_pairs)
        for changes in ([], [alone], [repeat], [repeat, alone, repeat]):
            assert collab.grow_graph(graph, changes) is graph

    @pytest.mark.parametrize("step", [None, 8, 32])
    def test_each_growth_is_the_graph_or_iterates_as_a_rebuild(self, step):
        records = creation_ordered_corpus(step)
        as_of = records[-1].created_at + timedelta(days=1)
        grew = kept = 0
        for i in range(0, len(records), 7):
            graph = build_graph(records[:i], as_of)
            for change in records:
                grown = collab.grow_graph(graph, [change])
                if set(change.interaction_pairs) <= graph.edges.keys():
                    assert grown is graph
                    kept += 1
                else:
                    assert_same_iteration_order(
                        grown, build_graph(records[:i] + [change], as_of))
                    grew += 1
        assert grew and kept


def scored_graphs(monkeypatch, records, window_days):
    """Each record ``featurize`` scores, with the graph it scores it on."""
    seen = []
    assemble = features._assemble

    def spy(record, graph, prior, policy):
        seen.append((record, graph))
        return assemble(record, graph, prior, policy)

    monkeypatch.setattr(features, "_assemble", spy)
    features.featurize(records, window_days=window_days)
    return seen


class TestFeaturizeSweep:
    @pytest.mark.parametrize("step", [None, 8])
    @pytest.mark.parametrize("window_days", [365, 30])
    def test_a_window_that_gains_no_pair_keeps_its_graph(self, monkeypatch, step,
                                                         window_days):
        records = creation_ordered_corpus(step)
        window = timedelta(days=window_days)
        scored = scored_graphs(monkeypatch, records, window_days)
        assert len(scored) > 50
        for record, graph in scored:
            assert_same_iteration_order(
                graph, build_graph(records, record.created_at, window_days))
        shared = 0
        for (before, before_graph), (record, graph) in zip(scored, scored[1:]):
            left = any(before.created_at - window <= change.created_at
                       < record.created_at - window for change in records)
            if not left and graph.edges.keys() == before_graph.edges.keys():
                assert graph is before_graph
                shared += 1
        assert shared > 10

    def test_each_shape_is_scored_once_across_graph_objects(self, monkeypatch):
        # a window rebuilt after a change leaves it is a new graph object
        # that often has the last shape, at times with its pairs in another
        # order: the memos are keyed by shape, so its scores are hits, which
        # memos kept on the graph object would miss
        config = CrawlConfig(base_url="http://fixture.invalid")
        records = sort_by_creation([normalize_change(RawChange(doc, BASE_TIME), config)
                                    for doc in generate_corpus(400, seed=1)])
        memos = (collab._dependency_sums, collab._component_eigenvector,
                 collab._shape_scores)
        for memo in memos:
            memo.cache_clear()
        graphs = [graph for _, graph in scored_graphs(monkeypatch, records, 30)]
        runs = 1 + sum(a.shape != b.shape for a, b in zip(graphs, graphs[1:]))
        assert len({id(graph) for graph in graphs}) > runs
        for memo in memos:
            assert memo.cache_info().misses <= runs
            memo.cache_clear()


def reference_eigenvector(graph, v):
    """The power iteration as it ran before it was memoized per component."""
    if v not in graph.nodes:
        return 0.0
    adj = graph.adjacency
    if not adj[v]:
        return 0.0
    component = sorted(collab._bfs_distances(adj, v))
    index = {u: i for i, u in enumerate(component)}
    m = len(component)
    a = np.zeros((m, m))
    for u in component:
        for w in adj[u]:
            a[index[u], index[w]] = 1.0
    x = np.full(m, 1.0 / np.sqrt(m))
    for _ in range(collab.EIGENVECTOR_MAX_ITER):
        y = a @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        y /= norm
        x_new = 0.5 * x + 0.5 * y
        x_new /= np.linalg.norm(x_new)
        if np.max(np.abs(x_new - x)) < collab.EIGENVECTOR_TOL:
            x = x_new
            break
        x = x_new
    else:
        raise ConvergenceFailureError("no convergence")
    x = np.abs(x)
    return float(x[index[v]] / np.max(x))


class TestEigenvectorMemo:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_on_labelled_graphs(self, seed):
        for graph in labelled_graphs(seed):
            for v in graph.nodes:
                assert eigenvector_centrality(graph, v) == \
                    reference_eigenvector(graph, v), (sorted(graph.edges), v)

    def test_bit_identical_on_corpus_graphs(self):
        for graph in corpus_graphs():
            for v in graph.nodes:
                assert eigenvector_centrality(graph, v) == \
                    reference_eigenvector(graph, v), (sorted(graph.edges), v)

    def test_same_edge_set_in_another_order_is_a_hit(self):
        edges = [(10_000 + 8 * i, 10_000 + 8 * j)
                 for i in range(7) for j in range(i + 1, 7) if (i * j + i) % 3]
        first = graph_from_edges(edges)
        second = graph_from_edges(reversed(edges))
        assert list(first.nodes) != list(second.nodes)
        solve = collab._component_eigenvector
        solve.cache_clear()
        for v in sorted(first.nodes):
            assert eigenvector_centrality(first, v) == reference_eigenvector(first, v)
            assert eigenvector_centrality(second, v) == reference_eigenvector(second, v)
        info = solve.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(first.nodes) - 1)

    def test_failure_is_raised_again_not_cached(self, monkeypatch):
        monkeypatch.setattr(collab, "EIGENVECTOR_MAX_ITER", 1)
        collab._component_eigenvector.cache_clear()
        for _ in range(2):
            with pytest.raises(ConvergenceFailureError):
                eigenvector_centrality(STAR, 0)
        collab._component_eigenvector.cache_clear()


# a path of four nodes: the power iteration converges in 19 steps, more than
# one block and not a multiple of one
PATH4 = graph_from_edges([(1, 2), (2, 3), (3, 4)])
PATH4_STEPS = 19


class TestEigenvectorBlocks:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        collab._component_eigenvector.cache_clear()
        yield
        collab._component_eigenvector.cache_clear()

    def test_the_reference_needs_the_steps_named(self, monkeypatch):
        assert PATH4_STEPS > collab.EIGENVECTOR_BLOCK
        assert PATH4_STEPS % collab.EIGENVECTOR_BLOCK > 1
        monkeypatch.setattr(collab, "EIGENVECTOR_MAX_ITER", PATH4_STEPS)
        reference_eigenvector(PATH4, 1)
        monkeypatch.setattr(collab, "EIGENVECTOR_MAX_ITER", PATH4_STEPS - 1)
        with pytest.raises(ConvergenceFailureError):
            reference_eigenvector(PATH4, 1)

    def test_a_solve_longer_than_a_block_keeps_the_bits(self):
        for v in sorted(PATH4.nodes):
            assert eigenvector_centrality(PATH4, v) == reference_eigenvector(PATH4, v)

    @pytest.mark.parametrize("cap", [PATH4_STEPS, PATH4_STEPS + 1, PATH4_STEPS - 1])
    def test_a_cap_within_a_block_counts_steps(self, monkeypatch, cap):
        monkeypatch.setattr(collab, "EIGENVECTOR_MAX_ITER", cap)
        if cap < PATH4_STEPS:
            with pytest.raises(ConvergenceFailureError):
                eigenvector_centrality(PATH4, 1)
        else:
            assert eigenvector_centrality(PATH4, 1) == reference_eigenvector(PATH4, 1)


class TestShapeState:
    def test_no_new_pair_hands_the_shape_state_on(self):
        records = creation_ordered_corpus()
        graph = build_graph(records, records[-1].created_at + timedelta(days=1))
        owner = next(iter(graph.nodes))
        collab_features(graph, owner)
        repeat = next(r for r in records if r.interaction_pairs)
        grown = collab.grow_graph(graph, [repeat])
        for name in ("adjacency", "shape", "components", "cores"):
            assert getattr(grown, name) is getattr(graph, name)

    def test_a_new_pair_starts_a_new_shape(self):
        graph = graph_from_edges([(1, 2), (2, 3)])
        assert graph.cores == {1: 1, 2: 1, 3: 1}
        grown = collab.grow_graph(graph, [make_record(
            9, owner=1, created=BASE_TIME, messages=(make_message(3),))])
        assert grown.shape != graph.shape
        assert grown.cores == {1: 2, 2: 2, 3: 2}
        assert grown.components[1] == ((1, 2, 3), frozenset({(1, 2), (2, 3), (1, 3)}))

    def test_components_and_cores_match_the_oracles(self):
        for graph in labelled_graphs(0):
            for v in graph.nodes:
                component = tuple(sorted(collab._bfs_distances(graph.adjacency, v)))
                assert graph.components[v][0] == component
                assert set(graph.components[v][1]) == {
                    (u, w) for u in component for w in graph.adjacency[u] if u < w}
                assert graph.cores[v] == oracle.oracle_core(graph.nodes,
                                                            graph.adjacency, v)


class TestShapeMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        collab._shape_scores.cache_clear()
        yield
        collab._shape_scores.cache_clear()

    @pytest.mark.parametrize("window_days", [7, 30, 365])
    def test_matches_the_metrics_along_the_sweep(self, window_days):
        records = creation_ordered_corpus()
        for record in records:
            if record.closed_at is None:
                continue
            graph = build_graph(records, record.created_at, window_days)
            owner = record.owner_id
            want = metrics_tuple(graph, owner) if owner in graph.nodes \
                else astuple(CollabFeatures())
            assert astuple(collab_features(graph, owner)) == want
        assert collab._shape_scores.cache_info().hits > 0

    def test_same_edge_set_in_another_order_is_another_shape(self):
        edges = [(10_000 + 8 * i, 10_000 + 8 * j)
                 for i in range(7) for j in range(i + 1, 7) if (i * j + i) % 3]
        first = graph_from_edges(edges)
        second = graph_from_edges(reversed(edges))
        assert set(first.edges) == set(second.edges)
        assert first.shape != second.shape
        for v in sorted(first.nodes):
            for graph in (first, second):
                assert astuple(collab_features(graph, v)) == metrics_tuple(graph, v)
        assert collab._shape_scores.cache_info().misses == 2 * len(first.nodes)

    def test_failure_is_raised_again_not_stored(self, monkeypatch):
        monkeypatch.setattr(collab, "EIGENVECTOR_MAX_ITER", 1)
        collab._component_eigenvector.cache_clear()
        for _ in range(2):
            with pytest.raises(ConvergenceFailureError):
                collab_features(STAR, 0)
        collab._component_eigenvector.cache_clear()


@st.composite
def random_graph(draw, max_nodes=7):
    n = draw(st.integers(2, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return n, tuple(edges)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_graph(), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, graph_spec, rnd):
        n, edges = graph_spec
        labels = list(range(100, 100 + n))
        rnd.shuffle(labels)
        mapping = dict(enumerate(labels))
        g1 = graph_from_edges(edges, extra_nodes=range(n))
        g2 = graph_from_edges([(mapping[u], mapping[v]) for u, v in edges],
                              extra_nodes=labels)
        for v in range(n):
            a = metrics_tuple(g1, v)
            b = metrics_tuple(g2, mapping[v])
            assert a == pytest.approx(b, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(random_graph(max_nodes=6))
    def test_edge_addition_monotonicity(self, graph_spec):
        n, edges = graph_spec
        existing = set(edges)
        missing = [(i, j) for i in range(n) for j in range(i + 1, n)
                   if (i, j) not in existing]
        if not missing:
            return
        new_edge = missing[0]
        g1 = graph_from_edges(edges, extra_nodes=range(n))
        g2 = graph_from_edges(list(edges) + [new_edge], extra_nodes=range(n))
        for v in range(n):
            assert degree_centrality(g2, v) >= degree_centrality(g1, v)
            assert core_number(g2, v) >= core_number(g1, v)

    @settings(max_examples=40, deadline=None)
    @given(random_graph())
    def test_eigenvector_in_unit_interval(self, graph_spec):
        n, edges = graph_spec
        g = graph_from_edges(edges, extra_nodes=range(n))
        for v in range(n):
            value = eigenvector_centrality(g, v)
            assert 0.0 <= value <= 1.0 + 1e-12

