"""Interaction-graph construction and the six owner collaboration metrics."""

from __future__ import annotations

import math
from collections import deque
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewtime import collab
from reviewtime.collab import (
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
from reviewtime.errors import ConvergenceFailureError
from reviewtime.gerrit import CrawlConfig, RawChange, normalize_change
from reviewtime.gerrit_fixture import generate_corpus

import graph_oracles as oracle
from conftest import BASE_TIME, make_message, make_record


def graph_from_edges(edges, extra_nodes=()) -> InteractionGraph:
    """A graph from unweighted edge pairs, counting repeated pairs as weight."""
    weights: dict[tuple[int, int], int] = {}
    nodes = set(extra_nodes)
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        weights[key] = weights.get(key, 0) + 1
        nodes.update(key)
    return InteractionGraph(nodes=frozenset(nodes), edges=weights)


TRIANGLE = graph_from_edges([(1, 2), (2, 3), (1, 3)])
STAR = graph_from_edges([(0, 1), (0, 2), (0, 3)])
PATH3 = graph_from_edges([(1, 2), (2, 3)])
ISOLATED = InteractionGraph(nodes=frozenset({1, 2, 9}),
                            edges={(1, 2): 1})


class TestBuildGraph:
    def test_empty_history(self):
        g = build_graph([], as_of=BASE_TIME, window_days=30)
        assert g.nodes == frozenset() and g.edges == {}

    def test_one_change_two_reviewers(self):
        change = make_record(1, owner=1, created=BASE_TIME - timedelta(days=2),
                             messages=(make_message(2), make_message(3)))
        g = build_graph([change], as_of=BASE_TIME)
        assert g.edges == {(1, 2): 1, (1, 3): 1}

    def test_repeat_interaction_increments_weight(self):
        changes = [
            make_record(i, owner=1, created=BASE_TIME - timedelta(days=i + 1),
                        messages=(make_message(2),))
            for i in range(2)
        ]
        g = build_graph(changes, as_of=BASE_TIME)
        assert g.edges == {(1, 2): 2}

    def test_weight_counts_changes_not_messages(self):
        change = make_record(1, owner=1, created=BASE_TIME - timedelta(days=1),
                             messages=(make_message(2), make_message(2, hours=2.0)))
        g = build_graph([change], as_of=BASE_TIME)
        assert g.edges == {(1, 2): 1}

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
        assert g.edges == {(1, 2): 1}


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


def labelled_graphs(seed):
    """Seeded graphs on ids >= 10 000, in a shuffled order.

    Sparse random graphs (with several components), paths and stars (owners
    of degree 1), and dense graphs with many tied shortest paths: random
    graphs at p = 0.5, complete bipartite graphs and hypercubes.
    """
    rng = np.random.default_rng(seed)

    def relabel(n, edges):
        ids = [int(i) for i in rng.choice(np.arange(10_000, 90_000), n,
                                          replace=False)]
        order = rng.permutation(len(edges))
        return graph_from_edges([(ids[edges[k][0]], ids[edges[k][1]])
                                 for k in order], extra_nodes=ids)

    def gnp(n, p):
        return [(i, j) for i in range(n) for j in range(i + 1, n)
                if rng.random() < p]

    for n in (12, 25, 40):
        yield relabel(n, gnp(n, 1.2 / n))
        yield relabel(n, gnp(n, 3.0 / n))
        yield relabel(n, gnp(n, 0.5))
    yield relabel(9, [(i, i + 1) for i in range(8)])
    yield relabel(9, [(0, i) for i in range(1, 9)])
    yield relabel(11, [(i, 5 + j) for i in range(5) for j in range(6)])
    yield relabel(32, [(i, i ^ (1 << b)) for i in range(32) for b in range(5)
                       if i < i ^ (1 << b)])


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
    weights: dict[tuple[int, int], int] = {}
    nodes: set[int] = set()
    for change in history:
        if not (window_start <= change.created_at < as_of):
            continue
        owner = change.owner_id
        participants = {m.author_id for m in change.messages
                        if m.author_id != owner and not m.from_bot}
        for participant in participants:
            key = (owner, participant) if owner < participant else (participant, owner)
            weights[key] = weights.get(key, 0) + 1
            nodes.update(key)
    return InteractionGraph(nodes=frozenset(nodes), edges=weights)


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
    assert list(got.edges.items()) == list(want.edges.items())
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

