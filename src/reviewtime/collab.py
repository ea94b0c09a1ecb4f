"""Developer interaction graph and the six owner collaboration metrics.

The graph is undirected: one edge (owner, participant) per distinct non-owner,
non-bot message author on each prior in-window change, with the weight counting
how many changes the pair interacted on.  All centralities are computed on the
unweighted simple graph.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cached_property, lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import ConvergenceFailureError
from .gerrit import ChangeRecord

DEFAULT_WINDOW_DAYS = 365

EIGENVECTOR_TOL = 1e-10
EIGENVECTOR_MAX_ITER = 1000


@dataclass(frozen=True)
class InteractionGraph:
    nodes: frozenset[int]
    edges: dict[tuple[int, int], int]  # key is the sorted node pair

    def __post_init__(self):
        for (u, v), w in self.edges.items():
            if u == v:
                raise ValueError("self-loops are not allowed")
            if u > v:
                raise ValueError("edge keys must be sorted pairs")
            if w < 1:
                raise ValueError("edge weights must be >= 1")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError("edge endpoint missing from node set")

    @cached_property
    def adjacency(self) -> dict[int, set[int]]:
        """Neighbour sets, built once per graph; callers must not mutate them."""
        adj: dict[int, set[int]] = {v: set() for v in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class CollabFeatures:
    degree_centrality: float = 0.0
    closeness_centrality: float = 0.0
    betweenness_centrality: float = 0.0
    eigenvector_centrality: float = 0.0
    clustering_coefficient: float = 0.0
    core_number: int = 0


def build_graph(history: Sequence[ChangeRecord], as_of: datetime,
                window_days: int = DEFAULT_WINDOW_DAYS) -> InteractionGraph:
    """Accumulate owner-participant interactions over the window before as_of.

    Each in-window change counts its ``interaction_pairs`` into the weights,
    whose keys keep the order of each pair's first occurrence.  Nodes are
    added in that key order, so every node enters the set at its first
    appearance, as it would if it were added at every occurrence: the set
    table, and so the iteration order of ``nodes`` and ``adjacency`` that
    betweenness sums its floats in, is the same.
    """
    window_start = as_of - timedelta(days=window_days)
    weights = dict(Counter(chain.from_iterable(
        change.interaction_pairs for change in history
        if window_start <= change.created_at < as_of)))
    nodes = set(chain.from_iterable(weights))
    return InteractionGraph(nodes=frozenset(nodes), edges=weights)


def _bfs_distances(adj: dict[int, set[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def degree_centrality(graph: InteractionGraph, v: int) -> float:
    if v not in graph.nodes:
        return 0.0
    n = len(graph.nodes)
    if n <= 1:
        return 0.0
    adj = graph.adjacency
    return len(adj[v]) / (n - 1)


def closeness_centrality(graph: InteractionGraph, v: int) -> float:
    """Component-scaled closeness over unweighted shortest paths.

    Within v's component C the raw closeness is (|C|-1) / sum of distances;
    the value is scaled by (|C|-1)/(n-1) so disconnected graphs stay
    comparable.  Isolated vertices score 0.
    """
    if v not in graph.nodes:
        return 0.0
    n = len(graph.nodes)
    if n <= 1:
        return 0.0
    adj = graph.adjacency
    dist = _bfs_distances(adj, v)
    total = sum(dist.values())
    if total == 0:
        return 0.0
    reachable = len(dist) - 1
    return (reachable / total) * (reachable / (n - 1))


def betweenness_centrality(graph: InteractionGraph, v: int) -> float:
    """Normalized shortest-path betweenness (Brandes accumulation).

    Pair dependencies are summed over ordered pairs (s, t) with s, t != v
    and divided by (n-1)(n-2); zero for n < 3.

    Only v's dependency is needed, so each source's search marks v's
    descendants in its shortest-path DAG, stops once every marked vertex is
    expanded, and accumulates dependencies over the marked vertices alone.
    The result is bit-identical to the full accumulation because the float
    order is kept: sources are taken in ``graph.nodes`` order, the search
    visits neighbours in ``graph.adjacency`` order, and each dependency
    receives its terms ``sigma[u] / sigma[w] * (1 + delta[w])`` in reverse
    discovery order of w.  Path counts are exact integers, so their
    summation order is free.
    """
    if v not in graph.nodes:
        return 0.0
    n = len(graph.nodes)
    if n < 3 or len(graph.adjacency[v]) < 2:
        return 0.0
    index = {u: i for i, u in enumerate(graph.nodes)}
    neighbours = [[index[w] for w in graph.adjacency[u]] for u in graph.nodes]
    target = index[v]
    score = 0.0
    for s in range(n):
        if s == target:
            continue
        # shortest-path counts from s, marking v and its descendants
        dist = [-1] * n
        sigma = [0.0] * n
        below = [False] * n
        dist[s] = 0
        sigma[s] = 1.0
        below[target] = True
        unexpanded = 1
        order = [s]
        for u in order:
            next_dist = dist[u] + 1
            from_below = below[u]
            for w in neighbours[u]:
                if dist[w] < 0:
                    dist[w] = next_dist
                    order.append(w)
                if dist[w] == next_dist:
                    sigma[w] += sigma[u]
                    if from_below and not below[w]:
                        below[w] = True
                        unexpanded += 1
            if from_below:
                unexpanded -= 1
                if not unexpanded:
                    break
        # dependencies of the descendants, deepest first, then of v
        delta = [0.0] * n
        for w in reversed(order):
            if w == target:
                break
            if below[w]:
                before = dist[w] - 1
                for u in neighbours[w]:
                    if dist[u] == before and below[u]:
                        delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w])
        score += delta[target]
    return score / ((n - 1) * (n - 2))


def eigenvector_centrality(graph: InteractionGraph, v: int) -> float:
    """Power-iteration eigenvector centrality within v's component.

    The converged vector is rescaled so its largest entry is 1; the iterate is
    damped by 0.5 to suppress oscillation on bipartite components.

    The iteration is a pure function of the sorted component and its edge
    set: it builds its matrix in sorted component order, so two graphs with
    the same component edges give the same vector to the last bit, whatever
    order their sets iterate in.  Consecutive records often share the
    owner's component, so the last solve is kept and reused; a failed solve
    raises and is not kept.
    """
    if v not in graph.nodes:
        return 0.0
    adj = graph.adjacency
    if not adj[v]:
        return 0.0
    component = tuple(sorted(_bfs_distances(adj, v)))
    edges = frozenset((u, w) for u in component for w in adj[u] if u < w)
    x = _component_eigenvector(component, edges)
    return float(x[bisect_left(component, v)] / x.max())


@lru_cache(maxsize=1)
def _component_eigenvector(component: tuple[int, ...],
                           edges: frozenset[tuple[int, int]]) -> np.ndarray:
    """Absolute damped power-iteration vector, in sorted component order.

    Every node of a connected component of two or more nodes has a
    neighbour, so the iterate stays positive and no norm is zero.  Cache
    hits share the returned array, so it is read-only.
    """
    index = {u: i for i, u in enumerate(component)}
    m = len(component)
    a = np.zeros((m, m))
    for u, w in edges:
        a[index[u], index[w]] = 1.0
        a[index[w], index[u]] = 1.0
    x = np.full(m, 1.0 / np.sqrt(m))
    for _ in range(EIGENVECTOR_MAX_ITER):
        y = a @ x
        y /= math.sqrt(y.dot(y))
        x_new = 0.5 * x + 0.5 * y
        x_new /= math.sqrt(x_new.dot(x_new))
        if np.abs(x_new - x).max() < EIGENVECTOR_TOL:
            x = np.abs(x_new)
            x.flags.writeable = False
            return x
        x = x_new
    raise ConvergenceFailureError(
        f"eigenvector iteration did not converge in {EIGENVECTOR_MAX_ITER} steps"
    )


def clustering_coefficient(graph: InteractionGraph, v: int) -> float:
    if v not in graph.nodes:
        return 0.0
    adj = graph.adjacency
    neighbors = adj[v]
    k = len(neighbors)
    if k < 2:
        return 0.0
    links = 0
    for u in neighbors:
        links += len(adj[u] & neighbors)
    # each neighbor-neighbor edge counted twice in the loop above
    return links / (k * (k - 1))


def core_number(graph: InteractionGraph, v: int) -> int:
    """Largest k such that v survives iterative removal of degree < k vertices."""
    if v not in graph.nodes:
        return 0
    cores = core_numbers(graph)
    return cores[v]


def core_numbers(graph: InteractionGraph) -> dict[int, int]:
    adj = graph.adjacency
    degrees = {u: len(ns) for u, ns in adj.items()}
    cores: dict[int, int] = {}
    remaining = set(adj)
    k = 0
    while remaining:
        k = max(k, min(degrees[u] for u in remaining))
        peel = [u for u in remaining if degrees[u] <= k]
        while peel:
            u = peel.pop()
            if u not in remaining:
                continue
            cores[u] = k
            remaining.discard(u)
            for w in adj[u]:
                if w in remaining:
                    degrees[w] -= 1
                    if degrees[w] <= k:
                        peel.append(w)
    return cores


def collab_features(graph: InteractionGraph, owner: int) -> CollabFeatures:
    """All six owner metrics; zeros when the owner is absent from the graph."""
    if owner not in graph.nodes:
        return CollabFeatures()
    return CollabFeatures(
        degree_centrality=degree_centrality(graph, owner),
        closeness_centrality=closeness_centrality(graph, owner),
        betweenness_centrality=betweenness_centrality(graph, owner),
        eigenvector_centrality=eigenvector_centrality(graph, owner),
        clustering_coefficient=clustering_coefficient(graph, owner),
        core_number=core_number(graph, owner),
    )

