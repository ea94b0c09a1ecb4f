"""Developer interaction graph and the six owner collaboration metrics.

The graph is undirected and unweighted: one edge (owner, participant) per
distinct non-owner, non-bot message author on any prior in-window change.
Each metric takes a node of the graph: :func:`collab_features` alone scores
an owner absent from the graph 0.  A window graph grows by the changes that
enter it (:func:`grow_graph`), and :func:`collab_features` scores each owner
once per graph shape.

Betweenness runs the Brandes searches of a block of sources at once, one
breadth-first level at a time over flat numpy arrays (:func:`_dependency_sums`):
O(n * m) work for n nodes and m edges, in arrays of a bounded number of
cells (``BETWEENNESS_BLOCK``) plus O(n + m).  It keeps the float order of
Brandes' loop over one source at a time, so the values are the same to the
last bit, and every node's value on a shape comes from one pass.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property, lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import ConvergenceFailureError
from .gerrit import ChangeRecord

DEFAULT_WINDOW_DAYS = 365
# a century: any review history fits in it
MAX_WINDOW_DAYS = 36_500
# no aware datetime names an earlier instant: the offset of a tzinfo is less
# than a day
_EARLIEST = datetime.min.replace(tzinfo=timezone(timedelta(days=1, microseconds=-1)))

# cells one block of betweenness sources may take, n + 2m per source
BETWEENNESS_BLOCK = 1 << 17

EIGENVECTOR_TOL = 1e-10
EIGENVECTOR_MAX_ITER = 1000
# power-iteration steps taken between two convergence tests
EIGENVECTOR_BLOCK = 8


@dataclass(frozen=True)
class InteractionGraph:
    """The nodes and the edges, each a sorted node pair, in the iteration
    order that every cached property below and every float sum reads."""
    nodes: frozenset[int]
    edges: dict[tuple[int, int], None]  # the pairs, in insertion order

    @cached_property
    def adjacency(self) -> dict[int, set[int]]:
        """Neighbour sets, built once per graph; callers must not mutate them."""
        adj: dict[int, set[int]] = {v: set() for v in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @cached_property
    def shape(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Nodes and their neighbours in iteration order: all the metrics read."""
        adj = self.adjacency
        return tuple((u, tuple(adj[u])) for u in self.nodes)

    @cached_property
    def components(self) -> dict[int, tuple[tuple[int, ...], frozenset[tuple[int, int]]]]:
        """Each node's connected component, sorted, and the component's edges
        as sorted pairs."""
        adj = self.adjacency
        found: dict[int, tuple[tuple[int, ...], frozenset[tuple[int, int]]]] = {}
        for v in self.nodes:
            if v not in found:
                component = tuple(sorted(_bfs_distances(adj, v)))
                edges = frozenset((u, w) for u in component for w in adj[u] if u < w)
                found.update(dict.fromkeys(component, (component, edges)))
        return found

    @cached_property
    def cores(self) -> dict[int, int]:
        """Each node's core number: the largest k such that the node survives
        iterative removal of the nodes of degree < k."""
        adj = self.adjacency
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


@dataclass(frozen=True)
class CollabFeatures:
    degree_centrality: float = 0.0
    closeness_centrality: float = 0.0
    betweenness_centrality: float = 0.0
    eigenvector_centrality: float = 0.0
    clustering_coefficient: float = 0.0
    core_number: int = 0


def window_start(as_of: datetime, window_days: int) -> datetime:
    """The first instant of the ``window_days`` days before the aware ``as_of``;
    a window that would reach back before ``_EARLIEST`` starts there."""
    if window_days < as_of.toordinal():
        return as_of - timedelta(days=window_days)
    # the start lies before the first day of as_of's offset, so before the
    # second UTC day, and _EARLIEST's offset names every instant up to there
    span = as_of - _EARLIEST
    if window_days > span.days:
        return _EARLIEST
    return _EARLIEST + (span - timedelta(days=window_days))


def build_graph(history: Sequence[ChangeRecord], as_of: datetime,
                window_days: int = DEFAULT_WINDOW_DAYS) -> InteractionGraph:
    """The empty graph grown by the changes in the window before as_of."""
    start = window_start(as_of, window_days)
    return grow_graph(InteractionGraph(nodes=frozenset(), edges={}), [
        change for change in history if start <= change.created_at < as_of])


def grow_graph(graph: InteractionGraph,
               changes: Sequence[ChangeRecord]) -> InteractionGraph:
    """The graph of ``graph``'s window extended by ``changes``: ``graph``
    itself when they bring no new pair.

    The graph holds by construction what the metrics assume:
    - the edges are ``interaction_pairs``: sorted pairs of an owner and a
      participant, who is never the owner, so there are no self-loops;
    - the nodes are the endpoints of the edges.

    The edges keep the order of each pair's first occurrence: the old pairs,
    then the new ones.  Nodes are added in that order, so every node enters
    the set at its first appearance, as it would if it were added at every
    occurrence: the set table, and so the iteration order of ``nodes`` and
    ``adjacency`` that betweenness sums its floats in, is the one a rebuild
    over the whole window gives.
    """
    new = dict.fromkeys(pair for change in changes for pair in change.interaction_pairs
                        if pair not in graph.edges)
    if not new:
        return graph
    edges = graph.edges | new
    return InteractionGraph(nodes=frozenset(set(chain.from_iterable(edges))),
                            edges=edges)


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
    n = len(graph.nodes)
    return len(graph.adjacency[v]) / (n - 1) if n > 1 else 0.0


def closeness_centrality(graph: InteractionGraph, v: int) -> float:
    """Component-scaled closeness over unweighted shortest paths.

    Within v's component C the raw closeness is (|C|-1) / sum of distances;
    the value is scaled by (|C|-1)/(n-1) so disconnected graphs stay
    comparable.  Isolated vertices score 0.
    """
    dist = _bfs_distances(graph.adjacency, v)
    total = sum(dist.values())
    if total == 0:
        return 0.0
    reachable = len(dist) - 1
    return (reachable / total) * (reachable / (len(graph.nodes) - 1))


def betweenness_centrality(graph: InteractionGraph, v: int) -> float:
    """Normalized shortest-path betweenness (Brandes accumulation).

    Pair dependencies are summed over ordered pairs (s, t) with s, t != v
    and divided by (n-1)(n-2); zero when v has fewer than two neighbours,
    which covers every n < 3.  Every node's sum comes from one pass over the
    graph shape (:func:`_dependency_sums`), and the last shape's sums are
    kept for the next owner scored on it.
    """
    if len(graph.adjacency[v]) < 2:
        return 0.0
    n = len(graph.nodes)
    return _dependency_sums(graph.shape)[v] / ((n - 1) * (n - 2))


@lru_cache(maxsize=1)
def _dependency_sums(shape: tuple) -> dict[int, float]:
    """Each node's dependencies summed over the other sources, in node order.

    The sources run in blocks (:func:`_source_dependencies`) of as many as
    keep a block within ``BETWEENNESS_BLOCK`` cells, each source taking one
    per node and one per directed edge.  The sums add the sources' rows in
    node order, one after another, as a loop over the sources adds them.
    """
    n = len(shape)
    index = {u: i for i, (u, _) in enumerate(shape)}
    degree = np.fromiter((len(ws) for _, ws in shape), dtype=np.intp, count=n)
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(degree, out=starts[1:])
    heads = np.fromiter((index[w] for _, ws in shape for w in ws),
                        dtype=np.intp, count=int(starts[-1]))
    sums = np.zeros(n)
    block = max(1, BETWEENNESS_BLOCK // (n + len(heads)))
    for first in range(0, n, block):
        dependencies = _source_dependencies(
            np.arange(first, min(n, first + block)), degree, starts, heads)
        dependencies[0] += sums
        sums = np.add.accumulate(dependencies)[-1]
    return dict(zip(index, sums.tolist()))


def _source_dependencies(sources: np.ndarray, degree: np.ndarray,
                         starts: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Brandes dependencies of every node on each source, a row per source.

    Node x in the row of the r-th source is cell r*n + x, and the searches
    from all the sources advance one level at a time.  A level's front is in
    discovery order, and its out-edges are taken in that order and then in
    adjacency order (node x's neighbours are ``heads[starts[x]:starts[x+1]]``).
    A node is found at its first appearance among them, and its path count
    receives its parents' counts in that order, as in a one-source search.
    The edges back to the level before are the level's shortest-path DAG
    edges.  The dependencies run over them deepest level first and child in
    reverse discovery order, so each parent receives its terms
    ``sigma[u] / sigma[w] * (1 + delta[w])`` in the float order of the
    one-source loop, and every value is the same to the last bit.

    Each (source, directed edge) pair is looked at once: O(b * m) work for b
    sources and m edges, in arrays of O(b * (n + m)) cells.  A source's own
    cell is 0.
    """
    n, b = len(degree), len(sources)
    rows = np.arange(b) * n
    dist = np.full(b * n, -1, dtype=np.intp)
    sigma = np.zeros(b * n)
    found_at = np.full(b * n, np.iinfo(np.intp).max, dtype=np.intp)
    front = rows + sources
    dist[front] = 0
    sigma[front] = 1.0
    children, parents = [], []
    level = 0
    while front.size:
        nodes = front % n
        counts = degree[nodes]
        ends = np.cumsum(counts)
        # the front position each out-edge leaves from, and the edge's head
        at = np.repeat(np.arange(front.size), counts)
        head = (heads[np.arange(ends[-1]) + (starts[nodes] - ends + counts)[at]]
                + (front - nodes)[at])
        reached = dist[head]
        if level:
            up = np.flatnonzero(reached == level - 1)
            children.append(front[at[up]])
            parents.append(head[up])
        new = np.flatnonzero(reached < 0)
        tail = front[at[new]]
        head = head[new]
        level += 1
        position = np.arange(head.size)
        np.minimum.at(found_at, head, position)
        front = head[np.flatnonzero(found_at[head] == position)]
        dist[front] = level
        np.add.at(sigma, head, sigma[tail])
    delta = np.zeros(b * n)
    for child, parent in zip(reversed(children), reversed(parents)):
        child, parent = child[::-1], parent[::-1]
        np.add.at(delta, parent,
                  sigma[parent] / sigma[child] * (1.0 + delta[child]))
    delta[rows + sources] = 0.0
    return delta.reshape(b, n)


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
    if not graph.adjacency[v]:
        return 0.0
    component, edges = graph.components[v]
    x = _component_eigenvector(component, edges)
    return float(x[bisect_left(component, v)] / x.max())


@lru_cache(maxsize=1)
def _component_eigenvector(component: tuple[int, ...],
                           edges: frozenset[tuple[int, int]]) -> np.ndarray:
    """Absolute damped power-iteration vector, in sorted component order.

    Every node of a connected component of two or more nodes has a
    neighbour, so the iterate stays positive and no norm is zero.  The
    damped step ``0.5 * x + 0.5 * y`` is taken as ``x + y``: halving commutes
    with rounding and the normalisation cancels it, so the iterates are the
    same to the last bit.  The iterates of a block of
    ``EIGENVECTOR_BLOCK`` steps are tested for convergence together, and the
    first that converged is the result.  Cache hits share the returned
    array, so it is read-only.
    """
    index = {u: i for i, u in enumerate(component)}
    m = len(component)
    a = np.zeros((m, m))
    for u, w in edges:
        a[index[u], index[w]] = 1.0
        a[index[w], index[u]] = 1.0
    x = np.full(m, 1.0 / np.sqrt(m))
    for done in range(0, EIGENVECTOR_MAX_ITER, EIGENVECTOR_BLOCK):
        iterates = [x]
        for _ in range(min(EIGENVECTOR_BLOCK, EIGENVECTOR_MAX_ITER - done)):
            y = a @ x
            y /= math.sqrt(y.dot(y))
            y += x
            y /= math.sqrt(y.dot(y))
            iterates.append(y)
            x = y
        steps = np.abs(np.diff(iterates, axis=0)).max(axis=1)
        converged = np.flatnonzero(steps < EIGENVECTOR_TOL)
        if converged.size:
            x = np.abs(iterates[converged[0] + 1])
            x.flags.writeable = False
            return x
    raise ConvergenceFailureError(
        f"eigenvector iteration did not converge in {EIGENVECTOR_MAX_ITER} steps"
    )


def clustering_coefficient(graph: InteractionGraph, v: int) -> float:
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
    return graph.cores[v]


def collab_features(graph: InteractionGraph, owner: int) -> CollabFeatures:
    """All six owner metrics; zeros when the owner is absent from the graph.

    The owners' values on the last shape are kept; a raising metric stores
    nothing."""
    if owner not in graph.nodes:
        return CollabFeatures()
    scores = _shape_scores(graph.shape)
    if owner not in scores:
        scores[owner] = CollabFeatures(
            degree_centrality=degree_centrality(graph, owner),
            closeness_centrality=closeness_centrality(graph, owner),
            betweenness_centrality=betweenness_centrality(graph, owner),
            eigenvector_centrality=eigenvector_centrality(graph, owner),
            clustering_coefficient=clustering_coefficient(graph, owner),
            core_number=core_number(graph, owner),
        )
    return scores[owner]


@lru_cache(maxsize=1)
def _shape_scores(shape: tuple) -> dict[int, CollabFeatures]:
    """The owners scored so far on ``shape``, filled in by the caller."""
    return {}

