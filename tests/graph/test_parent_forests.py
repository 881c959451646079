"""Canonical parent forests: both paths of ``bfs_parents`` agree exactly.

Every tree the constructions add is a walk up a ``bfs_parents`` forest, so
the forest must be a canonical function of the graph: the CSR path (sorted
flat rows, preallocated queue) and the set loops (``sorted(g.neighbors(u))``)
must pick the same parent for every node, for every source and cutoff.
Both are checked against a deque BFS written out here.  Each path is
reached by input type: ``g.freeze()`` runs CSR, a never-frozen ``Graph``
(``g.copy()``) runs the set loops.
"""

from collections import deque

import pytest
from hypothesis import given, settings

from repro.baselines import additive_two_spanner
from repro.baselines.additive import dominating_set_for
from repro.errors import NodeNotFound
from repro.graph import Graph, bfs_parents, path_to_root, traversal
from repro.graph.generators import (
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_connected_gnp,
)

from ..conftest import small_graphs


def reference_parents(g, source, cutoff=None):
    """Queue BFS expanding neighbors in ascending order."""
    dist = [-1] * g.num_nodes
    parent = [-1] * g.num_nodes
    dist[source], parent[source] = 0, source
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if cutoff is not None and dist[u] >= cutoff:
            continue
        for v in sorted(g.neighbors(u)):
            if dist[v] < 0:
                dist[v], parent[v] = dist[u] + 1, u
                queue.append(v)
    return dist, parent


def assert_forests_agree(g, sources=None, cutoffs=(None,)):
    plain, csr = g.copy(), g.freeze()
    assert traversal._csr_of(plain) is None and traversal._csr_of(csr) is csr
    for s in g.nodes() if sources is None else sources:
        for cut in cutoffs:
            want = reference_parents(g, s, cut)
            assert bfs_parents(plain, s, cut) == want
            assert bfs_parents(csr, s, cut) == want


@settings(max_examples=40, deadline=None)
@given(g=small_graphs(max_nodes=9))
def test_small_graphs_exact(g):
    assert_forests_agree(g, cutoffs=(None, 0, 1, 2))


@pytest.mark.parametrize(
    "g",
    [
        random_connected_gnp(80, 0.08, seed=1),
        grid_graph(8, 12),
        path_graph(70),
        gnp_random_graph(90, 0.02, seed=5),  # disconnected
    ],
    ids=["gnp-connected", "grid", "path", "gnp-sparse"],
)
def test_mid_size_graphs_exact(g):
    assert_forests_agree(g, sources=range(0, g.num_nodes, 3), cutoffs=(None, 0, 1, 3))


def test_forest_walks_are_shortest_paths():
    g = random_connected_gnp(100, 0.05, seed=9)
    dist, parent = bfs_parents(g.freeze(), 0)
    for v in g.nodes():
        walk = path_to_root(parent, v)
        assert walk[0] == v and walk[-1] == 0 and len(walk) == dist[v] + 1
        assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))


def test_frozen_graph_below_size_threshold_runs_the_set_loops():
    g = Graph(10, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)])
    csr = g.freeze()
    assert traversal._csr_of(g) is None  # too small to take the snapshot
    assert bfs_parents(g, 0) == bfs_parents(csr, 0) == reference_parents(g, 0)


def test_unknown_source_rejected_on_both_paths():
    g = path_graph(4)
    for h in (g.copy(), g.freeze()):
        with pytest.raises(NodeNotFound):
            bfs_parents(h, 9)
        with pytest.raises(NodeNotFound):
            bfs_parents(h, -1)


@pytest.mark.parametrize("seed", range(5))
def test_additive_spanner_is_low_degree_edges_plus_reference_forests(seed):
    # The spanner runs bfs_parents on the frozen snapshot once per
    # dominator; it must hold exactly the forests the set loops build.
    g = gnp_random_graph(200, 0.05, seed=seed)
    threshold = 14  # isqrt(200), the default
    high = {v for v in g.nodes() if g.degree(v) >= threshold}
    want = {(u, v) for u, v in g.edges() if u not in high or v not in high}
    for d in dominating_set_for(g, high):
        _dist, parent = bfs_parents(g.copy(), d)
        want |= {tuple(sorted((v, p))) for v, p in enumerate(parent) if p >= 0 and p != v}
    assert set(additive_two_spanner(g).edges()) == want
