"""Queries under interleaved mutate/freeze/query sequences.

A mutable :class:`Graph` keeps one frozen CSR snapshot, patched from the
previous one on the next ``freeze()`` after a mutation, and
``bfs_distances`` rides that snapshot once the graph has 64 or more nodes.
No interleaving of mutations, freezes and queries may read a stale
snapshot — asserted by comparing every answer against a fresh BFS on a
pristine copy of the current graph.  ``sample_pairs`` labels components on
every call, so its connectivity filter must follow every mutation too.
"""

import pytest

from repro.graph import Graph, bfs_distances, sample_pairs
from repro.graph.generators import gnp_random_graph, path_graph

# Below and above the size at which a ``Graph`` rides its cached snapshot.
SIZES = pytest.mark.parametrize("n", [12, 80], ids=["sets", "csr"])
# Each path by input type: a never-frozen copy runs the set loops, a
# ``CSRGraph`` snapshot the CSR engine.
PATHS = pytest.mark.parametrize("on", [Graph.copy, Graph.freeze], ids=["sets", "csr"])


def _connected_pairs(g: Graph, nonadjacent: bool) -> list[tuple[int, int]]:
    """Every pair the connectivity filter must keep, from a pristine copy."""
    fresh = g.copy()
    dist = [bfs_distances(fresh, u) for u in range(fresh.num_nodes)]
    return [
        (u, v)
        for u in range(fresh.num_nodes)
        for v in range(u + 1, fresh.num_nodes)
        if dist[u][v] >= 0 and not (nonadjacent and fresh.has_edge(u, v))
    ]


def _toggle_random_edge(g: Graph, rng) -> None:
    u, v = (int(x) for x in rng.integers(0, g.num_nodes, 2))
    if u != v:
        (g.remove_edge if g.has_edge(u, v) else g.add_edge)(u, v)


class TestInterleavedSequences:
    @SIZES
    def test_mutate_freeze_query_roundtrips(self, n):
        g = path_graph(n)
        last = n - 1
        g.freeze()
        assert bfs_distances(g, 0)[last] == last
        g.remove_edge(5, 6)  # split the path
        assert bfs_distances(g, 0)[last] == -1
        g.freeze()  # the patched snapshot must not resurrect the edge
        assert bfs_distances(g, 0)[last] == -1
        g.add_edge(5, 6)
        g.add_edge(0, last)  # shortcut
        assert bfs_distances(g, 0)[last] == 1
        g.freeze()
        assert bfs_distances(g, 0)[last] == 1
        g.remove_node(last)
        assert bfs_distances(g, 0)[last] == -1
        g.freeze()
        assert bfs_distances(g, 0)[last] == -1
        assert bfs_distances(g, 0)[last - 1] == last - 1

    @SIZES
    def test_randomized_interleaving_never_stale(self, n, rng):
        g = gnp_random_graph(n, 3.0 / n, seed=rng)
        for _step in range(120):
            op = rng.random()
            if op < 0.25:
                _toggle_random_edge(g, rng)
            elif op < 0.40:
                g.freeze()
            elif op < 0.45:
                g.remove_node(int(rng.integers(0, g.num_nodes)))
            source = int(rng.integers(0, g.num_nodes))
            cutoff = None if rng.random() < 0.6 else int(rng.integers(0, 5))
            expected = bfs_distances(g.copy(), source, cutoff)
            assert bfs_distances(g, source, cutoff) == expected
            # Freezing patches the snapshot; it must agree too.
            assert bfs_distances(g.freeze(), source, cutoff) == expected

    @PATHS
    def test_cutoff_caps_distances(self, on):
        g = on(path_graph(8))
        assert bfs_distances(g, 0, cutoff=2) == [0, 1, 2, -1, -1, -1, -1, -1]
        assert bfs_distances(g, 0)[5] == 5
        assert bfs_distances(g, 0, cutoff=2)[5] == -1  # still capped

    @PATHS
    def test_results_are_caller_owned(self, on):
        g = on(path_graph(6))
        first = bfs_distances(g, 0)
        first[3] = 999  # corrupting a result must not poison the snapshot
        assert bfs_distances(g, 0) == [0, 1, 2, 3, 4, 5]

    @SIZES
    def test_frozen_snapshot_is_isolated_from_later_mutation(self, n):
        g = path_graph(n)
        csr = g.freeze()
        g.add_edge(0, n - 1)  # mutating g must not disturb the snapshot
        assert bfs_distances(csr, 0)[n - 1] == n - 1
        assert bfs_distances(g, 0)[n - 1] == 1
        assert g.freeze() is not csr
        assert bfs_distances(g, 0)[n - 1] == 1
        assert bfs_distances(csr, 0)[n - 1] == n - 1


class TestComponentLabelsUnderMutation:
    @pytest.mark.parametrize("nonadjacent", [True, False], ids=["nonadjacent", "any"])
    @pytest.mark.parametrize("n", [30, 90])
    def test_enumerated_pairs_follow_edge_mutations(self, n, nonadjacent, rng):
        # A count above the pool makes the enumerate path return it whole.
        count = n * n
        g = gnp_random_graph(n, 1.2 / n, seed=rng)
        for _step in range(12):
            for _ in range(3):
                _toggle_random_edge(g, rng)
            if rng.random() < 0.5:
                g.freeze()
            pairs = sample_pairs(g, count, seed=rng, require_nonadjacent=nonadjacent)
            assert pairs == _connected_pairs(g, nonadjacent)

    def test_enumerated_pairs_follow_node_mutators(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        everything = 100
        assert sample_pairs(g, everything, require_nonadjacent=False) == [
            (0, 1), (0, 2), (1, 2), (3, 4)]
        g.remove_node(1)  # splits {0, 1, 2}
        assert sample_pairs(g, everything, require_nonadjacent=False) == [(3, 4)]
        u = g.add_node()  # isolated: in no pair
        g.freeze()
        assert sample_pairs(g, everything, require_nonadjacent=False) == [(3, 4)]
        g.add_edge(2, u)
        g.add_edge(u, 3)
        assert sample_pairs(g, everything, require_nonadjacent=False) == [
            (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
        assert sample_pairs(g, everything) == [(2, 3), (2, 4), (4, 5)]

    def test_rejection_path_follows_mutations(self, rng):
        n = 150
        g = gnp_random_graph(n, 1.0 / n, seed=rng)
        for _step in range(10):
            for _ in range(15):
                _toggle_random_edge(g, rng)
            if rng.random() < 0.5:
                g.freeze()
            pairs = sample_pairs(g, 12, seed=rng)
            keep = set(_connected_pairs(g, nonadjacent=True))
            assert pairs == sorted(set(pairs)) and len(pairs) <= 12
            assert set(pairs) <= keep

    @pytest.mark.parametrize("n", [40, 150], ids=["enumerate", "rejection"])
    def test_frozen_snapshot_samples_like_its_graph(self, n):
        g = gnp_random_graph(n, 1.5 / n, seed=11)
        for nonadjacent in (True, False):
            expected = sample_pairs(g, 10, seed=3, require_nonadjacent=nonadjacent)
            assert sample_pairs(g.freeze(), 10, seed=3, require_nonadjacent=nonadjacent) == expected
