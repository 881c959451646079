"""Tests for graph ops, distance aggregates, and serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import (
    Graph,
    all_pairs_distances,
    bfs_distances,
    diameter,
    difference,
    distance_matrix,
    eccentricity,
    edge_union,
    induced_subgraph,
    intersection,
    nonadjacent_pairs,
    remove_nodes,
    sample_pairs,
    union,
)
from repro.graph import io as gio
from repro.graph.generators import cycle_graph, gnp_random_graph, grid_graph, path_graph

from ..conftest import small_graphs


class TestOps:
    def test_union(self):
        a = Graph(4, [(0, 1)])
        b = Graph(4, [(1, 2)])
        u = union([a, b])
        assert u.edge_set() == {(0, 1), (1, 2)}

    def test_union_rejects_mismatched(self):
        with pytest.raises(GraphError):
            union([Graph(3), Graph(4)])
        with pytest.raises(GraphError):
            union([])

    def test_edge_union(self):
        g = edge_union(5, [[(0, 1)], [(1, 2), (0, 1)]])
        assert g.num_edges == 2

    def test_induced_subgraph_reindexes(self):
        g = path_graph(5)
        h, originals = induced_subgraph(g, [1, 2, 4])
        assert originals == [1, 2, 4]
        assert h.num_nodes == 3
        assert h.edge_set() == {(0, 1)}  # only 1-2 survives

    def test_remove_nodes_keeps_id_space(self):
        g = cycle_graph(5)
        h = remove_nodes(g, [0])
        assert h.num_nodes == 5
        assert h.degree(0) == 0
        assert h.num_edges == 3

    def test_difference_and_intersection(self):
        g = Graph(3, [(0, 1), (1, 2)])
        h = Graph(3, [(1, 2)])
        assert difference(g, h).edge_set() == {(0, 1)}
        assert intersection(g, h).edge_set() == {(1, 2)}
        with pytest.raises(GraphError):
            difference(g, Graph(4))
        with pytest.raises(GraphError):
            intersection(g, Graph(4))


class TestDistances:
    def test_diameter_cycle(self):
        assert diameter(cycle_graph(8)) == 4
        assert diameter(Graph(1)) == 0

    def test_eccentricity(self):
        g = path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

    def test_all_pairs_vs_matrix(self):
        g = grid_graph(3, 3)
        apsp = all_pairs_distances(g)
        mat = distance_matrix(g)
        for u in g.nodes():
            for v in g.nodes():
                assert apsp[u][v] == mat[u, v]

    def test_nonadjacent_pairs(self):
        g = path_graph(4)
        assert set(nonadjacent_pairs(g)) == {(0, 2), (0, 3), (1, 3)}

    def test_sample_pairs_respects_constraints(self):
        g = gnp_random_graph(30, 0.1, seed=3)
        pairs = sample_pairs(g, 10, seed=1)
        for u, v in pairs:
            assert u < v
            assert not g.has_edge(u, v)

    def test_sample_pairs_small_graph_enumerates(self):
        g = path_graph(4)
        pairs = sample_pairs(g, 100, seed=0)
        assert set(pairs) == {(0, 2), (0, 3), (1, 3)}

    def test_sample_pairs_deterministic(self):
        g = gnp_random_graph(40, 0.1, seed=5)
        assert sample_pairs(g, 12, seed=9) == sample_pairs(g, 12, seed=9)


def _sparse_graph(n: int, seed: int, degree: float) -> Graph:
    """G(n, degree/n): below degree 1 it is usually split into many components."""
    return gnp_random_graph(n, min(degree / n, 1.0), seed=seed)


class TestSamplePairsConnectivity:
    """``require_connected`` keeps exactly the pairs G connects, on both paths."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 10**6),
           degree=st.floats(0.3, 3.0), count=st.integers(1, 300),
           nonadjacent=st.booleans())
    def test_enumerate_path_is_exact(self, n, seed, degree, count, nonadjacent):
        g = _sparse_graph(n, seed, degree)
        dist = [bfs_distances(g, u) for u in range(n)]
        connected = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if dist[u][v] >= 0 and not (nonadjacent and g.has_edge(u, v))]
        pairs = sample_pairs(g, count, seed=seed, require_nonadjacent=nonadjacent)
        assert all(dist[u][v] >= 0 for u, v in pairs)
        if count >= len(connected):
            assert pairs == connected
        else:
            assert len(pairs) == count and set(pairs) <= set(connected)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(65, 200), seed=st.integers(0, 10**6),
           degree=st.floats(0.3, 3.0), count=st.integers(1, 20),
           nonadjacent=st.booleans())
    def test_rejection_path_keeps_connected_pairs(self, n, seed, degree, count, nonadjacent):
        g = _sparse_graph(n, seed, degree)
        pairs = sample_pairs(g, count, seed=seed, require_nonadjacent=nonadjacent)
        assert len(pairs) <= count and pairs == sorted(set(pairs))
        for u, v in pairs:
            assert 0 <= u < v < n and bfs_distances(g, u)[v] >= 0
            assert not (nonadjacent and g.has_edge(u, v))

    def test_seeded_draws_are_pinned(self):
        # One seeded call per path, pinned literally: the connectivity
        # filter must never move an rng draw.
        enumerated = _sparse_graph(40, 2, 2.0)  # 13 components, pool path
        assert sample_pairs(enumerated, 8, seed=4) == [
            (2, 5), (11, 30), (16, 25), (21, 22), (23, 28), (23, 31), (25, 31), (25, 36)]
        rejected = _sparse_graph(150, 6, 1.8)  # 32 components, rejection path
        assert sample_pairs(rejected, 8, seed=4) == [
            (20, 118), (26, 87), (32, 81), (42, 56), (76, 132), (101, 130), (108, 141),
            (141, 146)]


class TestIO:
    def test_roundtrip(self, tmp_path):
        g = gnp_random_graph(12, 0.3, seed=1)
        path = tmp_path / "g.txt"
        gio.save(g, path)
        assert gio.load(path) == g

    def test_loads_rejects_garbage(self):
        with pytest.raises(GraphError):
            gio.loads("hello")
        with pytest.raises(GraphError):
            gio.loads("n x")
        with pytest.raises(GraphError):
            gio.loads("n 3\nedge 0 1")

    @given(small_graphs())
    def test_roundtrip_property(self, g):
        assert gio.loads(gio.dumps(g)) == g

    def test_networkx_roundtrip(self):
        g = grid_graph(3, 4)
        nxg = gio.to_networkx(g)
        back, labels = gio.from_networkx(nxg)
        assert back.num_edges == g.num_edges
        assert len(labels) == g.num_nodes
