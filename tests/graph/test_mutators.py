"""Churn mutators: ``add_node`` / ``remove_node`` and invalidation contracts.

Every mutator must bump ``Graph.version`` (once per successful call) and
drop the cached CSR snapshot — the invariants the dynamic subsystem leans
on.
"""

import pytest

from repro.errors import GraphError, NodeNotFound
from repro.graph import Graph, bfs_distances
from repro.graph.generators import random_connected_gnp


class TestAddNode:
    def test_returns_new_dense_id(self):
        g = Graph(3, [(0, 1)])
        assert g.add_node() == 3
        assert g.num_nodes == 4
        assert g.degree(3) == 0
        g.add_edge(3, 0)  # fresh id is immediately usable
        assert g.has_edge(0, 3)

    def test_add_nodes_range(self):
        g = Graph(2)
        ids = g.add_nodes(3)
        assert list(ids) == [2, 3, 4]
        assert g.num_nodes == 5
        with pytest.raises(GraphError):
            g.add_nodes(-1)

    def test_bumps_version_and_invalidates_csr(self):
        g = Graph(3, [(0, 1), (1, 2)])
        snap = g.freeze()
        v0 = g.version
        g.add_node()
        assert g.version == v0 + 1
        assert g.freeze() is not snap
        assert g.freeze().num_nodes == 4


class TestRemoveNode:
    def test_isolates_and_returns_edge_count(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (2, 3)])
        assert g.remove_node(0) == 3
        assert g.num_nodes == 5  # id space never shrinks
        assert g.degree(0) == 0
        assert g.edge_set() == {(2, 3)}

    def test_symmetric_adjacency_cleanup(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        g.remove_node(1)
        for u in g.nodes():
            assert 1 not in g.neighbors(u)
        assert g.num_edges == 0

    def test_single_version_bump_per_call(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
        v0 = g.version
        g.remove_node(0)
        assert g.version == v0 + 1

    def test_isolated_node_is_a_no_op(self):
        g = Graph(3, [(0, 1)])
        v0 = g.version
        assert g.remove_node(2) == 0
        assert g.version == v0  # nothing changed, nothing invalidated

    def test_id_can_be_repopulated(self):
        g = Graph(3, [(0, 1), (1, 2)])
        g.remove_node(1)
        g.add_edge(1, 0)
        assert g.edge_set() == {(0, 1)}

    def test_out_of_range_rejected(self):
        g = Graph(2)
        with pytest.raises(NodeNotFound):
            g.remove_node(2)


class TestInvalidation:
    def test_every_mutator_bumps_version(self):
        g = Graph(4, [(0, 1)])
        versions = [g.version]
        g.add_edge(1, 2)
        versions.append(g.version)
        g.remove_edge(0, 1)
        versions.append(g.version)
        g.add_node()
        versions.append(g.version)
        g.remove_node(1)
        versions.append(g.version)
        assert versions == sorted(set(versions)), "versions must strictly increase"

    def test_csr_snapshot_tracks_mutators(self):
        g = random_connected_gnp(20, 0.2, seed=1)
        for mutate in (
            lambda: g.add_node(),
            lambda: g.add_edge(0, g.num_nodes - 1),
            lambda: g.remove_node(0),
        ):
            g.freeze()
            mutate()
            assert g.freeze().edge_set() == g.edge_set()
            assert g.freeze().num_nodes == g.num_nodes

    # A 4-node Graph runs the set loops; its snapshot runs the CSR engine.
    @pytest.mark.parametrize("on", [lambda g: g, Graph.freeze], ids=["sets", "csr"])
    def test_distances_follow_node_mutators(self, on):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert bfs_distances(on(g), 0) == [0, 1, 2, 3]
        g.freeze()
        g.remove_node(2)  # drops the snapshot: no query may see the old rows
        assert bfs_distances(on(g), 0) == [0, 1, -1, -1]
        u = g.add_node()
        g.add_edge(1, u)
        assert bfs_distances(on(g), 0) == [0, 1, -1, -1, 2]
