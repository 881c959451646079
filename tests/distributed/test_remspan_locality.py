"""Locality tests: what a RemSpan node actually knows when it computes.

The paper's selling point is that node decisions need only the
(r−1+β)-hop neighborhood.  These tests open up the protocol node and
check the *information boundary* directly — the local graph contains
exactly the edges incident to the flood ball, no more.
"""

from repro.distributed import SyncNetwork
from repro.core import resolve_construction
from repro.distributed.protocols.remspan import RemSpanNode
from repro.graph import ball
from repro.graph.generators import cycle_graph, grid_graph, random_connected_gnp


def _run_nodes(g, kind, **kwargs):
    construction = resolve_construction(kind, **kwargs)
    algo, ttl = construction.tree_fn, construction.info_radius
    net = SyncNetwork(g, lambda u: RemSpanNode(u, algo, ttl))
    net.run()
    return net, ttl


class TestInformationBoundary:
    def test_neighbor_lists_cover_exactly_the_flood_ball(self):
        g = grid_graph(5, 5)
        net, ttl = _run_nodes(g, "greedy", r=3, beta=1)  # ttl = 3
        for u, node in net.nodes.items():
            known_origins = set(node.neighbor_lists)
            assert known_origins == ball(g, u, ttl)

    def test_local_graph_edges_are_real(self):
        g = random_connected_gnp(20, 0.15, seed=13)
        net, _ttl = _run_nodes(g, "kcover", k=2)
        for u, node in net.nodes.items():
            local = node._local_graph()
            for a, b in local.edges():
                assert g.has_edge(a, b)

    def test_local_graph_contains_all_ball_incident_edges(self):
        g = cycle_graph(10)
        net, ttl = _run_nodes(g, "mis", r=3)  # ttl = 3
        for u, node in net.nodes.items():
            local = node._local_graph()
            for x in ball(g, u, ttl):
                for y in g.neighbors(x):
                    assert local.has_edge(x, y)

    def test_far_edges_unknown(self):
        # On a long cycle with ttl=1, a node must not know edges between
        # nodes ≥ 3 hops away.
        g = cycle_graph(12)
        net, _ttl = _run_nodes(g, "kcover", k=1)  # ttl = 1
        node0 = net.nodes[0]
        local = node0._local_graph()
        assert not local.has_edge(5, 6)
        assert not local.has_edge(6, 7)

    def test_tree_knowledge_radius(self):
        g = cycle_graph(9)
        net, ttl = _run_nodes(g, "kmis", k=2)  # ttl = 2
        for u, node in net.nodes.items():
            assert set(node.known_trees) == ball(g, u, ttl)
