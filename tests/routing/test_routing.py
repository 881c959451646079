"""Tests for greedy link-state routing and advertisement accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_k_connecting_spanner, build_remote_spanner
from repro.errors import ParameterError
from repro.graph import Graph, bfs_distances
from repro.graph.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_gnp,
)
from repro.routing import (
    full_link_state_cost,
    next_hop,
    route,
    route_all_pairs_stats,
    routing_table,
    routing_table_scan,
    spanner_advertisement_cost,
)

from ..conftest import connected_graphs, graph_with_subgraph


class TestNextHop:
    def test_next_hop_moves_closer(self):
        g = grid_graph(4, 4)
        rs = build_k_connecting_spanner(g, k=1)
        hop = next_hop(rs.graph, g, 0, 15)
        assert hop in g.neighbors(0)
        assert bfs_distances(g, hop)[15] < bfs_distances(g, 0)[15]

    def test_unroutable_returns_none(self):
        g = path_graph(4)
        g.remove_edge(1, 2)
        h = g.spanning_subgraph([])
        assert next_hop(h, g, 0, 3) is None

    def test_routing_table_complete_for_exact_spanner(self):
        g = grid_graph(3, 4)
        rs = build_k_connecting_spanner(g, k=1)
        table = routing_table(rs.graph, g, 0)
        assert set(table) == {v for v in g.nodes() if v != 0}

    def test_source_equals_target_rejected(self):
        # u == v used to raise NodeNotFound for a node that exists; the
        # error now matches route()'s contract.
        g = grid_graph(3, 3)
        with pytest.raises(ParameterError, match="source equals target"):
            next_hop(g, g, 4, 4)


class TestTableKernels:
    """The neighbor-sourced kernel must equal the per-destination scan."""

    @given(graph_with_subgraph(min_nodes=2, max_nodes=10))
    @settings(max_examples=60, deadline=None)
    def test_kernels_agree_on_arbitrary_subgraphs(self, pair):
        g, h = pair
        for u in g.nodes():
            assert routing_table(h, g, u) == routing_table_scan(h, g, u)

    def test_kernels_agree_on_udg_spanner(self):
        from repro.experiments import largest_component, scaled_udg

        g_full, _pts = scaled_udg(120, target_degree=10.0, seed=44)
        g, _ids = largest_component(g_full)
        rs = build_remote_spanner(g, epsilon=0.5)
        for u in range(0, g.num_nodes, 7):
            assert routing_table(rs.graph, g, u) == routing_table_scan(rs.graph, g, u)

    def test_isolated_source_has_empty_table(self):
        g = Graph(4, [(1, 2), (2, 3)])
        h = g.spanning_subgraph([(1, 2)])
        assert routing_table(h, g, 0) == {}
        assert routing_table_scan(h, g, 0) == {}

    def test_table_next_hop_and_route_agree(self):
        """table[v] == next_hop(u, v) == route's first hop, pointwise."""
        from repro.experiments import largest_component, scaled_udg

        g_full, _pts = scaled_udg(80, target_degree=9.0, seed=45)
        g, _ids = largest_component(g_full)
        rs = build_k_connecting_spanner(g, k=1)
        h = rs.graph
        for u in range(0, g.num_nodes, 11):
            table = routing_table(h, g, u)
            for v in g.nodes():
                if v == u:
                    continue
                hop = next_hop(h, g, u, v)
                assert table.get(v) == hop
                if hop is not None:
                    res = route(h, g, u, v)
                    assert res.path[1] == hop


class TestGreedyRoute:
    @given(connected_graphs(min_nodes=3, max_nodes=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_spanner_routes_optimally(self, g, data):
        """On a (1,0)-remote-spanner, greedy routes have length d_G."""
        rs = build_k_connecting_spanner(g, k=1)
        s = data.draw(st.integers(0, g.num_nodes - 1))
        t = data.draw(st.integers(0, g.num_nodes - 1))
        if s == t:
            return
        res = route(rs.graph, g, s, t)
        assert res.delivered
        assert res.hops == bfs_distances(g, s)[t]

    @given(connected_graphs(min_nodes=3, max_nodes=12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_potential_decreases_by_one_each_hop(self, g, data):
        """§1's invariant: d_{H_{u'}}(u',v) ≤ d_{H_u}(u,v) − 1."""
        rs = build_remote_spanner(g, epsilon=0.5)
        s = data.draw(st.integers(0, g.num_nodes - 1))
        t = data.draw(st.integers(0, g.num_nodes - 1))
        if s == t:
            return
        res = route(rs.graph, g, s, t)
        assert res.delivered
        for a, b in zip(res.potentials, res.potentials[1:]):
            assert b <= a - 1

    def test_route_respects_guarantee_bound(self):
        g = cycle_graph(11)
        rs = build_remote_spanner(g, epsilon=1.0)  # (2, −1)
        for t in range(2, 9):
            res = route(rs.graph, g, 0, t)
            d = bfs_distances(g, 0)[t]
            assert res.delivered
            assert res.hops <= 2 * d - 1

    def test_source_equals_target_rejected(self):
        g = path_graph(3)
        with pytest.raises(ParameterError):
            route(g, g, 1, 1)

    def test_undeliverable_reported(self):
        g = path_graph(5)
        h = g.spanning_subgraph([])
        res = route(h, g, 0, 4)
        assert not res.delivered
        assert res.hops <= 1


class TestRouteStats:
    def test_stats_on_exact_spanner(self):
        g = random_connected_gnp(14, 0.2, seed=3)
        rs = build_k_connecting_spanner(g, k=1)
        stats = route_all_pairs_stats(rs.graph, g)
        assert stats.delivered == stats.pairs
        assert stats.max_stretch == 1.0
        assert stats.invariant_violations == 0

    def test_stats_with_pair_subset(self):
        g = grid_graph(3, 3)
        rs = build_k_connecting_spanner(g, k=1)
        stats = route_all_pairs_stats(rs.graph, g, pairs=[(0, 8), (8, 0)])
        assert stats.pairs == 2

    def test_stats_skip_disconnected_pairs(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
        stats = route_all_pairs_stats(g, g)
        assert stats.pairs == 4 * 3 + 3 * 2  # ordered pairs inside each component
        assert stats.delivered == stats.pairs and stats.max_stretch == 1.0

    def test_stats_follow_graph_mutation(self):
        # Each call measures d_G on the graph as it is now, not as it was.
        g = path_graph(6)
        pairs = [(0, 5), (5, 0), (1, 4)]
        assert route_all_pairs_stats(g, g, pairs=pairs).pairs == 3
        g.remove_edge(2, 3)
        assert route_all_pairs_stats(g, g, pairs=pairs).pairs == 0
        g.add_edge(2, 3)
        g.add_edge(0, 5)
        stats = route_all_pairs_stats(g, g, pairs=pairs)
        assert stats.pairs == stats.delivered == 3
        assert stats.max_overhead == 0 and stats.max_stretch == 1.0


class TestOverhead:
    def test_full_link_state_counts_degrees(self):
        g = grid_graph(3, 3)
        cost = full_link_state_cost(g)
        assert cost.entries_per_period == 2 * g.num_edges
        assert cost.originators == g.num_nodes

    def test_spanner_cost_counts_tree_edges(self):
        g = random_connected_gnp(16, 0.25, seed=4)
        rs = build_k_connecting_spanner(g, k=1)
        cost = spanner_advertisement_cost(rs)
        assert cost.entries_per_period == sum(t.num_edges for t in rs.trees.values())
        assert cost.max_single_advert <= g.max_degree()

    def test_ratio(self):
        g = random_connected_gnp(20, 0.35, seed=5)
        rs = build_k_connecting_spanner(g, k=1)
        ratio = spanner_advertisement_cost(rs).ratio_to(full_link_state_cost(g))
        assert 0.0 < ratio <= 1.0

    def test_zero_entry_baseline_is_not_free(self):
        # Regression: a nonzero cost against an empty baseline used to
        # report 0.0 — "free" relative to advertising nothing at all.
        from repro.routing import AdvertisementCost

        empty = AdvertisementCost(0, 0, 0)
        assert AdvertisementCost(10, 3, 4).ratio_to(empty) == float("inf")
        assert empty.ratio_to(empty) == 0.0
        assert empty.ratio_to(AdvertisementCost(10, 3, 4)) == 0.0


class TestRouteResultHops:
    def test_default_result_has_zero_hops(self):
        # Regression: an empty path used to underflow to −1 hops.
        from repro.routing import RouteResult

        assert RouteResult().hops == 0
        assert RouteResult(path=[3]).hops == 0
        assert RouteResult(path=[3, 4, 5]).hops == 2
