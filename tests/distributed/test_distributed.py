"""Tests for the message-passing simulator and the RemSpan protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_from_trees,
    dom_tree_greedy,
    dom_tree_kcover,
    dom_tree_kmis,
    dom_tree_mis,
    StretchGuarantee,
    is_k_connecting_remote_spanner,
    resolve_construction,
)
from repro.distributed import (
    Hello,
    NeighborAdvert,
    PeriodicLinkState,
    ProtocolNode,
    SyncNetwork,
    TreeAdvert,
    run_remspan,
)
from repro.errors import ParameterError, ProtocolError
from repro.graph import ball
from repro.graph.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_gnp,
    star_graph,
)

from ..conftest import (
    CONSTRUCTION_GRID,
    CONSTRUCTION_GRID_IDS,
    assert_validates_like_the_table,
    connected_graphs,
    small_graphs,
)


class TestSimulator:
    def test_never_halting_node_times_out(self):
        class Stubborn(ProtocolNode):
            def on_round(self, round_index, inbox):
                pass  # never halts

        net = SyncNetwork(path_graph(2), Stubborn)
        with pytest.raises(ProtocolError):
            net.run(max_rounds=5)

    def test_factory_identity_enforced(self):
        with pytest.raises(ProtocolError):
            SyncNetwork(path_graph(2), lambda u: ProtocolNode(0))

    def test_message_counting(self):
        res = run_remspan(path_graph(3), "kcover", k=1)
        # Round 1 only originates; round 2 delivers the HELLOs: the middle
        # node receives 2, the ends 1 each.
        assert res.stats.per_round_messages[:2] == [0, 4]
        assert res.communication_rounds == 3


#: A construction per flood radius D (its ``info_radius``).
FLOOD_RADIUS = {
    1: ("kcover", dict(k=1)),
    2: ("kmis", dict(k=2)),
    3: ("greedy", dict(r=3, beta=1)),
}


class TestHello:
    @given(small_graphs(min_nodes=1, max_nodes=12))
    @settings(max_examples=40, deadline=None)
    def test_discovers_exact_neighbors(self, g):
        # RemSpan's step 1: one HELLO exchange yields exactly N_G(u).
        res = run_remspan(g, "kcover", k=1)
        for u in g.nodes():
            assert res.nodes[u].neighbors == g.neighbors(u)


class TestScopedFlood:
    @given(connected_graphs(min_nodes=2, max_nodes=12), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_flood_covers_exactly_the_ball(self, g, ttl):
        # RemSpan's step 2: the TTL-D neighbor flood reaches exactly B_G(u, D).
        kind, kwargs = FLOOD_RADIUS[ttl]
        assert resolve_construction(kind, **kwargs).info_radius == ttl
        res = run_remspan(g, kind, **kwargs)
        assert res.communication_rounds == 1 + 2 * ttl
        for u in g.nodes():
            assert set(res.nodes[u].neighbor_lists) == ball(g, u, ttl)

    def test_ttl_one_is_neighbors_only(self):
        g = cycle_graph(6)
        res = run_remspan(g, "kcover", k=1)
        for u in g.nodes():
            assert set(res.nodes[u].neighbor_lists) - {u} == g.neighbors(u)


class TestTreeAlgorithmRegistry:
    """RemSpan and the periodic regime resolve through the one table."""

    def test_known_kinds(self):
        # Flood radius D = r − 1 + β: 3, 3, 1 and 2 (Algorithm 3).
        for kind, kwargs, info_radius in (
            ("greedy", dict(r=3, beta=1), 3),
            ("mis", dict(r=3), 3),
            ("kcover", dict(k=2), 1),
            ("kmis", dict(k=2), 2),
        ):
            c = resolve_construction(kind, **kwargs)
            assert c.info_radius == info_radius
            assert c.guarantee.alpha >= 1.0
        greedy_beta0 = resolve_construction("greedy", r=3, beta=0)
        assert greedy_beta0.guarantee == StretchGuarantee(1.0, 0.0, 1)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            resolve_construction("nope")
        with pytest.raises(ParameterError):
            resolve_construction("greedy", r=1)
        with pytest.raises(ParameterError):
            resolve_construction("mis", r=1)

    @pytest.mark.parametrize("name,params,valid", CONSTRUCTION_GRID, ids=CONSTRUCTION_GRID_IDS)
    def test_remspan_and_link_state_validate_like_the_table(self, name, params, valid):
        assert_validates_like_the_table(name, params, valid, ("remspan", "link_state"))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "name,params",
        [
            ("kcover", {"k": 1}),
            ("kcover", {"k": 2}),
            ("kcover", {"k": 3}),
            ("kmis", {"k": 1}),
            ("kmis", {"k": 2}),
            ("kmis", {"k": 3}),
            ("mis", {"r": 2}),
            ("mis", {"r": 3}),
            ("greedy", {"r": 3, "beta": 0}),
            ("greedy", {"r": 3, "beta": 1}),
        ],
        ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v.items()),
    )
    def test_every_row_certifies(self, name, params, seed):
        # The stretch oracle certifies the declared guarantee; RemSpan's
        # trees from D-hop knowledge equal the centralized ones.  mis and
        # greedy take no k (it is fixed at 1).
        g = random_connected_gnp(14, 0.3, seed=seed)
        c = resolve_construction(name, **params)
        ref = build_from_trees(g, c.tree_fn, c.guarantee, c.label)
        gu = ref.guarantee
        assert is_k_connecting_remote_spanner(ref.graph, g, gu.k, gu.alpha, gu.beta)
        res = run_remspan(g, name, **params)
        assert res.spanner.trees == ref.trees
        assert res.spanner.guarantee == gu
        assert res.communication_rounds == 1 + 2 * c.info_radius


class TestRemSpanProtocol:
    @pytest.mark.parametrize(
        "kind,kwargs,expected_rounds",
        [
            ("kcover", dict(k=1), 3),  # 2·2−1+0
            ("kcover", dict(k=3), 3),
            ("greedy", dict(r=2, beta=0), 3),
            ("greedy", dict(r=3, beta=1), 7),  # 2·3−1+2
            ("mis", dict(r=2), 5),  # 2·2−1+2·1
            ("mis", dict(r=4), 9),
            ("kmis", dict(k=2), 5),
        ],
    )
    def test_round_complexity_matches_paper(self, kind, kwargs, expected_rounds):
        g = random_connected_gnp(25, 0.12, seed=31)
        res = run_remspan(g, kind, **kwargs)
        assert res.communication_rounds == expected_rounds
        assert res.expected_rounds == expected_rounds

    @given(connected_graphs(min_nodes=2, max_nodes=14))
    @settings(max_examples=25, deadline=None)
    def test_distributed_equals_centralized_kcover(self, g):
        res = run_remspan(g, "kcover", k=2)
        for u in g.nodes():
            assert set(res.nodes[u].tree.edges()) == set(dom_tree_kcover(g, u, 2).edges())

    @given(connected_graphs(min_nodes=2, max_nodes=12))
    @settings(max_examples=15, deadline=None)
    def test_distributed_equals_centralized_greedy(self, g):
        res = run_remspan(g, "greedy", r=3, beta=1)
        for u in g.nodes():
            assert set(res.nodes[u].tree.edges()) == set(
                dom_tree_greedy(g, u, 3, 1).edges()
            )

    @given(connected_graphs(min_nodes=2, max_nodes=12))
    @settings(max_examples=15, deadline=None)
    def test_distributed_equals_centralized_mis_and_kmis(self, g):
        res = run_remspan(g, "mis", r=3)
        for u in g.nodes():
            assert set(res.nodes[u].tree.edges()) == set(dom_tree_mis(g, u, 3).edges())
        res2 = run_remspan(g, "kmis", k=2)
        for u in g.nodes():
            assert set(res2.nodes[u].tree.edges()) == set(dom_tree_kmis(g, u, 2).edges())

    def test_spanner_is_union_of_trees(self):
        g = grid_graph(4, 4)
        res = run_remspan(g, "kcover", k=1)
        expected_edges = set()
        for node in res.nodes.values():
            expected_edges |= set(node.tree.edges())
        assert res.spanner.graph.edge_set() == expected_edges

    def test_every_node_learns_nearby_trees(self):
        # After the run, each node knows T_v for v within the flood radius.
        g = cycle_graph(8)
        res = run_remspan(g, "greedy", r=3, beta=1)  # D = 3
        for u in g.nodes():
            knows = set(res.nodes[u].known_trees)
            assert ball(g, u, 3) <= knows

    def test_disconnected_graph_ok(self):
        g = path_graph(6)
        g.remove_edge(2, 3)
        res = run_remspan(g, "kcover", k=1)
        assert res.spanner.graph.num_nodes == 6

    def test_single_node(self):
        g = star_graph(1)  # just one node
        res = run_remspan(g, "kcover", k=1)
        assert res.spanner.num_edges == 0


class TestPeriodicLinkState:
    def test_converges_from_cold_start(self):
        g = random_connected_gnp(15, 0.15, seed=41)
        sim = PeriodicLinkState(g.copy(), kind="kcover", k=1, period=5)
        sim.run(5 + 2 * sim.flood_time + 1)
        assert sim.current_spanner() == sim.converged_spanner(g)

    @pytest.mark.parametrize("kind,kwargs", [("kcover", dict(k=1)), ("greedy", dict(r=3, beta=1))])
    def test_stabilizes_within_T_plus_2F_after_removal(self, kind, kwargs):
        g = random_connected_gnp(18, 0.15, seed=42)
        sim = PeriodicLinkState(g.copy(), kind=kind, period=7, **kwargs)

        def change(graph):
            graph.remove_edge(*sorted(graph.edges())[0])

        report = sim.stabilization_experiment(warmup=30, change=change)
        assert report.stabilized_step is not None
        assert report.within_bound

    def test_stabilizes_after_addition(self):
        g = random_connected_gnp(15, 0.1, seed=43)
        sim = PeriodicLinkState(g.copy(), kind="kcover", k=1, period=6)

        def change(graph):
            for u in graph.nodes():
                for v in range(u + 1, graph.num_nodes):
                    if not graph.has_edge(u, v):
                        graph.add_edge(u, v)
                        return

        report = sim.stabilization_experiment(warmup=25, change=change)
        assert report.within_bound

    def test_phase_validation(self):
        g = path_graph(4)
        with pytest.raises(ParameterError):
            PeriodicLinkState(g, period=0)
        with pytest.raises(ProtocolError):
            PeriodicLinkState(g, phases=[0, 1])


class TestMessages:
    def test_sizes(self):
        assert Hello(0).size == 1
        adv = NeighborAdvert(0, frozenset({1, 2, 3}), ttl=2)
        assert adv.size == 3
        assert adv.relay().ttl == 1
        tr = TreeAdvert(0, frozenset({(0, 1)}), ttl=1)
        assert tr.size == 1
        assert tr.relay().ttl == 0

    def test_empty_payload_minimum_size(self):
        assert NeighborAdvert(0, frozenset(), ttl=1).size == 1
