"""route_served ≡ route, journey for journey — the query fast path's contract.

:func:`repro.routing.route_served` claims it is :func:`repro.routing.route`
with every per-hop BFS replaced by a table lookup against a maintained
:class:`~repro.dynamic.serving.RoutingService` — nothing more.  The suite
pins that as a property: identical path, delivery, potentials and hop
counts for every pair, on the initial build and after every churn regime,
plus the served mode of :func:`route_all_pairs_stats` aggregating to the
same statistics.  :func:`repro.routing.route_served_batch` is pinned the
same way against ``route_served`` itself: every endpoint, under staleness,
fallback, hop guards and torn rows, with the same errors and the same
refusal counters.
"""

import pytest

from repro.dynamic import RoutingService, SCENARIO_NAMES, make_scenario
from repro.errors import NodeNotFound, ParameterError
from repro.graph.generators import path_graph, random_connected_gnp
from repro.parallel import RouteReader, ShardedRoutingService
from repro.routing import route, route_all_pairs_stats, route_served, route_served_batch


def sample_pairs_all(n, stride=1):
    return [(s, t) for s in range(n) for t in range(n) if s != t][::stride]


def assert_same_journey(service, h, g, pairs, context=""):
    for s, t in pairs:
        ref = route(h, g, s, t)
        fast = route_served(service, s, t)
        assert fast.path == ref.path, f"path diverged for {(s, t)} {context}"
        assert fast.delivered == ref.delivered, f"delivery diverged for {(s, t)} {context}"
        assert fast.potentials == ref.potentials, f"potentials diverged for {(s, t)} {context}"
        assert fast.hops == ref.hops


class TestServedEqualsBfsRoute:
    def test_static_graph_all_pairs(self):
        g = random_connected_gnp(24, 0.15, seed=7)
        service = RoutingService(g, "kcover")
        assert_same_journey(service, service.advertised, g, sample_pairs_all(g.num_nodes))

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_under_churn_every_scenario(self, name):
        sc = make_scenario(name, 30, 20, seed=13)
        service = RoutingService(sc.initial, "kcover")
        for ev in sc.events:
            service.apply(ev)
        h, g = service.advertised, service.graph
        assert_same_journey(service, h, g, sample_pairs_all(g.num_nodes, stride=3), name)

    @pytest.mark.parametrize(
        "method,kwargs", [("mis", {"r": 3}), ("greedy", {"r": 2}), ("kmis", {"k": 2})]
    )
    def test_other_constructions(self, method, kwargs):
        g = random_connected_gnp(20, 0.2, seed=5)
        service = RoutingService(g, method, **kwargs)
        assert_same_journey(
            service, service.advertised, g, sample_pairs_all(g.num_nodes, stride=2), method
        )

    def test_unroutable_pairs_agree(self):
        # A disconnected topology: some pairs are unroutable from the start.
        g = path_graph(6)
        g.remove_edge(2, 3)
        service = RoutingService(g, "kcover")
        assert_same_journey(service, service.advertised, g, sample_pairs_all(6))

    def test_max_hops_guard_matches(self):
        g = random_connected_gnp(18, 0.2, seed=11)
        service = RoutingService(g, "kcover")
        h = service.advertised
        for cap in (0, 1, 2):
            for s, t in sample_pairs_all(g.num_nodes, stride=7):
                ref = route(h, g, s, t, max_hops=cap)
                fast = route_served(service, s, t, max_hops=cap)
                assert fast.path == ref.path and fast.delivered == ref.delivered

    def test_validation_mirrors_route(self):
        g = random_connected_gnp(10, 0.3, seed=3)
        service = RoutingService(g, "kcover")
        with pytest.raises(ParameterError):
            route_served(service, 2, 2)
        with pytest.raises(NodeNotFound):
            route_served(service, 0, 99)


class TestServedStatsMode:
    def test_stats_agree_with_bfs_mode(self):
        sc = make_scenario("failure", 26, 15, seed=17)
        service = RoutingService(sc.initial, "kcover")
        for ev in sc.events:
            service.apply(ev)
        pairs = sample_pairs_all(service.num_nodes, stride=5)
        via_bfs = route_all_pairs_stats(service.advertised, service.graph, pairs=pairs)
        via_tables = route_all_pairs_stats(service=service, pairs=pairs)
        assert via_tables == via_bfs

    def test_service_mode_defaults_h_and_g(self):
        g = random_connected_gnp(14, 0.25, seed=9)
        service = RoutingService(g, "kcover")
        stats = route_all_pairs_stats(service=service)
        assert stats.pairs > 0
        assert stats.invariant_violations == 0

    def test_missing_inputs_rejected(self):
        with pytest.raises(ParameterError):
            route_all_pairs_stats()


class TestServiceReadAccessors:
    def test_distance_matches_advertised_bfs(self):
        from repro.graph import bfs_distances

        g = random_connected_gnp(18, 0.2, seed=21)
        service = RoutingService(g, "kcover")
        h = service.advertised
        for u in range(0, g.num_nodes, 4):
            dist = bfs_distances(h, u)
            for v in range(g.num_nodes):
                expected = dist[v] if dist[v] >= 0 else None
                assert service.distance(u, v) == expected

    def test_distance_validates_ids(self):
        g = path_graph(5)
        service = RoutingService(g, "kcover")
        with pytest.raises(NodeNotFound):
            service.distance(0, 9)
        with pytest.raises(NodeNotFound):
            service.distance(9, 0)

    def test_num_nodes_tracks_joins(self):
        from repro.dynamic import NodeEvent

        g = path_graph(4)
        service = RoutingService(g, "kcover")
        assert service.num_nodes == 4
        service.apply(NodeEvent.join(4))
        assert service.num_nodes == 5


# --------------------------------------------------------------------- #
# route_served_batch ≡ [route_served, ...], on every endpoint
# --------------------------------------------------------------------- #


def refusals():
    from repro import obs

    registry = obs.metrics()
    return (
        registry.counter("reader.stale_refusals"),
        registry.counter("reader.torn_refusals"),
        registry.counter("route.fallback_hops"),
    )


def assert_batch_matches(endpoint, pairs, **kwargs):
    """The batch's rebuilt journeys, outcome arrays and refusal counters
    equal the per-query loop's; returns the reference journeys."""
    before = refusals()
    reference = [route_served(endpoint, s, t, **kwargs) for s, t in pairs]
    mid = refusals()
    batch = route_served_batch(endpoint, [s for s, _ in pairs], [t for _, t in pairs], **kwargs)
    after = refusals()
    results = batch.results()
    assert len(results) == len(reference)
    for (s, t), ref, got in zip(pairs, reference, results):
        assert got.path == ref.path, f"path diverged for {(s, t)} {kwargs}"
        assert got.delivered == ref.delivered, f"delivery diverged for {(s, t)} {kwargs}"
        assert got.potentials == ref.potentials, f"potentials diverged for {(s, t)} {kwargs}"
    assert batch.delivered.tolist() == [r.delivered for r in reference]
    assert batch.hops.tolist() == [r.hops for r in reference]
    assert [b - a for a, b in zip(before, mid)] == [b - a for a, b in zip(mid, after)]
    return reference


class TestBatchEqualsPerQuery:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_routing_service_under_churn(self, name):
        sc = make_scenario(name, 30, 20, seed=13)
        service = RoutingService(sc.initial, "kcover")
        for ev in sc.events:
            service.apply(ev)
        refs = assert_batch_matches(service, sample_pairs_all(service.num_nodes, stride=3))
        assert any(r.delivered for r in refs)

    def test_unroutable_pairs(self):
        g = path_graph(6)
        g.remove_edge(2, 3)
        service = RoutingService(g, "kcover")
        refs = assert_batch_matches(service, sample_pairs_all(6))
        assert not all(r.delivered for r in refs)

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_max_hops_guard(self, cap):
        g = random_connected_gnp(18, 0.2, seed=11)
        service = RoutingService(g, "kcover")
        assert_batch_matches(service, sample_pairs_all(g.num_nodes, stride=5), max_hops=cap)

    def test_finishing_steps_and_clock(self):
        g = path_graph(8)
        g.remove_edge(5, 6)
        service = RoutingService(g, "kcover")
        pairs = [(0, 5), (1, 2), (3, 7), (7, 6), (2, 0)]
        batch = route_served_batch(service, [s for s, _ in pairs], [t for _, t in pairs])
        assert len(batch.clock) == len(batch.steps) + 1 and batch.clock[0] == 0.0
        assert (batch.clock[1:] >= batch.clock[:-1]).all()
        for i, res in enumerate(batch.results()):
            # A delivered query finishes at its last hop; a dropped one at
            # the step that found no hop.
            assert batch.finished[i] == res.hops + (0 if res.delivered else 1)
        assert batch.finished.tolist() == [5, 1, 1, 1, 2]
        assert batch.latencies.tolist() == batch.clock[batch.finished].tolist()

    def test_empty_batch(self):
        service = RoutingService(path_graph(4), "kcover")
        batch = route_served_batch(service, [], [])
        assert batch.results() == []
        assert batch.steps == [] and batch.latencies.size == 0
        assert batch.delivered.size == batch.hops.size == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sharded_service_and_reader(self, workers):
        sc = make_scenario("nodechurn", 40, 20, seed=7)
        with ShardedRoutingService(sc.initial, "kcover", workers=workers) as service:
            for lo in range(0, len(sc.events), 5):
                service.apply_batch(sc.events[lo : lo + 5])
            pairs = sample_pairs_all(service.num_nodes, stride=4)
            refs = assert_batch_matches(service, pairs)
            with RouteReader(service.reader_handle()) as reader:
                assert assert_batch_matches(reader, pairs) == refs
                assert assert_batch_matches(reader, pairs, hop_fallback=True) == refs
                for cap in (0, 1, 2):
                    assert_batch_matches(reader, pairs, max_hops=cap)

    def test_stale_reader_while_a_repair_is_pending(self):
        sc = make_scenario("mobility", 30, 5, seed=3)
        with ShardedRoutingService(sc.initial, "kcover", workers=2) as service:
            service._post_degraded()  # a repair started: every row lags by one
            fresh = list(range(0, service.num_nodes, 3))
            service._stamps[fresh, 0] = service.generation + 1  # ... but these
            pairs = sample_pairs_all(service.num_nodes, stride=5)
            with RouteReader(service.reader_handle(), max_staleness=0) as reader:
                before = refusals()
                refs = assert_batch_matches(reader, pairs)
                assert refusals()[0] > before[0]  # rows really were refused
                assert any(r.delivered for r in refs) and not all(r.delivered for r in refs)
                assisted = assert_batch_matches(reader, pairs, hop_fallback=True)
                assert sum(r.delivered for r in assisted) > sum(r.delivered for r in refs)
            service._publish_directory()

    def test_fallback_over_crash_dormant_entries(self):
        sc = make_scenario("mobility", 30, 5, seed=5)
        with ShardedRoutingService(sc.initial, "kcover", workers=2) as service:
            owner = service._pool.matrix_owner("serve:tables")
            for u in range(0, service.num_nodes, 4):  # a crash left these rows −1
                with owner.row_write(u) as row:
                    row[:] = -1
            pairs = sample_pairs_all(service.num_nodes, stride=5)
            with RouteReader(service.reader_handle()) as reader:
                plain = assert_batch_matches(reader, pairs)
                before = refusals()
                assisted = assert_batch_matches(reader, pairs, hop_fallback=True)
                assert refusals()[2] > before[2]  # fallback hops were taken
                assert sum(r.delivered for r in assisted) > sum(r.delivered for r in plain)
                assert any(float("inf") in r.potentials for r in assisted if r.delivered)

    def test_torn_rows_refused_like_the_loop(self, monkeypatch):
        from repro.parallel import shm

        sc = make_scenario("mobility", 24, 5, seed=9)
        with ShardedRoutingService(sc.initial, "kcover", workers=1) as service:
            owner = service._pool.matrix_owner("serve:tables")
            pairs = sample_pairs_all(service.num_nodes, stride=3)
            with RouteReader(service.reader_handle()) as reader:
                monkeypatch.setattr(shm, "_READ_RETRIES", 20)
                owner.row_versions[pairs[0][0]] += 1  # a writer died inside row 0's write
                try:
                    before = refusals()
                    refs = assert_batch_matches(reader, pairs)
                    assert refusals()[1] > before[1]
                    assert not refs[0].delivered and refs[0].potentials == [float("inf")]
                finally:
                    owner.row_versions[pairs[0][0]] += 1

    @pytest.mark.parametrize("max_staleness", [None, 0])
    def test_reader_resynced_onto_a_compacted_service_mid_batch(self, max_staleness):
        sc = make_scenario("nodechurn", 30, 25, seed=31)
        with ShardedRoutingService(sc.initial, "kcover", workers=1) as service:
            for ev in sc.events:
                service.apply(ev)
            live = [u for u in range(service.num_nodes) if service.graph.neighbors(u)]
            source = live[-1]
            assert source >= len(live)  # past the compacted id space
            targets = live[:5]
            with RouteReader(service.reader_handle(), max_staleness=max_staleness) as reader:
                gather = reader._gather_hops

                def compact_then_gather(us, vs):
                    # The batch was checked against the old n; the first
                    # step's resync sees the compacted, smaller handle.
                    del reader._gather_hops
                    service.compact()
                    return gather(us, vs)

                reader._gather_hops = compact_then_gather
                # An unknown source row must not pass for a stale one.
                with pytest.raises(NodeNotFound):
                    route_served_batch(reader, [source] * len(targets), targets)
                with pytest.raises(NodeNotFound):  # as the per-query loop raises
                    route_served(reader, source, targets[0])


def assert_same_errors(endpoint):
    """Bad batches raise what the per-query loop raises, for the first
    offending query."""
    cases = [
        ([0, 2, 4], [1, 2, 5], ParameterError),  # a query to itself
        ([0, 1], [3, 99], NodeNotFound),  # unknown target
        ([0, -1], [3, 4], NodeNotFound),  # unknown source
        ([0, 99], [3, 99], ParameterError),  # self-route wins, as in route_served
        ([0, 99], [-3, 4], NodeNotFound),  # first offending query decides
    ]
    for sources, targets, error in cases:
        with pytest.raises(error) as loop_err:
            for s, t in zip(sources, targets):
                route_served(endpoint, s, t)
        with pytest.raises(error) as batch_err:
            route_served_batch(endpoint, sources, targets)
        assert str(batch_err.value) == str(loop_err.value)


class TestBatchValidation:
    def test_errors_mirror_the_per_query_loop(self):
        g = random_connected_gnp(10, 0.3, seed=3)
        assert_same_errors(RoutingService(g, "kcover"))
        with ShardedRoutingService(g, "kcover", workers=1) as service:
            with RouteReader(service.reader_handle()) as reader:
                assert_same_errors(reader)
                with pytest.raises(ParameterError):
                    reader.next_hops([1, 2], [3, 2])
                with pytest.raises(NodeNotFound):
                    reader.distances([1, 2], [3, 10])

    def test_unknown_source_unchecked_without_a_step(self):
        service = RoutingService(path_graph(5), "kcover")
        assert route_served(service, 99, 2, max_hops=0).path == [99]
        assert route_served_batch(service, [99], [2], max_hops=0).results()[0].path == [99]
        with pytest.raises(NodeNotFound):
            route_served_batch(service, [99], [7], max_hops=0)

    def test_length_mismatch(self):
        service = RoutingService(path_graph(5), "kcover")
        with pytest.raises(ParameterError):
            route_served_batch(service, [0, 1], [2])

    def test_endpoint_lookups_check_as_vectors(self):
        import numpy as np

        g = random_connected_gnp(12, 0.3, seed=4)
        service = RoutingService(g, "kcover")
        us, vs = np.array([0, 3, 5]), np.array([4, 1, 9])
        assert service.next_hops(us, vs).tolist() == [
            -1 if service.next_hop(u, v) is None else service.next_hop(u, v) for u, v in zip(us, vs)
        ]
        assert service.distances(us, us).tolist() == [0, 0, 0]
        with pytest.raises(ParameterError):
            service.next_hops(np.array([1, 2]), np.array([3, 2]))
        with pytest.raises(NodeNotFound):
            service.next_hops(np.array([1, -2]), np.array([3, 4]))
        with pytest.raises(NodeNotFound):
            service.distances(np.array([1, 2]), np.array([3, 12]))
