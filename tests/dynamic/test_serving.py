"""The serving layer's contract: tables bit-identical to from-scratch.

:class:`~repro.dynamic.serving.RoutingService` claims that after *every*
event its per-node next-hop tables equal a from-scratch
:func:`~repro.routing.tables.routing_table` on the live advertised
sub-graph — entries, omissions and smallest-id tie-breaks included.  The
suite asserts exactly that across all scenario generators (edge *and*
node churn), arbitrary random streams, batched ticks, every supported
construction, and the full-refresh fallback path.
"""

import pytest

from repro.dynamic import (
    EdgeEvent,
    NodeEvent,
    RoutingService,
    SCENARIO_NAMES,
    make_scenario,
)
from repro.errors import GraphError, NodeNotFound, ParameterError
from repro.graph.generators import random_connected_gnp
from repro.routing import routing_table

from .test_maintainer import random_event_stream


def assert_tables_match_scratch(service, context=""):
    h, g = service.advertised, service.graph
    for u in g.nodes():
        expected = routing_table(h, g, u)
        assert service.table(u) == expected, f"table of {u} diverged {context}"


class TestEveryPrefix:
    """The acceptance property: table agreement after every event."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenarios_every_event(self, name):
        sc = make_scenario(name, 35, 50, seed=17)
        service = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        for i, ev in enumerate(sc.events, start=1):
            report = service.apply(ev)
            assert report.events == 1
            assert_tables_match_scratch(service, f"{name} after event {i}")
        assert service.graph == sc.final
        assert service.events_applied == sc.num_events

    def test_arbitrary_stream_every_event(self):
        initial, events = random_event_stream(30, 60, seed=41)
        service = RoutingService(initial, "kcover", rebuild_fraction=1.0)
        for i, ev in enumerate(events, start=1):
            service.apply(ev)
            assert_tables_match_scratch(service, f"after event {i}")

    @pytest.mark.parametrize(
        "method,kwargs",
        [("mis", {"r": 3}), ("greedy", {"r": 2}), ("kmis", {"k": 2})],
    )
    def test_other_constructions_stay_exact(self, method, kwargs):
        sc = make_scenario("nodechurn", 30, 30, seed=21)
        service = RoutingService(sc.initial, method, rebuild_fraction=1.0, **kwargs)
        for i, ev in enumerate(sc.events, start=1):
            service.apply(ev)
            assert_tables_match_scratch(service, f"{method} after event {i}")


class TestBatchedTicks:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_ticks_match_scratch(self, name):
        sc = make_scenario(name, 35, 45, seed=29)
        service = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        events = list(sc.events)
        for lo in range(0, len(events), 6):
            report = service.apply_batch(events[lo : lo + 6])
            assert report.events == len(events[lo : lo + 6])
            assert_tables_match_scratch(service, f"{name} after tick at {lo}")
        assert service.graph == sc.final

    def test_apply_stream_ticked_equals_singles(self):
        sc = make_scenario("failure", 30, 40, seed=5)
        singles = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        singles.apply_stream(sc.events)
        ticked = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        reports = ticked.apply_stream(sc.events, tick=8)
        assert len(reports) == 5
        for u in ticked.graph.nodes():
            assert ticked.table(u) == singles.table(u)

    def test_mid_batch_error_resyncs_tables(self):
        # The maintainer rebuilds over a partially-applied bad tick; the
        # served matrices must resync (and resize) with it.
        from repro.errors import GraphError

        g = random_connected_gnp(25, 0.12, seed=14)
        service = RoutingService(g, "kcover")
        n = g.num_nodes
        with pytest.raises(GraphError):
            service.apply_batch(
                [NodeEvent.join(n), EdgeEvent.add(n, 0), NodeEvent.join(999)]
            )
        assert service.graph.num_nodes == n + 1  # the valid prefix landed
        assert_tables_match_scratch(service, "after failed batch")
        assert service.table(n) != {}  # the joined node is served too

    @pytest.mark.parametrize("bad", [NodeEvent.join(999), EdgeEvent.add(0, 999)])
    def test_malformed_event_alone_costs_nothing(self, bad):
        # A malformed event that touched nothing must not pay a rebuild, a
        # refresh or a resync delta — through apply_batch or apply.
        service = RoutingService(random_connected_gnp(60, 0.08, seed=2), "kcover")
        published = []
        service.subscribe(lambda report, resync: published.append((report, resync)))

        def counters():
            return (service.maintainer.full_rebuilds, service.full_refreshes,
                    service.rows_recomputed, service.tables_recomputed,
                    service.events_applied)

        before = counters()
        for apply in (lambda: service.apply_batch([bad]), lambda: service.apply(bad)):
            with pytest.raises(GraphError):
                apply()
            assert counters() == before
        assert published == []

    def test_flapping_tick_is_noop(self):
        g = random_connected_gnp(25, 0.12, seed=3)
        service = RoutingService(g, "kcover")
        u, v = next(iter(g.edges()))
        report = service.apply_batch([EdgeEvent.remove(u, v), EdgeEvent.add(u, v)])
        assert report.changed is False
        assert report.dirty_rows == 0 and report.dirty_tables == 0


class TestFallbackAndCounters:
    def test_full_refresh_path_stays_exact(self):
        sc = make_scenario("nodechurn", 30, 25, seed=13)
        service = RoutingService(sc.initial, "kcover", rebuild_fraction=0.01)
        for i, ev in enumerate(sc.events, start=1):
            service.apply(ev)
            assert_tables_match_scratch(service, f"after event {i}")
        assert service.maintainer.full_rebuilds > 0
        assert service.full_refreshes > 0

    def test_counters_measure_serving_work(self):
        sc = make_scenario("failure", 40, 30, seed=9)
        service = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        assert service.rows_recomputed == 0  # initial population not counted
        reports = service.apply_stream(sc.events)
        assert service.events_applied == 30
        assert service.rows_recomputed == sum(r.dirty_rows for r in reports)
        assert service.tables_recomputed == sum(r.dirty_tables for r in reports)
        assert service.entries_updated == sum(r.entries_updated for r in reports)
        assert all(r.seconds >= 0.0 for r in reports)

    def test_refresh_counts_only_changed_entries(self):
        # entries_updated means "next hop actually changed" — an idempotent
        # refresh (and a fallback that changes few hops) must not inflate it.
        g = random_connected_gnp(30, 0.15, seed=10)
        service = RoutingService(g, "kcover")
        before = service.entries_updated
        service.refresh()
        assert service.entries_updated == before
        assert service.full_refreshes == 1

    def test_incremental_beats_full_width_on_local_event(self):
        # A single flap on a big sparse graph must not touch every table.
        sc = make_scenario("failure", 120, 1, seed=31)
        service = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        report = service.apply(sc.events[0])
        n = service.graph.num_nodes
        assert report.dirty_rows < n
        assert report.dirty_tables < n


class TestReadSide:
    def test_next_hop_matches_table_and_validates(self):
        g = random_connected_gnp(20, 0.2, seed=7)
        service = RoutingService(g, "kcover")
        table = service.table(0)
        for v in g.nodes():
            if v == 0:
                continue
            assert service.next_hop(0, v) == table.get(v)
        with pytest.raises(ParameterError):
            service.next_hop(4, 4)
        with pytest.raises(NodeNotFound):
            service.next_hop(0, 99)
        with pytest.raises(NodeNotFound):
            service.table(99)

    def test_table_after_leave_is_empty(self):
        g = random_connected_gnp(20, 0.2, seed=8)
        service = RoutingService(g, "kcover", rebuild_fraction=1.0)
        service.apply(NodeEvent.leave(3))
        assert service.table(3) == {}
        assert_tables_match_scratch(service, "after leave of 3")
