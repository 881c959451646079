"""Incremental maintenance vs from-scratch construction — exact agreement.

The maintainer's contract is strong: after *every* event, the maintained
spanner (graph **and** per-node trees) is bit-identical to a from-scratch
build on the current graph.  This holds because every construction is a
deterministic function of each root's induced locality ball, and the dirty
region is a certified superset of the roots whose ball changed — so the
tests compare exact equality, not just stretch validity.
"""

import pytest

from repro.dynamic import (
    EdgeEvent,
    NodeEvent,
    SCENARIO_NAMES,
    SpannerMaintainer,
    locality_radius,
    make_scenario,
)
from repro.core import StretchGuarantee, resolve_construction
from repro.errors import GraphError, ParameterError
from repro.graph import Graph
from repro.graph.generators import gnp_random_graph, random_connected_gnp

from ..conftest import CONSTRUCTION_GRID, CONSTRUCTION_GRID_IDS, assert_validates_like_the_table


def assert_matches_scratch(maintainer, context=""):
    reference = maintainer.rebuilt_from_scratch()
    assert maintainer.spanner.graph == reference.graph, f"spanner diverged {context}"
    assert maintainer.spanner.trees == reference.trees, f"trees diverged {context}"


def random_event_stream(n, num_events, seed, p=0.08):
    """An arbitrary add/remove stream on a G(n, p) base (not a scenario)."""
    from repro.rng import ensure_rng

    rng = ensure_rng(seed)
    g = gnp_random_graph(n, p, seed=rng)
    initial = g.copy()
    events = []
    while len(events) < num_events:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v:
            continue
        ev = EdgeEvent.remove(u, v) if g.has_edge(u, v) else EdgeEvent.add(u, v)
        from repro.dynamic.events import apply_event

        apply_event(g, ev)
        events.append(ev)
    return initial, events


class TestEveryPrefix:
    """The acceptance property: agreement after every prefix."""

    def test_arbitrary_stream_every_prefix_kcover(self):
        initial, events = random_event_stream(40, 100, seed=77)
        m = SpannerMaintainer(initial, "kcover", rebuild_fraction=1.0)
        for i, ev in enumerate(events, start=1):
            m.apply(ev)
            assert_matches_scratch(m, f"after event {i}")
        assert m.full_rebuilds == 0 and m.events_applied == 100

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenarios_100_events_checkpointed(self, name):
        sc = make_scenario(name, 60, 100, seed=13)
        m = SpannerMaintainer(sc.initial, "kcover", rebuild_fraction=1.0)
        for i, ev in enumerate(sc.events, start=1):
            m.apply(ev)
            if i % 5 == 0 or i == sc.num_events:
                assert_matches_scratch(m, f"{name} after event {i}")
        assert m.graph == sc.final

    @pytest.mark.parametrize(
        "method,kwargs",
        [("mis", {"r": 3}), ("greedy", {"r": 2}), ("kmis", {"k": 2})],
    )
    def test_other_constructions_stay_exact(self, method, kwargs):
        sc = make_scenario("failure", 40, 40, seed=21)
        m = SpannerMaintainer(sc.initial, method, rebuild_fraction=1.0, **kwargs)
        for i, ev in enumerate(sc.events, start=1):
            m.apply(ev)
            if i % 4 == 0 or i == sc.num_events:
                assert_matches_scratch(m, f"{method} after event {i}")


class TestFallbackAndReports:
    def test_rebuild_fallback_fires_and_stays_exact(self):
        sc = make_scenario("failure", 50, 30, seed=8)
        m = SpannerMaintainer(sc.initial, "kcover", rebuild_fraction=0.01)
        reports = m.apply_stream(sc.events)
        assert m.full_rebuilds > 0
        assert all(r.rebuilt == (r.dirty == m.graph.num_nodes) for r in reports if r.changed)
        assert_matches_scratch(m, "after fallback-heavy stream")

    def test_no_op_event_reports_unchanged_but_counted(self):
        g = random_connected_gnp(30, 0.1, seed=3)
        m = SpannerMaintainer(g, "kcover")
        before = m.spanner.graph.copy()
        u, v = next(iter(g.edges()))
        report = m.apply(EdgeEvent.add(u, v))  # already present
        assert report.changed is False and report.dirty == 0
        assert m.spanner.graph == before
        # No-ops still count as applied events and report real elapsed time
        # (a hardcoded 0.0 would skew churn-report per-event averages).
        assert m.events_applied == 1
        assert report.seconds > 0.0
        assert report.h_added == () and report.h_removed == ()

    def test_counters_accumulate(self):
        initial, events = random_event_stream(40, 20, seed=5)
        m = SpannerMaintainer(initial, "kcover", rebuild_fraction=1.0)
        reports = m.apply_stream(events)
        assert m.events_applied == 20
        assert m.incremental_repairs == 20
        assert m.trees_recomputed == sum(r.dirty for r in reports)
        assert all(r.seconds >= 0.0 for r in reports)

    def test_maintainer_owns_its_graph(self):
        g = random_connected_gnp(30, 0.1, seed=4)
        m = SpannerMaintainer(g, "kcover")
        u, v = next(iter(g.edges()))
        g.remove_edge(u, v)  # caller mutates their copy...
        assert m.graph.has_edge(u, v)  # ...the maintainer's stays intact


class TestNodeEvents:
    def test_join_then_wire_then_leave_stays_exact(self):
        g = random_connected_gnp(25, 0.12, seed=6)
        m = SpannerMaintainer(g, "kcover", rebuild_fraction=1.0)
        report = m.apply(NodeEvent.join(25))
        assert report.changed and report.dirty == 1
        assert m.graph.num_nodes == 26 == m.spanner.graph.num_nodes
        assert_matches_scratch(m, "after join")
        for w in (0, 3, 7):
            m.apply(EdgeEvent.add(25, w))
            assert_matches_scratch(m, f"after wiring 25-{w}")
        report = m.apply(NodeEvent.leave(25))
        assert report.changed and report.dirty >= 1
        assert m.graph.degree(25) == 0  # isolated, id slot kept
        assert m.graph.num_nodes == 26
        assert_matches_scratch(m, "after leave")

    def test_join_requires_dense_id(self):
        m = SpannerMaintainer(Graph(5), "kcover")
        with pytest.raises(GraphError):
            m.apply(NodeEvent.join(7))
        with pytest.raises(GraphError):
            m.apply(NodeEvent.join(3))

    def test_leave_of_isolated_node_is_noop(self):
        g = Graph(6, [(0, 1), (1, 2)])
        m = SpannerMaintainer(g, "kcover")
        report = m.apply(NodeEvent.leave(5))
        assert report.changed is False and report.dirty == 0
        assert m.events_applied == 1

    def test_leave_dirty_region_covers_all_severed_edges(self):
        # A high-degree leaver must dirty roots around *every* former link.
        sc = make_scenario("nodechurn", 50, 60, seed=19)
        m = SpannerMaintainer(sc.initial, "kcover", rebuild_fraction=1.0)
        for i, ev in enumerate(sc.events, start=1):
            m.apply(ev)
            if isinstance(ev, NodeEvent) or i == sc.num_events:
                assert_matches_scratch(m, f"nodechurn after event {i}")
        assert m.graph == sc.final


class TestBatchedApplication:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_ticks_match_scratch_after_every_batch(self, name):
        sc = make_scenario(name, 40, 60, seed=23)
        m = SpannerMaintainer(sc.initial, "kcover", rebuild_fraction=1.0)
        events = list(sc.events)
        for lo in range(0, len(events), 7):
            report = m.apply_batch(events[lo : lo + 7])
            assert report.events == len(events[lo : lo + 7])
            assert_matches_scratch(m, f"{name} after tick at {lo}")
        assert m.graph == sc.final
        assert m.events_applied == len(events)

    def test_batch_equals_sequential_application(self):
        sc = make_scenario("failure", 40, 50, seed=4)
        seq = SpannerMaintainer(sc.initial, "kcover", rebuild_fraction=1.0)
        seq.apply_stream(sc.events)
        bat = SpannerMaintainer(sc.initial, "kcover", rebuild_fraction=1.0)
        bat.apply_batch(list(sc.events))
        assert seq.spanner.graph == bat.spanner.graph
        assert seq.spanner.trees == bat.spanner.trees
        # One coalesced repair recomputes each dirty root at most once.
        assert bat.trees_recomputed <= seq.trees_recomputed

    def test_flapping_link_cancels_in_batch(self):
        g = random_connected_gnp(30, 0.12, seed=11)
        m = SpannerMaintainer(g, "kcover")
        u, v = next(iter(g.edges()))
        before = m.trees_recomputed
        report = m.apply_batch([EdgeEvent.remove(u, v), EdgeEvent.add(u, v)])
        assert report.changed is False
        assert report.g_added == () and report.g_removed == ()
        assert m.trees_recomputed == before  # no net change → no tree churn
        assert m.events_applied == 2

    def test_batch_reports_net_deltas(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        m = SpannerMaintainer(g, "kcover", rebuild_fraction=1.0)
        report = m.apply_batch(
            [
                EdgeEvent.remove(3, 4),
                NodeEvent.join(6),
                EdgeEvent.add(5, 6),
                EdgeEvent.add(0, 6),
            ]
        )
        assert report.g_removed == ((3, 4),)
        assert report.g_added == ((0, 6), (5, 6))
        assert report.nodes_joined == (6,)
        assert_matches_scratch(m, "after mixed batch")

    def test_empty_batch_is_noop(self):
        m = SpannerMaintainer(Graph(4, [(0, 1)]), "kcover")
        report = m.apply_batch([])
        assert report.changed is False and report.events == 0

    def test_mid_batch_error_restores_exactness(self):
        # A malformed event mid-batch must not leave the spanner silently
        # diverged from the (partially mutated) graph.
        g = random_connected_gnp(25, 0.12, seed=14)
        m = SpannerMaintainer(g, "kcover")
        u, v = next((u, v) for u in g.nodes() for v in g.nodes() if u < v and not g.has_edge(u, v))
        with pytest.raises(GraphError):
            m.apply_batch([EdgeEvent.add(u, v), NodeEvent.join(999)])
        assert m.graph.has_edge(u, v)  # the valid prefix was applied
        assert_matches_scratch(m, "after failed batch")

    @pytest.mark.parametrize("bad", [NodeEvent.join(999), EdgeEvent.add(0, 999)])
    def test_malformed_event_alone_costs_nothing(self, bad):
        # Nothing was applied, so nothing needs restoring: no rebuild, no
        # counter moves, through apply_batch and through apply alike.
        m = SpannerMaintainer(random_connected_gnp(60, 0.08, seed=2), "kcover")
        before = (m.full_rebuilds, m.incremental_repairs, m.trees_recomputed,
                  m.events_applied, m.batches_applied, m.graph.version)
        h = m.spanner.graph.copy()
        for apply in (lambda: m.apply_batch([bad]), lambda: m.apply(bad)):
            with pytest.raises(GraphError):
                apply()
            assert (m.full_rebuilds, m.incremental_repairs, m.trees_recomputed,
                    m.events_applied, m.batches_applied, m.graph.version) == before
            assert m.spanner.graph == h

    def test_batch_fallback_stays_exact(self):
        sc = make_scenario("failure", 50, 40, seed=8)
        m = SpannerMaintainer(sc.initial, "kcover", rebuild_fraction=0.01)
        events = list(sc.events)
        for lo in range(0, len(events), 10):
            m.apply_batch(events[lo : lo + 10])
        assert m.full_rebuilds > 0
        assert_matches_scratch(m, "after fallback-heavy batches")

    def test_mobility_ticks_repair_within_the_footprint(self):
        # kcover's dirty ball is its 1-hop footprint: on a 400-node
        # mobility stream in 3-event ticks it stays under rebuild_fraction
        # · n, where a 2-hop ball tripped the full rebuild on 10 ticks.
        sc = make_scenario("mobility", 400, 75, seed=0)
        m = SpannerMaintainer(sc.initial, "kcover")
        events = list(sc.events)
        for lo in range(0, len(events), 3):
            m.apply_batch(events[lo : lo + 3])
        assert (m.radius, m.full_rebuilds, m.incremental_repairs) == (1, 0, 25)
        assert_matches_scratch(m, "after the mobility ticks")


class TestConstructionRegistry:
    def test_locality_radii(self):
        assert locality_radius("kcover") == 1
        assert locality_radius("kmis", k=2) == 2
        assert locality_radius("mis", r=4) == 4
        assert locality_radius("greedy", r=3) == 3
        assert resolve_construction("greedy", r=3, beta=0).info_radius == 2  # r − 1
        assert locality_radius("mis", epsilon=0.5) == 3  # r = ceil(1/eps)+1

    def test_resolved_guarantees(self):
        assert resolve_construction("kcover", k=2).guarantee.k == 2
        kmis = resolve_construction("kmis")
        assert (kmis.guarantee.alpha, kmis.guarantee.beta) == (2.0, -1.0)
        mis = resolve_construction("mis", r=3)
        assert mis.guarantee.alpha == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ParameterError):
            resolve_construction("voronoi")
        with pytest.raises(ParameterError):
            resolve_construction("kcover", k=0)
        with pytest.raises(ParameterError):
            resolve_construction("mis", r=1)
        with pytest.raises(ParameterError):
            SpannerMaintainer(Graph(4), "kcover", rebuild_fraction=0.0)

    def test_kmis_accepts_k_one(self):
        # Algorithm 5's k=1 trees are (2, 1)-dominating: Proposition 1 at
        # r = 2 gives (2, −1), and the stretch oracle certifies it.
        kmis = resolve_construction("kmis", k=1)
        assert (kmis.label, kmis.guarantee) == ("kmis(k=1)", StretchGuarantee(2.0, -1.0, 1))
        m = SpannerMaintainer(random_connected_gnp(12, 0.3, seed=5), "kmis", k=1)
        assert m.spanner.guarantee == kmis.guarantee
        assert_matches_scratch(m, "kmis k=1")
        with pytest.raises(ParameterError, match="k ≥ 1"):
            resolve_construction("kmis", k=0)
        # The per-method default is still k=2.
        assert resolve_construction("kmis").label == "kmis(k=2)"

    @pytest.mark.parametrize("name,params,valid", CONSTRUCTION_GRID, ids=CONSTRUCTION_GRID_IDS)
    def test_builders_and_maintainer_validate_like_the_table(self, name, params, valid):
        assert_validates_like_the_table(name, params, valid, ("builders", "maintainer"))

    def test_maintainer_reads_the_table(self):
        m = SpannerMaintainer(random_connected_gnp(12, 0.3, seed=5), "greedy", r=4)
        c = resolve_construction("greedy", r=4)
        assert (m.radius, m.spanner.guarantee, m.spanner.method) == (
            c.info_radius, c.guarantee, c.label
        )
        assert m.spanner.method == "greedy(r=4, beta=1)"
        assert resolve_construction("mis", r=3).label == "mis(r=3, beta=1)"
