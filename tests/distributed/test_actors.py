"""Convergence property suite for the actor tier.

The acceptance property: after quiescence, every shard actor's replica
and owned rows are **bit-for-bit** the serial :class:`RoutingService`'s
(``mismatches() == []``), across all four scenarios × all four
constructions on loopback, and over real TCP/UDS sockets for at least
one scenario each.  Plus: ``route_actor`` journeys equal ``route_served``
exactly, HELLO timeouts mark silent peers suspect, and count-capped
``lsa.drop``/``lsa.delay`` fault plans still converge through the
anti-entropy resend path.

The incremental repair is pinned too: the full path runs only for the
bootstrap, ``rebuilt`` deltas and snapshots (compaction resync, trimmed
resends); a muzzled actor catches up across an H-edge flap from deltas;
and a tick BFSes exactly the rows the certified analysis names — none on
a no-op tick, only the newly held ones when ΔH is empty.  The driver's
resend log stays bounded over a long soak.
"""

import pytest

from repro import faults, obs
from repro.distributed import ActorSystem, make_transport
from repro.distributed.actors import LOG_WINDOW
from repro.dynamic import SCENARIO_NAMES, EdgeEvent, RoutingService, make_scenario
from repro.errors import NodeNotFound, ParameterError, ProtocolError
from repro.faults import PLANS
from repro.graph import sample_pairs
from repro.graph.generators import random_connected_gnp
from repro.routing import route_actor, route_served
from repro.rng import derive_seed

#: Construction → extra kwargs (mirrors the serving suite's spellings).
METHODS = [
    ("kcover", {}),
    ("kmis", {"k": 2}),
    ("mis", {"r": 3}),
    ("greedy", {"r": 2}),
]

N = 26
NUM_EVENTS = 10
TICK = 5
SHARDS = 3


def converge(
    scenario,
    method,
    kwargs,
    *,
    transport=None,
    shards=SHARDS,
    seed=11,
    rebuild_fraction=1.0,
    n=N,
    num_events=NUM_EVENTS,
    **extra,
):
    """Drive *scenario* tick by tick, asserting bit-identity after each.

    Returns how many ticks the maintainer answered with a full rebuild
    (each one a ``rebuilt`` delta on the wire).
    """
    sc = make_scenario(scenario, n, num_events, seed=seed)
    system = ActorSystem(
        sc.initial,
        method,
        rebuild_fraction=rebuild_fraction,
        shards=shards,
        transport=transport,
        **kwargs,
        **extra,
    )
    rebuilt = []
    system.service.subscribe(lambda delta: rebuilt.append(delta.rebuilt))
    with system:
        assert system.mismatches() == [], "bootstrap must seed every replica"
        events = list(sc.events)
        for lo in range(0, len(events), TICK):
            system.apply_tick(events[lo : lo + TICK])
            assert system.mismatches() == [], f"{scenario}/{method} diverged at tick {lo}"
        assert system.service.graph == sc.final
        if system.mode == "incremental":
            # Bootstrap plus one per rebuilt tick; every other tick repaired.
            for actor in system.actors:
                assert actor.full_recomputes == 1 + sum(rebuilt)
    return sum(rebuilt)


class TestConvergenceLoopback:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    @pytest.mark.parametrize("method,kwargs", METHODS, ids=[m for m, _ in METHODS])
    def test_all_scenarios_all_constructions(self, scenario, method, kwargs):
        converge(scenario, method, kwargs)

    def test_single_shard_and_many_shards(self):
        for shards in (1, 2, 7):
            converge("mobility", "kcover", {}, shards=shards)

    def test_rounds_and_messages_are_accounted(self):
        sc = make_scenario("mobility", N, NUM_EVENTS, seed=3)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            system.apply_tick(list(sc.events))
            snap = system.stats.snapshot()
            assert system.stats.rounds > 0
            assert system.stats.messages > 0 and system.stats.bytes > 0
            assert snap["counters"]["wire.messages"] == system.stats.messages


class TestConvergenceSockets:
    def test_tcp_converges_on_mobility(self):
        converge("mobility", "kcover", {}, transport=make_transport("tcp"))

    def test_uds_converges_on_growth(self):
        converge("growth", "kcover", {}, transport=make_transport("uds"))


class TestRouteEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_actor_journeys_match_served(self, scenario):
        sc = make_scenario(scenario, N, NUM_EVENTS, seed=23)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            system.apply_tick(list(sc.events))
            pairs = sample_pairs(
                system.service.graph,
                12,
                seed=derive_seed(23, "actor-route", scenario),
                require_nonadjacent=False,
            )
            for s, t in pairs:
                actor_r = route_actor(system, s, t)
                served_r = route_served(system.service, s, t)
                assert actor_r.path == served_r.path
                assert actor_r.delivered == served_r.delivered
                assert actor_r.potentials == served_r.potentials

    def test_route_validations_mirror_served(self):
        g = random_connected_gnp(N, 0.15, seed=1)
        with ActorSystem(g, "kcover", shards=SHARDS) as system:
            with pytest.raises(ParameterError):
                system.route(1, 1)
            with pytest.raises(NodeNotFound):
                system.route(0, 10_000)


class TestLiveness:
    def test_silent_peer_goes_suspect_after_hello_timeout(self):
        from repro.distributed.wire import HELLO_TIMEOUT

        g = random_connected_gnp(N, 0.15, seed=5)
        with ActorSystem(g, "kcover", shards=SHARDS) as system:
            system.muzzle(1)
            for _ in range(HELLO_TIMEOUT + system.hello_every + 3):
                system._run(system._pump_round())
            assert 1 in system.actors[0].suspects
            assert 1 in system.actors[2].suspects
            assert 0 not in system.actors[2].suspects  # healthy peers stay trusted

    def test_muzzled_actor_catches_up_via_anti_entropy(self):
        sc = make_scenario("mobility", N, NUM_EVENTS, seed=7)
        events = list(sc.events)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            system.muzzle(1)
            system.apply_tick(events[:TICK])  # actor 1 misses this flood entirely
            assert system.actors[1].applied_seq() < system._out_seq
            system.unmuzzle(1)
            system.quiesce()  # beacon reveals the gap → ResendRequest → retransmit
            assert system.actors[1].applied_seq() == system._out_seq
            assert system.mismatches() == []


class TestFaultPlans:
    """Satellite 3: dropped/delayed LSAs still converge to the serial twin."""

    def setup_method(self):
        faults.uninstall()

    def teardown_method(self):
        faults.uninstall()

    def test_lsa_lossy_converges_through_resend(self):
        faults.install(PLANS["lsa-lossy"])
        sc = make_scenario("mobility", N, NUM_EVENTS, seed=13)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            system.apply_tick(list(sc.events))
            assert system.mismatches() == []
            assert system.stats.dropped >= 1, "the plan must actually fire"
            assert faults.fired() and faults.fired()["lsa.drop"] == system.stats.dropped

    def test_lsa_slow_converges_through_delay_queue(self):
        faults.install(PLANS["lsa-slow"])
        sc = make_scenario("nodechurn", N, NUM_EVENTS, seed=17)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            system.apply_tick(list(sc.events))
            assert system.mismatches() == []
            assert system.stats.delayed >= 1, "the plan must actually fire"


class TestParameters:
    def test_bad_shards_and_mode_rejected(self):
        g = random_connected_gnp(N, 0.15, seed=1)
        with pytest.raises(ParameterError):
            ActorSystem(g, "kcover", shards=0)
        with pytest.raises(ParameterError):
            ActorSystem(g, "kcover", mode="telepathy")

    def test_full_mode_converges_too(self):
        # The naive baseline is still a correct protocol, just heavier.
        converge("failure", "kcover", {}, mode="full")

    def test_quiesce_raises_past_max_rounds(self):
        g = random_connected_gnp(N, 0.15, seed=1)
        system = ActorSystem(g, "kcover", shards=SHARDS, max_rounds=0)
        with pytest.raises(ProtocolError):
            system.start()
        system.close()


def _flapping_h_edge(g):
    """An H edge of the service on *g* that leaves H when removed from G
    and returns to H when re-added (found by trial on a serial twin)."""
    probe = RoutingService(g.copy(), "kcover", rebuild_fraction=1.0)
    for x, y in sorted(probe.advertised.edges()):
        twin = RoutingService(g.copy(), "kcover", rebuild_fraction=1.0)
        gone = twin.apply_batch([EdgeEvent.remove(x, y)])
        if gone.changed and not twin.advertised.has_edge(x, y):
            twin.apply_batch([EdgeEvent.add(x, y)])
            if twin.advertised.has_edge(x, y):
                return x, y
    raise AssertionError("no flapping H edge in the fixture graph")


class TestIncrementalRepair:
    """The actors repair rows from the net delta; the full path is the
    exception (bootstrap, FullTopology, rebuilt)."""

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_default_rebuild_fraction_takes_full_path_on_rebuilt_ticks(self, scenario):
        # converge() asserts full_recomputes == 1 + rebuilt ticks per actor.
        converge(scenario, "kcover", {}, rebuild_fraction=0.25, n=40, num_events=30)

    def test_rebuilt_deltas_do_occur(self):
        rebuilt = converge("failure", "kcover", {}, rebuild_fraction=0.25, n=40, num_events=30)
        assert rebuilt >= 1, "the fixture must exercise the rebuilt full path"

    def test_repairs_reuse_replica_and_matrices(self):
        obs.reset()
        sc = make_scenario("mobility", 40, 30, seed=5)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            kept = [(a.g, a.h, a.dist, a.tables) for a in system.actors]
            events = list(sc.events)
            for lo in range(0, len(events), 3):
                system.apply_tick(events[lo : lo + 3])
                assert system.mismatches() == []
            for actor, (g, h, dist, tables) in zip(system.actors, kept):
                assert actor.full_recomputes == 1  # bootstrap only
                assert actor.g is g and actor.h is h
                assert actor.dist is dist and actor.tables is tables
        counters = obs.snapshot()["counters"]
        assert counters["actors.full_recomputes"] == SHARDS
        assert counters["actors.rows_recomputed"] == sum(a.rows_recomputed for a in system.actors)
        assert counters["actors.tables_reprojected"] == sum(
            a.tables_reprojected for a in system.actors
        )

    def test_muzzled_actor_catches_up_across_h_flap(self):
        g = random_connected_gnp(N, 0.2, seed=3)
        x, y = _flapping_h_edge(g)
        with ActorSystem(g, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            lagger = system.actors[1]
            seen = []
            repair = lagger._repair
            lagger._repair = lambda: (seen.append(dict(lagger._h_delta)), repair())[1]
            system.muzzle(1)
            system.apply_tick([EdgeEvent.remove(x, y)])
            system.apply_tick([])
            system.apply_tick([EdgeEvent.add(x, y)])
            assert system.service.advertised.has_edge(x, y)
            assert lagger.applied_seq() < system._out_seq - 2
            system.unmuzzle(1)
            system.quiesce()
            assert lagger.applied_seq() == system._out_seq
            assert system.mismatches() == []
            assert lagger.full_recomputes == 1, "three deltas must repair incrementally"
            assert len(seen) == 1 and (x, y) not in seen[0], "the flap must cancel"

    def test_nodechurn_joins_grow_the_id_space(self):
        sc = make_scenario("nodechurn", 40, 30, seed=19)
        assert sc.final.num_nodes > sc.initial.num_nodes
        converge("nodechurn", "kcover", {}, n=40, num_events=30, seed=19)

    def test_noop_tick_bfses_nothing(self):
        g = random_connected_gnp(N, 0.2, seed=4)
        with ActorSystem(g, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            before = [a.rows_recomputed for a in system.actors]
            system.apply_tick([])
            assert [a.rows_recomputed for a in system.actors] == before
            assert system.mismatches() == []

    def test_tick_without_h_change_bfses_only_newly_held_rows(self):
        g = random_connected_gnp(N, 0.15, seed=6)
        with ActorSystem(g, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            for u, v in ((u, v) for u in range(N) for v in range(N) if u != v):
                if g.has_edge(u, v) or system.actor_for(u).held[v]:
                    continue
                twin = RoutingService(g.copy(), "kcover", rebuild_fraction=1.0)
                twin.apply_batch([EdgeEvent.add(u, v)])
                if twin.advertised == system.service.advertised:
                    break  # the insertion leaves H alone: ΔH is empty
            else:
                pytest.fail("no G-only edge insertion in the fixture graph")
            held = [a.held.copy() for a in system.actors]
            rows = [a.rows_recomputed for a in system.actors]
            system.apply_tick([EdgeEvent.add(u, v)])
            assert system.mismatches() == []
            for actor, was, before in zip(system.actors, held, rows):
                newly = int((actor.held & ~was).sum())
                assert actor.rows_recomputed - before == newly
            assert system.actor_for(u).rows_recomputed > rows[system.owner(u)]


class TestResync:
    def test_compaction_reaches_the_replicas(self):
        # Regression: compact() used to renumber ids without touching the
        # feed, leaving every actor at the old id-space size forever.
        sc = make_scenario("nodechurn", 120, 60, seed=2009)
        with ActorSystem(sc.initial, "kcover", shards=SHARDS) as system:
            events = list(sc.events)
            for lo in range(0, len(events), 5):
                system.apply_tick(events[lo : lo + 5])
                assert system.mismatches() == []
            full_before = [a.full_recomputes for a in system.actors]
            n_before = system.service.num_nodes
            system.service.compact()
            assert system.service.num_nodes < n_before, "the fixture must have dormant ids"
            system.quiesce()
            assert system.mismatches() == []
            assert [a.full_recomputes for a in system.actors] == [f + 1 for f in full_before]
            for s, t in sample_pairs(system.service.graph, 6, seed=1, require_nonadjacent=False):
                assert route_actor(system, s, t).path == route_served(system.service, s, t).path
            system.apply_tick(events[:0])
            assert system.mismatches() == []

    def test_direct_refresh_resyncs_the_replicas(self):
        g = random_connected_gnp(N, 0.2, seed=8)
        with ActorSystem(g, "kcover", shards=SHARDS) as system:
            system.service.refresh()
            system.quiesce()
            assert system.mismatches() == []
            assert all(a.full_recomputes == 2 for a in system.actors)


class TestLogBound:
    def test_log_stays_flat_over_a_long_soak(self):
        sc = make_scenario("mobility", 20, 520, seed=21)
        with ActorSystem(sc.initial, "kcover", shards=SHARDS) as system:
            sizes = []
            for i, event in enumerate(sc.events):
                system.apply_tick([event])
                sizes.append(len(system._log))
                if i % 100 == 0:
                    assert system.mismatches() == []
            assert system._out_seq > 500
            assert max(sizes) <= LOG_WINDOW + 1
            assert sizes[-1] == sizes[len(sizes) // 2]
            assert system.mismatches() == []

    def test_muzzled_actor_whose_gap_was_trimmed_converges(self):
        sc = make_scenario("mobility", N, 2 * (LOG_WINDOW + 2), seed=9)
        events = list(sc.events)
        with ActorSystem(sc.initial, "kcover", shards=SHARDS) as system:
            system.muzzle(2)
            for lo in range(0, len(events), 2):  # LOG_WINDOW + 2 ticks
                system.apply_tick(events[lo : lo + 2])
            lagger = system.actors[2]
            assert lagger.applied_seq() + 1 not in system._log, "the gap must be trimmed"
            system.unmuzzle(2)
            system.quiesce()
            assert lagger.applied_seq() == system._out_seq
            assert system.mismatches() == []
            assert lagger.full_recomputes == 2  # bootstrap + the snapshot
            assert len(system._log) == LOG_WINDOW
