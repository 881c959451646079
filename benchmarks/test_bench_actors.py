"""Exp **E-actors** — the actor tier's cost per churn tick against serial.

Shard actors repair their held distance rows (owned sources and their
G-neighbors) from the net LSA delta instead of re-BFSing every held row
each tick.  This bench drives the same ``failure`` stream (n=1500,
10-event ticks) through the serial :class:`RoutingService` and through a
4-shard :class:`ActorSystem` on the deterministic loopback transport, and
records:

* ms per tick for both (the actor tick includes the driver's own serial
  service, which feeds the LSAs) and their ratio;
* the actors' BFS sources per tick, against the from-scratch count — the
  rows every actor held, which is what each tick BFSed before the
  incremental repair;
* the rows each actor owns (its BFS region) and holds (the region plus
  its G-neighbors), and the ``RouteQuery`` frames per routed query (one
  injection plus one per region crossing) over sampled pairs on the final
  graph.  These three are recorded, never guarded.

Guarded headline: ``bfs_reduction_vs_scratch`` (from-scratch sources per
actual source, a count ratio, so it does not move with host speed).  The
assertion is on counts too: actor BFS sources per tick must stay below the
from-scratch count.  Timings are recorded, never asserted.
"""

from __future__ import annotations

import json

from repro import obs
from repro.distributed import ActorSystem
from repro.dynamic import RoutingService, make_scenario
from repro.graph import sample_pairs

N_ACTORS = 1500
NUM_EVENTS = 100
TICK = 10
SHARDS = 4
ACTORS_SEED = 20090525
QUERIES = 50


def _ticks(sc):
    events = list(sc.events)
    return [events[lo : lo + TICK] for lo in range(0, len(events), TICK)]


def test_actor_tier_repairs_incrementally(record, results_dir):
    sc = make_scenario("failure", N_ACTORS, NUM_EVENTS, seed=ACTORS_SEED)
    ticks = _ticks(sc)

    serial = RoutingService(sc.initial.copy(), "kcover")
    serial_seconds = []
    for batch in ticks:
        sw = obs.Stopwatch()
        serial.apply_batch(batch)
        serial_seconds.append(sw.elapsed())

    with ActorSystem(sc.initial.copy(), "kcover", shards=SHARDS) as system:
        actor_seconds = []
        sources = []
        scratch = []
        rebuilt = []
        system.service.subscribe(lambda report, _resync: rebuilt.append(report.rebuilt))
        for batch in ticks:
            before = sum(a.rows_recomputed for a in system.actors)
            sw = obs.Stopwatch()
            system.apply_tick(batch)
            actor_seconds.append(sw.elapsed())
            sources.append(sum(a.rows_recomputed for a in system.actors) - before)
            scratch.append(sum(int(a.held.sum()) for a in system.actors))
        assert system.mismatches() == [], "actors must stay bit-identical to serial"
        full = [a.full_recomputes - 1 for a in system.actors]  # minus bootstrap
        held = [int(a.held.sum()) for a in system.actors]
        owned = [len(system.owned_nodes(a.ident)) for a in system.actors]
        pairs = sample_pairs(system.service.graph, QUERIES, seed=ACTORS_SEED)
        before = system.route_messages
        for s, t in pairs:
            system.route(s, t)
        route_messages = (system.route_messages - before) / len(pairs)

    nticks = len(ticks)
    actor_ms = sum(actor_seconds) / nticks * 1e3
    serial_ms = sum(serial_seconds) / nticks * 1e3
    sources_per_tick = sum(sources) / nticks
    scratch_per_tick = sum(scratch) / nticks
    reduction = scratch_per_tick / sources_per_tick if sources_per_tick else None
    payload = {
        "actors": {
            "graph": {"n": sc.initial.num_nodes, "m": sc.initial.num_edges, "seed": ACTORS_SEED},
            "scenario": "failure",
            "events": NUM_EVENTS,
            "tick": TICK,
            "shards": SHARDS,
            "transport": "loop",
            "ms_per_tick_actors": round(actor_ms, 1),
            "ms_per_tick_serial": round(serial_ms, 1),
            "actor_vs_serial": round(actor_ms / serial_ms, 2),
            "bfs_sources_per_tick": round(sources_per_tick, 1),
            "scratch_sources_per_tick": round(scratch_per_tick, 1),
            "bfs_reduction_vs_scratch": None if reduction is None else round(reduction, 2),
            "rebuilt_ticks": sum(rebuilt),
            "full_recomputes_per_actor": full,
            "held_rows_per_actor": held,
            "owned_rows_per_actor": owned,
            "route_messages_per_query": round(route_messages, 2),
        }
    }
    artifact = results_dir / "BENCH_actors.json"
    artifact.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    record(
        "bench_actors",
        f"actor tier n={N_ACTORS} failure, {TICK}-event ticks, {SHARDS} shards on loopback: "
        f"{actor_ms:.0f} ms/tick vs serial {serial_ms:.0f} ms/tick "
        f"({actor_ms / serial_ms:.1f}x); actor BFS sources {sources_per_tick:.0f}/tick "
        f"vs {scratch_per_tick:.0f} from scratch; rows held per actor {held} "
        f"for {owned} owned; {route_messages:.1f} route frames per query",
    )
    assert sources_per_tick < scratch_per_tick, (
        f"actors BFSed {sources_per_tick:.0f} sources per tick, no fewer than the "
        f"{scratch_per_tick:.0f} held rows a from-scratch recompute would"
    )
