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
  incremental repair.

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

N_ACTORS = 1500
NUM_EVENTS = 100
TICK = 10
SHARDS = 4
ACTORS_SEED = 20090525


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
        system.service.subscribe(lambda delta: rebuilt.append(delta.rebuilt))
        for batch in ticks:
            before = sum(a.rows_recomputed for a in system.actors)
            sw = obs.Stopwatch()
            system.apply_tick(batch)
            actor_seconds.append(sw.elapsed())
            sources.append(sum(a.rows_recomputed for a in system.actors) - before)
            scratch.append(sum(int(a.held.sum()) for a in system.actors))
        assert system.mismatches() == [], "actors must stay bit-identical to serial"
        full = [a.full_recomputes - 1 for a in system.actors]  # minus bootstrap

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
        }
    }
    artifact = results_dir / "BENCH_actors.json"
    artifact.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    record(
        "bench_actors",
        f"actor tier n={N_ACTORS} failure, {TICK}-event ticks, {SHARDS} shards on loopback: "
        f"{actor_ms:.0f} ms/tick vs serial {serial_ms:.0f} ms/tick "
        f"({actor_ms / serial_ms:.1f}x); actor BFS sources {sources_per_tick:.0f}/tick "
        f"vs {scratch_per_tick:.0f} from scratch",
    )
    assert sources_per_tick < scratch_per_tick, (
        f"actors BFSed {sources_per_tick:.0f} sources per tick, no fewer than the "
        f"{scratch_per_tick:.0f} held rows a from-scratch recompute would"
    )
