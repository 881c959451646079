"""Exp **E-queries** — the query-serving path: served lookups vs per-hop BFS.

The PR-5 acceptance gate: :func:`repro.routing.route_served` must answer
route queries ≥ 5× faster than the per-hop-BFS reference
:func:`repro.routing.route` at n≈1500 — measured as sustained query
throughput over a sampled pair population on a churned-in service, with
journey-for-journey agreement asserted on the side (speed means nothing if
the answers differ).

The second experiment times the hop-synchronous batch path,
:func:`repro.routing.route_served_batch`, against the per-query
``route_served`` loop on the same pairs (identical journeys asserted): it
must be ≥ 2.5× the loop.

The third experiment measures the concurrency story: a
:class:`~repro.parallel.sharded.RouteReader` in a separate process serves
``next_hop`` lookups *while* the sharded service repairs a churn stream,
recording read latency percentiles, sustained read rate, and the seqlock
retry count.

Degradation contract: on a single-core runner the reader and the repair
workers time-share one CPU, so neither number reflects what concurrent
hardware can do — the payloads then carry a ``"degraded"`` marker with
the reason and the throughput bars are not asserted, exactly as
``scripts/check.sh`` expects.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro import obs
from repro.dynamic import RoutingService, failure_recovery_scenario
from repro.graph import sample_pairs
from repro.parallel import ShardedRoutingService
from repro.rng import derive_seed
from repro.routing import route, route_served, route_served_batch

REQUIRED_QUERY_SPEEDUP = 5.0  # served route queries vs per-hop-BFS routing
REQUIRED_BATCH_SPEEDUP = 2.5  # hop-synchronous batch vs the per-query loop
N_Q = 1500
NUM_EVENTS = 40
NUM_PAIRS = 60
SERVED_ROUNDS = 40  # extra passes so the fast path's timing is stable
BATCH_ROUNDS = 20  # passes per batch-vs-loop timing sample
BATCH_TIMING_ROUNDS = 5  # interleaved best-of samples per side
Q_SEED = 20090525
CPU_COUNT = os.cpu_count() or 1

READ_N = 700
READ_EVENTS = 30


@pytest.fixture(scope="module", autouse=True)
def _fresh_artifact(results_dir):
    artifact = results_dir / "BENCH_queries.json"
    if artifact.exists():
        artifact.unlink()


def _merge_artifact(results_dir, key, payload):
    artifact = results_dir / "BENCH_queries.json"
    data = json.loads(artifact.read_text()) if artifact.exists() else {}
    data[key] = payload
    artifact.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def churned_service():
    """The n≈1500 service after a churn stream, and the sampled pairs."""
    sc = failure_recovery_scenario(N_Q, NUM_EVENTS, seed=Q_SEED)
    assert sc.initial.num_nodes >= 1200, "query bench must keep n ≈ 1500"
    service = RoutingService(sc.initial, "kcover")
    for ev in sc.events:  # churn in: tables are post-repair, not pristine
        service.apply(ev)
    pairs = sample_pairs(
        service.graph, NUM_PAIRS, seed=derive_seed(Q_SEED, "query-pairs"), require_nonadjacent=False
    )
    return service, pairs


def test_query_throughput_served_vs_bfs(churned_service, record, results_dir):
    service, pairs = churned_service
    h, g = service.advertised, service.graph

    sw = obs.Stopwatch()
    reference = [route(h, g, s, t) for s, t in pairs]
    t_bfs = sw.elapsed()

    sw = obs.Stopwatch()
    for _ in range(SERVED_ROUNDS):
        for s, t in pairs:
            route_served(service, s, t)
    t_served = (sw.elapsed()) / SERVED_ROUNDS

    # Same answers, or the comparison is meaningless.
    for (s, t), ref in zip(pairs, reference):
        res = route_served(service, s, t)
        assert res.path == ref.path and res.delivered == ref.delivered

    qps_bfs = len(pairs) / t_bfs
    qps_served = len(pairs) / t_served
    speedup = round(qps_served / qps_bfs, 2)
    degraded = CPU_COUNT < 2
    payload = {
        "graph": {
            "n": g.num_nodes,
            "m": g.num_edges,
            "kind": "udg-failure-recovery",
            "seed": Q_SEED,
        },
        "events_soaked": NUM_EVENTS,
        "pairs": len(pairs),
        "cpu_count": CPU_COUNT,
        "bfs_route": {
            "seconds_per_pass": round(t_bfs, 6),
            "queries_per_second": round(qps_bfs, 2),
        },
        "route_served": {
            "seconds_per_pass": round(t_served, 6),
            "queries_per_second": round(qps_served, 2),
            "timed_rounds": SERVED_ROUNDS,
        },
        "speedup_served_vs_bfs": speedup,
        "required_speedup": REQUIRED_QUERY_SPEEDUP,
        "degraded": (
            f"host has {CPU_COUNT} CPU(s) < 2: recorded measurement only, "
            "speedup bar not asserted"
            if degraded
            else None
        ),
    }
    _merge_artifact(results_dir, "query_throughput", payload)
    record(
        "bench_query_throughput",
        f"route queries n={g.num_nodes} ({len(pairs)} pairs): per-hop BFS "
        f"{qps_bfs:.0f} q/s, served {qps_served:.0f} q/s -> {speedup}x "
        f"(required {REQUIRED_QUERY_SPEEDUP}x"
        + (", degraded: bar not asserted)" if degraded else ")"),
    )
    if not degraded:
        assert speedup >= REQUIRED_QUERY_SPEEDUP, (
            f"served routing only {speedup}x faster than per-hop BFS "
            f"(need ≥ {REQUIRED_QUERY_SPEEDUP}x): {payload}"
        )


def test_batch_vs_per_query_loop(churned_service, record, results_dir):
    """``route_served_batch`` against the per-query ``route_served`` loop:
    the same 60 journeys, hop-synchronous vs one at a time."""
    service, pairs = churned_service
    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    reference = [route_served(service, s, t) for s, t in pairs]
    batch = route_served_batch(service, sources, targets)
    assert batch.results() == reference, "the batch must make the loop's journeys exactly"

    def loop_rounds():
        for _ in range(BATCH_ROUNDS):
            for s, t in pairs:
                route_served(service, s, t)

    def batch_rounds():
        for _ in range(BATCH_ROUNDS):
            route_served_batch(service, sources, targets)

    # Interleaved best-of-rounds, as in the obs overhead bench.
    t_loop = t_batch = float("inf")
    for _ in range(BATCH_TIMING_ROUNDS):
        t_loop = min(t_loop, obs.time_best(loop_rounds, repeats=1) / BATCH_ROUNDS)
        t_batch = min(t_batch, obs.time_best(batch_rounds, repeats=1) / BATCH_ROUNDS)
    speedup = round(t_loop / t_batch, 2)
    degraded = CPU_COUNT < 2
    delivered = batch.hops[batch.delivered]
    payload = {
        "n": service.num_nodes,
        "pairs": len(pairs),
        "cpu_count": CPU_COUNT,
        "steps": len(batch.steps),
        "hops_mean": round(float(delivered.mean()), 2),
        "hops_max": int(batch.hops.max()),
        "per_query_loop": {
            "seconds_per_pass": round(t_loop, 7),
            "queries_per_second": round(len(pairs) / t_loop, 1),
        },
        "batch": {
            "seconds_per_pass": round(t_batch, 7),
            "queries_per_second": round(len(pairs) / t_batch, 1),
        },
        "timed_rounds": BATCH_ROUNDS,
        "speedup_batch_vs_loop": speedup,
        "required_speedup": REQUIRED_BATCH_SPEEDUP,
        "degraded": (
            f"host has {CPU_COUNT} CPU(s) < 2: recorded measurement only, "
            "speedup bar not asserted"
            if degraded
            else None
        ),
    }
    _merge_artifact(results_dir, "batch_vs_loop", payload)
    record(
        "bench_query_batch_vs_loop",
        f"batched route queries n={service.num_nodes} ({len(pairs)} pairs, "
        f"{len(batch.steps)} steps): per-query loop {len(pairs) / t_loop:.0f} q/s, "
        f"batch {len(pairs) / t_batch:.0f} q/s -> {speedup}x "
        f"(required {REQUIRED_BATCH_SPEEDUP}x"
        + (", degraded: bar not asserted)" if degraded else ")"),
    )
    if not degraded:
        assert speedup >= REQUIRED_BATCH_SPEEDUP, (
            f"batched routing only {speedup}x the per-query loop "
            f"(need ≥ {REQUIRED_BATCH_SPEEDUP}x): {payload}"
        )


def _bench_reader_main(directory, ready, stop, out_q):
    """Hammer next_hop lookups, recording per-read latency."""
    from repro.parallel import RouteReader
    from repro.rng import ensure_rng

    reader = RouteReader(directory)
    ready.set()
    rng = ensure_rng(derive_seed(Q_SEED, "bench-reader"))
    latencies = []
    try:
        while not stop.is_set():
            n = reader.num_nodes
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u == v:
                continue
            sw = obs.Stopwatch()
            reader.next_hop(u, v)
            latencies.append(sw.elapsed())
        latencies.sort()
        count = len(latencies)
        summary = {
            "reads": count,
            "mean_us": round(1e6 * sum(latencies) / max(count, 1), 2),
            "p50_us": round(1e6 * latencies[count // 2], 2) if count else None,
            "p99_us": round(1e6 * latencies[(99 * count) // 100], 2) if count else None,
            "torn_retries": reader.torn_retries,
        }
        out_q.put(("ok", summary))
    except BaseException as exc:  # pragma: no cover - surfaced by the bench
        out_q.put(("error", repr(exc)))
        raise
    finally:
        reader.close()


def test_read_latency_during_repair(record, results_dir):
    """Concurrent reads while the sharded service repairs a churn stream."""
    workers = min(2, CPU_COUNT)
    sc = failure_recovery_scenario(READ_N, READ_EVENTS, seed=Q_SEED + 1)
    ctx = multiprocessing.get_context()
    with ShardedRoutingService(sc.initial, "kcover", workers=workers) as service:
        ready, stop = ctx.Event(), ctx.Event()
        out_q = ctx.Queue()
        proc = ctx.Process(
            target=_bench_reader_main,
            args=(service.reader_handle(), ready, stop, out_q),
            daemon=True,
        )
        proc.start()
        assert ready.wait(timeout=120), "bench reader never attached"
        sw = obs.Stopwatch()
        for ev in sc.events:
            service.apply(ev)
        t_repair = sw.elapsed()
        stop.set()
        status, summary = out_q.get(timeout=120)
        proc.join(timeout=120)
    assert status == "ok", f"reader died: {summary}"
    assert summary["reads"] > 0, "no reads landed during the repair window"
    degraded = CPU_COUNT < 2
    payload = {
        "graph": {"n": sc.initial.num_nodes, "m": sc.initial.num_edges, "seed": Q_SEED + 1},
        "events": READ_EVENTS,
        "workers": workers,
        "cpu_count": CPU_COUNT,
        "repair_seconds": round(t_repair, 6),
        "reads_during_repair": summary["reads"],
        "reads_per_second": round(summary["reads"] / t_repair, 1),
        "latency_us": {
            "mean": summary["mean_us"],
            "p50": summary["p50_us"],
            "p99": summary["p99_us"],
        },
        "torn_retries": summary["torn_retries"],
        "degraded": (
            f"host has {CPU_COUNT} CPU(s) < 2: reader time-shares the core "
            "with the repair workers"
            if degraded
            else None
        ),
    }
    _merge_artifact(results_dir, "read_during_repair", payload)
    record(
        "bench_query_read_during_repair",
        f"concurrent reads n={sc.initial.num_nodes} W={workers} "
        f"(cpus={CPU_COUNT}): {summary['reads']} reads in {t_repair:.2f}s repair "
        f"({payload['reads_per_second']}/s), p50 {summary['p50_us']}µs "
        f"p99 {summary['p99_us']}µs, {summary['torn_retries']} seqlock retries"
        + (" [degraded]" if degraded else ""),
    )
