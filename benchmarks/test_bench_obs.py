"""Exp **E-obs** — observability: leave-on overhead and merge exactness.

The PR-7 acceptance gates for :mod:`repro.obs`:

* **Overhead.** Instrumentation is designed to be left on — serving the
  n≈1500 traffic workload through the instrumented
  :func:`repro.dynamic.serve_queries` loop with obs enabled must cost
  ≤ 5% throughput vs ``obs=0`` (the gated loop collapses to the bare
  serving loop).  The estimate is the median on/off time ratio over many
  pairs of single batches, run back to back in alternating order, so a
  slow or fast host window lands on both halves of a pair instead of
  deciding a best-of.
* **Merge exactness.** The per-shard registries a
  :class:`~repro.parallel.ShardedRoutingService` ships back must merge to
  exactly the counters a serial twin records — observability over W
  workers loses nothing.

Degradation contract: on a single-core runner the overhead measurement
time-shares one CPU with everything else, so the 5% bar is recorded but
not asserted — the payload carries ``"degraded"`` with the reason, exactly
as ``scripts/check.sh`` expects.  The merge-exactness assertion holds in
every mode (exactness does not depend on spare cores).

Artifact: ``benchmarks/results/BENCH_obs.json``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import obs, tuning
from repro.dynamic import RoutingService, failure_recovery_scenario, serve_queries
from repro.graph import sample_pairs
from repro.parallel import ShardedRoutingService
from repro.rng import derive_seed

MAX_OVERHEAD_PCT = 5.0  # obs-on vs obs-off serving throughput
N_OBS = 1500
NUM_EVENTS = 30
NUM_PAIRS = 80
SAMPLES = 400  # pairs of single-batch samples, one obs-on and one obs-off
OBS_SEED = 20090525
CPU_COUNT = os.cpu_count() or 1

MERGE_N = 300
MERGE_EVENTS = 24
MERGE_WORKERS = 2


@pytest.fixture(scope="module", autouse=True)
def _fresh_artifact(results_dir):
    artifact = results_dir / "BENCH_obs.json"
    if artifact.exists():
        artifact.unlink()


def _merge_artifact(results_dir, key, payload):
    artifact = results_dir / "BENCH_obs.json"
    data = json.loads(artifact.read_text()) if artifact.exists() else {}
    data[key] = payload
    artifact.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def test_instrumentation_overhead(record, results_dir):
    sc = failure_recovery_scenario(N_OBS, NUM_EVENTS, seed=OBS_SEED)
    service = RoutingService(sc.initial, "kcover")
    for ev in sc.events:  # churn in: measure the steady serving state
        service.apply(ev)
    pairs = sample_pairs(
        service.graph, NUM_PAIRS, seed=derive_seed(OBS_SEED, "obs-pairs"),
        require_nonadjacent=False,
    )

    def serve_batch():
        serve_queries(service, pairs)

    def sample(on: bool) -> float:
        if on:
            return obs.time_best(serve_batch, repeats=1)
        with tuning.overridden(obs=0):
            return obs.time_best(serve_batch, repeats=1)

    # One batch per sample, the two halves of a pair back to back and the
    # order flipped every pair: drift (thermal, noisy neighbors, a host
    # that switches speed) hits both halves alike, and the median ratio
    # ignores the odd descheduled batch.
    obs.reset()
    serve_batch()  # warm the caches once
    t_on, t_off = np.empty(SAMPLES), np.empty(SAMPLES)
    for i in range(SAMPLES):
        for on in (True, False) if i % 2 else (False, True):
            (t_on if on else t_off)[i] = sample(on)

    qps_on = NUM_PAIRS / float(np.median(t_on))
    qps_off = NUM_PAIRS / float(np.median(t_off))
    overhead_pct = round(100.0 * (float(np.median(t_on / t_off)) - 1.0), 2)
    degraded = CPU_COUNT < 2
    payload = {
        "n": N_OBS,
        "events_churned": NUM_EVENTS,
        "queries_per_sample": NUM_PAIRS,
        "samples_per_side": SAMPLES,
        "qps_obs_on": round(qps_on, 1),
        "qps_obs_off": round(qps_off, 1),
        "overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
    }
    if degraded:
        payload["degraded"] = (
            f"only {CPU_COUNT} CPU(s): timing shares one core with the OS, "
            "overhead recorded but the bar is not asserted"
        )
    _merge_artifact(results_dir, "overhead", payload)
    record(
        "BENCH_obs_overhead",
        f"obs overhead: {qps_on:,.0f} qps on vs {qps_off:,.0f} qps off "
        f"({overhead_pct:+.2f}%, bar {MAX_OVERHEAD_PCT}%"
        + (", degraded)" if degraded else ")"),
    )
    assert qps_on > 0 and qps_off > 0
    if not degraded:
        assert overhead_pct <= MAX_OVERHEAD_PCT, (
            f"instrumentation costs {overhead_pct}% throughput "
            f"(bar {MAX_OVERHEAD_PCT}%)"
        )


def test_merged_shard_metrics_match_serial_twin(record, results_dir):
    sc = failure_recovery_scenario(MERGE_N, MERGE_EVENTS, seed=OBS_SEED)

    # Serial truth: rows counted in this process's default registry.
    before = obs.snapshot()
    serial = RoutingService(sc.initial, "kcover")
    for ev in sc.events:
        serial.apply(ev)
    delta = obs.diff_snapshots(before, obs.snapshot())
    serial_rows = delta["counters"].get("serve.rows_recomputed", 0)

    # Sharded twin: the same stream fanned out over worker registries.
    with ShardedRoutingService(sc.initial, "kcover", workers=MERGE_WORKERS) as sharded:
        for ev in sc.events:
            sharded.apply(ev)
        collected = sharded.metrics()
    merged_rows = collected["merged"]["counters"].get("serve.rows_recomputed", 0)
    per_shard = {
        str(wid): snap["counters"].get("serve.rows_recomputed", 0)
        for wid, snap in collected["shards"].items()
    }

    payload = {
        "n": MERGE_N,
        "events": MERGE_EVENTS,
        "workers": MERGE_WORKERS,
        "serial_rows_recomputed": serial_rows,
        "merged_rows_recomputed": merged_rows,
        "per_shard_rows_recomputed": per_shard,
        "exact": merged_rows == serial_rows,
    }
    _merge_artifact(results_dir, "merge_exactness", payload)
    record(
        "BENCH_obs_merge",
        f"obs merge exactness: serial {serial_rows} rows vs merged "
        f"{merged_rows} over {MERGE_WORKERS} shards {per_shard}",
    )
    assert serial_rows > 0, "the serial twin must have recomputed rows"
    assert merged_rows == serial_rows, "per-shard registries must merge exactly"
    assert sum(per_shard.values()) == merged_rows
