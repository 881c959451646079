"""Dynamic-graph benchmark: incremental maintenance vs rebuild-per-event.

The acceptance bar of the dynamic subsystem (PR 2): on a low-churn link
failure/recovery stream over an n ≈ 2000 unit-disk graph, the incremental
:class:`~repro.dynamic.SpannerMaintainer` must beat naive rebuild-per-event
by ≥ 5×.  The rebuild baseline cost is measured on a sample of events and
extrapolated linearly (the graph stays within a few edges of its initial
state under low churn, so per-event rebuild cost is flat — the sample's
spread is recorded in the artifact for the skeptical reader).

Also recorded: the delta-aware ``Graph.freeze()`` patch path vs a cold CSR
rebuild — the layer that makes the maintainer's freeze-per-event policy
affordable.  Artifact: ``benchmarks/results/BENCH_dynamic.json``.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.remote_spanner import build_from_trees, resolve_construction
from repro.dynamic import SpannerMaintainer, failure_recovery_scenario
from repro.graph.csr import CSRGraph

#: Acceptance bar: incremental maintenance vs full rebuild per event.
REQUIRED_SPEEDUP = 5.0
N_NODES = 2200
NUM_EVENTS = 200
REBUILD_SAMPLE = 6  # events on which the rebuild baseline is timed
SCENARIO_SEED = 20090525


@pytest.fixture(scope="module")
def scenario():
    sc = failure_recovery_scenario(N_NODES, NUM_EVENTS, seed=SCENARIO_SEED)
    assert sc.initial.num_nodes >= 2000, "benchmark graph must keep n ≥ 2000"
    return sc


def test_incremental_vs_rebuild(scenario, record, results_dir):
    sc = scenario
    maintainer = SpannerMaintainer(sc.initial, "kcover")

    sw = obs.Stopwatch()
    reports = maintainer.apply_stream(sc.events)
    t_incremental = sw.elapsed()

    # The maintained spanner must equal a from-scratch build — speed means
    # nothing if the object diverged.
    reference = maintainer.rebuilt_from_scratch()
    assert maintainer.spanner.graph == reference.graph
    assert maintainer.full_rebuilds == 0, "low churn must never trip the fallback"

    # Rebuild-per-event baseline, sampled: replay the stream on a plain
    # graph and run a full construction at evenly spaced events.
    sample_every = max(1, NUM_EVENTS // REBUILD_SAMPLE)
    g = sc.initial.copy()
    rebuild_times = []
    construction = resolve_construction("kcover")
    for i, event in enumerate(sc.events, start=1):
        if event.kind == "add":
            g.add_edge(event.u, event.v)
        else:
            g.remove_edge(event.u, event.v)
        if i % sample_every == 0 and len(rebuild_times) < REBUILD_SAMPLE:
            frame = g.copy()
            sw = obs.Stopwatch()
            build_from_trees(
                frame, construction.tree_fn, construction.guarantee, construction.label
            )
            rebuild_times.append(sw.elapsed())

    mean_rebuild = sum(rebuild_times) / len(rebuild_times)
    t_rebuild_est = mean_rebuild * NUM_EVENTS
    speedup = t_rebuild_est / t_incremental
    dirty = [r.dirty for r in reports if r.changed]

    payload = {
        "graph": {
            "n": sc.initial.num_nodes,
            "m": sc.initial.num_edges,
            "kind": "udg-failure-recovery",
            "seed": SCENARIO_SEED,
        },
        "events": NUM_EVENTS,
        "method": maintainer.spanner.method,
        "seconds": {
            "incremental_total": round(t_incremental, 6),
            "incremental_per_event": round(t_incremental / NUM_EVENTS, 6),
            "rebuild_per_event_mean": round(mean_rebuild, 6),
            "rebuild_per_event_samples": [round(t, 6) for t in rebuild_times],
            "rebuild_total_estimated": round(t_rebuild_est, 6),
        },
        "dirty_ball": {
            "mean": round(sum(dirty) / len(dirty), 1),
            "max": max(dirty),
            "radius": maintainer.radius,
        },
        "incremental_repairs": maintainer.incremental_repairs,
        "full_rebuilds": maintainer.full_rebuilds,
        "speedup_incremental_vs_rebuild": round(speedup, 2),
        "required_speedup": REQUIRED_SPEEDUP,
    }
    (results_dir / "BENCH_dynamic.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    record(
        "bench_dynamic",
        f"dynamic n={sc.initial.num_nodes} m={sc.initial.num_edges} "
        f"events={NUM_EVENTS}: incremental {t_incremental:.2f} s "
        f"({t_incremental / NUM_EVENTS * 1e3:.1f} ms/event, "
        f"mean dirty ball {payload['dirty_ball']['mean']}), rebuild-per-event "
        f"~{t_rebuild_est:.1f} s -> {speedup:.0f}x",
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"incremental maintenance only {speedup:.2f}x faster than "
        f"rebuild-per-event (need ≥ {REQUIRED_SPEEDUP}x): {payload}"
    )


def test_delta_freeze_patch(scenario, record, results_dir, bench_rng):
    """The delta-aware freeze must beat a cold CSR conversion on small diffs."""
    g = scenario.initial.copy()
    g.freeze()

    sw = obs.Stopwatch()
    CSRGraph.from_graph(g)
    t_full = sw.elapsed()

    # A handful of edge flips, then a patched re-freeze.
    edges = sorted(g.edges())
    flips = [edges[int(i)] for i in bench_rng.choice(len(edges), size=8, replace=False)]
    for u, v in flips:
        g.remove_edge(u, v)
    sw = obs.Stopwatch()
    snap = g.freeze()
    t_patch = sw.elapsed()
    assert snap == CSRGraph.from_graph(g)

    ratio = t_full / t_patch if t_patch > 0 else float("inf")
    record(
        "bench_dynamic_freeze",
        f"delta freeze n={g.num_nodes}: full {t_full * 1e3:.2f} ms, "
        f"patched (8 dirty edges) {t_patch * 1e3:.3f} ms -> {ratio:.0f}x",
    )
    artifact = results_dir / "BENCH_dynamic.json"
    payload = json.loads(artifact.read_text()) if artifact.exists() else {}
    payload["freeze"] = {
        "full_ms": round(t_full * 1e3, 3),
        "patched_ms": round(t_patch * 1e3, 3),
        "dirty_edges": len(flips),
        "speedup": round(ratio, 1),
    }
    artifact.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    # Patch must win clearly; 2x is far below observed (~15-20x) but robust
    # to a noisy shared runner.
    assert ratio >= 2.0
