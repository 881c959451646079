"""Exp **E-routing** — greedy link-state routing: quality, overhead, serving.

Paper (§1): advertising a remote-spanner instead of the full topology
keeps greedy routing within the spanner's stretch while flooding a
fraction of the link entries OSPF would.  The bench routes sampled pairs
over three advertised sub-graphs and accounts the advertisement volume.

Expected shape: (1,0)-remote-spanner routes with stretch exactly 1 at a
strict advertisement discount; the ε-spanner stays within (1+ε)d + 1−2ε;
MPR flooding reaches everyone with a large transmission discount.

The serving half records ``benchmarks/results/BENCH_routing.json`` — the
acceptance bars of the dynamic serving layer (PR 3):

* the neighbor-sourced :func:`~repro.routing.tables.routing_table` kernel
  must beat the per-destination-BFS reference by ≥ 3× at n ≥ 1500;
* the incremental tables of :class:`~repro.dynamic.RoutingService` must
  beat recompute-per-event by ≥ 5× over a 100-event churn stream at
  n ≥ 1500 — while staying bit-identical to from-scratch tables;
* repairing the dirty distance rows from the tick's net ΔH
  (:func:`~repro.graph.repair_rows`) must beat re-running a batched BFS
  on the same rows by ≥ 5× on a node-churn stream at n = 1500 — with
  identical rows;
* projecting a tick's damaged tables in one batched gather over their
  flat ``(table, column)`` cells (:meth:`RowOwner.project
  <repro.dynamic.serving.RowOwner.project>`) must beat one
  :func:`~repro.routing.tables.project_table_row` pass per table by ≥ 4×
  on the same node-churn stream — with identical tables.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.analysis import render_table
from repro.baselines import simulate_blind_flooding, simulate_mpr_flooding
from repro.core import build_k_connecting_spanner, build_remote_spanner
from repro.dynamic import (
    RoutingService,
    SpannerMaintainer,
    failure_recovery_scenario,
    make_scenario,
)
from repro.dynamic.serving import DenseRows, RowOwner, dirty_rows
from repro.experiments import largest_component, scaled_udg
from repro.graph import batched_bfs, repair_rows, sample_pairs
from repro.routing import (
    full_link_state_cost,
    route_all_pairs_stats,
    routing_table,
    routing_table_scan,
    spanner_advertisement_cost,
)
from repro.routing.tables import project_table_row

#: Serving-layer acceptance bars (ISSUE 3).
REQUIRED_TABLE_SPEEDUP = 5.0  # incremental tables vs recompute-per-event
REQUIRED_KERNEL_SPEEDUP = 3.0  # neighbor-sourced kernel vs per-destination scan
REQUIRED_REPAIR_SPEEDUP = 5.0  # row repair vs batched BFS on the same dirty rows
REQUIRED_CELL_SPEEDUP = 4.0  # batched cell projection vs one pass per table
N_DYN = 1500
NUM_EVENTS = 100
KERNEL_SOURCES = 3  # sources timed per kernel (the scan is the slow part)
REFRESH_SAMPLE = 3  # full-refresh timings averaged for the baseline
DYN_SEED = 20090525
REPAIR_EVENTS = 60  # node-churn events replayed for the row-repair bench
REPAIR_TICK = 5  # events per coalesced tick


@pytest.fixture(scope="module")
def dyn_scenario():
    sc = failure_recovery_scenario(N_DYN, NUM_EVENTS, seed=DYN_SEED)
    assert sc.initial.num_nodes >= 1500, "serving bench must keep n ≥ 1500"
    return sc


@pytest.fixture(scope="module", autouse=True)
def _fresh_artifact(results_dir):
    # The artifact is merged per-key by the two serving benches below;
    # start from scratch each run so a partial rerun can never mix
    # measurements from different code states.
    artifact = results_dir / "BENCH_routing.json"
    if artifact.exists():
        artifact.unlink()


def _merge_artifact(results_dir, key, payload):
    artifact = results_dir / "BENCH_routing.json"
    data = json.loads(artifact.read_text()) if artifact.exists() else {}
    data[key] = payload
    artifact.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _experiment():
    g_full, _pts = scaled_udg(220, target_degree=11.0, seed=70)
    g, _ids = largest_component(g_full)
    pairs = sample_pairs(g, 120, seed=71, require_nonadjacent=False)
    ordered = pairs + [(t, s) for s, t in pairs]
    ospf = full_link_state_cost(g)
    rows = []
    checks = {}
    for name, rs, bound in (
        ("(1,0)-rem.-span.", build_k_connecting_spanner(g, k=1), 1.0),
        ("(1.5,0)-rem.-span.", build_remote_spanner(g, epsilon=0.5), 1.5),
    ):
        stats = route_all_pairs_stats(rs.graph, g, pairs=ordered)
        cost = spanner_advertisement_cost(rs)
        rows.append(
            [
                name,
                cost.entries_per_period,
                round(100 * cost.ratio_to(ospf), 1),
                round(stats.max_stretch, 3),
                round(stats.mean_stretch, 3),
                f"{stats.delivered}/{stats.pairs}",
            ]
        )
        checks[name] = (stats, bound)
    blind = simulate_blind_flooding(g, 0)
    mpr = simulate_mpr_flooding(g, 0)
    rows.append(
        [
            "MPR flooding (broadcast)",
            mpr.transmissions,
            round(100 * mpr.transmissions / blind.transmissions, 1),
            "-",
            "-",
            f"coverage {100 * mpr.coverage(g):.0f}%",
        ]
    )
    return g, ospf, rows, checks, blind, mpr


def test_routing(benchmark, record):
    g, ospf, rows, checks, blind, mpr = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    record(
        "routing",
        render_table(
            ["advertised sub-graph", "entries", "% of OSPF", "max stretch", "mean stretch", "delivered"],
            rows,
            title=(
                "E-routing — greedy link-state routing on advertised sub-graphs\n"
                f"(full link state floods {ospf.entries_per_period} entries per period)"
            ),
        ),
    )
    exact_stats, _ = checks["(1,0)-rem.-span."]
    assert exact_stats.max_stretch == 1.0
    assert exact_stats.delivered == exact_stats.pairs
    assert exact_stats.invariant_violations == 0
    eps_stats, _bound = checks["(1.5,0)-rem.-span."]
    assert eps_stats.delivered == eps_stats.pairs
    assert eps_stats.max_stretch <= 1.5 + 1e-9
    assert mpr.reached == blind.reached
    assert mpr.transmissions < blind.transmissions


def test_routing_table_kernel_speedup(dyn_scenario, record, results_dir, bench_rng):
    """Neighbor-sourced kernel vs per-destination scan — ≥ 3× at n ≥ 1500."""
    g = dyn_scenario.initial
    rs = build_k_connecting_spanner(g, k=1)
    h = rs.graph
    sources = sorted(
        int(x) for x in bench_rng.choice(g.num_nodes, size=KERNEL_SOURCES, replace=False)
    )

    sw = obs.Stopwatch()
    fast = [routing_table(h, g, u) for u in sources]
    t_fast = sw.elapsed()

    sw = obs.Stopwatch()
    scan = [routing_table_scan(h, g, u) for u in sources]
    t_scan = sw.elapsed()

    assert fast == scan, "kernels disagree — speed means nothing"
    speedup = t_scan / t_fast if t_fast > 0 else float("inf")
    payload = {
        "graph": {"n": g.num_nodes, "m": g.num_edges, "m_spanner": h.num_edges},
        "sources_timed": sources,
        "seconds_per_table_neighbor": round(t_fast / KERNEL_SOURCES, 6),
        "seconds_per_table_scan": round(t_scan / KERNEL_SOURCES, 6),
        "speedup_neighbor_vs_scan": round(speedup, 2),
        "required_speedup": REQUIRED_KERNEL_SPEEDUP,
    }
    _merge_artifact(results_dir, "kernel", payload)
    record(
        "bench_routing_kernel",
        f"routing_table kernel n={g.num_nodes}: neighbor-sourced "
        f"{t_fast / KERNEL_SOURCES * 1e3:.1f} ms/table, per-destination scan "
        f"{t_scan / KERNEL_SOURCES * 1e3:.1f} ms/table -> {speedup:.0f}x",
    )
    assert speedup >= REQUIRED_KERNEL_SPEEDUP, (
        f"neighbor-sourced kernel only {speedup:.2f}x faster than the scan "
        f"(need ≥ {REQUIRED_KERNEL_SPEEDUP}x): {payload}"
    )


def test_incremental_tables_vs_recompute(dyn_scenario, record, results_dir, bench_rng):
    """Incremental table maintenance vs recompute-per-event — ≥ 5×."""
    sc = dyn_scenario
    service = RoutingService(sc.initial, "kcover")

    sw = obs.Stopwatch()
    reports = [service.apply(ev) for ev in sc.events]
    t_incremental = sw.elapsed()
    assert service.maintainer.full_rebuilds == 0, "low churn must never trip the fallback"
    rows_total = service.rows_recomputed
    tables_total = service.tables_recomputed
    entries_total = service.entries_updated

    # Served tables must equal a from-scratch build — speed means nothing
    # if the object diverged (spot-checked here; the full property lives in
    # tests/dynamic/test_serving.py).
    h, g = service.advertised, service.graph
    for u in (int(x) for x in bench_rng.choice(g.num_nodes, size=12, replace=False)):
        assert service.table(u) == routing_table(h, g, u), f"table of {u} diverged"

    # Recompute-per-event baseline: the maintainer still repairs the
    # spanner incrementally (its own bench covers rebuild-per-event), but
    # every event re-derives all n tables from the live H — timed as the
    # maintainer stream plus NUM_EVENTS sampled full refreshes, using the
    # same fast kernel the service does (a strong baseline).
    m = SpannerMaintainer(sc.initial, "kcover")
    sw = obs.Stopwatch()
    m.apply_stream(sc.events)
    t_maintainer = sw.elapsed()
    refresh_times = []
    for _ in range(REFRESH_SAMPLE):
        sw = obs.Stopwatch()
        service.refresh()
        refresh_times.append(sw.elapsed())
    mean_refresh = sum(refresh_times) / len(refresh_times)
    t_recompute_est = t_maintainer + mean_refresh * NUM_EVENTS
    speedup = t_recompute_est / t_incremental

    dirty_rows = [r.dirty_rows for r in reports if r.changed]
    payload = {
        "graph": {
            "n": sc.initial.num_nodes,
            "m": sc.initial.num_edges,
            "kind": "udg-failure-recovery",
            "seed": DYN_SEED,
        },
        "events": NUM_EVENTS,
        "seconds": {
            "incremental_total": round(t_incremental, 6),
            "incremental_per_event": round(t_incremental / NUM_EVENTS, 6),
            "maintainer_stream": round(t_maintainer, 6),
            "refresh_samples": [round(t, 6) for t in refresh_times],
            "recompute_total_estimated": round(t_recompute_est, 6),
        },
        "serving_work": {
            "rows_recomputed": rows_total,
            "tables_recomputed": tables_total,
            "entries_updated": entries_total,
            "mean_dirty_rows_per_event": round(sum(dirty_rows) / len(dirty_rows), 1)
            if dirty_rows
            else 0.0,
        },
        "speedup_incremental_vs_recompute": round(speedup, 2),
        "required_speedup": REQUIRED_TABLE_SPEEDUP,
    }
    _merge_artifact(results_dir, "incremental_tables", payload)
    record(
        "bench_routing_incremental",
        f"serving n={sc.initial.num_nodes} events={NUM_EVENTS}: incremental "
        f"{t_incremental:.2f} s ({t_incremental / NUM_EVENTS * 1e3:.1f} ms/event, "
        f"mean dirty rows {payload['serving_work']['mean_dirty_rows_per_event']}), "
        f"recompute-per-event ~{t_recompute_est:.1f} s -> {speedup:.0f}x",
    )
    assert speedup >= REQUIRED_TABLE_SPEEDUP, (
        f"incremental tables only {speedup:.2f}x faster than recompute-per-event "
        f"(need ≥ {REQUIRED_TABLE_SPEEDUP}x): {payload}"
    )


def test_row_repair_vs_bfs(record, results_dir):
    """Row repair vs a batched BFS of the same dirty rows — ≥ 5×."""
    sc = make_scenario("nodechurn", N_DYN, REPAIR_EVENTS, seed=DYN_SEED)
    service = RoutingService(sc.initial, "kcover")
    deltas = []
    service.subscribe(lambda report, _resync: deltas.append(report))
    events = list(sc.events)
    t_repair = t_bfs = 0.0
    rows_total = entries_total = ticks = 0
    per_row = []
    for lo in range(0, len(events), REPAIR_TICK):
        old = service._dist.copy()
        service.apply_batch(events[lo : lo + REPAIR_TICK])
        delta = deltas[-1]
        if not delta.changed or delta.rebuilt:
            continue
        n = service.num_nodes
        before = np.full((n, n), -1, dtype=np.int32)
        before[: old.shape[0], : old.shape[0]] = old
        h = service.advertised.freeze()
        rows = sorted(
            w
            for w in dirty_rows(before, service.advertised, delta.h_added, delta.h_removed)
            if w < old.shape[0]
        )
        sw = obs.Stopwatch()
        r, c, v = repair_rows(h, before, rows, delta.h_added, delta.h_removed)
        t_repair += sw.elapsed()
        sw = obs.Stopwatch()
        fresh = np.array([row for _s, row in batched_bfs(h, rows, arrays=True)])
        t_bfs += sw.elapsed()
        before[r, c] = v
        assert np.array_equal(before[rows], fresh), "repaired rows differ from BFS"
        assert np.array_equal(fresh, service._dist[rows]), "served rows differ from BFS"
        ticks += 1
        rows_total += len(rows)
        entries_total += int(r.size)
        per_row.extend(np.bincount(np.searchsorted(rows, r), minlength=len(rows)).tolist())
    assert ticks > 0 and rows_total > 0
    speedup = t_bfs / t_repair
    payload = {
        "graph": {"n": sc.initial.num_nodes, "kind": "udg-nodechurn", "seed": DYN_SEED},
        "events": REPAIR_EVENTS,
        "tick": REPAIR_TICK,
        "ticks_measured": ticks,
        "dirty_rows_per_tick": round(rows_total / ticks, 1),
        "changed_entries_per_dirty_row": {
            "mean": round(entries_total / rows_total, 2),
            "median": float(np.median(per_row)),
        },
        "ms_per_tick_repair": round(t_repair / ticks * 1e3, 2),
        "ms_per_tick_bfs": round(t_bfs / ticks * 1e3, 2),
        "speedup_repair_vs_bfs": round(speedup, 2),
        "required_speedup": REQUIRED_REPAIR_SPEEDUP,
    }
    _merge_artifact(results_dir, "row_repair", payload)
    record(
        "bench_routing_row_repair",
        f"row repair n={sc.initial.num_nodes} nodechurn, {REPAIR_TICK}-event ticks: "
        f"{payload['dirty_rows_per_tick']} dirty rows/tick, "
        f"{payload['changed_entries_per_dirty_row']['mean']} changed entries/row; "
        f"repair {payload['ms_per_tick_repair']} ms/tick vs BFS "
        f"{payload['ms_per_tick_bfs']} ms/tick -> {speedup:.1f}x",
    )
    assert speedup >= REQUIRED_REPAIR_SPEEDUP, (
        f"row repair only {speedup:.2f}x faster than batched BFS "
        f"(need ≥ {REQUIRED_REPAIR_SPEEDUP}x): {payload}"
    )


def test_cell_projection_vs_per_table(record, results_dir):
    """Batched cell projection vs one ``project_table_row`` per table — ≥ 4×."""
    sc = make_scenario("nodechurn", N_DYN, REPAIR_EVENTS, seed=DYN_SEED)
    service = RoutingService(sc.initial, "kcover")
    project = service._project_tables
    timings = []  # (per-table s, batched s, tables, cells) per measured tick

    def per_table(dist, tables, indptr, indices, jobs):
        for u, cols in jobs:
            nbrs = indices[indptr[u] : indptr[u + 1]].tolist()
            project_table_row(dist, tables[u], nbrs, u, cols)

    def best_of_3(run, before):
        best = float("inf")
        for _ in range(3):
            tables = before.copy()  # every round projects from the same state
            sw = obs.Stopwatch()
            run(tables)
            best = min(best, sw.elapsed())
        return best, tables

    def measured(damage):
        if damage.us.size:
            g, dist, before = service.graph.freeze(), service._dist, service._tables
            indptr, indices = g.numpy_arrays()
            starts = np.flatnonzero(np.diff(damage.us, prepend=-1))
            jobs = [(u, None) for u in damage.whole.tolist()] + list(
                zip(damage.us[starts].tolist(), np.split(damage.cs, starts[1:]))
            )
            t_table, by_table = best_of_3(
                lambda tab: per_table(dist, tab, indptr, indices, jobs), before
            )
            t_cells, by_cells = best_of_3(
                lambda tab: RowOwner(DenseRows(dist), DenseRows(tab)).project(g, damage), before
            )
            assert np.array_equal(by_cells, by_table), "batched and per-table tables differ"
            touched = project(damage)
            assert np.array_equal(service._tables, by_cells), "served tables differ"
            timings.append((t_table, t_cells, touched, int(damage.us.size)))
            return touched
        return project(damage)

    service._project_tables = measured
    events = list(sc.events)
    for lo in range(0, len(events), REPAIR_TICK):
        service.apply_batch(events[lo : lo + REPAIR_TICK])
    h, g = service.advertised, service.graph
    for u in range(0, g.num_nodes, 97):
        assert service.table(u) == routing_table(h, g, u), f"table of {u} diverged"
    assert timings
    ticks = len(timings)
    t_table = sum(t for t, _c, _n, _k in timings)
    t_cells = sum(c for _t, c, _n, _k in timings)
    speedup = t_table / t_cells
    payload = {
        "graph": {"n": sc.initial.num_nodes, "kind": "udg-nodechurn", "seed": DYN_SEED},
        "events": REPAIR_EVENTS,
        "tick": REPAIR_TICK,
        "ticks_measured": ticks,
        "tables_per_tick": round(sum(n for _t, _c, n, _k in timings) / ticks, 1),
        "cells_per_tick": round(sum(k for _t, _c, _n, k in timings) / ticks, 1),
        "ms_per_tick_per_table": round(t_table / ticks * 1e3, 2),
        "ms_per_tick_cells": round(t_cells / ticks * 1e3, 2),
        "speedup_cells_vs_per_table": round(speedup, 2),
        "required_speedup": REQUIRED_CELL_SPEEDUP,
    }
    _merge_artifact(results_dir, "cell_projection", payload)
    record(
        "bench_routing_cell_projection",
        f"table projection n={sc.initial.num_nodes} nodechurn, {REPAIR_TICK}-event ticks: "
        f"{payload['tables_per_tick']} tables/tick, {payload['cells_per_tick']} cells/tick; "
        f"batched cells {payload['ms_per_tick_cells']} ms/tick vs per table "
        f"{payload['ms_per_tick_per_table']} ms/tick -> {speedup:.1f}x",
    )
    assert speedup >= REQUIRED_CELL_SPEEDUP, (
        f"batched cell projection only {speedup:.2f}x faster than one pass per table "
        f"(need ≥ {REQUIRED_CELL_SPEEDUP}x): {payload}"
    )
