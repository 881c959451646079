"""Exp **E-faults** — self-healing recovery cost and the fault plane's price.

The PR-9 acceptance gate, measured: a forced mid-repair worker crash
(every worker dies on its first delta task, respawns exempt) must be
survived without caller intervention and the tables must reconverge
bit-identically to the serial twin — the artifact records the recovery
throughput (events/second under the crash storm, the guarded headline)
next to the quiet-plan baseline so the overhead of dying-and-respawning
is a number, not a vibe.

The second bar is the *zero-cost-off* claim: with ``REPRO_FAULT_PLAN`` unset
the hooks compiled into the hot paths (task start, result send, row
write, shm create/attach) must cost ≤ 2% of a repair event.  Wall-clock
A/B at 2% is runner noise, so the bound is established structurally: the
disarmed hook is timed directly (ns/call) and multiplied by the hook
calls a repair event makes — counted on the same soak, in the workers and
the parent — then compared against the measured per-event repair time.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import faults, obs
from repro.dynamic import RoutingService, make_scenario
from repro.faults import EXIT_TASK_CRASH, FaultPlan, FaultRule
from repro.parallel import ShardedRoutingService

N_FAULTS = 400
NUM_EVENTS = 20
CHUNK = 5  # events per repair batch
FAULT_SEED = 20090525
CPU_COUNT = os.cpu_count() or 1
WORKERS = min(2, CPU_COUNT)
HOOK_OVERHEAD_BAR = 2.0  # percent of a repair event, hooks disarmed

#: Every fresh worker dies on its first delta task (the two build stages
#: are exactly two task starts per worker, so ``after=2`` skips them);
#: respawned incarnations are exempt, so the storm is survivable by
#: construction and the recovery path is what gets measured.
MID_DELTA_CRASH = FaultPlan(
    "mid-delta", 5, (FaultRule("task.crash", p=1.0, count=1, after=2, fresh_only=True),)
)


@pytest.fixture(scope="module", autouse=True)
def _fresh_artifact(results_dir):
    artifact = results_dir / "BENCH_faults.json"
    if artifact.exists():
        artifact.unlink()


def _merge_artifact(results_dir, key, payload):
    artifact = results_dir / "BENCH_faults.json"
    data = json.loads(artifact.read_text()) if artifact.exists() else {}
    data[key] = payload
    artifact.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


#: Arms the fault plane (every hook runs) without ever firing: the soak
#: that counts hook calls.
NEVER_FIRES = FaultPlan("count-hooks", 5, (FaultRule("write.crash", p=0.0),))

#: The hooks compiled into ``repro.parallel``, each behind ``if _faults.active``.
HOOKS = ("on_task_start", "on_result", "on_begin_row_write", "on_shm_create", "on_shm_attach")


def _soak(sc, events, *, armed):
    """Apply *events* in CHUNK-sized repair batches; return (seconds, service stats)."""
    with ShardedRoutingService(
        sc.initial, "kcover", workers=WORKERS, rebuild_fraction=1.0
    ) as service:
        sw = obs.Stopwatch()
        for start in range(0, len(events), CHUNK):
            service.apply_batch(events[start : start + CHUNK])
        elapsed = sw.elapsed()
        health = service.pool_health.as_dict()
        dist = np.asarray(service._dist).copy()
        tables = np.asarray(service._tables).copy()
    return elapsed, health, dist, tables


def test_mid_repair_crash_recovery(record, results_dir, monkeypatch):
    sc = make_scenario("mobility", N_FAULTS, NUM_EVENTS, seed=FAULT_SEED)
    events = list(sc.events)

    serial = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
    for start in range(0, len(events), CHUNK):
        serial.apply_batch(events[start : start + CHUNK])

    # Quiet baseline: same stream, fault plane fully disarmed.
    faults.uninstall()
    monkeypatch.delenv(faults.ENV_PLAN, raising=False)
    t_quiet, quiet_health, dist, tables = _soak(sc, events, armed=False)
    assert quiet_health["respawns"] == 0
    assert np.array_equal(dist, serial._dist) and np.array_equal(tables, serial._tables)

    # Crash storm: armed through the env so fork *and* spawn workers see it.
    monkeypatch.setenv(faults.ENV_PLAN, MID_DELTA_CRASH.spec())
    faults.maybe_install_from_env()
    try:
        t_crash, health, dist, tables = _soak(sc, events, armed=True)
    finally:
        faults.uninstall()

    crashes_survived = health["respawns"]
    assert crashes_survived >= 1, "the forced crash must actually fire"
    assert EXIT_TASK_CRASH in health["last_exitcodes"].values()
    reconverged = bool(
        np.array_equal(dist, serial._dist) and np.array_equal(tables, serial._tables)
    )
    assert reconverged, "tables must reconverge bit-identically after the storm"

    payload = {
        "graph": {"n": sc.initial.num_nodes, "m": sc.initial.num_edges, "seed": FAULT_SEED},
        "events": NUM_EVENTS,
        "chunk": CHUNK,
        "workers": WORKERS,
        "cpu_count": CPU_COUNT,
        "plan": MID_DELTA_CRASH.spec(),
        "quiet_seconds": round(t_quiet, 6),
        "crash_seconds": round(t_crash, 6),
        "recovery_overhead_seconds": round(t_crash - t_quiet, 6),
        "recovery_events_per_second": round(len(events) / t_crash, 2),
        "quiet_events_per_second": round(len(events) / t_quiet, 2),
        "crashes_survived": crashes_survived,
        "exitcodes": sorted(set(health["last_exitcodes"].values())),
        "torn_rows_repaired": health["torn_rows_repaired"],
        "reconverged": reconverged,
    }
    _merge_artifact(results_dir, "crash_recovery", payload)
    record(
        "bench_faults_recovery",
        f"mid-repair crash recovery n={sc.initial.num_nodes} events={NUM_EVENTS} "
        f"W={WORKERS}: quiet {len(events) / t_quiet:.1f} ev/s, under crash storm "
        f"{len(events) / t_crash:.1f} ev/s ({crashes_survived} crash(es) survived, "
        f"reconverged: {'yes' if reconverged else 'NO'})",
    )


def test_hooks_off_overhead(record, results_dir, monkeypatch):
    # Per-event repair cost, hooks present but disarmed.
    faults.uninstall()
    monkeypatch.delenv(faults.ENV_PLAN, raising=False)
    sc = make_scenario("mobility", N_FAULTS, NUM_EVENTS, seed=FAULT_SEED)
    t_quiet, _health, _d, _t = _soak(sc, list(sc.events), armed=False)
    event_seconds = t_quiet / NUM_EVENTS

    # Direct ns/call on the hottest disarmed hooks (min over repeats so a
    # scheduler hiccup cannot inflate the claim).
    rounds = 100_000

    def per_call(fn, *args):
        best = float("inf")
        for _ in range(3):
            sw = obs.Stopwatch()
            for _ in range(rounds):
                fn(*args)
            best = min(best, sw.elapsed() / rounds)
        return best

    task_ns = per_call(faults.on_task_start, "serve_rows") * 1e9
    result_ns = per_call(faults.on_result, "serve_rows") * 1e9
    write_ns = per_call(faults.on_begin_row_write, 0) * 1e9

    # Per-event hook budget: the calls the same soak makes per event (one
    # per write bracket, task start, result send and shm create/attach).
    hook_calls = _count_hook_calls(sc, list(sc.events), monkeypatch)
    calls_per_event = sum(hook_calls.values()) / NUM_EVENTS
    hook_seconds = (max(task_ns, result_ns, write_ns) / 1e9) * calls_per_event
    overhead_percent = 100.0 * hook_seconds / event_seconds
    assert overhead_percent <= HOOK_OVERHEAD_BAR, (
        f"disarmed hooks cost {overhead_percent:.3f}% of a repair event "
        f"(bar {HOOK_OVERHEAD_BAR}%)"
    )

    payload = {
        "task_start_ns_per_call": round(task_ns, 1),
        "result_ns_per_call": round(result_ns, 1),
        "row_write_ns_per_call": round(write_ns, 1),
        "hook_calls": hook_calls,
        "calls_per_event_budget": round(calls_per_event, 2),
        "event_seconds": round(event_seconds, 6),
        "overhead_percent": round(overhead_percent, 4),
        "bar_percent": HOOK_OVERHEAD_BAR,
    }
    _merge_artifact(results_dir, "hooks_off_overhead", payload)
    record(
        "bench_faults_overhead",
        f"hooks-off overhead: ≤{max(task_ns, result_ns, write_ns):.0f}ns/call × "
        f"{calls_per_event:.1f} calls/event = {overhead_percent:.3f}% of a "
        f"{event_seconds * 1e3:.1f}ms repair event (bar {HOOK_OVERHEAD_BAR}%)",
    )


def _count_hook_calls(sc, events, monkeypatch) -> dict:
    """Calls of each fault hook while the soak applies *events*, summed over
    the workers and the parent; the build before the first event is not
    counted.

    The plane is armed with :data:`NEVER_FIRES`, so every hook runs and
    none fires, and each hook is wrapped to count itself into the
    process's metrics registry; forked workers inherit the wrappers and
    ship their counts back with their metrics.
    """

    def counting(name, hook):
        def wrapper(*args):
            obs.metrics().inc(f"bench.hooks.{name}")
            return hook(*args)

        return wrapper

    def counts(merged) -> dict:
        parent = obs.metrics()
        return {
            name: merged["counters"].get(f"bench.hooks.{name}", 0)
            + parent.counter(f"bench.hooks.{name}")
            for name in HOOKS
        }

    for name in HOOKS:
        monkeypatch.setattr(faults, name, counting(name, getattr(faults, name)))
    monkeypatch.setenv(faults.ENV_PLAN, NEVER_FIRES.spec())
    faults.maybe_install_from_env()
    try:
        with ShardedRoutingService(
            sc.initial, "kcover", workers=WORKERS, rebuild_fraction=1.0
        ) as service:
            before = counts(service.metrics()["merged"])
            for start in range(0, len(events), CHUNK):
                service.apply_batch(events[start : start + CHUNK])
            after = counts(service.metrics()["merged"])
    finally:
        faults.uninstall()
        monkeypatch.delenv(faults.ENV_PLAN, raising=False)
    calls = {name: int(after[name] - before[name]) for name in HOOKS}
    assert calls["on_task_start"] > 0 and calls["on_begin_row_write"] > 0, (
        f"the counting soak saw no hook calls: {calls}"
    )
    return calls
