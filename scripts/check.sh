#!/usr/bin/env bash
# Repo check gate: collection -> tier-1 -> perf artifacts -> regression
# guard -> ruff and mypy.
#
#   ./scripts/check.sh                 # full gate
#   SKIP_BENCH=1 ./scripts/check.sh    # tests + ruff/mypy (e.g. on battery)
#   BENCH_GUARD_SKIP=1 ./scripts/check.sh   # record benches, skip the guard
#
# Step 2 is tier-1, which checks after every test that it left no
# /dev/shm/repro-* segment behind (tests/conftest.py) — the parallel
# suite and the chaos corpus (tests/faults/) included.  Tier-1 also
# holds the repo's one static pass, the layering table of
# tests/test_layering.py: the RNG/seed-flow, shm, task, exception,
# timing, fault-hook, event-loop, seqlock and write-path invariants as
# rows of (what, where it may appear, why) over one walk of src,
# benchmarks and scripts.  It then runs
# perfbench's own smoke tests (`python -m
# pytest perfbench`): they install every layer-tracer binding, so
# renaming or dropping a traced module attribute fails here.  It ends
# with the seven soak smokes (all on the one `repro.soak` loop): a
# traffic soak writing ./OBS_traffic.json + ./OBS_traffic.trace.json
# through the --metrics/--trace flags, a crashy chaos soak that must
# reconverge, the distserve actor tier on loopback and over a
# Unix-domain socket, a 2-worker serve verified every event
# (./OBS_serve*.json), a 2-worker traffic soak whose queries ride a
# RouteReader (./OBS_traffic_smoke*.json), and a mayhem chaos soak over
# the partition scenario (./OBS_chaos.json).  CI uploads the OBS_*.json
# artifacts.
#
# Step 3 runs the traversal, kcover-construction, dynamic-maintenance,
# routing-serving, parallel-serving, query-serving, observability,
# fault-recovery, wire-bytes and actor-tier micro-benchmarks and leaves
# their JSON artifacts at ./BENCH_traversal.json,
# ./BENCH_construction.json, ./BENCH_dynamic.json,
# ./BENCH_routing.json, ./BENCH_parallel.json, ./BENCH_queries.json,
# ./BENCH_obs.json, ./BENCH_faults.json, ./BENCH_wire.json and
# ./BENCH_actors.json (copied from
# benchmarks/results/) so successive PRs
# accumulate a perf trajectory.
# The parallel, query and obs benches degrade gracefully on single-core
# runners: they record the measurement and a "degraded" marker instead
# of asserting the multi-core speedup/overhead bars.
#
# Step 4 compares the freshly recorded speedups against the artifacts
# committed at HEAD with a tolerance band (scripts/bench_guard.py) and
# fails loudly on a structural perf regression.
#
# Step 5 runs ruff and mypy when installed (`pip install -e ".[lint]"`):
# `ruff check` blocks, `ruff format --check` is advisory (formatting
# drift is reported, not fatal), mypy blocks on the typed core subset
# from pyproject.toml.
# CI (.github/workflows/check.yml) runs exactly this script.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== [1/5] collection gate (every test module must import) =="
python -m pytest --collect-only -q tests > /dev/null

echo "== [2/5] tier-1 test suite =="
python -m pytest -q tests

echo "-- perfbench smoke tests (the only run that installs every layer-tracer binding)"
python -m pytest -q perfbench

echo "-- soak smokes: traffic, chaos, distserve, serve over the repro.soak loop"
PYTHONPATH=src python -m repro traffic --n 150 --events 20 --queries 15 \
    --workload uniform --compare-bfs 0 \
    --metrics OBS_traffic.json --trace OBS_traffic.trace.json
PYTHONPATH=src python -m repro obs OBS_traffic.json > /dev/null
PYTHONPATH=src python -m repro chaos --plan crashy --scenario outage \
    --n 80 --events 20 --tick 5 --queries 10 --workers 1 --seed 2009
PYTHONPATH=src python -m repro distserve --scenario mobility --transport loop \
    --n 80 --events 20 --tick 5 --shards 4 --queries 10 --seed 2009
PYTHONPATH=src python -m repro distserve --scenario growth --transport uds \
    --n 60 --events 16 --tick 4 --shards 3 --queries 8 --seed 2009
PYTHONPATH=src python -m repro serve --scenario failure --n 150 --events 30 \
    --workers 2 --check-every 1 --metrics OBS_serve.json --trace OBS_serve.trace.json
PYTHONPATH=src python -m repro traffic --n 150 --events 30 --queries 20 --workers 2 \
    --metrics OBS_traffic_smoke.json --trace OBS_traffic_smoke.trace.json
PYTHONPATH=src python -m repro chaos --plan mayhem --scenario partition --n 100 \
    --events 25 --tick 5 --queries 10 --workers 2 --seed 2009 --metrics OBS_chaos.json

run_static_analysis() {
    echo "== [5/5] ruff and mypy (when installed) =="
    if command -v ruff > /dev/null 2>&1; then
        ruff check .
        ruff format --check . \
            || echo "ruff format: drift reported above (advisory — run 'ruff format .')"
    else
        echo "ruff not installed — skipped (pip install -e '.[lint]')"
    fi
    if command -v mypy > /dev/null 2>&1; then
        mypy
    else
        echo "mypy not installed — skipped (pip install -e '.[lint]')"
    fi
}

if [ "${SKIP_BENCH:-0}" = "1" ]; then
    echo "== [3/5] perf benchmarks skipped (SKIP_BENCH=1) =="
    echo "== [4/5] bench regression guard skipped (SKIP_BENCH=1) =="
    run_static_analysis
    exit 0
fi

echo "== [3/5] perf benchmarks (write BENCH_{traversal,construction,dynamic,routing,parallel,queries,obs,faults,wire,actors}.json) =="
python -m pytest -q benchmarks/test_bench_traversal.py \
    benchmarks/test_bench_construction.py::test_kcover_trees_speedup \
    benchmarks/test_bench_dynamic.py \
    benchmarks/test_bench_routing.py benchmarks/test_bench_parallel.py \
    benchmarks/test_bench_queries.py benchmarks/test_bench_obs.py \
    benchmarks/test_bench_faults.py benchmarks/test_bench_wire.py \
    benchmarks/test_bench_actors.py \
    -p no:cacheprovider --benchmark-disable
cp benchmarks/results/BENCH_traversal.json BENCH_traversal.json
cp benchmarks/results/BENCH_construction.json BENCH_construction.json
cp benchmarks/results/BENCH_dynamic.json BENCH_dynamic.json
cp benchmarks/results/BENCH_routing.json BENCH_routing.json
cp benchmarks/results/BENCH_parallel.json BENCH_parallel.json
cp benchmarks/results/BENCH_queries.json BENCH_queries.json
cp benchmarks/results/BENCH_obs.json BENCH_obs.json
cp benchmarks/results/BENCH_faults.json BENCH_faults.json
cp benchmarks/results/BENCH_wire.json BENCH_wire.json
cp benchmarks/results/BENCH_actors.json BENCH_actors.json
echo "perf artifacts: ./BENCH_traversal.json ./BENCH_construction.json ./BENCH_dynamic.json ./BENCH_routing.json ./BENCH_parallel.json ./BENCH_queries.json ./BENCH_obs.json ./BENCH_faults.json ./BENCH_wire.json ./BENCH_actors.json"
python - <<'PYEOF'
import json
t = json.load(open("BENCH_traversal.json"))
kc = json.load(open("BENCH_construction.json"))["kcover"]
d = json.load(open("BENCH_dynamic.json"))
r = json.load(open("BENCH_routing.json"))
p = json.load(open("BENCH_parallel.json"))
q = json.load(open("BENCH_queries.json"))
o = json.load(open("BENCH_obs.json"))
flt = json.load(open("BENCH_faults.json"))
wire = json.load(open("BENCH_wire.json"))
actors = json.load(open("BENCH_actors.json"))
print(
    f"batched_bfs speedup vs set backend: "
    f"{t['speedup_batched_vs_sets']}x (required {t['required_speedup']}x)"
)
print(
    f"batched_bfs lanes vs frontier kernel: {t['kernels']['speedup_lanes_vs_frontier']}x "
    f"(measured crossover {t['kernels']['measured_crossover']} sources, "
    f"constant {t['kernels']['lane_min_sources']})"
)
print(
    f"kcover trees, bitmask vs set reference: {kc['speedup_bitmask_vs_reference']}x "
    f"(required {kc['required_speedup']}x)"
)
print(
    f"incremental maintenance speedup vs rebuild-per-event: "
    f"{d['speedup_incremental_vs_rebuild']}x (required {d['required_speedup']}x)"
)
print(
    f"routing_table kernel speedup vs per-destination scan: "
    f"{r['kernel']['speedup_neighbor_vs_scan']}x "
    f"(required {r['kernel']['required_speedup']}x)"
)
print(
    f"incremental tables speedup vs recompute-per-event: "
    f"{r['incremental_tables']['speedup_incremental_vs_recompute']}x "
    f"(required {r['incremental_tables']['required_speedup']}x)"
)
print(
    f"row repair speedup vs batched BFS on the same dirty rows: "
    f"{r['row_repair']['speedup_repair_vs_bfs']}x "
    f"(required {r['row_repair']['required_speedup']}x)"
)
print(
    f"batched cell projection speedup vs one pass per table: "
    f"{r['cell_projection']['speedup_cells_vs_per_table']}x "
    f"(required {r['cell_projection']['required_speedup']}x)"
)
sharded = p["sharded_repair"]
curve = ", ".join(
    f"W={w}: {s['events_per_second']} ev/s" for w, s in sharded["workers"].items()
)
if sharded.get("degraded"):
    print(f"sharded repair: {curve} [{sharded['degraded']}]")
else:
    print(
        f"sharded repair 4-vs-1 worker speedup: {sharded['speedup_4_vs_1']}x "
        f"(required {sharded['required_speedup']}x; {curve})"
    )
pub = p["publish_cost"]
print(
    f"shared-memory publish (whole snapshot, n={pub['graph']['n']}): "
    f"{pub['full_publish']['mean_seconds'] * 1e6:.1f} us for "
    f"{pub['full_publish']['bytes']} B"
)
qt = q["query_throughput"]
line = (
    f"served route queries vs per-hop BFS: {qt['speedup_served_vs_bfs']}x "
    f"(required {qt['required_speedup']}x; "
    f"{qt['route_served']['queries_per_second']} q/s served)"
)
print(line + (f" [{qt['degraded']}]" if qt.get("degraded") else ""))
bq = q["batch_vs_loop"]
print(
    f"batched route queries vs per-query loop: {bq['speedup_batch_vs_loop']}x "
    f"(required {bq['required_speedup']}x; {bq['batch']['queries_per_second']} q/s "
    f"over {bq['steps']} hop steps)"
    + (f" [{bq['degraded']}]" if bq.get("degraded") else "")
)
rd = q["read_during_repair"]
print(
    f"concurrent reads during repair: {rd['reads_per_second']}/s, "
    f"p50 {rd['latency_us']['p50']}us p99 {rd['latency_us']['p99']}us, "
    f"{rd['torn_retries']} seqlock retries"
    + (f" [{rd['degraded']}]" if rd.get("degraded") else "")
)
ov = o["overhead"]
print(
    f"obs instrumentation overhead: {ov['overhead_pct']}% "
    f"(bar {ov['max_overhead_pct']}%)"
    + (f" [{ov['degraded']}]" if ov.get("degraded") else "")
)
mx = o["merge_exactness"]
print(
    f"obs merge exactness: serial {mx['serial_rows_recomputed']} rows == "
    f"merged {mx['merged_rows_recomputed']} over {mx['workers']} shards: "
    f"{'exact' if mx['exact'] else 'MISMATCH'}"
)
cr = flt["crash_recovery"]
print(
    f"fault recovery: {cr['recovery_events_per_second']} ev/s under the crash "
    f"storm vs {cr['quiet_events_per_second']} ev/s quiet "
    f"({cr['crashes_survived']} crash(es) survived, "
    f"reconverged: {'yes' if cr['reconverged'] else 'NO'})"
)
ho = flt["hooks_off_overhead"]
print(
    f"fault hooks disarmed: {ho['overhead_percent']}% of a repair event "
    f"(bar {ho['bar_percent']}%)"
)
w = wire["wire"]
print(
    f"wire bytes: incremental LSA {w['incremental_bytes']} B vs naive "
    f"full-flooding {w['naive_bytes']} B — "
    f"{w['reduction_naive_vs_incremental']}x reduction (bar {w['bar']}x)"
)
ac = actors["actors"]
print(
    f"actor tier: {ac['ms_per_tick_actors']} ms/tick vs serial "
    f"{ac['ms_per_tick_serial']} ms/tick ({ac['actor_vs_serial']}x); BFS sources "
    f"{ac['bfs_sources_per_tick']}/tick vs {ac['scratch_sources_per_tick']} from "
    f"scratch ({ac['bfs_reduction_vs_scratch']}x fewer)"
)
PYEOF

echo "== [4/5] benchmark-regression guard (fresh vs committed, tolerance band) =="
python scripts/bench_guard.py

run_static_analysis
