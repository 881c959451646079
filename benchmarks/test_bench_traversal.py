"""Traversal micro-benchmark: set path vs CSR path, head to head.

The acceptance bar of the CSR subsystem: ``batched_bfs`` must beat a loop
of set-path BFS runs by ≥ 2× on a unit-disk graph with n ≥ 2000.  Each arm
reaches its path by input type: the set arm runs on a never-frozen copy of
the graph, the CSR arms on its ``freeze()`` snapshot.
Beyond the assertion, the measured timings are persisted as
``BENCH_traversal.json`` (in ``benchmarks/results/``; ``scripts/check.sh``
copies it to the repo root) so future PRs have a perf trajectory to compare
against.

Timings here are best-of-rounds minima via :func:`repro.obs.time_best`
rather than pytest-benchmark calibration: the quantity of interest is the
*ratio* between two code paths over an identical workload, and taking the
minimum of paired rounds is the most noise-robust way to get it.  The two
arms of that ratio run in alternating rounds (sets, batched, sets, ...), so
a drift in host speed during the test lands on both arms alike.

The artifact also times ``batched_bfs``'s two kernels head to head: the
550 sources through the lane kernel alone and through the frontier kernel
alone, and chunks of 1–16 sources through each, from which it records the
measured crossover next to the module's ``_LANE_MIN_SOURCES``.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.graph import batched_bfs, bfs_distances, bfs_parents, multi_source_distances
from repro.graph import traversal
from repro.graph.traversal import _csr_of
from repro.experiments import largest_component, scaled_udg

#: Acceptance bar for the batched CSR engine vs the per-source set loop.
REQUIRED_SPEEDUP = 2.0
ROUNDS = 3
N_NODES = 2200
TARGET_DEGREE = 12.0


@pytest.fixture(scope="module")
def udg():
    g_full, _pts = scaled_udg(N_NODES, target_degree=TARGET_DEGREE, seed=99)
    g, _ids = largest_component(g_full)
    assert g.num_nodes >= 2000, "benchmark graph must keep n ≥ 2000"
    return g


def _best_of(fn, rounds: int = ROUNDS) -> float:
    return obs.time_best(fn, repeats=rounds)


def test_batched_bfs_speedup(udg, record, results_dir, bench_rng):
    g = udg
    # ~550 random BFS sources, reproducible via the repro.rng-derived stream.
    sources = sorted(
        int(s) for s in bench_rng.choice(g.num_nodes, size=g.num_nodes // 4, replace=False)
    )

    plain = g.copy()  # never frozen: the set loops
    assert _csr_of(plain) is None

    def set_loop():
        for s in sources:
            bfs_distances(plain, s)

    def batched():
        for _s, _d in batched_bfs(g.freeze(), sources):
            pass

    def csr_single_loop():
        csr = g.freeze()
        for s in sources:
            bfs_distances(csr, s)

    t_sets = t_batched = float("inf")
    for _ in range(ROUNDS):
        t_sets = min(t_sets, _best_of(set_loop, rounds=1))
        t_batched = min(t_batched, _best_of(batched, rounds=1))
    t_csr_single = _best_of(csr_single_loop)
    # One cold conversion, measured separately: batched_bfs amortizes it.
    g._csr = None
    t_freeze = _best_of(lambda: g.freeze(), rounds=1)

    kernels = _kernel_timings(g.freeze(), sources, bench_rng)
    speedup = t_sets / t_batched
    payload = {
        "graph": {"n": g.num_nodes, "m": g.num_edges, "kind": "udg", "seed": 99},
        "sources": len(sources),
        "seconds": {
            "set_backend_loop": round(t_sets, 6),
            "csr_single_source_loop": round(t_csr_single, 6),
            "batched_bfs": round(t_batched, 6),
            "freeze_conversion": round(t_freeze, 6),
        },
        "kernels": kernels,
        "speedup_batched_vs_sets": round(speedup, 2),
        "speedup_single_vs_sets": round(t_sets / t_csr_single, 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "rounds": ROUNDS,
    }
    (results_dir / "BENCH_traversal.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    record(
        "bench_traversal",
        f"traversal n={g.num_nodes} m={g.num_edges} sources={len(sources)}: "
        f"sets {t_sets * 1e3:.0f} ms, csr-single {t_csr_single * 1e3:.0f} ms, "
        f"batched {t_batched * 1e3:.0f} ms -> {speedup:.1f}x "
        f"(freeze {t_freeze * 1e3:.1f} ms); lanes {kernels['lanes_seconds'] * 1e3:.0f} ms "
        f"vs frontier {kernels['frontier_seconds'] * 1e3:.0f} ms, crossover "
        f"{kernels['measured_crossover']} (constant {kernels['lane_min_sources']})",
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched_bfs only {speedup:.2f}x faster than the set backend "
        f"(need ≥ {REQUIRED_SPEEDUP}x): {payload}"
    )


#: Chunk sizes at which the crossover between the two kernels is measured.
CROSSOVER_SIZES = (1, 2, 4, 6, 8, 12, 16)


def _kernel_timings(csr, sources, rng) -> dict:
    """Each ``batched_bfs`` kernel alone on *sources* (64 to a chunk), and
    per chunk size, both kernels on one chunk of random sources; the
    measured crossover is the smallest size from which the lanes are
    never slower."""
    lanes, word = traversal._Lanes(csr), traversal._LANES

    def lane_run(srcs):
        return lambda: [lanes.rows(srcs[w : w + word], None) for w in range(0, len(srcs), word)]

    def frontier_run(srcs):
        return lambda: [
            traversal._frontier_rows(csr, srcs[w : w + word], None)
            for w in range(0, len(srcs), word)
        ]

    t_lanes = t_frontier = float("inf")
    for _ in range(ROUNDS):
        t_lanes = min(t_lanes, _best_of(lane_run(sources), rounds=1))
        t_frontier = min(t_frontier, _best_of(frontier_run(sources), rounds=1))
    per_size = {}
    for b in CROSSOVER_SIZES:
        srcs = [int(s) for s in rng.choice(csr.num_nodes, size=b, replace=False)]
        tl = tf = float("inf")
        for _ in range(5):
            tl = min(tl, _best_of(lane_run(srcs), rounds=1))
            tf = min(tf, _best_of(frontier_run(srcs), rounds=1))
        per_size[str(b)] = {"lanes_ms": round(tl * 1e3, 3), "frontier_ms": round(tf * 1e3, 3)}
    crossover = None
    for b in reversed(CROSSOVER_SIZES):
        if per_size[str(b)]["lanes_ms"] > per_size[str(b)]["frontier_ms"]:
            break
        crossover = b
    return {
        "lanes_seconds": round(t_lanes, 6),
        "frontier_seconds": round(t_frontier, 6),
        "speedup_lanes_vs_frontier": round(t_frontier / t_lanes, 2),
        "chunk_ms": per_size,
        "measured_crossover": crossover,
        "lane_min_sources": traversal._LANE_MIN_SOURCES,
    }


def test_backends_agree_on_bench_graph(udg):
    """The workload the speedup is claimed on is also checked for exactness."""
    plain, csr = udg.copy(), udg.freeze()
    sources = list(range(0, csr.num_nodes, 97))
    for s, dist in batched_bfs(csr, sources):
        assert dist == bfs_distances(plain, s)
    s0 = sources[0]
    assert bfs_parents(csr, s0) == bfs_parents(plain, s0)
    assert multi_source_distances(csr, sources) == multi_source_distances(plain, sources)


# Calibrated single-call baselines (pytest-benchmark), for the -v tables.


def test_bfs_single_sets(benchmark, udg):
    benchmark(bfs_distances, udg.copy(), 0)


def test_bfs_single_csr(benchmark, udg):
    benchmark(bfs_distances, udg.freeze(), 0)
