"""Micro-benchmarks of the four constructions and the verification stack.

Calibrated pytest-benchmark timings (the rest of the suite is experiment
regeneration; this file is where wall-clock performance is tracked).  A
fixed 200-node UDG keeps numbers comparable across runs.

The fixture graph is frozen up front, so the constructions ride the CSR
adjacency backend exactly as ``build_from_trees`` does in production; the
two ``test_bfs_*`` entries pin the set-path vs CSR-path single-BFS
baseline (the batched comparison lives in ``test_bench_traversal.py``).

``test_kcover_trees_speedup`` is the acceptance bar of Algorithm 4 on
bitmasks: ``dom_tree_kcover`` must build every root's tree on the
2200-node UDG of ``test_bench_traversal.py`` at ≥ 3× the trees/s of the
set-based test reference (``tests/core/kcover_reference.py``), with equal
output.  The timings persist as ``BENCH_construction.json``; the two arms
run in alternating rounds and each keeps its best, as in the traversal
bench.
"""

import json

import pytest

from repro import obs
from repro.core import (
    build_k_connecting_spanner,
    dom_tree_greedy,
    dom_tree_kcover,
    dom_tree_kmis,
    dom_tree_mis,
    is_remote_spanner,
)
from repro.experiments import largest_component, scaled_udg
from repro.graph import bfs_distances
from repro.paths import k_connecting_distance
from tests.core.kcover_reference import reference_kcover

#: Acceptance bar for the bitmask greedy vs the set-based reference.
REQUIRED_SPEEDUP = 3.0
ROUNDS = 5
KS = (1, 2)


@pytest.fixture(scope="module")
def udg():
    g_full, _pts = scaled_udg(200, target_degree=12.0, seed=99)
    g, _ids = largest_component(g_full)
    g.freeze()
    return g


@pytest.fixture(scope="module")
def bench_udg():
    g_full, _pts = scaled_udg(2200, target_degree=12.0, seed=99)
    g, _ids = largest_component(g_full)
    assert g.num_nodes >= 2000, "benchmark graph must keep n ≥ 2000"
    g.freeze()
    return g


def test_kcover_trees_speedup(bench_udg, record, results_dir):
    g = bench_udg
    roots = list(g.nodes())
    for u in roots[::7]:
        for k in KS:
            assert dom_tree_kcover(g, u, k).parent == reference_kcover(g, u, k).parent

    def trees(fn, k):
        def run():
            for u in roots:
                fn(g, u, k)

        return run

    per_k = {}
    for k in KS:
        t_ref = t_lib = float("inf")
        for _ in range(ROUNDS):
            t_ref = min(t_ref, obs.time_best(trees(reference_kcover, k), repeats=1))
            t_lib = min(t_lib, obs.time_best(trees(dom_tree_kcover, k), repeats=1))
        per_k[k] = {
            "reference_trees_per_s": round(len(roots) / t_ref, 1),
            "bitmask_trees_per_s": round(len(roots) / t_lib, 1),
            "speedup": round(t_ref / t_lib, 2),
        }
    speedup = min(entry["speedup"] for entry in per_k.values())
    payload = {
        "graph": {"n": g.num_nodes, "m": g.num_edges, "kind": "udg", "seed": 99},
        "kcover": {
            "trees": len(roots),
            "per_k": {str(k): entry for k, entry in per_k.items()},
            "speedup_bitmask_vs_reference": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
            "rounds": ROUNDS,
        },
    }
    (results_dir / "BENCH_construction.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    record(
        "bench_construction_kcover",
        f"kcover trees n={g.num_nodes} m={g.num_edges}: "
        + ", ".join(
            f"k={k} {e['bitmask_trees_per_s']:.0f} vs {e['reference_trees_per_s']:.0f} "
            f"trees/s ({e['speedup']}x)"
            for k, e in per_k.items()
        ),
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"bitmask kcover only {speedup:.2f}x the set reference "
        f"(need ≥ {REQUIRED_SPEEDUP}x): {payload}"
    )


def test_bfs_sets(benchmark, udg):
    benchmark(bfs_distances, udg.copy(), 0)


def test_bfs_csr(benchmark, udg):
    benchmark(bfs_distances, udg.freeze(), 0)


def test_dom_tree_greedy(benchmark, udg):
    benchmark(dom_tree_greedy, udg, 0, 3, 1)


def test_dom_tree_mis(benchmark, udg):
    benchmark(dom_tree_mis, udg, 0, 3)


def test_dom_tree_kcover(benchmark, udg):
    benchmark(dom_tree_kcover, udg, 0, 2)


def test_dom_tree_kmis(benchmark, udg):
    benchmark(dom_tree_kmis, udg, 0, 2)


def test_full_spanner_build(benchmark, udg):
    benchmark.pedantic(build_k_connecting_spanner, args=(udg,), kwargs={"k": 1}, rounds=3)


def test_verification(benchmark, udg):
    rs = build_k_connecting_spanner(udg, k=1)
    benchmark.pedantic(
        is_remote_spanner, args=(rs.graph, udg, 1.0, 0.0), rounds=3
    )


def test_k_connecting_distance(benchmark, udg):
    benchmark(k_connecting_distance, udg, 0, udg.num_nodes - 1, 2)
