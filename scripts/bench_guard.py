#!/usr/bin/env python
"""Benchmark-regression guard: fresh BENCH_*.json vs the committed artifacts.

``scripts/check.sh`` step 3 records fresh perf artifacts at the repo root;
this guard compares every headline *speedup* against the artifact committed
at HEAD (``benchmarks/results/``, read via ``git show`` — the working-tree
copies are overwritten by the fresh run) and fails loudly when a speedup
regressed below the tolerance band.

The band defaults to 0.5 — a fresh speedup may drop to 50% of the committed
one before the guard trips — because the committed numbers usually come
from different hardware than the runner re-measuring them; the guard exists
to catch *structural* regressions (a fast path silently disengaging, an
algorithmic slowdown), not scheduler noise.

Environment:
    BENCH_GUARD_TOLERANCE   override the band (float in (0, 1])
    BENCH_GUARD_SKIP=1      skip the guard entirely (prints a notice)

Skipped (with a note, never a failure): metrics whose committed or fresh
value is null — degraded runs on small runners record a measurement but no
speedup — and artifacts with no committed baseline yet (first PR).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

#: (artifact file, path into the JSON, human label)
METRICS = [
    ("BENCH_traversal.json", ("speedup_batched_vs_sets",), "batched BFS vs sets"),
    ("BENCH_dynamic.json", ("speedup_incremental_vs_rebuild",), "incremental maintenance"),
    ("BENCH_routing.json", ("kernel", "speedup_neighbor_vs_scan"), "routing-table kernel"),
    (
        "BENCH_routing.json",
        ("incremental_tables", "speedup_incremental_vs_recompute"),
        "incremental tables",
    ),
    ("BENCH_routing.json", ("row_repair", "speedup_repair_vs_bfs"), "row repair vs BFS"),
    (
        "BENCH_routing.json",
        ("cell_projection", "speedup_cells_vs_per_table"),
        "batched cell projection vs per table",
    ),
    ("BENCH_parallel.json", ("sharded_repair", "speedup_4_vs_1"), "sharded repair 4v1"),
    ("BENCH_queries.json", ("query_throughput", "speedup_served_vs_bfs"), "served queries"),
    (
        "BENCH_faults.json",
        ("crash_recovery", "recovery_events_per_second"),
        "fault recovery throughput",
    ),
    (
        "BENCH_wire.json",
        ("wire", "reduction_naive_vs_incremental"),
        "wire bytes reduction",
    ),
    (
        "BENCH_actors.json",
        ("actors", "bfs_reduction_vs_scratch"),
        "actor BFS sources vs from-scratch",
    ),
]


def dig(data, path):
    for key in path:
        if not isinstance(data, dict) or key not in data:
            return None
        data = data[key]
    return data


def committed_artifact(name: str):
    """The artifact as committed at HEAD (None when not in git yet)."""
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:benchmarks/results/{name}"],
            capture_output=True,
            check=True,
        ).stdout
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    try:
        return json.loads(blob)
    except json.JSONDecodeError:
        return None


def main() -> int:
    if os.environ.get("BENCH_GUARD_SKIP") == "1":
        print("bench guard: skipped (BENCH_GUARD_SKIP=1)")
        return 0
    tolerance = float(os.environ.get("BENCH_GUARD_TOLERANCE", "0.5"))
    if not (0.0 < tolerance <= 1.0):
        print(f"bench guard: BENCH_GUARD_TOLERANCE must be in (0, 1], got {tolerance}")
        return 2
    failures = []
    print(f"bench guard: fresh speedups vs committed, tolerance {tolerance:.0%}")
    for artifact, path, label in METRICS:
        dotted = ".".join(path)
        if not os.path.exists(artifact):
            print(f"  - {label}: SKIP (no fresh {artifact} at repo root)")
            continue
        with open(artifact, encoding="utf-8") as fh:
            fresh = dig(json.load(fh), path)
        baseline_doc = committed_artifact(artifact)
        if baseline_doc is None:
            print(f"  - {label}: SKIP (no committed baseline for {artifact} yet)")
            continue
        baseline = dig(baseline_doc, path)
        if baseline is None or fresh is None:
            which = "committed" if baseline is None else "fresh"
            print(f"  - {label}: SKIP ({which} {dotted} is null — degraded runner?)")
            continue
        floor = tolerance * baseline
        verdict = "ok" if fresh >= floor else "REGRESSION"
        print(
            f"  - {label}: committed {baseline}x, fresh {fresh}x "
            f"(floor {floor:.2f}x) -> {verdict}"
        )
        if fresh < floor:
            failures.append(
                f"{label} ({artifact}:{dotted}): {fresh}x < {tolerance:.0%} "
                f"of committed {baseline}x"
            )
    if failures:
        print("\nbench guard: PERFORMANCE REGRESSION DETECTED", file=sys.stderr)
        for failure in failures:
            print(f"  !! {failure}", file=sys.stderr)
        print(
            "\nIf the regression is expected (e.g. a deliberate trade-off), "
            "re-record the artifacts and commit them with the change; to "
            "bypass once: BENCH_GUARD_SKIP=1.",
            file=sys.stderr,
        )
        return 1
    print("bench guard: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
