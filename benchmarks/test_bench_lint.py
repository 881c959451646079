"""Bench **B-lint** — the analysis gate itself stays fast enough to gate.

The deep pass parses every project file, builds the call graph, runs the
summary fixpoint, and checks RL009 and RL011 — whole-program work that
runs on every ``./scripts/check.sh`` and every CI push.  The acceptance bar:
a **full deep analysis of the repo finishes in under 10 seconds**, so
the verification layer never becomes the bottleneck of the edit-check
loop it protects.

Timing is best-of-rounds (parse + fixpoint work is deterministic; the
min filters scheduler noise).  The shallow per-file pass is timed
alongside for scale, and ``deep_lint.files_per_second`` is the
bigger-is-better throughput metric ``scripts/bench_guard.py`` tracks
across commits.

Artifact: ``benchmarks/results/BENCH_lint.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.deep import deep_lint_paths, default_deep_rules
from repro.analysis.lint import default_rules, lint_paths

MAX_DEEP_WALL_SECONDS = 10.0  # the ISSUE bar: full analysis < 10 s
TIMING_ROUNDS = 3

REPO_ROOT = Path(__file__).resolve().parents[1]
LINT_TARGETS = [REPO_ROOT / p for p in ("src", "benchmarks", "scripts")]


@pytest.fixture(scope="module", autouse=True)
def _fresh_artifact(results_dir):
    artifact = results_dir / "BENCH_lint.json"
    if artifact.exists():
        artifact.unlink()


def _merge_artifact(results_dir, key, payload):
    artifact = results_dir / "BENCH_lint.json"
    data = json.loads(artifact.read_text()) if artifact.exists() else {}
    data[key] = payload
    artifact.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _count_py_files(paths):
    return sum(1 for root in paths for _ in root.rglob("*.py"))


def test_deep_pass_wall_time(record, results_dir):
    files = _count_py_files(LINT_TARGETS)
    assert files > 20  # sanity: the repo is actually being analyzed

    # The gate the bench certifies: both passes are clean at HEAD (the
    # zero-baseline contract) — a timing bench over a dirty tree would
    # measure the wrong thing.
    shallow = lint_paths(LINT_TARGETS)
    deep = deep_lint_paths(LINT_TARGETS)
    assert shallow == [], [f.format() for f in shallow]
    assert deep == [], [f.format() for f in deep]

    t_shallow = obs.time_best(lambda: lint_paths(LINT_TARGETS), repeats=TIMING_ROUNDS)
    t_deep = obs.time_best(lambda: deep_lint_paths(LINT_TARGETS), repeats=TIMING_ROUNDS)

    payload = {
        "files": files,
        "shallow_rules": len(default_rules()),
        "deep_rules": len(default_deep_rules()),
        "shallow_wall_seconds": round(t_shallow, 3),
        "wall_seconds": round(t_deep, 3),
        "max_wall_seconds": MAX_DEEP_WALL_SECONDS,
        "files_per_second": round(files / t_deep, 1),
    }
    _merge_artifact(results_dir, "deep_lint", payload)
    record(
        "BENCH_lint_deep",
        f"deep lint: {files} files in {t_deep:.2f}s "
        f"({files / t_deep:,.0f} files/s, bar {MAX_DEEP_WALL_SECONDS:.0f}s; "
        f"shallow pass {t_shallow:.2f}s)",
    )
    assert t_deep < MAX_DEEP_WALL_SECONDS, (
        f"deep pass took {t_deep:.2f}s (bar {MAX_DEEP_WALL_SECONDS}s)"
    )
