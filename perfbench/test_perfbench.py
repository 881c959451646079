"""The benchmark's own tests: tiny-n smoke of every workload, the metric
catalogue against ``BENCHMARK.json``, and the correctness gate.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
from repro.routing import RouteResult, route_served  # noqa: E402
from workloads import SPECS, SerialBackend, build, generate  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per workload, per-layer metrics that must be non-zero there.
ACTIVE = {
    "churn-edge": ("graph.batched_bfs.sources", "core.dom_tree.calls", "routing.project_row.calls",
                   "routing.route_served.calls", "traffic.serve_queries.ms"),
    "pool-nodechurn": ("pool.run.calls", "pool.run.ms", "pool.shard_repair.ms",
                       "sharded.publish_directory.ms", "routing.route_served.calls"),
    "actors-mobility": ("actors.recompute.calls", "actors.quiesce.ms", "actors.driver_apply.ms",
                        "wire.bytes", "wire_bytes_per_event", "actors.route.ms"),
}

#: Runnable by hand but not in BENCHMARK.json (see README: too unsteady).
UNLISTED = {"churn-edge"}

#: Spans that run outside ticks (the request batch after each tick).
QUERY_SPANS = {"traffic.serve_queries", "routing.route_served", "actors.route"}


def tiny(name: str):
    spec = SPECS[name]
    return replace(spec, n=60 if spec.backend != "actors" else 40, episode_ticks=5,
                   queries=min(spec.queries, 6))


def test_manifest_matches_the_code():
    assert [m["name"] for m in MANIFEST["workloads"]] == [n for n in SPECS if n not in UNLISTED]
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == layers.PER_LAYER
    assert MANIFEST["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", list(SPECS))
def test_tiny_workload_emits_every_metric(name):
    spec = tiny(name)
    p, metrics = bench.run_untraced(spec, seed=3, seconds=0.0, min_ticks=1)
    assert p.failed == 0, p.failures
    assert {k: m["unit"] for k, m in metrics.items()} == bench.END_TO_END
    assert all(m["value"] > 0 and math.isfinite(m["value"]) for m in metrics.values())

    (ref, traced), metrics, tracer = bench.run_traced(spec, seed=3, seconds=0.0)
    assert ref.failed == traced.failed == 0, ref.failures + traced.failures
    assert {k: m["unit"] for k, m in metrics.items()} == layers.PER_LAYER
    for active in ACTIVE[name]:
        assert metrics[active]["value"] > 0, active
    if spec.backend == "pool":  # tiny graphs may reallocate on every publish
        published = metrics["shm.publish.delta_bytes"]["value"] + metrics["shm.publish.full_bytes"]["value"]
        assert published > 0
    # Layer self times inside the ticks plus the unattributed rest add up
    # to the tick wall time.
    inside = sum(s for n, s in tracer.own.items() if n not in QUERY_SPANS)
    assert inside == pytest.approx(sum(tracer.tick_walls), rel=1e-9)


def test_same_seed_same_inputs():
    spec = tiny("churn-edge")
    a, b = generate(spec, 7, 1), generate(spec, 7, 1)
    assert a[0] == b[0] and a[1] == b[1]
    assert generate(spec, 8, 1)[1] != a[1]


def test_harrell_davis_matches_plain_quantiles_on_smooth_data():
    x = np.random.default_rng(0).normal(10.0, 1.0, size=2001)
    assert bench.hd_quantile(x, 0.5) == pytest.approx(np.median(x), abs=0.02)
    assert bench.hd_quantile(x, 0.9) == pytest.approx(np.quantile(x, 0.9), abs=0.05)
    assert bench.hd_quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)


# -- the correctness gate ------------------------------------------------- #


class _Corrupted:
    """A serving endpoint that answers one (or every) lookup wrongly."""

    def __init__(self, svc, only=None) -> None:
        self.svc, self.only = svc, only

    @property
    def num_nodes(self) -> int:
        return self.svc.num_nodes

    def distance(self, u, v):
        return self.svc.distance(u, v)

    def _hit(self, u, v) -> bool:
        return self.only is None or (u, v) == self.only

    def next_hop(self, u, v):
        return None if self._hit(u, v) else self.svc.next_hop(u, v)

    def table(self, u):
        return {v: hop for v, hop in self.svc.table(u).items() if not self._hit(u, v)}


def _small_service():
    """A tiny serial backend plus a routable pair ``(u, v)`` on it."""
    spec = tiny("churn-edge")
    initial, _ = generate(spec, 11, 0)
    backend, _ = build(spec, initial)
    u = next(a for a in range(backend.svc.num_nodes) if backend.svc.table(a))
    return backend, u, max(backend.svc.table(u))


def test_gate_passes_the_served_state():
    backend, u, v = _small_service()
    h, g = backend.live
    assert gate.check_tables(backend.svc, h, g, [u]) == []
    assert gate.check_journeys(lambda s, t: route_served(backend.svc, s, t), h, g, [(u, v)]) == []


def test_gate_reports_a_corrupted_table():
    backend, u, v = _small_service()
    h, g = backend.live
    assert gate.check_tables(_Corrupted(backend.svc, only=(u, v)), h, g, [u])


def test_gate_reports_a_corrupted_journey():
    backend, u, v = _small_service()
    h, g = backend.live
    good = route_served(backend.svc, u, v)
    detour = lambda s, t: RouteResult(path=good.path[:1] + good.path, delivered=True,  # noqa: E731
                                      potentials=good.potentials)
    assert gate.check_journeys(detour, h, g, [(u, v)])
    assert gate.check_journeys(lambda s, t: route_served(_Corrupted(backend.svc, only=(u, v)), s, t),
                               h, g, [(u, v)])


class _CorruptedBackend(SerialBackend):
    @property
    def endpoint(self):
        return _Corrupted(self.svc)


def test_corruption_is_counted_as_failed_operations():
    spec = tiny("churn-edge")
    initial, stream = generate(spec, 11, 0)
    backend = _CorruptedBackend(initial, spec)
    p = bench.Pass()
    bench.drive(backend, stream, p, np.random.default_rng(0))
    assert p.failed > 0
    assert any("gate" in why for why in p.failures)
    assert any("undelivered" in why for why in p.failures)


_REAP_PROBE = """
import multiprocessing, os, time
from multiprocessing import resource_tracker, shared_memory
import run

seg = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
seg.close(); seg.unlink()
tracker = resource_tracker._resource_tracker._pid
child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,), daemon=True)
child.start()
run.reap_children()
try:
    os.kill(tracker, 0)
    print("tracker alive")
except ProcessLookupError:
    print("child alive" if child.is_alive() else "reaped")
"""


def test_reap_children_stops_workers_and_the_resource_tracker():
    out = subprocess.run([sys.executable, "-c", _REAP_PROBE], cwd=HERE, capture_output=True,
                         text=True, timeout=60)
    assert out.stdout.strip() == "reaped", out.stdout + out.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-edge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
