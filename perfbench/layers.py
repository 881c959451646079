"""The traced run: spans around the program's public functions, from outside.

:class:`LayerTracer` replaces each traced function at the module or class
binding the program calls it through, times every call on a span stack
(so a span's *self* time is its duration minus its children's), and puts
the originals back on exit.  Nothing under ``src/`` is edited.  Spans of
one tick nest under a ``tick`` root whose self time is the part of the
tick wall no layer accounts for (``tick.unattributed_ms``).

:func:`layer_metrics` turns one traced pass into the per-layer metrics
declared in ``BENCHMARK.json`` — every name on every workload, 0 where the
workload does not run the layer.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from repro.distributed import actors
from repro.dynamic import maintainer, serving, traffic
from repro.graph.graph import Graph
from repro.parallel import ShardedRoutingService, WorkerPool
from repro.routing import greedy_routing

#: Chrome-trace events kept per run (per-query spans are never recorded).
MAX_EVENTS = 200_000

_DONE = object()

#: ``(owner, attribute, span name, kind)``.  ``kind`` is ``call`` (one span
#: per call), ``rows`` (a generator: one span per ``next``, counting the
#: sources), ``keep`` (a call whose return value the metrics read) or
#: ``query`` (a call too frequent to record as a trace event).
TRACE_POINTS = (
    (Graph, "freeze", "graph.freeze", "call"),
    (serving, "batched_bfs", "graph.batched_bfs", "rows"),
    (actors, "batched_bfs", "graph.batched_bfs", "rows"),
    (maintainer, "multi_source_distances", "graph.ball_bfs", "call"),
    (maintainer, "dom_tree_kcover", "core.dom_tree", "call"),
    (maintainer.SpannerMaintainer, "apply_batch", "maintainer.apply_batch", "keep"),
    (serving.RoutingService, "apply_batch", "serving.apply_batch", "keep"),
    (ShardedRoutingService, "apply_batch", "sharded.apply_batch", "call"),
    (serving, "project_table_row", "routing.project_row", "call"),
    (actors, "project_table_row", "routing.project_row", "call"),
    (greedy_routing, "route_served", "routing.route_served", "query"),
    (traffic, "serve_queries", "traffic.serve_queries", "call"),
    (WorkerPool, "run", "pool.run", "call"),
    (actors.ShardActor, "recompute", "actors.recompute", "call"),
    (actors.ActorSystem, "quiesce", "actors.quiesce", "keep"),
    (actors.ActorSystem, "route", "actors.route", "query"),
)

#: Every per-layer metric and its unit, in ``BENCHMARK.json`` order.
PER_LAYER = {
    "graph.freeze.calls": "count/tick",
    "graph.freeze.ms": "ms/tick",
    "graph.batched_bfs.sources": "count/tick",
    "graph.batched_bfs.ms": "ms/tick",
    "graph.ball_bfs.ms": "ms/tick",
    "core.dom_tree.calls": "count/tick",
    "core.dom_tree.ms": "ms/tick",
    "maintainer.apply_batch.ms": "ms/tick",
    "maintainer.dirty_ball": "count/tick",
    "maintainer.h_delta_edges": "count/tick",
    "maintainer.full_rebuilds": "count",
    "serving.self.ms": "ms/tick",
    "serving.dirty_rows": "count/tick",
    "serving.dirty_tables": "count/tick",
    "serving.entries_updated": "count/tick",
    "serving.entries_per_dirty_table": "ratio",
    "serving.refreshes": "count/tick",
    "serving.matrix_mb": "MiB",
    "routing.project_row.calls": "count/tick",
    "routing.project_row.ms": "ms/tick",
    "routing.route_served.calls": "count/tick",
    "routing.hops_mean": "hops",
    "routing.undelivered": "count/tick",
    "traffic.serve_queries.ms": "ms/tick",
    "pool.run.calls": "count/tick",
    "pool.run.ms": "ms/tick",
    "pool.shard_repair.ms": "ms/tick",
    "pool.imbalance": "ratio",
    "pool.wait.ms": "ms/tick",
    "shm.publish.delta_bytes": "B/tick",
    "shm.publish.full_bytes": "B/tick",
    "sharded.publish_directory.ms": "ms/tick",
    "reader.seqlock_retries": "count/tick",
    "pool.respawns": "count",
    "actors.driver_apply.ms": "ms/tick",
    "actors.quiesce.ms": "ms/tick",
    "actors.quiesce.rounds": "count/tick",
    "actors.recompute.calls": "count/tick",
    "actors.recompute.ms": "ms/tick",
    "actors.pump.ms": "ms/tick",
    "wire.messages": "count/tick",
    "wire.bytes": "B/tick",
    "wire_bytes_per_event": "B/event",
    "actors.route.ms": "ms/query",
    "trace.overhead_frac": "ratio",
    "tick.unattributed_ms": "ms/tick",
    "failed_frac": "ratio",
}


class LayerTracer:
    """Span stack + per-name totals; see the module docstring."""

    def __init__(self) -> None:
        self.active = False
        self.total: "defaultdict[str, float]" = defaultdict(float)  # inclusive seconds
        self.own: "defaultdict[str, float]" = defaultdict(float)  # self seconds
        self.calls: Counter = Counter()
        self.sources: Counter = Counter()
        self.returns: "defaultdict[str, list]" = defaultdict(list)
        self.events: "list[tuple[str, float, float, int]]" = []
        self.tick_walls: "list[float]" = []
        self._stack: "list[float]" = []
        self._epoch = time.perf_counter()

    # -- spans ---------------------------------------------------------- #

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, t0: float) -> "tuple[float, float]":
        t1 = time.perf_counter()
        d = t1 - t0
        children = self._stack.pop()
        self.total[name] += d
        self.own[name] += d - children
        if self._stack:
            self._stack[-1] += d
        return t1, d

    def _event(self, name: str, t0: float, t1: float) -> None:
        if len(self.events) < MAX_EVENTS:
            self.events.append((name, t0, t1, len(self._stack)))

    @contextmanager
    def tick(self):
        """The root span of one churn tick."""
        t0 = self._enter()
        try:
            yield
        finally:
            t1, d = self._exit("tick", t0)
            self._event("tick", t0, t1)
            self.tick_walls.append(d)

    @contextmanager
    def paused(self):
        """Calls made inside (gate, probes) are not traced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrappers ------------------------------------------------------- #

    def _wrap_call(self, name: str, fn, kind: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1, _ = self._exit(name, t0)
                if kind != "query":
                    self._event(name, t0, t1)
            if kind == "keep":
                self.returns[name].append(out)
            return out

        return traced

    def _wrap_rows(self, name: str, fn):
        @functools.wraps(fn)
        def traced(g, sources=None, *args, **kwargs):
            if not self.active:
                yield from fn(g, sources, *args, **kwargs)
                return
            sources = None if sources is None else list(sources)
            self.sources[name] += g.num_nodes if sources is None else len(sources)
            rows = fn(g, sources, *args, **kwargs)
            start = time.perf_counter()
            while True:
                t0 = self._enter()
                try:
                    item = next(rows, _DONE)
                finally:
                    t1, _ = self._exit(name, t0)
                if item is _DONE:
                    self._event(name, start, t1)
                    return
                yield item

        return traced

    @contextmanager
    def installed(self):
        """Swap every :data:`TRACE_POINTS` binding for its traced wrapper."""
        saved = []
        try:
            for owner, attr, name, kind in TRACE_POINTS:
                original = owner.__dict__[attr]
                wrapper = (
                    self._wrap_rows(name, original)
                    if kind == "rows"
                    else self._wrap_call(name, original, kind)
                )
                setattr(owner, attr, wrapper)
                saved.append((owner, attr, original))
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------- #

    def write_chrome_trace(self, path) -> None:
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (t0 - self._epoch) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"depth": depth},
            }
            for name, t0, t1, depth in self.events
        ]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))

    def self_ms(self) -> dict:
        """Self milliseconds per span name; over the ticks these plus the
        ``tick`` root's self time sum to the tick wall time."""
        return {name: secs * 1e3 for name, secs in sorted(self.own.items())}


def layer_metrics(backend_kind: str, tracer: LayerTracer, probes: "list[dict]", run: dict) -> dict:
    """Per-layer metrics of one traced pass.

    *probes* holds one dict per tick (pool: ``pool_run``/``busy``; actors:
    ``messages``/``bytes``/``recomputes``), *run* the pass totals
    (``served``, ``delivered``, ``hops``, ``obs_growth`` — counter and
    histogram-sum growth of the program's own registry — ``respawns``,
    ``overhead``, ``failed_frac``, ``wire_per_event``).
    """
    ticks = max(1, len(tracer.tick_walls))
    per_tick_ms = lambda name: tracer.total.get(name, 0.0) * 1e3 / ticks  # noqa: E731
    per_tick = lambda value: value / ticks  # noqa: E731
    serve_reports = tracer.returns.get("serving.apply_batch", [])
    batch_reports = tracer.returns.get("maintainer.apply_batch", [])
    dirty_tables = sum(r.dirty_tables for r in serve_reports)
    entries = sum(r.entries_updated for r in serve_reports)
    grown = run["obs_growth"]
    is_pool = backend_kind == "pool"
    is_actors = backend_kind == "actors"

    busy_ms, imbalance, wait_ms = 0.0, 0.0, 0.0
    if is_pool:
        ratios = []
        for p in probes:
            busy = p["busy"]
            mean = sum(busy) / len(busy)
            busy_ms += mean * 1e3
            wait_ms += (p["pool_run"] - max(busy)) * 1e3
            if mean > 0:
                ratios.append(max(busy) / mean)
        imbalance = statistics.fmean(ratios) if ratios else 0.0
    quiesce_rounds = sum(tracer.returns.get("actors.quiesce", []))
    route_calls = tracer.calls.get("actors.route", 0)

    values = {
        "graph.freeze.calls": per_tick(tracer.calls["graph.freeze"]),
        "graph.freeze.ms": per_tick_ms("graph.freeze"),
        "graph.batched_bfs.sources": per_tick(tracer.sources["graph.batched_bfs"]),
        "graph.batched_bfs.ms": per_tick_ms("graph.batched_bfs"),
        "graph.ball_bfs.ms": per_tick_ms("graph.ball_bfs"),
        "core.dom_tree.calls": per_tick(tracer.calls["core.dom_tree"]),
        "core.dom_tree.ms": per_tick_ms("core.dom_tree"),
        "maintainer.apply_batch.ms": tracer.own.get("maintainer.apply_batch", 0.0) * 1e3 / ticks,
        "maintainer.dirty_ball": per_tick(sum(r.dirty for r in batch_reports)),
        "maintainer.h_delta_edges": per_tick(
            sum(len(r.h_added) + len(r.h_removed) for r in batch_reports)
        ),
        "maintainer.full_rebuilds": float(sum(r.rebuilt for r in batch_reports)),
        "serving.self.ms": tracer.own.get("serving.apply_batch", 0.0) * 1e3 / ticks,
        "serving.dirty_rows": per_tick(sum(r.dirty_rows for r in serve_reports)),
        "serving.dirty_tables": per_tick(dirty_tables),
        "serving.entries_updated": per_tick(entries),
        "serving.entries_per_dirty_table": entries / dirty_tables if dirty_tables else 0.0,
        "serving.refreshes": per_tick(sum(r.refreshed for r in serve_reports)),
        "serving.matrix_mb": (
            statistics.fmean(r.matrix_bytes for r in serve_reports) / 2**20 if serve_reports else 0.0
        ),
        "routing.project_row.calls": per_tick(tracer.calls["routing.project_row"]),
        "routing.project_row.ms": per_tick_ms("routing.project_row"),
        "routing.route_served.calls": per_tick(tracer.calls["routing.route_served"]),
        "routing.hops_mean": run["hops"] / run["delivered"] if run["delivered"] else 0.0,
        "routing.undelivered": per_tick(run["served"] - run["delivered"]),
        "traffic.serve_queries.ms": per_tick_ms("traffic.serve_queries"),
        "pool.run.calls": per_tick(tracer.calls["pool.run"]),
        "pool.run.ms": per_tick_ms("pool.run"),
        "pool.shard_repair.ms": busy_ms / ticks,
        "pool.imbalance": imbalance,
        "pool.wait.ms": wait_ms / ticks,
        "shm.publish.delta_bytes": per_tick(grown["pool.publish.delta_bytes"]),
        "shm.publish.full_bytes": per_tick(grown["pool.publish.full_bytes"]),
        "sharded.publish_directory.ms": per_tick(grown["sharded.publish_directory.us.sum"] / 1e3),
        "reader.seqlock_retries": per_tick(grown["seqlock.retry_busy"] + grown["seqlock.retry_torn"]),
        "pool.respawns": float(run["respawns"]),
        "actors.driver_apply.ms": per_tick_ms("serving.apply_batch") if is_actors else 0.0,
        "actors.quiesce.ms": per_tick_ms("actors.quiesce"),
        "actors.quiesce.rounds": per_tick(quiesce_rounds),
        "actors.recompute.calls": per_tick(sum(p.get("recomputes", 0) for p in probes)),
        "actors.recompute.ms": per_tick_ms("actors.recompute"),
        "actors.pump.ms": per_tick_ms("actors.quiesce") - per_tick_ms("actors.recompute"),
        "wire.messages": per_tick(sum(p.get("messages", 0) for p in probes)),
        "wire.bytes": per_tick(sum(p.get("bytes", 0) for p in probes)),
        "wire_bytes_per_event": run["wire_per_event"],
        "actors.route.ms": tracer.total.get("actors.route", 0.0) * 1e3 / route_calls
        if route_calls
        else 0.0,
        "trace.overhead_frac": run["overhead"],
        "tick.unattributed_ms": tracer.own.get("tick", 0.0) * 1e3 / ticks,
        "failed_frac": run["failed_frac"],
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}
