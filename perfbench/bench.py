"""One benchmark run: episodes of generate, set up, drive, gate.

The load is one closed-loop client: it applies a tick, waits for it to
return, then serves that tick's request batch, then moves on.  Timed
regions are exactly the tick calls and the query-serving calls; workload
generation, set-up, the correctness gate, connectivity checks and trace
probes run outside them.

A run is a sequence of *episodes*.  Episode ``e`` builds the backend on its
own seeded graph (one ``setup_s`` sample) and plays that graph's fixed
stream of ticks to the end.  Episodes repeat until the run's time is up
and enough ticks ran.  Because every episode's content is fixed by
``(seed, e)``, a faster program plays *more* episodes of the same
distribution, never a different (e.g. later, heavier) stretch of one
stream; and pooling several graphs per run averages out how heavy any one
random graph happens to be.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import obs, tuning

import layers
from workloads import ActorBackend, PoolBackend, Spec, build, disconnected_pairs, generate

#: p90 needs at least ten ticks beyond it.
MIN_TICKS = 100

#: ``setup_s`` is the median over episodes, so a run has at least this many.
MIN_EPISODES = 3

#: Ticks between correctness checkpoints (one more ends every episode).
GATE_EVERY = 25
GATE_SOURCES = 4
GATE_PAIRS = 2

#: End-to-end metrics and units, in ``BENCHMARK.json`` order.
END_TO_END = {
    "setup_s": "s",
    "tick_ms_p50": "ms",
    "tick_ms_p90": "ms",
    "events_per_s": "events/s",
    "query_qps": "queries/s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Pass:
    """What a sequence of episodes measured."""

    episodes: int = 0
    setup_s: "list[float]" = field(default_factory=list)
    tick_s: "list[float]" = field(default_factory=list)
    events: int = 0
    served: int = 0
    delivered: int = 0
    hops: int = 0
    query_s: float = 0.0
    batch_qps: "list[float]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: "list[str]" = field(default_factory=list)
    probes: "list[dict]" = field(default_factory=list)  # traced: per tick
    obs_growth: Counter = field(default_factory=Counter)  # traced: program registry
    respawns: int = 0

    @property
    def measured_s(self) -> float:
        return sum(self.tick_s) + self.query_s

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.failures.append(why)


def _refusals() -> float:
    registry = obs.metrics()
    return registry.counter("reader.stale_refusals") + registry.counter("reader.torn_refusals")


def _probe(backend, tracer) -> dict:
    """Cumulative layer counters the traced pass differences per tick."""
    if isinstance(backend, PoolBackend):
        return {"pool_run": tracer.total.get("pool.run", 0.0), "busy": backend.shard_busy()}
    if isinstance(backend, ActorBackend):
        stats = backend.system.stats
        return {
            "messages": stats.messages,
            "bytes": stats.bytes,
            "recomputes": sum(a.recomputes for a in backend.system.actors),
        }
    return {}


def _delta(now: dict, before: dict) -> dict:
    return {
        k: [a - b for a, b in zip(v, before[k])] if isinstance(v, list) else v - before[k]
        for k, v in now.items()
    }


def _gate(backend, rng, where: str, queries, p: Pass) -> None:
    """One checkpoint: a seeded sample of sources and of the tick's queries."""
    n = backend.live[1].num_nodes
    sources = [int(u) for u in rng.choice(n, size=min(GATE_SOURCES, n), replace=False)]
    picks = rng.choice(len(queries), size=min(GATE_PAIRS, len(queries)), replace=False)
    problems = backend.check(sources, [queries[int(i)] for i in picks])
    if problems:
        p.fail(1, f"gate {where}: " + "; ".join(problems[:3]))


def drive(backend, stream, p: Pass, rng, tracer=None) -> None:
    """Play one episode's ticks into *p*, gating every :data:`GATE_EVERY`
    ticks and at the end."""
    untraced = tracer.paused if tracer is not None else nullcontext
    queries = ()
    for index, (events, queries) in enumerate(stream, start=1):
        p.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                backend.tick(events)
            else:
                with tracer.paused():
                    before = _probe(backend, tracer)
                t0 = time.perf_counter()
                with tracer.tick():
                    backend.tick(events)
            p.tick_s.append(time.perf_counter() - t0)
        except Exception as exc:  # a raising tick is a failed operation
            p.fail(1, f"episode {p.episodes} tick {index} raised {exc!r}")
            continue
        p.events += len(events)
        if tracer is not None:
            with tracer.paused():
                p.probes.append(_delta(_probe(backend, tracer), before))

        refused = _refusals()
        p.attempted += len(queries)
        try:
            served = backend.serve(queries)
        except Exception as exc:  # the whole batch counts as failed
            p.fail(len(queries), f"episode {p.episodes} queries of tick {index} raised {exc!r}")
            continue
        p.served += served.served
        p.delivered += served.delivered
        p.hops += served.hops
        p.query_s += served.seconds
        p.batch_qps.append(served.served / served.seconds)
        refused = _refusals() - refused
        if refused:
            p.fail(int(refused), f"episode {p.episodes} tick {index}: {refused:.0f} reader refusals")
        with untraced():
            lost = served.served - served.delivered
            if lost:
                lost -= disconnected_pairs(backend.live[1], queries)
                if lost > 0:
                    p.fail(lost, f"episode {p.episodes} tick {index}: {lost} connected queries undelivered")
            if index % GATE_EVERY == 0:
                _gate(backend, rng, f"episode {p.episodes} tick {index}", queries, p)
    with untraced():
        _gate(backend, rng, f"episode {p.episodes} end", queries, p)


def run_episodes(
    spec: Spec,
    seed: int,
    *,
    seconds: float = 0.0,
    min_ticks: int = 0,
    min_episodes: int = 1,
    episodes: "int | None" = None,
    tracer=None,
) -> Pass:
    """Play episodes ``0, 1, ...`` until *seconds* of measured time, at least
    *min_ticks* ticks and *min_episodes* episodes — or exactly *episodes*."""
    p = Pass()
    untraced = tracer.paused if tracer is not None else nullcontext

    def more() -> bool:
        if episodes is not None:
            return p.episodes < episodes
        return p.episodes < min_episodes or len(p.tick_s) < min_ticks or p.measured_s < seconds

    while more():
        with untraced():
            initial, stream = generate(spec, seed, p.episodes)
            backend, setup_s = build(spec, initial)
        p.setup_s.append(setup_s)
        before = obs.snapshot() if tracer is not None else None
        try:
            drive(backend, stream, p, np.random.default_rng([seed, p.episodes]), tracer)
            if isinstance(backend, PoolBackend):
                p.respawns += backend.svc.pool_health.respawns
        finally:
            with untraced():
                backend.close()
        # Free this episode's matrices before the next one allocates, so
        # peak RSS does not grow with the number of episodes a run fits.
        del backend
        gc.collect()
        if before is not None:
            grown = obs.diff_snapshots(before, obs.snapshot())
            p.obs_growth.update(grown["counters"])
            p.obs_growth.update({f"{k}.sum": h["sum"] for k, h in grown["histograms"].items()})
        p.episodes += 1
    return p


def hd_quantile(values, p: float) -> float:
    """Harrell–Davis estimate of the *p*-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics: the
    same quantile as the plain sample one, but it does not jump between
    neighbouring ticks, which matters where tick times are multimodal
    (light and heavy repairs) and thin around the quantile.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20_001)
    mids = (grid[:-1] + grid[1:]) / 2  # midpoint rule: never evaluates 0 or 1
    logpdf = (a - 1) * np.log(mids) + (b - 1) * np.log1p(-mids)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(logpdf - logpdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the peak of its (joined) workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def calibration_score() -> float:
    """Best-of-5 rate of a fixed Python + numpy loop, in loops/s.

    Independent of the program, so results from different hosts can be
    put on one scale.
    """
    data = np.arange(1 << 18, dtype=np.int64)

    def loop() -> int:
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        return acc + int((data * 3 % 7).sum())

    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return 1.0 / best


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tuning": dataclasses.asdict(tuning.get()),
        "calibration_loops_per_s": calibration_score(),
    }


def run_untraced(spec: Spec, seed: int, seconds: float, min_ticks: int = MIN_TICKS) -> "tuple[Pass, dict]":
    """The end-to-end run: the program untouched."""
    p = run_episodes(spec, seed, seconds=seconds, min_ticks=min_ticks, min_episodes=MIN_EPISODES)
    metrics = {
        "setup_s": statistics.median(p.setup_s),
        "tick_ms_p50": hd_quantile(p.tick_s, 0.5) * 1e3,
        "tick_ms_p90": hd_quantile(p.tick_s, 0.9) * 1e3,
        "events_per_s": p.events / sum(p.tick_s),
        "query_qps": statistics.median(p.batch_qps),
        "peak_rss_mb": peak_rss_mib(),
    }
    return p, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def run_traced(spec: Spec, seed: int, seconds: float):
    """The per-layer run: untraced episodes for half the time, then the
    same episodes again, traced.  Returns ``(passes, metrics, tracer)``."""
    ref = run_episodes(spec, seed, seconds=seconds / 2)
    tracer = layers.LayerTracer()
    with tracer.installed():
        traced = run_episodes(spec, seed, episodes=ref.episodes, tracer=tracer)
    run = {
        "served": traced.served,
        "delivered": traced.delivered,
        "hops": traced.hops,
        "obs_growth": traced.obs_growth,
        "respawns": traced.respawns,
        "overhead": sum(traced.tick_s) / sum(ref.tick_s) - 1.0,
        "failed_frac": (ref.failed + traced.failed) / (ref.attempted + traced.attempted),
        "wire_per_event": sum(p.get("bytes", 0) for p in traced.probes) / max(1, traced.events),
    }
    metrics = layers.layer_metrics(spec.backend, tracer, traced.probes, run)
    return (ref, traced), metrics, tracer
