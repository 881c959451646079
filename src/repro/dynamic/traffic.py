"""Traffic workloads: seeded route-request streams interleaved with churn.

The north-star workload is *query* traffic — millions of ``route(s, t)``
requests hitting the served tables — not repairs.  This module models it:
a :class:`TrafficWorkload` walks a churn :class:`~repro.dynamic.events.\
Scenario` in ticks and, after each tick's events, emits a batch of
``(source, target)`` requests drawn from one of three request models every
real routing deployment sees:

* ``uniform`` — any live node talks to any other, uniformly (the
  stress-test floor: no cache or hotspot structure to exploit);
* ``zipf`` — destinations follow a Zipf law over a fixed hidden hotspot
  ranking (a few servers/sinks absorb most traffic; the ranking persists
  across ticks, so hot destinations stay hot while churn moves the
  topology under them — newly joined nodes enter the ranking cold);
* ``locality`` — targets are drawn from the source's bounded G-ball
  (radius ``locality_radius``), the geographic-locality regime of mesh
  and ad-hoc networks, falling back to a uniform target when the ball is
  empty.

Requests reference only *live* nodes (degree > 0 at the tick's graph), so
every query is answerable by a node that actually exists — dormant id
slots left by leaves are never dialed.  All randomness derives from
:mod:`repro.rng`: a ``(kind, scenario, queries_per_tick, tick, seed)``
tuple names a bit-for-bit reproducible request stream, and the tick
partition is exactly :meth:`Scenario.ticks <repro.dynamic.events.\
Scenario.ticks>` — replaying every tick's events reproduces
``scenario.final`` (self-checked at generation time).

:func:`serve_queries` serves one tick's requests as a batch, hop-
synchronously (:func:`~repro.routing.greedy_routing.route_served_batch`),
and records it in the obs histograms: ``traffic.hops`` per delivered
request, and ``traffic.request.us`` per request as the time from batch
start to the end of the hop step at which that request finished.

``python -m repro traffic`` soaks a :class:`~repro.dynamic.serving.\
RoutingService` with a workload from the shell;
``benchmarks/test_bench_queries.py`` records the served-vs-per-hop-BFS
query throughput as ``BENCH_queries.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from .. import obs
from ..errors import ParameterError
from ..graph import Graph, ball
from ..rng import derive_seed, ensure_rng
from ..routing.greedy_routing import route_served_batch
from .events import EdgeEvent, NodeEvent, Scenario, apply_events

__all__ = [
    "TrafficTick",
    "TrafficWorkload",
    "QueryBatchReport",
    "serve_queries",
    "make_workload",
    "WORKLOAD_NAMES",
]

#: Histogram buckets for per-request hop counts (spanner journeys are
#: short; the overflow bucket catches pathological detours).
HOP_BOUNDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)

#: Request-model registry for the CLI / bench dispatchers.
WORKLOAD_NAMES: "tuple[str, ...]" = ("uniform", "zipf", "locality")


@dataclass(frozen=True)
class TrafficTick:
    """One serving interval: churn applied first, then requests served."""

    events: "tuple[EdgeEvent | NodeEvent, ...]"  # may be empty (tick 0)
    queries: "tuple[tuple[int, int], ...]"  # (source, target) requests


@dataclass(frozen=True)
class TrafficWorkload:
    """A request stream interleaved with a churn scenario's ticks.

    ``ticks[0]`` carries no events (requests against the initial graph);
    every later tick's events are a consecutive chunk of
    ``scenario.events``, so concatenating them reproduces the scenario's
    stream exactly.
    """

    kind: str
    scenario: Scenario
    ticks: "tuple[TrafficTick, ...]"
    params: dict = field(default_factory=dict)

    @property
    def num_queries(self) -> int:
        return sum(len(t.queries) for t in self.ticks)

    @property
    def num_events(self) -> int:
        return sum(len(t.events) for t in self.ticks)

    def queries(self) -> "Iterable[tuple[int, int]]":
        """Every request of the workload, in serving order."""
        for t in self.ticks:
            yield from t.queries


@dataclass(frozen=True)
class QueryBatchReport:
    """What one :func:`serve_queries` batch did."""

    served: int
    delivered: int
    hops_total: int
    seconds: float

    @property
    def mean_hops(self) -> float:
        return self.hops_total / self.delivered if self.delivered else 0.0

    @property
    def qps(self) -> float:
        return self.served / self.seconds if self.seconds > 0 else float("inf")


def serve_queries(
    endpoint, queries: "Iterable[tuple[int, int]]", *, hop_fallback=None
) -> QueryBatchReport:
    """Serve a batch of route requests off *endpoint*, instrumented.

    The whole batch rides :func:`~repro.routing.greedy_routing.\
route_served_batch` — every in-flight request takes its hop in the same
    table gather — so *endpoint* is anything that router accepts (a
    :class:`~repro.dynamic.serving.RoutingService`, a
    :class:`~repro.parallel.sharded.RouteReader`, ...), and each journey
    is exactly :func:`~repro.routing.greedy_routing.route_served`'s.  When
    observability is on, the batch feeds the ``traffic.request.us``
    latency and ``traffic.hops`` histograms in one ``observe_many`` each
    (plus the ``traffic.unroutable`` and ``traffic.requests`` counters);
    with ``REPRO_OBS=off`` it is the bare serving batch — this shared
    helper is what the overhead benchmark measures.  A request's
    ``traffic.request.us`` latency is the time from batch start to the end
    of the hop step at which that request finished (arrived, turned out
    unroutable, or ran out of hop budget).  ``hop_fallback`` is forwarded
    to the batch router (``True`` lets dormant or stale table entries
    degrade to committed-distance hops instead of dropping the packet).
    """
    sw = obs.Stopwatch()
    pairs = np.fromiter(chain.from_iterable(queries), dtype=np.int64).reshape(-1, 2)
    batch = route_served_batch(endpoint, pairs[:, 0], pairs[:, 1], hop_fallback=hop_fallback)
    served = len(pairs)
    hops = batch.hops[batch.delivered]
    delivered = len(hops)
    if obs.enabled():
        registry = obs.metrics()
        registry.observe_many("traffic.request.us", batch.latencies * 1e6)
        registry.observe_many("traffic.hops", hops, HOP_BOUNDS)
        if served > delivered:
            registry.inc("traffic.unroutable", served - delivered)
        registry.inc("traffic.requests", served)
    return QueryBatchReport(served, delivered, int(hops.sum()), sw.elapsed())


def _zipf_weights(count: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=np.float64)
    w = ranks ** (-exponent)
    return w / w.sum()


def _sample_queries(
    kind: str,
    g: Graph,
    rng: "np.random.Generator",
    count: int,
    *,
    ranking: "list[int]",
    rank_of: "dict[int, int]",
    zipf_exponent: float,
    locality_radius: int,
) -> "tuple[tuple[int, int], ...]":
    """*count* requests over the live (degree > 0) nodes of the tick's graph."""
    live = [u for u in g.nodes() if g.degree(u) > 0]
    if len(live) < 2:
        return ()
    live_set = set(live)
    out: "list[tuple[int, int]]" = []
    if kind == "zipf":
        # Keep the hotspot ranking total: joiners enter at the cold tail,
        # in id order, so the hidden popularity of survivors never shifts.
        for u in live:
            if u not in rank_of:
                rank_of[u] = len(ranking)
                ranking.append(u)
        live_by_rank = sorted(live, key=rank_of.__getitem__)
        weights = _zipf_weights(len(live_by_rank), zipf_exponent)
        targets = rng.choice(len(live_by_rank), size=count, p=weights)
    for i in range(count):
        if kind == "uniform":
            s, t = (int(x) for x in rng.choice(len(live), size=2, replace=False))
            out.append((live[s], live[t]))
        elif kind == "zipf":
            t = live_by_rank[int(targets[i])]
            s = t
            while s == t:
                s = live[int(rng.integers(len(live)))]
            out.append((s, t))
        else:  # locality
            s = live[int(rng.integers(len(live)))]
            nearby = sorted((ball(g, s, locality_radius) - {s}) & live_set)
            if nearby:
                t = nearby[int(rng.integers(len(nearby)))]
            else:  # isolated pocket: fall back to a uniform target
                t = s
                while t == s:
                    t = live[int(rng.integers(len(live)))]
            out.append((s, t))
    return tuple(out)


def make_workload(
    kind: str,
    scenario: Scenario,
    *,
    queries_per_tick: int = 50,
    tick: int = 5,
    seed: int = 0,
    zipf_exponent: float = 1.3,
    locality_radius: int = 3,
    flash_crowd_at: "tuple[int, ...] | None" = None,
) -> TrafficWorkload:
    """Build a named request stream over *scenario*'s churn ticks.

    ``queries_per_tick`` requests are sampled after every ``tick``-sized
    chunk of events (plus one leading batch against the initial graph).
    See :data:`WORKLOAD_NAMES` for the request models.

    ``flash_crowd_at`` (``zipf`` only) names tick indices — 0 is the
    leading batch — at which the hidden hotspot ranking is permuted by a
    seeded shuffle: overnight, *different* destinations are hot.  The jump
    is the traffic-side fault the chaos corpus soaks under: the serving
    tables are suddenly queried on rows that were cold for the whole run.
    """
    if kind not in WORKLOAD_NAMES:
        raise ParameterError(f"unknown workload {kind!r} (want one of {WORKLOAD_NAMES})")
    if queries_per_tick < 1:
        raise ParameterError(f"need at least one query per tick, got {queries_per_tick}")
    if zipf_exponent <= 0:
        raise ParameterError(f"zipf exponent must be > 0, got {zipf_exponent}")
    if locality_radius < 1:
        raise ParameterError(f"locality radius must be ≥ 1, got {locality_radius}")
    flash_ticks = frozenset(flash_crowd_at or ())
    if flash_ticks:
        if kind != "zipf":
            raise ParameterError("flash_crowd_at only applies to the zipf workload")
        if any(not isinstance(i, int) or isinstance(i, bool) or i < 0 for i in flash_ticks):
            raise ParameterError(f"flash_crowd_at wants non-negative tick indices, got {flash_crowd_at!r}")
    rng = ensure_rng(
        derive_seed(seed, "traffic", kind, scenario.name, queries_per_tick, tick)
    )
    g = scenario.initial.copy()
    ranking: "list[int]" = []
    rank_of: "dict[int, int]" = {}

    def flash_crowd() -> None:
        # Seeded hotspot jump: permute the hidden ranking wholesale.  The
        # live set is folded in first so a flash before any zipf sample
        # still has a population to re-rank.
        for u in sorted(u for u in g.nodes() if g.degree(u) > 0):
            if u not in rank_of:
                rank_of[u] = len(ranking)
                ranking.append(u)
        ranking[:] = [ranking[int(j)] for j in rng.permutation(len(ranking))]
        for r, u in enumerate(ranking):
            rank_of[u] = r

    def sample() -> "tuple[tuple[int, int], ...]":
        return _sample_queries(
            kind,
            g,
            rng,
            queries_per_tick,
            ranking=ranking,
            rank_of=rank_of,
            zipf_exponent=zipf_exponent,
            locality_radius=locality_radius,
        )

    if 0 in flash_ticks:
        flash_crowd()
    ticks = [TrafficTick(events=(), queries=sample())]
    for i, chunk in enumerate(scenario.ticks(tick), start=1):
        apply_events(g, chunk)
        if i in flash_ticks:
            flash_crowd()
        ticks.append(TrafficTick(events=tuple(chunk), queries=sample()))
    if g != scenario.final:  # pragma: no cover - generator self-check
        raise ParameterError("tick replay diverged from the scenario's final graph")
    return TrafficWorkload(
        kind=kind,
        scenario=scenario,
        ticks=tuple(ticks),
        params={
            "queries_per_tick": queries_per_tick,
            "tick": tick,
            "seed": seed,
            "zipf_exponent": zipf_exponent,
            "locality_radius": locality_radius,
            "flash_crowd_at": tuple(sorted(flash_ticks)),
        },
    )
