"""Workload specs, seeded input generation and the three serving backends.

Every backend is driven only through the program's public entry points:

* ``serial``: :class:`repro.dynamic.RoutingService` — ``apply_batch`` per
  tick, queries through :func:`repro.dynamic.traffic.serve_queries`;
* ``pool``: :class:`repro.parallel.ShardedRoutingService` with W = 2
  workers — ``apply_batch`` per tick, queries through ``serve_queries`` on
  a :class:`repro.parallel.RouteReader` attached in this process;
* ``actors``: :class:`repro.distributed.ActorSystem` on loopback —
  ``apply_tick`` per tick, queries through ``ActorSystem.route``.

So an optimisation behind any of those calls moves the numbers without an
edit here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.distributed import ActorSystem
from repro.dynamic import RoutingService, make_scenario, make_workload, traffic
from repro.graph import connected_components
from repro.parallel import RouteReader, ShardedRoutingService
from repro.routing import route_served

import gate

#: Pool size of ``pool-nodechurn``: the 2-core reference host's ``nproc``.
POOL_WORKERS = 2

#: Shard count of ``actors-mobility``.
ACTOR_SHARDS = 4


@dataclass(frozen=True)
class Spec:
    """One workload: which backend, which churn, which traffic.

    ``episode_ticks`` is the length of one episode's tick stream.
    """

    name: str
    backend: str  # serial | pool | actors
    scenario: str  # repro.dynamic.SCENARIO_NAMES
    n: int
    tick: int  # events per tick
    traffic: str  # repro.dynamic.WORKLOAD_NAMES
    queries: int  # requests per tick
    episode_ticks: int


SPECS = {
    spec.name: spec
    for spec in (
        Spec("churn-edge", "serial", "failure", 1500, 5, "uniform", 20, 20),
        Spec("pool-nodechurn", "pool", "nodechurn", 1500, 5, "locality", 20, 25),
        Spec("actors-mobility", "actors", "mobility", 400, 3, "uniform", 5, 25),
    )
}


def generate(spec: Spec, seed: int, episode: int):
    """Episode *episode*'s initial graph and ``[(events, queries), ...]``.

    A pure function of ``(spec, seed, episode)``; runs before any timer
    starts.
    """
    sub = int(np.random.SeedSequence([seed, episode]).generate_state(1)[0])
    scenario = make_scenario(spec.scenario, spec.n, spec.episode_ticks * spec.tick, seed=sub)
    workload = make_workload(
        spec.traffic, scenario, queries_per_tick=spec.queries, tick=spec.tick, seed=sub
    )
    # ticks[0] carries only requests against the initial graph: skip it so
    # every measured tick is churn followed by its request batch.
    return scenario.initial, [(t.events, t.queries) for t in workload.ticks[1:]]


def disconnected_pairs(g, queries) -> int:
    """How many requests join two different components of *g*."""
    label = np.empty(g.num_nodes, dtype=np.int64)
    for i, comp in enumerate(connected_components(g)):
        label[comp] = i
    pairs = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    return int((label[pairs[:, 0]] != label[pairs[:, 1]]).sum())


@dataclass(frozen=True)
class Served:
    """One request batch: counts plus the wall time of the serving calls."""

    served: int
    delivered: int
    hops: int
    seconds: float


class SerialBackend:
    """``RoutingService``; queries answered off the service itself."""

    def __init__(self, initial, spec: Spec) -> None:
        self.svc = RoutingService(initial, "kcover")

    @property
    def live(self):
        """``(H, G)`` as the program currently holds them."""
        return self.svc.advertised, self.svc.graph

    @property
    def endpoint(self):
        return self.svc

    def tick(self, events):
        return self.svc.apply_batch(events)

    def serve(self, queries) -> Served:
        t0 = time.perf_counter()
        # Looked up on the module at call time, so the traced run's wrapper
        # is the one called.
        report = traffic.serve_queries(self.endpoint, queries)
        return Served(report.served, report.delivered, report.hops_total, time.perf_counter() - t0)

    def check(self, sources, pairs) -> "list[str]":
        h, g = self.live
        return gate.check_tables(self.endpoint, h, g, sources) + gate.check_journeys(
            lambda s, t: route_served(self.endpoint, s, t), h, g, pairs
        )

    def close(self) -> None:
        pass


class PoolBackend(SerialBackend):
    """``ShardedRoutingService``; queries through a ``RouteReader``."""

    def __init__(self, initial, spec: Spec) -> None:
        self.svc = ShardedRoutingService(initial, "kcover", workers=POOL_WORKERS)
        try:
            self.reader = RouteReader(self.svc.reader_handle())
        except BaseException:
            self.svc.close()
            raise

    @property
    def endpoint(self):
        return self.reader

    def check(self, sources, pairs) -> "list[str]":
        h, g = self.live
        return gate.check_tables(self.svc, h, g, sources) + super().check(sources, pairs)

    def shard_busy(self) -> "list[float]":
        """Cumulative seconds each worker spent in ``pool.shard_repair``."""
        shards = self.svc.metrics()["shards"]
        return [
            shards.get(w, {}).get("histograms", {}).get("pool.shard_repair.us", {}).get("sum", 0.0)
            / 1e6
            for w in range(self.svc.workers)
        ]

    def close(self) -> None:
        self.reader.close()
        self.svc.close()


class ActorBackend:
    """``ActorSystem`` over loopback; queries forwarded hop by hop."""

    def __init__(self, initial, spec: Spec) -> None:
        self.system = ActorSystem(initial, "kcover", shards=ACTOR_SHARDS)
        try:
            self.system.start()
        except BaseException:
            self.system.close()
            raise

    @property
    def live(self):
        return self.system.service.advertised, self.system.service.graph

    def tick(self, events):
        return self.system.apply_tick(events)

    def serve(self, queries) -> Served:
        delivered = hops = 0
        t0 = time.perf_counter()
        for s, t in queries:
            res = self.system.route(s, t)
            if res.delivered:
                delivered += 1
                hops += res.hops
        return Served(len(queries), delivered, hops, time.perf_counter() - t0)

    def check(self, sources, pairs) -> "list[str]":
        h, g = self.live
        return list(self.system.mismatches()) + gate.check_journeys(self.system.route, h, g, pairs)

    def close(self) -> None:
        self.system.close()


BACKENDS = {"serial": SerialBackend, "pool": PoolBackend, "actors": ActorBackend}


def build(spec: Spec, initial):
    """Construct the backend of *spec*; returns ``(backend, seconds)``."""
    t0 = time.perf_counter()
    backend = BACKENDS[spec.backend](initial, spec)
    return backend, time.perf_counter() - t0
