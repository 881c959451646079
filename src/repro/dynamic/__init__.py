"""Dynamic-graph subsystem: churn scenarios, incremental upkeep, serving.

The paper's central claim is *locality* — a node decides its remote-spanner
edges from its bounded-radius neighborhood alone (Algorithms 1–5 never look
past ``B_G(u, r−1+β)``).  The contrapositive is what this package exploits:
a topology edit can only perturb the per-node trees rooted inside a bounded
ball around the edited edge, so a spanner can be *maintained* across an
event stream by recomputing the dirty ball instead of rebuilding from
scratch — and the routing tables served on top of it can be maintained the
same way, recomputing only the sources (and destinations) whose answers
moved.

* :mod:`repro.dynamic.events` — typed insert/delete edge events and
  join/leave node events, plus seeded scenario generators (UDG node
  mobility, link failure/recovery, incremental growth, node churn);
* :mod:`repro.dynamic.maintainer` — the incremental remote-spanner
  maintainer with dirty-ball detection, batched (per-tick) coalescing and
  a full-rebuild fallback;
* :mod:`repro.dynamic.serving` — :class:`RoutingService`, next-hop tables
  kept bit-identical to a from-scratch build after every event;
* :mod:`repro.dynamic.traffic` — seeded route-request workloads (uniform,
  Zipf-hotspot, locality) interleaved with the churn ticks: the *query*
  side of the serving stack, served by
  :func:`~repro.routing.greedy_routing.route_served`.

Entry points: ``python -m repro churn`` / ``python -m repro serve`` /
``python -m repro traffic`` drive a scenario from the shell;
``benchmarks/test_bench_dynamic.py``, ``benchmarks/test_bench_routing.py``
and ``benchmarks/test_bench_queries.py`` record the incremental-vs-rebuild
and served-vs-BFS speedups as ``BENCH_dynamic.json`` /
``BENCH_routing.json`` / ``BENCH_queries.json``.
"""

from .events import (
    EdgeEvent,
    NodeEvent,
    Scenario,
    apply_event,
    apply_events,
    failure_recovery_scenario,
    growth_scenario,
    make_scenario,
    mobility_scenario,
    node_churn_scenario,
    partition_heal_scenario,
    regional_outage_scenario,
    SCENARIO_NAMES,
    FAULT_SCENARIO_NAMES,
)
from .maintainer import (
    BatchReport,
    SpannerMaintainer,
    locality_radius,
)
from .serving import MemoryStats, RoutingService, ServeReport
from .traffic import (
    QueryBatchReport,
    TrafficTick,
    TrafficWorkload,
    WORKLOAD_NAMES,
    make_workload,
    serve_queries,
)

__all__ = [
    "EdgeEvent",
    "NodeEvent",
    "Scenario",
    "apply_event",
    "apply_events",
    "failure_recovery_scenario",
    "growth_scenario",
    "make_scenario",
    "mobility_scenario",
    "node_churn_scenario",
    "partition_heal_scenario",
    "regional_outage_scenario",
    "SCENARIO_NAMES",
    "FAULT_SCENARIO_NAMES",
    "BatchReport",
    "SpannerMaintainer",
    "locality_radius",
    "MemoryStats",
    "RoutingService",
    "ServeReport",
    "TrafficTick",
    "TrafficWorkload",
    "QueryBatchReport",
    "serve_queries",
    "WORKLOAD_NAMES",
    "make_workload",
]
