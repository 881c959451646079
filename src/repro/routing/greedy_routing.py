"""Hop-by-hop greedy routing on a remote-spanner — the paper's application.

§1's argument, made executable: node *u* forwards a packet for *v* to its
neighbor *u′* closest to *v* in :math:`H_u`; *u′* repeats the decision in
:math:`H_{u'}`.  Because the tail of *u*'s chosen path lies inside H (only
the first hop may use an augmented edge), the invariant

    :math:`d_{H_{u'}}(u', v) \\le d_{H_u}(u, v) - 1`

holds at every hop, so the packet arrives in at most
:math:`d_{H_u}(u, v)` hops and greedy routing inherits the remote-spanner
stretch (α, β).  :func:`route` simulates the forwarding and records the
per-hop potential so tests can check the invariant itself, not just
arrival.

:func:`route_served` is the *production* twin: the same journey decided by
table lookups against a maintained :class:`~repro.dynamic.serving.\
RoutingService` (or a concurrent :class:`~repro.parallel.sharded.\
RouteReader`) instead of a fresh :class:`AugmentedView` BFS per hop —
identical path, delivery and potentials (property-tested), at query cost
O(hops) instead of O(hops · m).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..errors import NodeNotFound, ParameterError
from ..graph import AugmentedView, Graph

__all__ = [
    "RouteResult",
    "RoutingStats",
    "route",
    "route_served",
    "route_all_pairs_stats",
]


@dataclass
class RouteResult:
    """One simulated packet journey."""

    path: list = field(default_factory=list)  # nodes visited, source first
    delivered: bool = False
    potentials: list = field(default_factory=list)  # d_{H_x}(x, v) at each hop

    @property
    def hops(self) -> int:
        # An empty/default result has no source yet — zero hops, not −1.
        return max(0, len(self.path) - 1)


def route(h: Graph, g: Graph, source: int, target: int, max_hops: "int | None" = None) -> RouteResult:
    """Simulate greedy forwarding of one packet from *source* to *target*.

    Every visited node recomputes the decision on its own :math:`H_x`
    (this is what real link-state routers do — no source routing).

    ``max_hops`` bounds the number of *forwarding steps* simulated, not
    the number of nodes visited; when ``None`` it defaults to
    ``g.num_nodes``.  That default is a pure loop guard: on a true
    remote-spanner input the potential :math:`d_{H_x}(x, v)` starts at
    most ``n − 1`` and drops by at least 1 per hop, so the journey ends
    (delivered or unroutable) strictly before the guard — it can only
    trip, leaving ``delivered=False`` with a length-``max_hops`` journey,
    on inputs where H is *not* a remote-spanner of G and the packet
    cycles.  ``max_hops=0`` simulates no step at all: the result is the
    bare source path with no potential recorded.
    """
    if source == target:
        raise ParameterError("source equals target")
    if not (0 <= target < g.num_nodes):
        raise NodeNotFound(target, g.num_nodes)
    if max_hops is None:
        max_hops = g.num_nodes
    result = RouteResult(path=[source])
    current = source
    for _ in range(max_hops):
        view = AugmentedView(h, g, current)
        dist_to_target = view.distances_from(target)
        potential = dist_to_target[current]
        result.potentials.append(potential if potential >= 0 else float("inf"))
        if potential < 0:
            return result  # unroutable from here
        # Closest neighbor to target in H_current; smallest id on ties.
        best = None
        best_d = -1
        for w in sorted(g.neighbors(current)):
            dw = dist_to_target[w]
            if dw < 0:
                continue
            if best is None or dw < best_d:
                best, best_d = w, dw
        if best is None:
            return result
        result.path.append(best)
        current = best
        if current == target:
            result.delivered = True
            result.potentials.append(0)
            return result
    return result


def route_served(
    service,
    source: int,
    target: int,
    max_hops: "int | None" = None,
    *,
    hop_fallback=None,
) -> RouteResult:
    """Forward one packet hop-by-hop off maintained next-hop tables.

    The serving fast path: where :func:`route` re-derives every decision
    with a fresh :class:`AugmentedView` BFS (O(m) per hop), each hop here
    is one table lookup against *service* — a
    :class:`~repro.dynamic.serving.RoutingService`,
    :class:`~repro.parallel.sharded.ShardedRoutingService`, or a
    concurrent :class:`~repro.parallel.sharded.RouteReader` riding the
    shared matrices while repairs run.  Anything exposing ``num_nodes``,
    ``next_hop(u, v)`` and ``distance(u, v)`` works.

    The journey is *identical* to :func:`route` on the service's live
    ``(H, G)`` — same path, same delivery, same potentials, same
    tie-breaks — because the served table realizes the same argmin
    (``T[u, v] = argmin_{w∈N_G(u)} d_H(w, v)``) and the potential
    :math:`d_{H_u}(u, v)` equals ``1 + d_H(T[u, v], v)``: a shortest
    :math:`H_u`-path leaves *u* through a G-neighbor, star edge or not.
    ``max_hops`` has :func:`route`'s exact default-guard semantics
    (``None`` → ``num_nodes`` forwarding steps).

    ``hop_fallback`` is the degraded-serving hook: a callable
    ``(u, v) -> hop | None`` (pass ``True`` to use the service's own
    ``hop_fallback`` method, e.g. :meth:`RouteReader.hop_fallback
    <repro.parallel.sharded.RouteReader.hop_fallback>`) consulted only when
    the table lookup answers ``None`` — a dormant (crash-repaired) entry or
    a row refused by the reader's staleness bound.  Fallback hops keep the
    journey moving over committed edges but carry no potential certificate,
    so their potential records as ``inf`` and the standard per-hop
    invariant is not claimed for them.
    """
    if source == target:
        raise ParameterError("source equals target")
    if hop_fallback is True:
        hop_fallback = service.hop_fallback
    n = service.num_nodes
    if not (0 <= target < n):
        raise NodeNotFound(target, n)
    if max_hops is None:
        max_hops = n
    result = RouteResult(path=[source])
    current = source
    for _ in range(max_hops):
        hop = service.next_hop(current, target)
        if hop is None and hop_fallback is not None:
            hop = hop_fallback(current, target)
            if hop is not None:
                obs.inc("route.fallback_hops")
                result.potentials.append(float("inf"))
                result.path.append(hop)
                current = hop
                if current == target:
                    result.delivered = True
                    result.potentials.append(0)
                    return result
                continue
        if hop is None:
            result.potentials.append(float("inf"))
            return result  # unroutable from here
        d_hop = service.distance(hop, target)
        result.potentials.append(d_hop + 1 if d_hop is not None else float("inf"))
        result.path.append(hop)
        current = hop
        if current == target:
            result.delivered = True
            result.potentials.append(0)
            return result
    return result


@dataclass
class RoutingStats:
    """Aggregate greedy-routing quality over a pair population."""

    pairs: int = 0
    delivered: int = 0
    max_stretch: float = 0.0  # hops / d_G
    mean_stretch: float = 0.0
    max_overhead: int = 0  # hops - d_G
    invariant_violations: int = 0  # potential failed to drop by ≥ 1


def route_all_pairs_stats(
    h: "Graph | None" = None,
    g: "Graph | None" = None,
    pairs: "list[tuple[int, int]] | None" = None,
    *,
    service=None,
) -> RoutingStats:
    """Route (sampled) ordered pairs and aggregate stretch + invariants.

    Two modes: with ``(h, g)`` every journey is simulated by :func:`route`
    (per-hop BFS, the reference); with ``service=`` (a
    :class:`~repro.dynamic.serving.RoutingService` or sharded twin) the
    journeys ride :func:`route_served` off the maintained tables instead —
    same statistics, query-rate cost.  In served mode ``h``/``g`` default
    to the service's live advertised/topology graphs.
    """
    from ..graph import cached_bfs_distances

    if service is not None:
        if h is None:
            h = service.advertised
        if g is None:
            g = service.graph
    if h is None or g is None:
        raise ParameterError("route_all_pairs_stats needs (h, g) or service=")
    if pairs is None:
        n = g.num_nodes
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    stats = RoutingStats()
    stretch_total = 0.0
    g.freeze()  # the per-source BFS probes below ride the CSR snapshot
    # Local memo keeps the per-pair lookup O(1); the shared LRU layer
    # underneath persists the vectors (and its hit/miss accounting) across
    # calls on the same graph version.
    dist_cache: dict[int, list[int]] = {}
    for s, t in pairs:
        if s not in dist_cache:
            dist_cache[s] = cached_bfs_distances(g, s)
        d_g = dist_cache[s][t]
        if d_g < 1:
            continue
        stats.pairs += 1
        res = route_served(service, s, t) if service is not None else route(h, g, s, t)
        if not res.delivered:
            continue
        stats.delivered += 1
        stretch = res.hops / d_g
        stretch_total += stretch
        stats.max_stretch = max(stats.max_stretch, stretch)
        stats.max_overhead = max(stats.max_overhead, res.hops - d_g)
        # The potential must drop by at least 1 per hop (§1's argument).
        for a, b in zip(res.potentials, res.potentials[1:]):
            if b > a - 1:
                stats.invariant_violations += 1
    if stats.delivered:
        stats.mean_stretch = stretch_total / stats.delivered
    return stats
