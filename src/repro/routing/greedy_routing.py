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

:func:`route_served_batch` is the batch path: the journeys of a request
batch are independent, so each step advances every in-flight query by one
hop in the same ``next_hops``/``distances`` gathers and retires the ones
that arrived or turned out unroutable.  Its :meth:`BatchRoutes.results`
are :func:`route_served`'s, query for query (``route_served`` stays the
reference); ``serve_queries`` rides it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..errors import NodeNotFound, ParameterError
from ..graph import AugmentedView, Graph, bfs_distances

__all__ = [
    "RouteResult",
    "RoutingStats",
    "route",
    "route_served",
    "route_served_batch",
    "BatchRoutes",
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


def check_lookups(us: "np.ndarray", vs: "np.ndarray", n: int, *, distinct: bool) -> None:
    """The batched lookups' argument checks: every id in ``[0, n)`` and,
    when *distinct*, ``us[i] != vs[i]``.  The first offending pair raises
    what the scalar lookup would (:class:`ParameterError` for a pair
    routing to itself, :class:`NodeNotFound` for an unknown id).  *us* and
    *vs* are int64 arrays; viewed unsigned, a negative id is out of range
    too, and one comparison covers both sides."""
    bad = np.maximum(us.view(np.uint64), vs.view(np.uint64)) >= n
    if distinct:
        bad |= us == vs
    if not np.count_nonzero(bad):
        return
    i = int(np.argmax(bad))
    u, v = int(us[i]), int(vs[i])
    if distinct and u == v:
        raise ParameterError("source equals target")
    raise NodeNotFound(v if 0 <= u < n else u, n)


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
class BatchRoutes:
    """A batch of :func:`route_served` journeys, as arrays.

    Query *i* routes ``sources[i] → targets[i]``.  ``delivered`` and
    ``hops`` are its outcome; ``finished[i]`` is the number of steps the
    batch had taken when query *i* arrived, was found unroutable, or ran
    out of hop budget, and ``clock[k]`` the seconds from batch start to the
    end of step *k* (``clock[0] == 0``), so ``clock[finished]`` is each
    query's latency.  ``steps[k]`` records step *k + 1* as ``(ids, hop,
    dist)``: the queries still in flight, the hop each took (−1:
    unroutable, the journey ends) and ``d_H(hop, target)`` (−1: no
    certificate — unreachable, refused, or a fallback hop).
    :meth:`results` rebuilds the exact :class:`RouteResult` of each query.
    """

    sources: np.ndarray
    targets: np.ndarray
    delivered: np.ndarray
    hops: np.ndarray
    finished: np.ndarray
    clock: np.ndarray
    steps: "list[tuple[np.ndarray, np.ndarray, np.ndarray]]"

    @property
    def latencies(self) -> np.ndarray:
        """Seconds from batch start to the step each query finished at."""
        return self.clock[self.finished]

    def results(self) -> "list[RouteResult]":
        """The :class:`RouteResult` :func:`route_served` gives each query."""
        out = [RouteResult(path=[s]) for s in self.sources.tolist()]
        targets = self.targets.tolist()
        for ids, hop, dist in self.steps:
            for i, h, d in zip(ids.tolist(), hop.tolist(), dist.tolist()):
                res = out[i]
                if h < 0:
                    res.potentials.append(float("inf"))
                    continue
                res.potentials.append(d + 1 if d >= 0 else float("inf"))
                res.path.append(h)
                if h == targets[i]:
                    res.delivered = True
                    res.potentials.append(0)
        return out


def _pairwise(lookup):
    """A batched lookup (``None`` → −1) over a scalar one, for endpoints
    that answer one pair at a time."""

    def batched(us, vs) -> np.ndarray:
        answers = [lookup(u, v) for u, v in zip(us.tolist(), vs.tolist())]
        return np.array([-1 if a is None else a for a in answers], dtype=np.int64)

    return batched


def route_served_batch(
    endpoint,
    sources,
    targets,
    max_hops: "int | None" = None,
    *,
    hop_fallback=None,
) -> BatchRoutes:
    """Forward a batch of packets hop-synchronously off the served tables.

    Query *i* makes :func:`route_served`'s journey ``sources[i] →
    targets[i]``, with the same ``max_hops`` and ``hop_fallback``
    semantics; :meth:`BatchRoutes.results` equals ``[route_served(endpoint,
    s, t, ...) for s, t in pairs]`` element by element.  The journeys are
    independent, so each step advances every query still in flight with
    one gather on T and one on D for the potentials (the gathers behind
    ``endpoint.next_hops``/``distances``, without their argument checks:
    the batch is checked once up front), and retires the queries that
    arrived or turned out unroutable.  *endpoint* is a
    :class:`~repro.dynamic.serving.RoutingService`,
    :class:`~repro.parallel.sharded.ShardedRoutingService` or
    :class:`~repro.parallel.sharded.RouteReader`; an endpoint with only
    :func:`route_served`'s scalar ``next_hop``/``distance`` is asked pair
    by pair within the same steps.  ``hop_fallback`` is consulted per
    query, only for the −1 hops.  A query left alone in flight finishes
    through :func:`route_served` itself — scalar lookups cost less than a
    vector step of one — and its hops are recorded step by step as usual.

    A query routing to itself raises :class:`ParameterError` and an unknown
    id :class:`NodeNotFound`, checked before any step — for the first
    offending query, as the per-query loop would raise (an unknown source
    is looked up only when ``max_hops > 0``).
    """
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    tgt = np.asarray(targets, dtype=np.int64).reshape(-1)
    if len(src) != len(tgt):
        raise ParameterError(f"{len(src)} sources but {len(tgt)} targets")
    if hop_fallback is True:
        hop_fallback = endpoint.hop_fallback
    n = endpoint.num_nodes
    if max_hops is None:
        max_hops = n
    if max_hops > 0:
        # Targets first, as route_served checks them before any lookup.
        check_lookups(tgt, src, n, distinct=True)
    else:  # no step ever looks a source up
        for s, t in zip(src.tolist(), tgt.tolist()):
            if s == t:
                raise ParameterError("source equals target")
            if not 0 <= t < n:
                raise NodeNotFound(t, n)
    # The endpoints' unchecked per-step gathers: the batch was checked
    # above, and every later id is a hop the table gave.
    gather_hops = getattr(endpoint, "_gather_hops", None) or _pairwise(endpoint.next_hop)
    gather_dists = getattr(endpoint, "_gather_dists", None) or _pairwise(endpoint.distance)
    clock = [0.0]
    steps: "list[tuple[np.ndarray, np.ndarray, np.ndarray]]" = []
    ids = np.arange(len(src))
    current, goal = src, tgt
    sw = obs.Stopwatch()
    while ids.size and len(steps) < max_hops:
        if ids.size == 1:
            # A lone straggler: route_served's scalar lookups finish it
            # ~1.5× faster than one-element vector steps (RouteReader, cold
            # after a tick), and its journey is recorded step by step.
            alone = route_served(
                endpoint, int(current[0]), int(goal[0]), max_hops - len(steps),
                hop_fallback=hop_fallback,
            )
            moves = alone.path[1:]
            if not alone.delivered and len(alone.potentials) > len(moves):
                moves = moves + [-1]  # unroutable from its last node
            for h, p in zip(moves, alone.potentials):
                dist = -1 if h < 0 or p == float("inf") else p - 1
                steps.append((ids, np.array([h]), np.array([dist])))
            clock.extend([sw.elapsed()] * len(moves))
            break
        hop = gather_hops(current, goal)
        moved = hop >= 0
        if np.count_nonzero(moved) == ids.size:
            dist = gather_dists(hop, goal)
            going = (hop != goal).nonzero()[0]
        else:
            certified = moved
            if hop_fallback is not None:
                for i in np.flatnonzero(~certified).tolist():
                    fallback = hop_fallback(int(current[i]), int(goal[i]))
                    if fallback is not None:
                        obs.inc("route.fallback_hops")
                        hop[i] = fallback
                moved = hop >= 0
            dist = np.full(ids.size, -1, dtype=np.int64)
            if certified.any():
                dist[certified] = gather_dists(hop[certified], goal[certified])
            going = (moved & (hop != goal)).nonzero()[0]
        steps.append((ids, hop, dist))
        clock.append(sw.elapsed())
        if going.size < ids.size:
            ids, hop, goal = ids[going], hop[going], goal[going]
        current = hop
    # A query is in flight for steps 1..finished, so its step count is its
    # number of records, its hops the records that moved, and it was
    # delivered iff one of its hops reached the target.
    visits = np.concatenate([ids for ids, _, _ in steps] or [ids[:0]])
    hopped = np.concatenate([hop for _, hop, _ in steps] or [ids[:0]])
    finished = np.bincount(visits, minlength=len(src))
    hops = np.bincount(visits[hopped >= 0], minlength=len(src))
    delivered = np.zeros(len(src), dtype=bool)
    delivered[visits[hopped == tgt[visits]]] = True
    return BatchRoutes(src, tgt, delivered, hops, finished, np.array(clock), steps)


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
    # One BFS per distinct source; the per-pair lookup is then O(1).
    dist_from: dict[int, list[int]] = {}
    for s, t in pairs:
        if s not in dist_from:
            dist_from[s] = bfs_distances(g, s)
        d_g = dist_from[s][t]
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
