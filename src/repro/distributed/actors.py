"""The distributed serving tier: sharded table actors over a transport.

Where :class:`~repro.distributed.simulator.SyncNetwork` simulates *the
paper's protocols* (one node per simulated router, lock-step rounds),
this module serves *the maintained tables* from a tier of asyncio actors:

* the **feed driver** owns the serial :class:`~repro.dynamic.serving.\
  RoutingService` (the ground truth) and republishes its per-tick
  :class:`~repro.dynamic.maintainer.BatchReport` as sequence-numbered
  :class:`~repro.distributed.wire.LsaUpdate` floods — net maintainer
  deltas on the wire.  Events enter only through
  :meth:`ActorSystem.apply_tick` (the service's ``apply_batch``; one
  event is a one-event tick).  A :class:`~repro.distributed.wire.FullTopology`
  goes out only for the cold-start bootstrap, a ``resync`` tick
  (compaction), a resend of seqs already trimmed from the driver's
  bounded log, and the benchmark's naive baseline;
* **shard actors** each own one **region** of the ids and keep one
  persistent (G, H) replica, patched in place by every applied LSA, and
  hold only the distance rows their tables read — owned sources and their
  G-neighbors — plus the owned next-hop tables.  The driver grows the
  regions at bootstrap (:func:`grow_regions`: balanced BFS regions, so an
  actor's held rows follow the cut, not the whole graph) and the region
  map travels as replicated state: a :class:`~repro.distributed.wire.\
  FullTopology` carries the whole map, an
  :class:`~repro.distributed.wire.LsaUpdate` the region of each joined id
  (that of its lowest-id placed G-neighbor, else ``id % shards``); a
  resync (compaction renumbers the ids) regrows the map on the driver's
  current graph and ships it in its snapshot.  Every replica's map is the
  driver's, never re-derived from its own G.  At quiescence the rows
  are *repaired from the net delta* accumulated since the last repair
  (link-state style: LSDB update → partial SPF → next-hop table): the
  certified :func:`~repro.dynamic.serving.dirty_rows` test the serial
  service runs, restricted to the held rows, picks the rows to repair,
  rows that became held get a fresh BFS, and only damaged owned tables
  are re-projected.  The row and table work is the serial service's own
  :class:`~repro.dynamic.serving.RowOwner` (``update_rows`` →
  ``damage`` → ``project``) over the actor's arrays — same inputs, same
  code, same certified dirty set — so a converged actor's rows are
  bit-for-bit the service's rows, which the convergence property suite
  asserts;
* actors sit on a **ring overlay**: updates enter at ``seq % shards``
  and flood both directions with TTL + loop-window headers, HELLO
  beacons carry applied sequence numbers between ring neighbors
  (liveness via :data:`~repro.distributed.wire.HELLO_TIMEOUT`, and
  anti-entropy: a beacon ahead of the local database triggers a
  :class:`~repro.distributed.wire.ResendRequest` to the driver, which
  retransmits from its log — the mechanism that makes convergence hold
  under ``lsa.drop``/``lsa.delay`` fault plans).  The log is bounded:
  seqs every live actor has applied are trimmed, bar a short window for
  laggards, and a request for a trimmed seq is answered with a
  ``FullTopology``;
* ``route()`` runs :func:`~repro.routing.greedy_routing.route_served`'s
  exact decision loop *across* actors: each next-hop lookup happens at
  the owner of the current node, the hop's potential is appended by the
  owner of the hop (the ``pending_hop`` leg of
  :class:`~repro.distributed.wire.RouteQuery`), and the finished
  journey returns as a standard
  :class:`~repro.routing.greedy_routing.RouteResult` — identical path,
  delivery and potentials to the serial call (property-tested).  Hops
  inside a region are forwarded in place; a ``RouteQuery`` crosses the
  wire only where the journey crosses into another region.

The public surface is synchronous (``start``/``apply_tick``/``quiesce``/
``route``/``close`` drive a private event loop) so the CLI, tests and
benchmarks stay plain functions; all message-passing code is ``async``
and free of blocking primitives (the layering table's
``blocking_coroutine`` row).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import replace

import numpy as np

from .. import obs
from ..dynamic.serving import (
    DenseRows,
    RoutingService,
    RowDelta,
    RowOwner,
    dirty_rows,
    resized,
)
from ..dynamic.maintainer import BatchReport
from ..errors import NodeNotFound, ParameterError, ProtocolError
from ..graph import Graph, multi_source_distances
from ..routing.greedy_routing import RouteResult
from .transport import LoopbackTransport, Transport
from .wire import (
    HELLO_EVERY,
    HELLO_TIMEOUT,
    LSA_MAX_AGE,
    FullTopology,
    HelloBeacon,
    LsaDb,
    LsaUpdate,
    ResendRequest,
    RouteQuery,
    RouteReply,
)

# Bound here although RowOwner does the row and table work: perfbench's
# layer tracer patches these two module attributes by name.
from ..graph import batched_bfs  # noqa: F401
from ..routing.tables import project_table_row  # noqa: F401

__all__ = ["LOG_WINDOW", "ActorSystem", "ShardActor", "grow_regions"]

#: Newest seqs the driver's resend log keeps beyond what every live actor
#: has applied: a laggard within the window catches up from deltas, one
#: further behind is sent a :class:`FullTopology`.
LOG_WINDOW = 8


def grow_regions(g: Graph, parts: int) -> np.ndarray:
    """Balanced BFS regions of *g*: the region (0..parts−1) of each node.

    Seeds are farthest-point: node 0, then each next seed the node farthest
    from every seed so far (an unreached node counts as farthest; lowest id
    on ties).  The regions then grow round-robin, one node per turn in
    region order, each claiming the next unclaimed node in its own BFS
    order (neighbors in ascending id), until every region is at the cap
    ⌈n/parts⌉ or reaches nothing more.  Leftovers — components without a
    seed, or nodes walled in by full regions — go one BFS piece at a time,
    lowest id first, to the smallest region (lowest region id on ties),
    which grows over them up to the cap.  So no region exceeds the cap, and
    the map is a function of *g* alone.
    """
    n = g.num_nodes
    region = np.full(n, -1, dtype=np.int32)
    if n == 0:
        return region
    cap = -(-n // parts)
    csr = g.freeze()
    seeds = [0]
    while len(seeds) < min(parts, n):
        far = np.asarray(multi_source_distances(csr, seeds), dtype=np.int64)
        far[far < 0] = n
        far[seeds] = -1
        seeds.append(int(np.argmax(far)))
    sizes = [0] * parts
    queues = [deque() for _ in range(parts)]

    def claim(r: int, u: int) -> None:
        region[u] = r
        sizes[r] += 1
        queues[r].extend(csr.neighbors_csr(u))

    def grow(r: int) -> bool:
        """Claim region *r*'s next unclaimed BFS node; False when none."""
        queue = queues[r]
        while queue:
            u = queue.popleft()
            if region[u] < 0:
                claim(r, u)
                return True
        return False

    for r, seed in enumerate(seeds):
        claim(r, seed)
    growing = list(range(len(seeds)))
    while growing:
        growing = [r for r in growing if sizes[r] < cap and grow(r)]
    for u in np.flatnonzero(region < 0).tolist():
        if region[u] >= 0:
            continue  # claimed by an earlier leftover piece
        r = sizes.index(min(sizes))
        queues[r].clear()
        claim(r, u)
        while sizes[r] < cap and grow(r):
            pass
    return region


def _extended(region: np.ndarray, n: int) -> np.ndarray:
    """*region* grown to *n* ids, the new ones unplaced (−1)."""
    if n <= len(region):
        return region
    return np.concatenate((region, np.full(n - len(region), -1, dtype=np.int32)))


class ShardActor:
    """One table shard: a persistent (G, H) replica plus the rows it holds.

    ``g``/``h`` are the replica, patched in place by every applied LSA;
    ``region`` is the replicated region map (``region[u]`` owns *u*),
    set whole by a :class:`FullTopology` and grown by each joined id's
    ``(node, region)`` pair.  ``dist`` holds valid ``d_H`` rows exactly
    where ``held`` is set (the owned sources and their G-neighbors, as of
    the last repair); ``tables`` holds the owned next-hop rows.  Both are
    n×n arrays that only a change of the id space resizes (−1-padded,
    with the serial service's :func:`~repro.dynamic.serving.resized`).
    Between repairs the actor accumulates the net ΔH (a flap cancels) and
    the G-star endpoints of every applied update, which is all
    :meth:`recompute` needs.
    """

    def __init__(self, ident: int, system: "ActorSystem") -> None:
        self.ident = ident
        self.system = system
        self.db = LsaDb()
        self.g = Graph(0)
        self.h = Graph(0)
        self.region = np.empty(0, dtype=np.int32)
        self.dist = np.empty((0, 0), dtype=np.int32)
        self.tables = np.empty((0, 0), dtype=np.int32)
        self.held = np.zeros(0, dtype=bool)
        self._h_delta: "dict[tuple[int, int], bool]" = {}  # edge -> added (net)
        self._star: "set[int]" = set()  # endpoints of G edges changed
        self._stale = False  # an update was applied since the last repair
        self._full = True  # the next repair must start from scratch
        self.last_heard: "dict[int, int]" = {}  # ring peer -> last beacon round
        self.suspects: "set[int]" = set()
        self.recomputes = 0
        self.full_recomputes = 0
        self.rows_recomputed = 0
        self.tables_reprojected = 0

    @property
    def num_nodes(self) -> int:
        return self.g.num_nodes

    # -- replica maintenance ------------------------------------------- #

    def _apply_update(self, update) -> None:
        if isinstance(update, FullTopology):
            # The whole state, possibly renumbered (compaction): reload.
            self.g = Graph(update.num_nodes, update.g_edges)
            self.h = Graph(update.num_nodes, update.h_edges)
            self.region = np.array(update.regions, dtype=np.int32)
            self._full = True
        else:
            g, h = self.g, self.h
            n = max(update.num_nodes, *(node + 1 for node in update.nodes_joined), 0)
            for graph in (g, h):
                if n > graph.num_nodes:
                    graph.add_nodes(n - graph.num_nodes)
            self.region = _extended(self.region, n)
            for x, r in update.regions:
                self.region[x] = r
            for x, y in update.g_removed:
                if g.remove_edge(x, y):
                    self._star.update((x, y))
            for x, y in update.g_added:
                if g.add_edge(x, y):
                    self._star.update((x, y))
            for x, y in update.h_removed:
                if h.remove_edge(x, y):
                    self._note_h(x, y, False)
            for x, y in update.h_added:
                if h.add_edge(x, y):
                    self._note_h(x, y, True)
            self._full |= update.rebuilt
        self._stale = True

    def _note_h(self, x: int, y: int, added: bool) -> None:
        edge = (x, y) if x < y else (y, x)
        if self._h_delta.pop(edge, added) == added:
            self._h_delta[edge] = added  # first change since the repair
        # else: the opposite change was pending — the flap cancels

    def applied_seq(self) -> int:
        return self.db.applied_seq(self.system.driver_id)

    # -- row repair ------------------------------------------------------ #

    def recompute(self) -> None:
        """Repair the held rows and owned tables from the net delta.

        Runs the serial service's :class:`~repro.dynamic.serving.RowOwner`
        over this shard: the certified
        :func:`~repro.dynamic.serving.dirty_rows` test over the rows held
        before and after picks the rows to repair, rows that became held
        are BFSed as fresh, and an owned table is re-projected only where
        its argmin inputs moved — its whole row when its G-star changed,
        the changed columns of its G-neighbors' rows otherwise.  The full
        path (bootstrap, :class:`FullTopology`, a ``rebuilt`` delta)
        treats every held row as fresh and every owned table as whole,
        mirroring :meth:`RoutingService.refresh`.  Bit-identical to
        :class:`RoutingService`'s rows by construction: same inputs, same
        code, same certified dirty set.
        """
        if not self._stale:
            return
        with obs.span("actors.recompute"):
            self._repair()
        self._h_delta.clear()
        self._star.clear()
        self._stale = self._full = False
        self.recomputes += 1

    def _held_rows(self, owns: np.ndarray) -> np.ndarray:
        """Rows the owned tables read: owned ∪ N_G(owned)."""
        indptr, indices = self.g.freeze().numpy_arrays()
        held = owns.copy()
        held[indices[np.repeat(owns, np.diff(indptr))]] = True
        return held

    def _repair(self) -> None:
        n, old_n = self.num_nodes, self.dist.shape[0]
        self.dist, self.tables = resized(self.dist, n), resized(self.tables, n)
        owns = self.region == self.ident
        # Joins grow the id space; new rows start unheld.
        was_held = np.zeros(n, dtype=bool)
        if not self._full:
            was_held[:old_n] = self.held
        if self._full or self._star or n != old_n:
            self.held = self._held_rows(owns)
        fresh = np.flatnonzero(self.held & ~was_held).tolist()
        if self._full:
            dirty, delta, whole = [], None, range(n)
            self.full_recomputes += 1
            obs.inc("actors.full_recomputes")
        else:
            h_added = [e for e, added in self._h_delta.items() if added]
            h_removed = [e for e, added in self._h_delta.items() if not added]
            kept = np.flatnonzero(self.held & was_held)
            dirty = sorted(dirty_rows(self.dist, self.h, h_added, h_removed, rows=kept))
            delta = RowDelta(h_added, h_removed, old_n)
            whole = [*self._star, *range(old_n, n)]
        core = RowOwner(DenseRows(self.dist), DenseRows(self.tables), prefix="actors")
        changed = core.update_rows(self.h.freeze(), dirty, delta, fresh)
        self.rows_recomputed += len(dirty) + len(fresh)
        g = self.g.freeze()
        damage = core.damage(g, changed, whole, owns)
        core.project(g, damage)
        self.tables_reprojected += len(damage)

    # -- read side (serial table semantics, owner-scoped) --------------- #

    def distance(self, u: int, v: int) -> "int | None":
        d = int(self.dist[u, v])
        return d if d >= 0 else None

    def next_hop(self, u: int, v: int) -> "int | None":
        hop = int(self.tables[u, v])
        return hop if hop >= 0 else None

    # -- message handling ------------------------------------------------ #

    async def handle(self, messages, round_index: int) -> None:
        system = self.system
        for m in messages:
            if isinstance(m, (LsaUpdate, FullTopology)):
                if self.db.accept(m, now=round_index):
                    await self._relay(m)
                for ready in self.db.take_ready(system.driver_id):
                    self._apply_update(ready)
            elif isinstance(m, HelloBeacon):
                self.last_heard[m.origin] = round_index
                self.suspects.discard(m.origin)
                if m.origin == system.driver_id and m.seq > self.applied_seq():
                    await self._request_resend(m.seq)
            elif isinstance(m, RouteQuery):
                await self._handle_query(m)
        self.db.purge(round_index, LSA_MAX_AGE)
        if round_index % HELLO_EVERY == 0:
            beacon = HelloBeacon(self.ident, seq=self.applied_seq(), stamp=round_index)
            for peer in system.ring_peers(self.ident):
                self.last_heard.setdefault(peer, round_index)
                await system.transport.send(self.ident, peer, beacon)
        for peer, heard in self.last_heard.items():
            if round_index - heard > HELLO_TIMEOUT:
                self.suspects.add(peer)

    async def _relay(self, m) -> None:
        relayed = m.relay(self.ident)
        if relayed is None:
            return
        for peer in self.system.ring_peers(self.ident):
            await self.system.transport.send(self.ident, peer, relayed)

    async def _request_resend(self, advertised_seq: int) -> None:
        pending = self.db._pending.get(self.system.driver_id, {})
        want = tuple(
            s
            for s in range(self.applied_seq() + 1, advertised_seq + 1)
            if s not in pending
        )
        if want:
            await self.system.transport.send(
                self.ident, self.system.driver_id, ResendRequest(self.ident, want)
            )

    # -- hop-by-hop route forwarding ------------------------------------- #

    async def _handle_query(self, q: RouteQuery) -> None:
        """This region's stretch of ``route_served``'s loop, verbatim.

        Each step appends the hop's potential (this actor owns the hop, so
        it holds the hop's distance row) and makes the next table decision
        (this actor owns the hop, now ``path[-1]``).  The steps repeat in
        place while the journey stays in the region — a loop, not
        recursion, since a journey runs up to n hops — and the query goes
        on the wire, as ``pending_hop``, only to the next hop's region.
        """
        target, hops_left, hop = q.target, q.hops_left, q.pending_hop
        path, potentials = list(q.path), list(q.potentials)
        while True:
            if hop is not None:
                d_hop = self.distance(hop, target)
                potentials.append(d_hop + 1 if d_hop is not None else None)
                path.append(hop)
                if hop == target:
                    await self._reply(q.qid, path, [*potentials, 0], True)
                    return
            if hops_left <= 0:
                await self._reply(q.qid, path, potentials, False)
                return
            hop = self.next_hop(path[-1], target)
            if hop is None:
                await self._reply(q.qid, path, [*potentials, None], False)
                return
            hops_left -= 1
            owner = int(self.region[hop])
            if owner != self.ident:
                forwarded = RouteQuery(
                    q.qid, target, hops_left, tuple(path), tuple(potentials), pending_hop=hop
                )
                await self.system._send_query(self.ident, owner, forwarded)
                return

    async def _reply(self, qid, path, potentials, delivered) -> None:
        reply = RouteReply(qid, tuple(path), tuple(potentials), delivered)
        await self.system.transport.send(
            self.ident, self.system.driver_id, reply
        )


class ActorSystem:
    """Driver + shard actors over one transport; synchronous facade.

    Construction mirrors :class:`~repro.dynamic.serving.RoutingService`
    (it owns one, as the feed source and serial truth).  ``region`` is the
    driver's region map — :func:`grow_regions` of the initial graph, grown
    by joins and regrown on every resync (compaction) — which every
    replica's map equals once it has applied the feed.  ``mode`` picks
    the wire strategy: ``"incremental"`` floods net-delta
    :class:`LsaUpdate`\\ s, ``"full"`` floods a :class:`FullTopology`
    per tick (the naive baseline the benchmark compares against).
    """

    def __init__(
        self,
        g: Graph,
        method: str = "kcover",
        *,
        k: "int | None" = None,
        epsilon: "float | None" = None,
        r: "int | None" = None,
        rebuild_fraction: float = 0.25,
        shards: int = 4,
        transport: "Transport | None" = None,
        mode: str = "incremental",
        tables: bool = True,
        max_rounds: int = 400,
    ) -> None:
        if shards < 1:
            raise ParameterError(f"shards must be ≥ 1, got {shards}")
        if mode not in ("incremental", "full"):
            raise ParameterError(f"unknown wire mode {mode!r}")
        self.shards = shards
        self.driver_id = shards
        self.mode = mode
        self.tables = tables
        self.max_rounds = max_rounds
        self.transport = LoopbackTransport() if transport is None else transport
        self.service = RoutingService(
            g, method, k=k, epsilon=epsilon, r=r, rebuild_fraction=rebuild_fraction
        )
        self.region = grow_regions(self.service.graph, shards)
        self.service.subscribe(self._on_delta)
        self.actors = [ShardActor(i, self) for i in range(shards)]
        for actor in self.actors:
            self.transport.register(actor.ident)
        self.transport.register(self.driver_id)
        self._outbox: "list[LsaUpdate | FullTopology]" = []  # seq not yet assigned
        self._log: "dict[int, LsaUpdate | FullTopology]" = {}
        self._out_seq = 0
        self._round = 0
        self._next_qid = 0
        self.route_messages = 0  # RouteQuery frames sent, injections included
        self._replies: "dict[int, RouteReply]" = {}
        self._loop = asyncio.new_event_loop()
        self._started = False
        self._muzzled: "set[int]" = set()

    # -- topology of the tier ------------------------------------------- #

    def owner(self, node: int) -> int:
        return int(self.region[node])

    def owned_nodes(self, actor: int) -> "list[int]":
        return np.flatnonzero(self.region == actor).tolist()

    def ring_peers(self, actor: int) -> "tuple[int, ...]":
        if self.shards == 1:
            return ()
        if self.shards == 2:
            return ((actor + 1) % 2,)
        return ((actor - 1) % self.shards, (actor + 1) % self.shards)

    def actor_for(self, node: int) -> ShardActor:
        return self.actors[self.owner(node)]

    @property
    def stats(self):
        return self.transport.stats

    # -- lifecycle ------------------------------------------------------- #

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def start(self) -> None:
        """Open the transport and bootstrap every replica (seq 1)."""
        if self._started:
            return
        self._run(self.transport.start())
        self._started = True
        boot = self._snapshot(self._next_seq())
        self._log[boot.seq] = boot
        self._run(self._flood(boot))
        self.quiesce()

    def close(self) -> None:
        if self._started:
            self._run(self.transport.close())
            self._started = False
        self._loop.close()

    def __enter__(self) -> "ActorSystem":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- feed side ------------------------------------------------------- #

    def _next_seq(self) -> int:
        self._out_seq += 1
        return self._out_seq

    def _snapshot(self, seq: int) -> FullTopology:
        """The service's live (G, H) as a :class:`FullTopology` at *seq*."""
        g = self.service.graph
        h = self.service.advertised
        return FullTopology(
            origin=self.driver_id,
            seq=seq,
            num_nodes=g.num_nodes,
            g_edges=tuple(sorted(g.edges())),
            h_edges=tuple(sorted(h.edges())),
            regions=tuple(self.region.tolist()),
        )

    def _on_delta(self, report: BatchReport, resync: bool) -> None:
        """Queue the tick's message; its seq is assigned when it floods.

        A snapshot is taken now, while the service is at this tick's
        state — a later tick queued behind it must not leak into it.  The
        region map follows the tick first: a resync (compaction renumbers
        the ids) regrows it on the graph as it now is, and otherwise each
        id the tick added is placed.
        """
        if resync:
            self.region = grow_regions(self.service.graph, self.shards)
        placed = self._place_joins()
        if resync or self.mode == "full":
            self._outbox.append(self._snapshot(0))
            return
        self._outbox.append(LsaUpdate(
            origin=self.driver_id,
            seq=0,
            g_added=report.g_added,
            g_removed=report.g_removed,
            h_added=report.h_added,
            h_removed=report.h_removed,
            nodes_joined=report.nodes_joined,
            num_nodes=self.service.num_nodes,
            rebuilt=report.rebuilt,
            regions=placed,
        ))

    def _place_joins(self) -> "tuple[tuple[int, int], ...]":
        """Give each id beyond the region map a region; returns the pairs.

        Ids are placed in ascending order, each in the region of its
        lowest-id G-neighbor already placed, or ``id % shards`` when it
        has none (an isolated join).
        """
        g = self.service.graph
        old, n = len(self.region), g.num_nodes
        self.region = _extended(self.region, n)
        for u in range(old, n):
            placed = [w for w in g.neighbors(u) if self.region[w] >= 0]
            self.region[u] = self.region[min(placed)] if placed else u % self.shards
        return tuple((u, int(self.region[u])) for u in range(old, n))

    async def _flood(self, message) -> None:
        """Inject at the ring entry with a ring-covering TTL."""
        entry = message.seq % self.shards
        armed = message.ttl if message.ttl else max(1, self.shards)
        await self.transport.send(self.driver_id, entry, replace(message, ttl=armed))

    def apply_tick(self, events) -> None:
        """Apply one coalesced tick; flood its delta and converge."""
        self.service.apply_batch(events)
        self.quiesce()

    # -- convergence ------------------------------------------------------ #

    def quiesce(self) -> int:
        """Flood queued deltas and pump rounds until the tier settles.

        Settled means: no frames pending in the transport, two
        consecutive idle rounds, and every (non-muzzled) actor's applied
        sequence equals the feed's.  Raises
        :class:`~repro.errors.ProtocolError` at ``max_rounds`` — with
        count-capped fault plans and the anti-entropy path, a healthy
        tier always converges well before it.  Ends by recomputing the
        owned rows on every actor (unless ``tables=False``).
        Returns the number of rounds pumped.
        """
        return self._run(self._quiesce())

    async def _quiesce(self) -> int:
        for queued in self._outbox:
            message = replace(queued, seq=self._next_seq())
            self._log[message.seq] = message
            await self._flood(message)
        self._outbox.clear()
        idle = 0
        rounds = 0
        while idle < 2:
            rounds += 1
            if rounds > self.max_rounds:
                raise ProtocolError(
                    f"actor tier failed to quiesce in {self.max_rounds} rounds "
                    f"(applied={[a.applied_seq() for a in self.actors]}, "
                    f"feed={self._out_seq}, pending={self.transport.pending()})"
                )
            progressed = await self._pump_round()
            lagging = any(
                a.applied_seq() < self._out_seq
                for a in self.actors
                if a.ident not in self._muzzled
            )
            if lagging and rounds % HELLO_EVERY == 0:
                # Anti-entropy nudge: advertise the feed seq so lagging
                # actors discover the gap and request retransmission.
                beacon = HelloBeacon(self.driver_id, seq=self._out_seq, stamp=rounds)
                for actor in self.actors:
                    await self.transport.send(self.driver_id, actor.ident, beacon)
            if progressed or lagging or self.transport.pending():
                idle = 0
            else:
                idle += 1
        self._trim_log()
        if self.tables:
            for actor in self.actors:
                if actor.ident not in self._muzzled:
                    actor.recompute()
        return rounds

    async def _pump_round(self) -> bool:
        self._round += 1
        progressed = False
        for actor in self.actors:
            messages = await self.transport.recv_all(actor.ident)
            if actor.ident in self._muzzled:
                continue  # a muzzled actor neither processes nor beacons
            if messages:
                progressed = True
            await actor.handle(messages, self._round)
        progressed |= await self._driver_drain()
        await self.transport.tick()
        return progressed

    def _trim_log(self) -> None:
        """Drop logged seqs every live actor has applied, bar the newest
        :data:`LOG_WINDOW` (kept so a briefly muzzled actor catches up from
        deltas rather than a snapshot)."""
        live = [a.applied_seq() for a in self.actors if a.ident not in self._muzzled]
        floor = min(min(live, default=self._out_seq), self._out_seq - LOG_WINDOW)
        for seq in [s for s in self._log if s <= floor]:
            del self._log[seq]

    async def _driver_drain(self) -> bool:
        progressed = False
        for m in await self.transport.recv_all(self.driver_id):
            if isinstance(m, ResendRequest):
                progressed = True
                # Unicast retransmits carry ttl 0 — apply, don't re-flood.
                if all(seq in self._log for seq in m.want):
                    for seq in m.want:
                        await self.transport.send(self.driver_id, m.origin, self._log[seq])
                elif not self._outbox:
                    # Part of the gap was trimmed: send the whole state as
                    # of the newest flooded seq, which supersedes the gap.
                    # (With deltas still queued the service is ahead of that
                    # seq; the actor asks again after the next flood.)
                    await self.transport.send(
                        self.driver_id, m.origin, self._snapshot(self._out_seq)
                    )
            elif isinstance(m, RouteReply):
                self._replies[m.qid] = m
        return progressed

    # -- serving ---------------------------------------------------------- #

    def route(self, source: int, target: int, max_hops: "int | None" = None) -> RouteResult:
        """:func:`~repro.routing.greedy_routing.route_served`'s journey,
        executed by the tier.

        The decision loop runs *across* shard actors — each next-hop lookup
        at the owner of the current node, each potential appended by the
        owner of the chosen hop — yet the returned :class:`RouteResult` is
        identical (path, delivery, potentials, tie-breaks) to
        ``route_served`` against :attr:`service`, because both realize the
        same argmin off bit-identical rows.  The equivalence is
        property-tested in ``tests/distributed/test_actors.py``.  Hops
        inside a region stay inside its actor, so a journey costs one
        ``RouteQuery`` frame for its injection plus one per region crossing
        (:attr:`route_messages` counts them), and one reply.
        """
        if source == target:
            raise ParameterError("source equals target")
        n = self.service.num_nodes
        for node in (source, target):
            if not (0 <= node < n):
                raise NodeNotFound(node, n)
        if max_hops is None:
            max_hops = n
        return self._run(self._route(source, target, max_hops))

    async def _route(self, source: int, target: int, max_hops: int) -> RouteResult:
        self._next_qid += 1
        qid = self._next_qid
        query = RouteQuery(qid, target, max_hops, path=(source,))
        await self._send_query(self.driver_id, self.owner(source), query)
        for _ in range(self.max_rounds):
            if qid in self._replies:
                break
            await self._pump_round()
        reply = self._replies.pop(qid, None)
        if reply is None:
            raise ProtocolError(f"route query {qid} starved after {self.max_rounds} rounds")
        return RouteResult(
            path=[int(x) for x in reply.path],
            delivered=reply.delivered,
            potentials=[float("inf") if p is None else p for p in reply.potentials],
        )

    async def _send_query(self, sender: int, actor: int, query: RouteQuery) -> None:
        self.route_messages += 1
        await self.transport.send(sender, actor, query)

    def mismatches(self) -> "list[str]":
        """Differences between the actor tier and the serial service.

        Empty iff every actor's replica matches the live (G, H) and the
        driver's region map, and every held distance row (owned sources
        and their G-neighbors) and every owned table row is bit-identical
        to the service's matrices — the convergence property the suite
        asserts.
        """
        out = []
        g = self.service.graph
        h = self.service.advertised
        n = self.service.num_nodes
        dist = self.service._dist
        tabs = self.service._tables
        for actor in self.actors:
            if actor.ident in self._muzzled:
                continue
            tag = f"actor {actor.ident}"
            if actor.num_nodes != n:
                out.append(f"{tag}: num_nodes {actor.num_nodes} != {n}")
                continue
            if actor.g.edge_set() != g.edge_set():
                out.append(f"{tag}: G replica diverged")
            if actor.h.edge_set() != h.edge_set():
                out.append(f"{tag}: H replica diverged")
            if not np.array_equal(actor.region, self.region):
                out.append(f"{tag}: region map diverged")
                continue
            if not self.tables:
                continue
            owned = self.owned_nodes(actor.ident)
            held = np.flatnonzero(actor.held)
            if actor.held.shape != (n,) or not actor.held[owned].all():
                out.append(f"{tag}: held rows do not cover the shard")
                continue
            for u in held[(actor.dist[held] != dist[held]).any(axis=1)].tolist():
                out.append(f"{tag}: distance row {u} differs")
            for u in np.asarray(owned)[(actor.tables[owned] != tabs[owned]).any(axis=1)].tolist():
                out.append(f"{tag}: table row {u} differs")
        return out

    def converged(self) -> bool:
        return not self.mismatches()

    # -- chaos hooks ------------------------------------------------------- #

    def muzzle(self, actor_id: int) -> None:
        """Silence an actor (drops its inbox, stops its beacons) — the
        hook the neighbor-timeout and fault tests use."""
        self._muzzled.add(actor_id)

    def unmuzzle(self, actor_id: int) -> None:
        self._muzzled.discard(actor_id)
