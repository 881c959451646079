"""The distributed serving tier: sharded table actors over a transport.

Where :class:`~repro.distributed.simulator.SyncNetwork` simulates *the
paper's protocols* (one node per simulated router, lock-step rounds),
this module serves *the maintained tables* from a tier of asyncio actors:

* the **feed driver** owns the serial :class:`~repro.dynamic.serving.\
  RoutingService` (the ground truth) and republishes its per-tick
  :class:`~repro.dynamic.serving.ServeDelta` as sequence-numbered
  :class:`~repro.distributed.wire.LsaUpdate` floods — net maintainer
  deltas on the wire.  A :class:`~repro.distributed.wire.FullTopology`
  goes out only for the cold-start bootstrap, a ``resync`` delta
  (compaction), a resend of seqs already trimmed from the driver's
  bounded log, and the benchmark's naive baseline;
* **shard actors** (``owner(u) = u % shards``) each keep one persistent
  (G, H) replica, patched in place by every applied LSA, and hold only
  the distance rows their tables read — owned sources and their
  G-neighbors — plus the owned next-hop tables.  At quiescence the rows
  are *repaired from the net delta* accumulated since the last repair
  (link-state style: LSDB update → partial SPF → next-hop table): the
  certified :func:`~repro.dynamic.serving.dirty_rows` test the serial
  service runs, restricted to the held rows, picks the rows to re-BFS,
  rows that became held get a fresh BFS, and only damaged owned tables
  are re-projected.  Same inputs, same kernels (``batched_bfs`` +
  ``project_table_row``), same certified dirty set — so a converged
  actor's rows are bit-for-bit the service's rows, which the
  convergence property suite asserts;
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
  delivery and potentials to the serial call (property-tested).

The public surface is synchronous (``start``/``apply_tick``/``quiesce``/
``route``/``close`` drive a private event loop) so the CLI, tests and
benchmarks stay plain functions; all message-passing code is ``async``
and inside the RL013 lint boundary — no blocking primitives.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np

from .. import obs
from ..dynamic.serving import RoutingService, ServeDelta, dirty_rows
from ..errors import ParameterError, ProtocolError
from ..graph import Graph, batched_bfs
from ..routing.greedy_routing import RouteResult
from ..routing.tables import project_table_row
from .transport import LoopbackTransport, Transport
from .wire import (
    HELLO_TIMEOUT,
    FullTopology,
    HelloBeacon,
    LsaDb,
    LsaUpdate,
    ResendRequest,
    RouteQuery,
    RouteReply,
)

__all__ = ["LOG_WINDOW", "ActorSystem", "ShardActor"]

#: Newest seqs the driver's resend log keeps beyond what every live actor
#: has applied: a laggard within the window catches up from deltas, one
#: further behind is sent a :class:`FullTopology`.
LOG_WINDOW = 8


def _neighbor_spans(csr, rows: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
    """``(neighbor ids, index into rows)`` of every edge out of *rows*."""
    indptr, indices = csr.numpy_arrays()
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    offsets = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    return indices[offsets], np.repeat(np.arange(rows.size), lens)


class ShardActor:
    """One table shard: a persistent (G, H) replica plus the rows it holds.

    ``g``/``h`` are the replica, patched in place by every applied LSA.
    ``dist`` holds valid ``d_H`` rows exactly where ``held`` is set (the
    owned sources and their G-neighbors, as of the last repair);
    ``tables`` holds the owned next-hop rows.  Both are n×n views of
    buffers that only a compaction or id-space growth past their capacity
    reallocates.  Between repairs the actor accumulates the net ΔH (a
    flap cancels) and the G-star endpoints of every applied update, which
    is all :meth:`recompute` needs.
    """

    def __init__(self, ident: int, system: "ActorSystem") -> None:
        self.ident = ident
        self.system = system
        self.db = LsaDb()
        self.g = Graph(0)
        self.h = Graph(0)
        self._dist_buf = np.empty((0, 0), dtype=np.int32)
        self._tables_buf = np.empty((0, 0), dtype=np.int32)
        self.dist = self._dist_buf  # n×n views of the buffers
        self.tables = self._tables_buf
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
            self._full = True
        else:
            g, h = self.g, self.h
            n = max(update.num_nodes, *(node + 1 for node in update.nodes_joined), 0)
            for graph in (g, h):
                if n > graph.num_nodes:
                    graph.add_nodes(n - graph.num_nodes)
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

        The full path (bootstrap, :class:`FullTopology`, a ``rebuilt``
        delta) BFSes every held row and re-projects every owned table,
        mirroring :meth:`RoutingService.refresh`.  Otherwise the rows are
        repaired from the net delta since the last repair: the certified
        :func:`~repro.dynamic.serving.dirty_rows` test over the rows held
        before and after picks which to re-BFS, rows that became held get
        a fresh BFS, and an owned table is re-projected only where its
        argmin inputs moved — its whole row when its G-star changed, the
        changed columns of its G-neighbors' rows otherwise.  Bit-identical
        to :class:`RoutingService`'s rows by construction: same inputs,
        same kernels, same certified dirty set.
        """
        if not self._stale:
            return
        with obs.span("actors.recompute"):
            if self._full:
                self._repair_full()
            else:
                self._repair()
        self._h_delta.clear()
        self._star.clear()
        self._stale = self._full = False
        self.recomputes += 1

    def _owned(self, n: int) -> np.ndarray:
        return np.arange(self.ident, n, self.system.shards)

    def _held_rows(self, n: int) -> np.ndarray:
        """Rows the owned tables read: owned ∪ N_G(owned)."""
        held = np.zeros(n, dtype=bool)
        owned = self._owned(n)
        held[owned] = True
        held[_neighbor_spans(self.g.freeze(), owned)[0]] = True
        return held

    def _bfs(self, rows: "list[int]", track=frozenset()) -> "tuple[list[int], list[np.ndarray]]":
        """BFS *rows* on the replica H into ``dist``.

        Returns the rows of *track* that moved, with their
        changed-destination masks.
        """
        changed: "list[int]" = []
        masks: "list[np.ndarray]" = []
        if rows:
            for s, row in batched_bfs(self.h.freeze(), rows, arrays=True):
                if s in track:
                    mask = row != self.dist[s]
                    if mask.any():
                        changed.append(s)
                        masks.append(mask)
                self.dist[s] = row
        self.rows_recomputed += len(rows)
        obs.inc("actors.rows_recomputed", len(rows))
        return changed, masks

    def _project(self, u: int, cols: "np.ndarray | None") -> None:
        project_table_row(self.dist, self.tables, sorted(self.g.neighbors(u)), u, cols)

    def _size_matrices(self, n: int) -> None:
        """View ``dist``/``tables`` at n×n, growing their buffers by half
        again when joins outgrow them (cells past the old size are −1:
        a new id is unreachable until its row is BFSed)."""
        old = self.dist.shape[0]
        if n == old:
            return
        cap = self._dist_buf.shape[0]
        if n < old or n > cap:
            # Past capacity, keep the rows and grow by half again
            # (amortized); a compaction shrink carries nothing over.
            keep = old if n > old else 0
            cap = max(n, cap + cap // 2) if keep else n
            dist = np.full((cap, cap), -1, dtype=np.int32)
            dist[:keep, :keep] = self.dist[:keep, :keep]
            tables = np.full((cap, cap), -1, dtype=np.int32)
            tables[:keep, :keep] = self.tables[:keep, :keep]
            self._dist_buf, self._tables_buf = dist, tables
            old = keep
        self.dist = self._dist_buf[:n, :n]
        self.tables = self._tables_buf[:n, :n]
        self.held = np.concatenate([self.held[:old], np.zeros(n - old, dtype=bool)])

    def _repair_full(self) -> None:
        n = self.num_nodes
        self._size_matrices(n)
        self.held = self._held_rows(n)
        self._bfs(np.flatnonzero(self.held).tolist())
        owned = self._owned(n)
        for u in owned.tolist():
            self._project(u, None)
        self.tables_reprojected += owned.size
        self.full_recomputes += 1
        obs.inc("actors.tables_reprojected", owned.size)
        obs.inc("actors.full_recomputes")

    def _repair(self) -> None:
        n = self.num_nodes
        old_n = self.dist.shape[0]
        self._size_matrices(n)  # joins grow the id space; new rows unheld
        was_held = self.held
        held = self._held_rows(n) if (self._star or n != old_n) else was_held
        h_added = [e for e, added in self._h_delta.items() if added]
        h_removed = [e for e, added in self._h_delta.items() if not added]
        dirty = dirty_rows(
            self.dist, self.h, h_added, h_removed, rows=np.flatnonzero(held & was_held)
        )
        # A newly held row needs no damage mask: it became held because an
        # owned source gained a G-edge to it (or is itself new), and every
        # owned table that reads it had its G-star change — full damage.
        fresh = np.flatnonzero(held & ~was_held).tolist()
        changed, masks = self._bfs(sorted(dirty.union(fresh)), track=dirty)
        self.held = held
        # Damage, per owned table: its whole row when its G-star changed
        # (or it is new), else the OR of its changed neighbor rows' masks.
        shards = self.system.shards
        owned = self._owned(n)
        whole = np.zeros(owned.size, dtype=bool)
        for u in self._star:
            if u % shards == self.ident:
                whole[u // shards] = True
        whole[owned >= old_n] = True
        touched = 0
        for i in np.flatnonzero(whole).tolist():
            self._project(int(owned[i]), None)
            touched += 1
        if changed:
            nbrs, which = _neighbor_spans(self.g.freeze(), np.asarray(changed))
            mine = nbrs % shards == self.ident
            reads = np.zeros((owned.size, len(changed)), dtype=np.float32)
            reads[nbrs[mine] // shards, which[mine]] = 1.0
            reads[whole] = 0.0
            hit = np.flatnonzero(reads.any(axis=1))
            damage = (reads[hit] @ np.asarray(masks, dtype=np.float32)) > 0
            for i, mask in zip(hit.tolist(), damage):
                self._project(int(owned[i]), np.flatnonzero(mask))
            touched += hit.size
        self.tables_reprojected += touched
        obs.inc("actors.tables_reprojected", touched)

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
        self.db.purge(round_index, system.lsa_max_age)
        if round_index % system.hello_every == 0:
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
        """One actor's leg of ``route_served``'s loop, verbatim.

        The ``pending_hop`` leg appends the hop's potential (this actor
        owns the hop's distance row); the forwarding leg makes the next
        table decision (this actor owns ``path[-1]``).  Both may run in
        one call when the hop's owner is also the next decision's owner.
        """
        system = self.system
        path = q.path
        potentials = q.potentials
        if q.pending_hop is not None:
            hop = q.pending_hop
            d_hop = self.distance(hop, q.target)
            potentials = (*potentials, d_hop + 1 if d_hop is not None else None)
            path = (*path, hop)
            if hop == q.target:
                await self._reply(q.qid, path, potentials, True, final_zero=True)
                return
            q = RouteQuery(q.qid, q.target, q.hops_left, path, potentials, None)
        current = q.path[-1]
        if q.hops_left <= 0:
            await self._reply(q.qid, q.path, q.potentials, False)
            return
        hop = self.next_hop(current, q.target)
        if hop is None:
            await self._reply(q.qid, q.path, (*q.potentials, None), False)
            return
        forwarded = RouteQuery(
            q.qid, q.target, q.hops_left - 1, q.path, q.potentials, pending_hop=hop
        )
        await system.transport.send(self.ident, system.owner(hop), forwarded)

    async def _reply(self, qid, path, potentials, delivered, final_zero=False) -> None:
        if final_zero:
            potentials = (*potentials, 0)
        reply = RouteReply(qid, path, potentials, delivered)
        await self.system.transport.send(
            self.ident, self.system.driver_id, reply
        )


class ActorSystem:
    """Driver + shard actors over one transport; synchronous facade.

    Construction mirrors :class:`~repro.dynamic.serving.RoutingService`
    (it owns one, as the feed source and serial truth).  ``mode`` picks
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
        hello_every: int = 4,
        lsa_max_age: int = 12,
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
        self.hello_every = hello_every
        self.lsa_max_age = lsa_max_age
        self.max_rounds = max_rounds
        self.transport = LoopbackTransport() if transport is None else transport
        self.service = RoutingService(
            g, method, k=k, epsilon=epsilon, r=r, rebuild_fraction=rebuild_fraction
        )
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
        self._replies: "dict[int, RouteReply]" = {}
        self._loop = asyncio.new_event_loop()
        self._started = False
        self._muzzled: "set[int]" = set()

    # -- topology of the tier ------------------------------------------- #

    def owner(self, node: int) -> int:
        return node % self.shards

    def owned_nodes(self, actor: int, n: int) -> "list[int]":
        return list(range(actor, n, self.shards))

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
        )

    def _on_delta(self, delta: ServeDelta) -> None:
        """Queue *delta*'s message; its seq is assigned when it floods.

        A snapshot is taken now, while the service is at this delta's
        state — a later tick queued behind it must not leak into it.
        """
        if delta.resync or self.mode == "full":
            self._outbox.append(self._snapshot(0))
            return
        self._outbox.append(LsaUpdate(
            origin=self.driver_id,
            seq=0,
            g_added=delta.g_added,
            g_removed=delta.g_removed,
            h_added=delta.h_added,
            h_removed=delta.h_removed,
            nodes_joined=delta.nodes_joined,
            num_nodes=delta.num_nodes,
            rebuilt=delta.rebuilt,
        ))

    async def _flood(self, message) -> None:
        """Inject at the ring entry with a ring-covering TTL."""
        entry = message.seq % self.shards
        armed = message.ttl if message.ttl else max(1, self.shards)
        await self.transport.send(self.driver_id, entry, replace(message, ttl=armed))

    def apply(self, event) -> None:
        """Apply one event through the serial service; flood its delta."""
        self.service.apply(event)
        self.quiesce()

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
            if lagging and rounds % self.hello_every == 0:
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
        """``route_served``'s journey, forwarded hop-by-hop across actors."""
        if source == target:
            raise ParameterError("source equals target")
        n = self.service.num_nodes
        if not (0 <= target < n):
            from ..errors import NodeNotFound

            raise NodeNotFound(target, n)
        if max_hops is None:
            max_hops = n
        return self._run(self._route(source, target, max_hops))

    async def _route(self, source: int, target: int, max_hops: int) -> RouteResult:
        self._next_qid += 1
        qid = self._next_qid
        query = RouteQuery(qid, target, max_hops, path=(source,))
        await self.transport.send(self.driver_id, self.owner(source), query)
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

    def mismatches(self) -> "list[str]":
        """Differences between the actor tier and the serial service.

        Empty iff every actor's replica matches the live (G, H), every
        held distance row (owned sources and their G-neighbors) and every
        owned table row is bit-identical to the service's matrices — the
        convergence property the suite asserts.
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
            if not self.tables:
                continue
            owned = self.owned_nodes(actor.ident, n)
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
