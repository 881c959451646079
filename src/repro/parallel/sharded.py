"""Sharded routing service: the serving layer fanned out over a worker pool.

:class:`ShardedRoutingService` partitions the n H-distance rows (and the n
next-hop tables) across the W workers of a :class:`~repro.parallel.pool.\
WorkerPool` by ``owner(u) = u % W`` — stable under id growth, balanced
under churn.  Both serving matrices and both graph snapshots (H for the
BFS rows, G for the argmin stars) live in shared memory
(:mod:`repro.parallel.shm`), so the per-event protocol exchanges only
summaries:

1. the parent certifies the dirty rows against the old shared ``D``
   (:func:`~repro.dynamic.serving.dirty_rows`, the base class's code) and
   sends each worker the row ids it owns plus the tick's net ΔH;
2. dirty rows fan out **shard-local**: each worker runs
   :meth:`RowOwner.update_rows <repro.dynamic.serving.RowOwner.\
update_rows>` — the serial service's code — over the rows it owns on the
   attached shared ``D`` (repair from the tick's net ΔH, BFS for joined
   ids and refreshes), writes them under one seqlock bracket per write
   (the repair's moved entries, each BFS chunk's moved rows), and sends
   back the :class:`~repro.dynamic.serving.RowChanges` arrays of the rows
   that moved.  The parent concatenates those and folds them, with the
   G-star changes, into one :class:`~repro.dynamic.serving.TableDamage`
   (:meth:`RowOwner.damage <repro.dynamic.serving.RowOwner.damage>`):
   the tables to re-project whole plus flat sorted ``(table, column)``
   cell arrays;
3. the damage is split by ``u % W`` with array masks and each worker is
   sent its share — a few int32 arrays, no per-table objects.  Each
   worker runs :meth:`RowOwner.project <repro.dynamic.serving.RowOwner.\
project>` on its own table rows in shared ``T`` (whole tables one by one,
   every cell in one batched gather, then every changed table and cell
   written under one bracket) and returns only the changed-entry count.

Only the fan-out policy lives here: sharding by owner, the over-repair
after a worker crash (``sharded.crash_full_damage``) and the retries
that re-project every touched table whole.  Because every stage runs
the serial implementation's code on the same bytes, the served tables are
**bit-identical** to :class:`~repro.dynamic.serving.RoutingService` after
every event — the property suite in ``tests/parallel/test_sharded.py``
asserts it for W ∈ {1, 2, 4} across all four churn scenarios and every
construction.

Each stage first ships its snapshot (H before the row repair, G before
the projection) whole into the shared blocks
(:meth:`SharedCSR.publish <repro.parallel.shm.SharedCSR.publish>`), which
costs tens of microseconds per tick.

The pool outlives events and survives restarts: published objects are
replayed to respawned workers, so :meth:`WorkerPool.restart <repro.\
parallel.pool.WorkerPool.restart>` (or a worker crash) mid-stream is
transparent.  Close the service (context manager) to free the workers and
the shared blocks.

**Concurrent reads.**  The shared D/T matrices carry one seqlock counter
per row (:mod:`repro.parallel.shm`), and after every
apply/refresh the service posts the current matrix handles to a
:class:`~repro.parallel.shm.SharedDirectory`.  Any process holding
:meth:`ShardedRoutingService.reader_handle` can construct a
:class:`RouteReader` over the same bytes and serve ``next_hop`` /
``table`` / ``route`` lookups *while the shard workers repair*: writers
scatter each stage's rows inside one ``write_rows`` bracket (their
versions odd only while the bytes move), readers retry a moved row, so
every observed row is bit-identical to a
state the service actually committed — the torn-read property suite in
``tests/parallel/test_torn_reads.py`` pins exactly that.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..dynamic.serving import RoutingService, RowChanges, TableDamage
from ..errors import NodeNotFound, ParameterError, TornReadError
from ..graph import Graph
from ..routing.greedy_routing import check_lookups
from .pool import WorkerPool
from .shm import AttachedDirectory, AttachedMatrix, SharedDirectory

__all__ = ["ShardedRoutingService", "RouteReader"]

_EMPTY = np.empty((0, 0), dtype=np.int32)

#: Shared-object names used by one service on its pool.
_H, _G, _DIST, _TABLES = "serve:h", "serve:g", "serve:dist", "serve:tables"

#: How many times a full table re-projection is retried when workers keep
#: crashing *during the retry itself* before the error surfaces.
_REPROJECT_ATTEMPTS = 3


class ShardedRoutingService(RoutingService):
    """A :class:`RoutingService` whose repair stages run on a worker pool.

    Parameters
    ----------
    g, method, k, epsilon, r, rebuild_fraction:
        Exactly as :class:`~repro.dynamic.serving.RoutingService`.
    workers:
        Pool size spec (int or ``"auto"``) — ignored when *pool*
        is given.
    start_method:
        Forwarded to :class:`~repro.parallel.pool.WorkerPool` (``fork`` /
        ``spawn`` / ``forkserver``).
    pool:
        An existing pool to run on; the service then does **not** close it
        (but does publish its shared objects there — one service per pool).
    seed:
        Root for the workers' :mod:`repro.rng` streams.
    """

    def __init__(
        self,
        g: Graph,
        method: str = "kcover",
        *,
        workers="auto",
        start_method: "str | None" = None,
        pool: "WorkerPool | None" = None,
        seed: int = 0,
        task_timeout: float = 300.0,
        k: "int | None" = None,
        epsilon: "float | None" = None,
        r: "int | None" = None,
        rebuild_fraction: float = 0.25,
    ) -> None:
        if pool is not None:
            self._pool, self._owns_pool = pool, False
        else:
            self._pool = WorkerPool(
                workers, start_method=start_method, seed=seed, task_timeout=task_timeout
            )
            self._owns_pool = True
        self._shared_ready = False
        self._closed = False
        self._directory = SharedDirectory()
        #: Completed-state counter, a header word of every directory post.
        #: A repair in flight posts ``pending = generation + 1`` first, so
        #: readers can bound how far behind the served rows are.
        self.generation = 0
        super().__init__(
            g, method, k=k, epsilon=epsilon, r=r, rebuild_fraction=rebuild_fraction
        )

    # ------------------------------------------------------------------ #
    # pool plumbing
    # ------------------------------------------------------------------ #

    @property
    def workers(self) -> int:
        """Number of shards (= pool workers)."""
        return self._pool.workers

    def owner(self, u: int) -> int:
        """The shard owning row/table *u* (stable as the id space grows)."""
        return u % self._pool.workers

    @property
    def pool_health(self):
        """Supervision counters of the pool (:class:`~repro.parallel.pool.\
PoolHealth`): respawns, retries, wedge restarts, torn rows repaired, ..."""
        return self._pool.health

    def reader_handle(self) -> str:
        """The directory address concurrent readers attach to.

        A plain string — pass it to any process (fork or spawn) and build
        a :class:`RouteReader` there; the reader then follows every matrix
        resize/reallocation through the directory on its own.
        """
        return self._directory.name

    def metrics(self) -> dict:
        """Merged per-shard observability snapshots (see
        :meth:`WorkerPool.metrics <repro.parallel.pool.WorkerPool.metrics>`);
        callable while serving and after :meth:`close`."""
        return self._pool.metrics()

    def close(self) -> None:
        """Release the shared matrices (and the pool, when owned)."""
        if self._closed:
            return
        self._closed = True
        self._dist = self._tables = _EMPTY  # drop exports first
        self._directory.close()
        if self._owns_pool:
            self._pool.close()
        else:
            for name in (_H, _G, _DIST, _TABLES):
                self._pool.drop(name)

    def __enter__(self) -> "ShardedRoutingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _matrix_bytes(self, matrix) -> int:
        # Report the shared blocks' *capacity* — the memory actually
        # reserved (headroom and high-water growth included), not the
        # logical view the serial service would report.
        if not self._shared_ready:
            return int(matrix.nbytes)
        name = _DIST if matrix is self._dist else _TABLES
        return self._pool.matrix_owner(name).capacity_bytes

    def _shard(self, rows) -> "tuple[list, list[int]]":
        """Group *rows* by owning worker."""
        w = self._pool.workers
        buckets: "list[list[int]]" = [[] for _ in range(w)]
        for u in rows:
            buckets[u % w].append(u)
        payload_items, to = [], []
        for wid, bucket in enumerate(buckets):
            if bucket:
                payload_items.append(bucket)
                to.append(wid)
        return payload_items, to

    # ------------------------------------------------------------------ #
    # overridden stages
    # ------------------------------------------------------------------ #

    def _resize_matrices(self, n: int) -> None:
        if self._shared_ready and self._dist.shape[0] == n:
            return
        had_shared = self._shared_ready
        old_names = (
            (
                self._pool.matrix_owner(_DIST).handle.name,
                self._pool.matrix_owner(_TABLES).handle.name,
            )
            if had_shared
            else None
        )
        self._dist = self._tables = _EMPTY  # release exports
        self._dist = self._pool.matrix(_DIST, n, n, fill=-1)
        self._tables = self._pool.matrix(_TABLES, n, n, fill=-1)
        self._shared_ready = True
        new_names = (
            self._pool.matrix_owner(_DIST).handle.name,
            self._pool.matrix_owner(_TABLES).handle.name,
        )
        if old_names != new_names:
            # The resize reallocated — the old blocks are unlinked, so the
            # directory must stop naming them *now* (not at event end):
            # otherwise a reader attaching mid-event dials a freed block,
            # and a failed apply would leave the stale names posted
            # forever.  The copied-plus-−1-padding state it exposes is a
            # committed state (the serial service passes through it too).
            self._publish_directory()

    def _recompute_rows(self, order, delta=None) -> RowChanges:
        h = self.advertised.freeze()
        self._pool.publish_csr(_H, h)
        buckets, to = self._shard(order)
        respawns = self._pool.health.respawns
        results = self._pool.run("serve_rows", [(_H, _DIST, b, delta) for b in buckets], to=to)
        if delta is not None and self._pool.health.respawns != respawns:
            # A worker died mid-stage.  The retried tasks brought every
            # requested row up to date, but their changed columns diff
            # against whatever the crashed attempt already committed —
            # they can *understate* the damage.  Treat every row as changed
            # everywhere so the table projection over-repairs; the result
            # stays bit-identical, only this event costs more.
            obs.inc("sharded.crash_full_damage")
            return RowChanges.everywhere(order)
        return RowChanges.concat(results)

    def _project_tables(self, damage: TableDamage) -> int:
        if not damage:
            return 0
        g_csr = self.graph.freeze()
        self._pool.publish_csr(_G, g_csr)

        def run(damage: TableDamage) -> int:
            parts = damage.split(self._pool.workers)
            to = [k for k, part in enumerate(parts) if part]
            payloads = [(_G, _DIST, _TABLES, parts[k]) for k in to]
            return sum(self._pool.run("serve_tables", payloads, to=to))

        respawns = self._pool.health.respawns
        self.entries_updated += run(damage)
        for _ in range(_REPROJECT_ATTEMPTS):
            if self._pool.health.respawns == respawns:
                break
            # A crash mid-projection tears the table row being written; the
            # pool repairs it to all −1 before retrying, but the retried job
            # honours its original cells — the others would stay −1.
            # Re-project every damaged table in full to restore them.
            obs.inc("sharded.crash_full_reproject")
            respawns = self._pool.health.respawns
            run(TableDamage.of_whole(damage.table_ids()))
        return len(damage)

    def _refresh(self) -> None:
        super()._refresh()
        self._publish_directory()

    # ------------------------------------------------------------------ #
    # concurrent-read directory
    # ------------------------------------------------------------------ #

    def _post(self, pending: int) -> None:
        """Post the matrix handles with the committed and *pending*
        generations as the directory's two header words."""
        handles = tuple(self._pool.matrix_owner(m).handle for m in (_DIST, _TABLES))
        self._directory.post(handles, (self.generation, pending))

    def _publish_directory(self) -> None:
        """Post the current matrix handles for detached readers.

        Posted only at *quiescent* points — after a completed apply, batch,
        refresh or compaction — so a reader that re-syncs mid-event keeps
        reading the previous committed shape; individual row updates within
        an event are covered by the per-row seqlock counters instead.  Each
        post advances :attr:`generation`: the whole matrix *is* that
        committed state, so every row a reader can address is current.
        """
        if not self._shared_ready or self._closed:
            return
        with obs.span("sharded.publish_directory"):
            self.generation += 1
            self._post(self.generation)

    def _post_degraded(self, degraded: bool = True) -> None:
        """Mark a repair as started: the posted *pending* generation now
        exceeds the committed one by one.  If the repair completes, the next
        :meth:`_publish_directory` closes the gap; if the service crashes or
        wedges mid-repair, readers keep serving the last committed state at
        a measurable staleness of 1 — the hook ``max_staleness=`` bounds.
        ``degraded=False`` closes the gap without a new generation, for a
        repair that never started.
        """
        if not self._shared_ready or self._closed:
            return
        self._post(self.generation + int(degraded))

    def apply_batch(self, events):
        # The mid-batch error path refreshes (and therefore republishes)
        # before the exception surfaces, so readers never see the resync
        # gap.  A malformed event that touched nothing refreshes nothing:
        # the committed state is still current, so re-post it as such.
        self._post_degraded()
        version = self.graph.version
        try:
            report = super().apply_batch(events)
        except Exception:
            if self.graph.version == version:
                self._post_degraded(False)
            raise
        self._publish_directory()
        return report


class RouteReader:
    """Read-only serving endpoint over a :class:`ShardedRoutingService`.

    Construct from :meth:`ShardedRoutingService.reader_handle` in *any*
    process.  The reader attaches the shared D/T matrices and answers
    :meth:`next_hop`, :meth:`distance`, :meth:`table` — and, through
    :func:`~repro.routing.greedy_routing.route_served`, whole packet
    journeys — while the service's shard workers repair concurrently:

    * every row/cell read follows the seqlock protocol, so the observed
      bytes are always a state the writers committed (``torn_retries``
      counts discarded capture attempts — retried, never returned);
    * before every lookup the reader polls the service's directory
      generation (one int64 load) and re-wraps its views when the service
      resized or reallocated, so node churn is followed automatically;
    * between directory posts the reader serves the *previous* committed
      state — lookups never block on an in-flight repair;
    * :meth:`next_hops` / :meth:`distances` answer a whole batch of pairs
      after one resync with one seqlocked gather
      (:meth:`AttachedMatrix.read_cells
      <repro.parallel.shm.AttachedMatrix.read_cells>`), refusing exactly
      the lookups the scalar calls would refuse.

    Readers hold no locks and write nothing: any number of them may run
    against one service.  Close the reader before the service goes away to
    release the mappings promptly (a closed service's blocks stay readable
    until detached, POSIX semantics).

    **Bounded staleness.**  Every directory post carries the service's
    committed generation and the generation of the repair currently in
    flight (``pending``).  Each post commits the whole matrix at once, so
    every row lags the newest started repair by the same ``pending −
    committed`` generations: 0 when quiescent, 1 while a repair is in
    flight (or died mid-flight).  ``max_staleness=k`` makes
    :meth:`next_hop` and :meth:`distance` answer ``None`` when that lag
    exceeds *k* — ``0`` refuses everything mid-repair, ``None`` (default)
    serves whatever committed state is available.  :meth:`hop_fallback`
    then recovers a usable hop from the committed distance rows alone (see
    its docstring), which is how
    :func:`~repro.routing.greedy_routing.route_served` keeps routing around
    dormant or stale table entries.
    """

    def __init__(self, directory: str, *, max_staleness: "int | None" = None) -> None:
        if max_staleness is not None and (
            isinstance(max_staleness, bool) or not isinstance(max_staleness, int) or max_staleness < 0
        ):
            raise ParameterError(f"max_staleness must be a non-negative int, got {max_staleness!r}")
        self.max_staleness = max_staleness
        self._dir = AttachedDirectory(directory)
        self._gen = -1
        self._version = -1  # of the handles we are attached to
        self._committed = 0
        self._pending = 0
        self._dist: "AttachedMatrix | None" = None
        self._tables: "AttachedMatrix | None" = None
        self._sync()

    def _sync(self) -> None:
        """Follow the service's latest post: its committed and pending
        generations always, the matrix views only when the handles moved.

        Most posts move only the generations (header words), so the
        handles are re-read and unpickled only when their version changed.
        A posted handle can go stale in the instant between the service
        unlinking a reallocated block and reposting (or if we raced a
        newer reallocation): attaching then raises ``FileNotFoundError``.
        The directory is re-read and the attach retried — the service
        reposts immediately after every reallocation, so the window is
        transient by construction.
        """
        if self._dir.generation() == self._gen:
            return
        for attempt in range(64):
            post = self._dir.poll(self._version)
            try:
                if post.payload is not None:  # dist or tables moved
                    self._attach(post.payload)
            except FileNotFoundError:
                time.sleep(0.001 * min(attempt + 1, 10))
                continue
            self._gen, self._version = post.generation, post.version
            self._committed, self._pending = post.words
            return
        raise TornReadError("directory kept naming freed blocks (service died mid-resize?)")

    def _attach(self, handles) -> None:
        """Wrap the posted dist and tables handles (first post) or
        re-wrap the ones that changed."""
        if self._dist is None:
            fresh: "list[AttachedMatrix]" = []
            try:
                for handle in handles:
                    fresh.append(AttachedMatrix(handle))
            except FileNotFoundError:
                for attached in fresh:
                    attached.close()
                raise
            self._dist, self._tables = fresh
            return
        for attached, handle in zip((self._dist, self._tables), handles):
            if handle != attached.handle:  # a post often moves one matrix only
                attached.refresh(handle)

    @property
    def num_nodes(self) -> int:
        """Current id-space size n, per the latest directory post."""
        self._sync()
        return self._tables.rows

    @property
    def torn_retries(self) -> int:
        """Seqlock captures discarded so far (torn states observed, retried)."""
        total = 0
        for attached in (self._dist, self._tables):
            if attached is not None:
                total += attached.torn_retries
        return total

    @property
    def generation(self) -> int:
        """The service generation of the last committed state we serve."""
        self._sync()
        return self._committed

    def staleness(self, u: int) -> int:
        """How many committed generations row *u* lags the newest repair.

        ``0`` when quiescent, ``1`` while a repair is in flight (or died
        mid-flight) — the same for every row, since each post commits the
        whole matrix.  The quantity ``max_staleness=`` bounds.
        """
        self._sync()
        if not (0 <= u < self._dist.rows):
            raise NodeNotFound(u, self._dist.rows)
        return self._lag()

    def _lag(self) -> int:
        return max(0, self._pending - self._committed)

    def _too_stale(self) -> bool:
        # Callers have already synced.
        return self.max_staleness is not None and self._lag() > self.max_staleness

    def _check_pair(self, u: int, v: int) -> None:
        if u == v:
            raise ParameterError("source equals target")
        n = self._tables.rows
        for node in (u, v):
            if not (0 <= node < n):
                raise NodeNotFound(node, n)

    def next_hop(self, u: int, v: int) -> "int | None":
        """The served next hop of *u* toward *v* (None when unroutable).

        Also ``None`` when row *u* violates the reader's staleness bound —
        callers degrade to :meth:`hop_fallback` (or drop the packet).
        """
        self._sync()
        self._check_pair(u, v)
        if self._too_stale():
            obs.inc("reader.stale_refusals")
            return None
        hop = self._read_one(self._tables, u, v)
        return hop if hop >= 0 else None

    def distance(self, u: int, v: int) -> "int | None":
        """The served H-distance ``d_H(u, v)`` (None when unreachable)."""
        self._sync()
        n = self._dist.rows
        for node in (u, v):
            if not (0 <= node < n):
                raise NodeNotFound(node, n)
        if self._too_stale():
            obs.inc("reader.stale_refusals")
            return None
        d = self._read_one(self._dist, u, v)
        return d if d >= 0 else None

    @staticmethod
    def _read_one(matrix: AttachedMatrix, u: int, v: int) -> int:
        try:
            return matrix.read_cell(u, v)
        except TornReadError:
            # Writer died mid-write and its row awaits repair: degrade to
            # "unroutable" rather than crash the serving path — the caller
            # falls back or drops the packet, and a resync heals the row.
            obs.inc("reader.torn_refusals")
            return -1

    def next_hops(self, us, vs) -> np.ndarray:
        """:meth:`next_hop` for every pair ``(us[i], vs[i])`` after one
        resync: one seqlocked gather on T, −1 where that lookup answers
        ``None`` (unroutable, too stale, or torn — each refusal counted
        once, as the scalar lookup counts it)."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        check_lookups(us, vs, self.num_nodes, distinct=True)
        return self._gather_hops(us, vs)

    def distances(self, us, vs) -> np.ndarray:
        """:meth:`distance` for every pair, batched as :meth:`next_hops`."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        check_lookups(us, vs, self.num_nodes, distinct=False)
        return self._gather_dists(us, vs)

    # The batch router's per-step gathers: its ids were checked once per
    # batch and later ones are hops the table gave, but a resync onto a
    # compacted service can shrink n under them.  Such an id raises
    # NodeNotFound, as _check_pair does: the gather itself finds it (an
    # IndexError, free on the hot path), or the stale path's range test,
    # where refusing the whole batch could hide it.
    def _gather_hops(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        self._sync()
        return self._read_batch(self._tables, us, vs)

    def _gather_dists(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        self._sync()
        return self._read_batch(self._dist, us, vs)

    def _read_batch(self, matrix: AttachedMatrix, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        if not self._too_stale():
            return self._read_cells(matrix, us, vs)
        # Every row lags alike, so the whole batch is refused.
        if np.count_nonzero(np.maximum(us, vs) >= matrix.rows):
            check_lookups(us, vs, matrix.rows, distinct=False)
        if len(us):
            obs.inc("reader.stale_refusals", len(us))
        return np.full(len(us), -1, dtype=np.int64)

    def _read_cells(self, matrix: AttachedMatrix, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        try:
            return matrix.read_cells(us, vs)
        except IndexError:  # an id past the id space
            check_lookups(us, vs, matrix.rows, distinct=False)
            raise
        except TornReadError:
            # Some row never stabilized: answer cell by cell, refusing
            # exactly the torn lookups as the scalar path does.
            return np.array(
                [self._read_one(matrix, u, v) for u, v in zip(us.tolist(), vs.tolist())],
                dtype=np.int64,
            )

    def hop_fallback(self, u: int, v: int) -> "int | None":
        """A degraded next hop for *u* toward *v* from committed D rows.

        Used when the table entry is dormant (−1-repaired after a crash) or
        refused as too stale.  Works entirely on seqlock-committed distance
        rows: the H-neighbors of *u* are exactly the ``D[u, ·] == 1``
        entries (H is a subgraph, so each is a real edge of some committed
        state), and the hop chosen is the smallest-id neighbor strictly
        closer to *v* per *v*'s committed row.  Strict progress makes every
        fallback journey loop-free against a fixed state; under concurrent
        repair the caller's hop budget bounds the walk instead.  Returns
        ``None`` when no certified-closer neighbor exists (then the packet
        is genuinely undeliverable from the served state).
        """
        self._sync()
        self._check_pair(u, v)
        try:
            row_u = self._dist.read_row(u)
            row_v = self._dist.read_row(v)
        except TornReadError:
            # Either endpoint's row is torn (writer died mid-write): no
            # committed evidence to certify progress from, so refuse.
            obs.inc("reader.torn_refusals")
            return None
        here = int(row_v[u])
        if here < 0:  # v's committed row doesn't reach u: no certified progress
            return None
        nbrs = np.flatnonzero(row_u == 1)
        if nbrs.size == 0:
            return None
        dists = row_v[nbrs]
        closer = (dists >= 0) & (dists < here)
        if not closer.any():
            return None
        # argmin returns the first minimum; nbrs ascends, so ties break to
        # the smallest node id — deterministic across runs and readers.
        candidates = nbrs[closer]
        return int(candidates[np.argmin(dists[closer])])

    def table(self, u: int) -> dict:
        """Node *u*'s next-hop table, in :func:`routing_table`'s dict shape."""
        row = self.table_row(u)
        return {int(v): int(row[v]) for v in np.flatnonzero(row >= 0)}

    def table_row(self, u: int) -> np.ndarray:
        """A stable private copy of T's row *u* (the raw −1-padded array)."""
        self._sync()
        if not (0 <= u < self._tables.rows):
            raise NodeNotFound(u, self._tables.rows)
        return self._tables.read_row(u)

    def distance_row(self, u: int) -> np.ndarray:
        """A stable private copy of D's row *u* (−1 for unreachable)."""
        self._sync()
        if not (0 <= u < self._dist.rows):
            raise NodeNotFound(u, self._dist.rows)
        return self._dist.read_row(u)

    def close(self) -> None:
        for attached in (self._dist, self._tables):
            if attached is not None:
                attached.close()
        self._dir.close()

    def __enter__(self) -> "RouteReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
