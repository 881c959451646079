"""Dynamic serving layer: incremental routing tables over the maintainer.

The paper's point is *serving*: a node routes on its advertised view
:math:`H_u`, forwarding to the neighbor closest to the destination.  After
the maintainer keeps H valid under churn, this module keeps the **next-hop
tables** valid too — without recomputing any table whose answers cannot
have moved.

The load-bearing identity (valid whenever ``H ⊆ G``, which every
maintained remote-spanner satisfies): for ``v ≠ u``,

    ``argmin_{w ∈ N_G(u)} d_{H_u}(w, v)  =  argmin_{w ∈ N_G(u)} d_H(w, v)``

including the smallest-id tie-break.  Any :math:`H_u`-path using a grafted
star edge passes through *u* and costs at least ``2 + min_w d_H(w, v)``,
which a plain H-path from the minimizing neighbor already beats; and since
``N_H(u) ⊆ N_G(u)``, a destination H-unreachable from every G-neighbor is
:math:`H_u`-unreachable from them too.  So **all n tables are projections
of one object** — the n×n matrix ``D[w, v] = d_H(w, v)`` — and an event's
table damage decomposes exactly:

* **rows** of D change only for sources whose H-BFS changed.  With the
  maintainer's net spanner delta (ΔH⁺/ΔH⁻) in hand, row *w* is provably
  unchanged unless some removed edge was *tight* from w
  (``|D[w,x] − D[w,y]| = 1`` — it lay on a shortest path) or some inserted
  edge is *improving* (``|D[w,x] − D[w,y]| > 1`` with unreachable = ∞ — it
  shortcuts).  One vectorized scan over the old matrix finds the dirty
  rows (:func:`dirty_rows`, which the distributed shard actors run too,
  restricted to the rows they hold).  Those rows are then *repaired*, not
  re-run: :func:`~repro.graph.traversal.repair_rows` applies the same
  alternative-parent argument per destination, relabelling only the
  entries whose distance moved (removals on H − ΔH⁺, then insertions on
  the new H, both in level order).  A full batched BFS stays for rows
  with no old distances to repair from: the refresh path, rows of newly
  joined ids, and rows a crashed writer left reset.
* **tables** change only for sources with a dirty-row neighbor (their
  argmin inputs moved) or whose G-star itself changed (event endpoints,
  leavers and their former neighbors, joiners) — and within a table, only
  at destinations whose neighbor-row entries actually changed.  A tick's
  damage is a :class:`TableDamage`: the tables to re-project whole, plus
  flat sorted ``(table, column)`` cells that one padded gather
  (:func:`~repro.routing.tables.project_table_cells`) re-argmins at once.

:class:`RoutingService` owns a :class:`~repro.dynamic.maintainer.\
SpannerMaintainer` and applies events singly (:meth:`RoutingService.apply`)
or as coalesced ticks (:meth:`RoutingService.apply_batch` →
:meth:`SpannerMaintainer.apply_batch`).  After every event the served
tables are bit-identical to a from-scratch
:func:`~repro.routing.tables.routing_table` on the live (H, G) — the
property suite in ``tests/dynamic/test_serving.py`` asserts exactly this,
entry for entry, across edge *and* node churn.

Keeping a set of D rows exact under a net ΔH, and re-projecting the
tables that read them, is one decision made in one place: :class:`RowOwner`
(``update_rows`` → ``damage`` → ``project``).  Its storage is anything with
``.array`` and ``.row_write(u)`` — the shared matrices of
:mod:`repro.parallel.shm`, or a plain array wrapped in :class:`DenseRows`
— so the same code runs here over every row, in each worker of the
multiprocess :class:`~repro.parallel.sharded.ShardedRoutingService` over
the rows ``u % W`` it owns, and in each shard actor of
:mod:`repro.distributed.actors` over the rows ``u % shards`` its tables
read.  That is what keeps the three backends bit-identical by
construction; the sharded service overrides only the fan-out stages
(:meth:`_resize_matrices`, :meth:`_recompute_rows`, :meth:`_project_tables`).

Long-horizon memory control: joins grow the id space monotonically (a
leave keeps its id slot), so the n×n matrices only ever grow.
:meth:`memory_stats` reports the live matrix footprint and the dormant
(degree-0) id count — also stamped on every :class:`ServeReport` — and
:meth:`compact` renumbers the live ids densely, shedding the dormant rows
and columns in one refresh.

``python -m repro serve`` soaks the service from the shell;
``benchmarks/test_bench_routing.py`` records the incremental-vs-recompute
speedup as ``BENCH_routing.json``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .. import obs
from ..errors import NodeNotFound, ParameterError
from ..graph import Graph, batched_bfs, repair_rows
from ..graph.traversal import orphaned_far_ends, repairable_rows, row_changes
from ..routing.greedy_routing import check_lookups
from ..routing.tables import _FAR, project_table_cells, project_table_row
from .events import ADD, LEAVE, EdgeEvent, NodeEvent
from .maintainer import SpannerMaintainer

__all__ = [
    "DenseRows",
    "RoutingService",
    "RowDelta",
    "RowOwner",
    "ServeDelta",
    "ServeReport",
    "MemoryStats",
    "TableDamage",
    "dirty_rows",
]


#: Cell keys :meth:`RowOwner.damage` builds per group of changed rows:
#: bounds its scratch however many changed rows reach the same cells.
_KEY_CHUNK = 1 << 13


def _ranges(start: "np.ndarray", length: "np.ndarray") -> "np.ndarray":
    """The concatenated integer ranges ``[start[i], start[i] + length[i])``."""
    offsets = np.cumsum(length) - length
    return np.repeat(start - offsets, length) + np.arange(int(length.sum()))


def _cell_keys(indptr, indices, keep, n, rows, cols, ncols) -> "np.ndarray":
    """``table * n + column`` for each kept reader (G-neighbor) of each of
    *rows* and each column that row changed at: unsorted, with repeats."""
    start = indptr[rows]
    deg = indptr[rows + 1] - start
    readers = indices[_ranges(start, deg)]
    row_of = np.repeat(np.arange(rows.size), deg)
    kept = keep[readers]
    readers, row_of = readers[kept], row_of[kept]
    per = ncols[row_of]
    flat = np.concatenate(cols)
    at = _ranges((np.cumsum(ncols) - ncols)[row_of], per)
    return np.repeat(readers.astype(np.int64) * n, per) + flat[at]


def _unique_sorted(keys: "np.ndarray") -> "np.ndarray":
    """*keys* sorted (in place) with repeats dropped.

    Sorts and masks rather than calling ``np.unique``, whose hash-table
    path is an order of magnitude slower on these keys.
    """
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


class RowDelta(NamedTuple):
    """The net spanner delta one row repair applies (see
    :func:`~repro.graph.traversal.repair_rows`), plus the id-space size
    before it: rows of ids at or past ``old_n`` have nothing to repair."""

    h_added: "tuple[tuple[int, int], ...]"
    h_removed: "tuple[tuple[int, int], ...]"
    old_n: int


class DenseRows:
    """A plain numpy matrix behind the shared matrices' write API."""

    def __init__(self, array: "np.ndarray") -> None:
        self.array = array

    def row_write(self, u: int) -> "nullcontext[np.ndarray]":
        return nullcontext(self.array[u])


def resized(matrix: "np.ndarray", n: int) -> "np.ndarray":
    """*matrix* at shape ``(n, n)``: overlapping content kept, fresh cells
    −1 (a new id is unreachable until its row is recomputed).  Returns
    *matrix* itself when the shape already matches."""
    old = matrix.shape[0]
    if n == old:
        return matrix
    k = min(old, n)
    out = np.full((n, n), -1, dtype=np.int32)
    out[:k, :k] = matrix[:k, :k]
    return out


@dataclass(frozen=True, eq=False)
class TableDamage:
    """Which next-hop table entries one tick must re-argmin.

    ``whole`` holds the sorted ids of tables re-projected at every column.
    ``us``/``cs`` are the damaged cells of every other table: int32 arrays
    of table ids and columns, unique and sorted by (table, column), with
    no table of ``whole`` among them.  ``len()`` counts distinct tables.
    """

    whole: np.ndarray
    us: np.ndarray
    cs: np.ndarray

    @classmethod
    def of_whole(cls, tables: "Iterable[int]") -> "TableDamage":
        """Every column of each of *tables* (sorted, duplicates dropped)."""
        whole = np.unique(np.fromiter(tables, dtype=np.int32))
        empty = np.empty(0, dtype=np.int32)
        return cls(whole, empty, empty)

    def __len__(self) -> int:
        partial = int(np.count_nonzero(np.diff(self.us))) + 1 if self.us.size else 0
        return int(self.whole.size) + partial

    def table_ids(self) -> np.ndarray:
        """Every damaged table, whole or partial, sorted."""
        return np.union1d(self.whole, self.us)

    def split(self, owners: int) -> "list[TableDamage]":
        """The damage of the tables ``u % owners == k``, for each owner *k*."""
        wk, ck = self.whole % owners, self.us % owners
        return [
            TableDamage(self.whole[wk == k], self.us[ck == k], self.cs[ck == k])
            for k in range(owners)
        ]


class RowOwner:
    """Keeps a set of D rows exact under a net ΔH; projects their tables.

    *dist* and *tables* are the storage — anything with ``.array`` (the
    readable matrix) and ``.row_write(u)`` (a context yielding row *u*
    writable): a :class:`~repro.parallel.shm.SharedMatrix` or
    :class:`~repro.parallel.shm.AttachedMatrix` (seqlock-bracketed), or a
    :class:`DenseRows`.  *prefix* names the work counters
    (``<prefix>.rows_recomputed`` = ``rows_repaired`` + ``rows_bfs``,
    ``<prefix>.tables_reprojected``).  Which rows and tables an owner
    keeps is the caller's choice: the serial service passes every row, a
    pool worker the rows ``u % W`` it owns, a shard actor the rows its
    tables read.
    """

    def __init__(self, dist, tables=None, prefix: str = "serve") -> None:
        self.dist, self.tables, self.prefix = dist, tables, prefix

    def update_rows(
        self,
        h,
        rows: "Iterable[int]",
        delta: "RowDelta | None",
        fresh: "Iterable[int]" = (),
    ) -> "dict[int, np.ndarray | None]":
        """Bring *rows* and *fresh* up to date on the frozen new *h*.

        With the net *delta*, each of *rows* that holds the old distances
        is repaired (:func:`~repro.graph.traversal.repair_rows` — only
        moved entries change); the rest (ids joined since ``old_n``, rows
        a crashed writer reset to −1) are BFSed, as is every row when
        *delta* is ``None`` (a refresh).  *fresh* rows hold nothing to
        trust and are always BFSed.

        Returns ``{row: changed columns}`` for rows that moved (``None`` =
        every column, for *fresh* rows: what they held was never read as
        theirs), or ``{}`` for a refresh, which needs no damage.
        """
        rows, fresh = list(rows), list(fresh)
        if delta is None:
            repair, bfs = [], rows + fresh
        else:
            repair, bfs = repairable_rows(self.dist.array, rows, delta.old_n)
            bfs += fresh
        prefix = self.prefix
        obs.inc(f"{prefix}.rows_recomputed", len(repair) + len(bfs))
        obs.inc(f"{prefix}.rows_repaired", len(repair))
        obs.inc(f"{prefix}.rows_bfs", len(bfs))
        changed: "dict[int, np.ndarray | None]" = {}
        if repair:
            moved = repair_rows(h, self.dist.array, repair, delta.h_added, delta.h_removed)
            for s, cols, vals in row_changes(*moved):
                with self.dist.row_write(s) as row:
                    row[cols] = vals
                changed[s] = cols
        for s, new in batched_bfs(h, bfs, arrays=True):
            moved = new != self.dist.array[s]
            if moved.any():
                with self.dist.row_write(s) as row:
                    row[:] = new
                if delta is not None:  # a refresh reports nothing
                    changed[s] = np.flatnonzero(moved)
        if delta is not None:
            changed.update(dict.fromkeys(fresh))
        return changed

    @staticmethod
    def damage(
        g,
        changed: "dict[int, np.ndarray | None]",
        whole: "Iterable[int]",
        owns: "np.ndarray | None" = None,
    ) -> TableDamage:
        """Which columns of which tables must be re-argmin'd.

        A table reads the rows of its G-neighbors (*g* is the frozen G),
        so it is damaged at the union of their *changed* columns; tables
        in *whole* (their G-star changed, or they are new) and readers of
        a row changed everywhere are damaged at every column.  *owns*, a
        boolean mask over ids, keeps only the tables this owner projects.
        Cells are ``table * n + column`` keys, built for groups of changed
        rows of about :data:`_KEY_CHUNK` keys each, deduplicated per group
        and merged into a running sorted set, so memory scales with the
        damaged cells, not with n² nor with how many changed rows reach
        each cell.
        """
        n = g.num_nodes
        indptr, indices = g.numpy_arrays()
        keep = np.ones(n, dtype=bool) if owns is None else owns.copy()
        whole = list(whole)
        rows, cols = [], []
        for w, moved in changed.items():
            if moved is None:
                whole.extend(indices[indptr[w] : indptr[w + 1]].tolist())
            else:
                rows.append(w)
                cols.append(moved)
        whole = np.unique(np.asarray(whole, dtype=np.int32))
        whole = whole[keep[whole]]
        keep[whole] = False
        cells = np.empty(0, dtype=np.int64)
        if rows:
            rows = np.asarray(rows, dtype=np.intp)
            ncols = np.fromiter((c.size for c in cols), dtype=np.intp, count=len(cols))
            # Cut the rows into groups of about _KEY_CHUNK keys (at most
            # degree × changed columns per row).
            group = np.cumsum((indptr[rows + 1] - indptr[rows]) * ncols) // _KEY_CHUNK
            bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), rows.size]
            pending: "list[np.ndarray]" = []
            size = 0
            for lo, hi in zip(bounds, bounds[1:]):
                keys = _cell_keys(indptr, indices, keep, n, rows[lo:hi], cols[lo:hi], ncols[lo:hi])
                pending.append(_unique_sorted(keys))
                size += pending[-1].size
                # Fold the groups into the running set once they are as
                # large as it (and at the end): a merge before the last
                # re-sorts no more of the set than it adds.
                if size >= cells.size or hi == rows.size:
                    cells = _unique_sorted(np.concatenate([cells, *pending]))
                    pending, size = [], 0
        us, cs = np.divmod(cells, n)
        return TableDamage(whole, us.astype(np.int32), cs.astype(np.int32))

    def project(self, g, damage: TableDamage) -> int:
        """Re-argmin the damaged table entries on the frozen G *g*; returns
        how many entries changed.

        Whole tables go through :func:`~repro.routing.tables.\
project_table_row` one by one.  The cells are projected in one batched
        gather (:func:`~repro.routing.tables.project_table_cells`); only
        those whose hop moved are written, one ``row_write`` per table.
        """
        dist = self.dist.array
        indptr, indices = g.numpy_arrays()
        entries = 0
        for u in damage.whole.tolist():
            nbrs = indices[indptr[u] : indptr[u + 1]].tolist()  # sorted N_G(u)
            with self.tables.row_write(u) as row:
                entries += project_table_row(dist, row, nbrs, u, None)
        hops = project_table_cells(dist, indptr, indices, damage.us, damage.cs)
        moved = np.flatnonzero(hops != self.tables.array[damage.us, damage.cs])
        hops = hops[moved]
        us, cs = damage.us[moved].astype(np.intp), damage.cs[moved].astype(np.intp)
        starts = np.flatnonzero(np.diff(us, prepend=-1)).tolist()  # one per table
        for u, lo, hi in zip(us[starts].tolist(), starts, [*starts[1:], us.size]):
            with self.tables.row_write(u) as row:
                row[cs[lo:hi]] = hops[lo:hi]
        entries += int(moved.size)
        obs.inc(f"{self.prefix}.tables_reprojected", len(damage))
        return entries


@dataclass(frozen=True)
class ServeDelta:
    """One tick's net effect, as the delta feed publishes it.

    The subscription payload for downstream replicas (the distributed
    actor tier subscribes here): everything needed to advance a remote
    copy of (G, H) from tick ``seq − 1`` to tick ``seq`` without seeing
    the event stream itself.  Deltas are *net* — in-tick flaps cancel,
    and they stay net even when the repair was a full rebuild
    (``rebuilt`` is advisory: the receiver may resync bigger structures,
    but applying the deltas alone is already exact).  Matches the
    :class:`~repro.distributed.wire.LsaUpdate` payload field-for-field,
    which is what keeps the wire schema a projection of this one.

    A ``resync`` delta carries no edges: the service changed state in a
    way no net delta describes (:meth:`RoutingService.compact` renumbered
    the ids, or a direct :meth:`RoutingService.refresh` resynced after an
    unknown change), so a replica must reload the whole (G, H) — the actor
    tier answers it with a :class:`~repro.distributed.wire.FullTopology`.
    """

    seq: int  # 1-based, contiguous per service instance
    events: int  # events submitted in the tick
    changed: bool
    rebuilt: bool
    g_added: "tuple[tuple[int, int], ...]" = ()
    g_removed: "tuple[tuple[int, int], ...]" = ()
    h_added: "tuple[tuple[int, int], ...]" = ()
    h_removed: "tuple[tuple[int, int], ...]" = ()
    nodes_joined: "tuple[int, ...]" = ()
    num_nodes: int = 0  # id-space size after the tick
    resync: bool = False  # replicas must reload the full (G, H)


@dataclass(frozen=True)
class ServeReport:
    """What one :meth:`RoutingService.apply`/``apply_batch`` call did."""

    events: int  # events submitted
    changed: bool  # False when nothing (graph, H, tables) moved
    refreshed: bool  # True when the full-refresh fallback fired
    dirty_rows: int  # H-distance rows brought up to date (repaired or BFSed)
    dirty_tables: int  # per-source tables re-argmin'd
    entries_updated: int  # table cells whose next hop actually changed
    seconds: float  # time spent inside apply/apply_batch proper
    matrix_bytes: int = 0  # live D+T footprint after the call
    dormant_ids: int = 0  # degree-0 id slots (compaction candidates)
    wall_seconds: float = 0.0  # full per-tick wall clock incl. freeze/publish


@dataclass(frozen=True)
class MemoryStats:
    """Serving-matrix footprint (see :meth:`RoutingService.memory_stats`)."""

    nodes: int  # current id-space size n (matrix dimension)
    dormant: int  # ids with no incident G edge (left nodes, empty slots)
    dist_bytes: int  # D matrix footprint
    table_bytes: int  # T matrix footprint

    @property
    def total_bytes(self) -> int:
        return self.dist_bytes + self.table_bytes


class RoutingService:
    """Serve next-hop routing tables that stay exact under churn.

    Parameters mirror :class:`~repro.dynamic.maintainer.SpannerMaintainer`
    (construction selection + ``rebuild_fraction``); the service owns its
    maintainer and must be driven exclusively through :meth:`apply` /
    :meth:`apply_batch`.

    State is two dense int32 matrices: ``D[w, v] = d_H(w, v)`` (−1 for
    unreachable) and ``T[u, v] =`` next hop of *u* toward *v* (−1 for
    unroutable or ``v == u``).  :meth:`table` projects a row of T into the
    dict shape :func:`~repro.routing.tables.routing_table` returns.
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
    ) -> None:
        self._ctor = dict(method=method, k=k, epsilon=epsilon, r=r)
        self.maintainer = SpannerMaintainer(
            g, method, k=k, epsilon=epsilon, r=r, rebuild_fraction=rebuild_fraction
        )
        self.events_applied = 0
        self.rows_recomputed = 0
        self.tables_recomputed = 0
        self.entries_updated = 0
        self.full_refreshes = 0
        self.compactions = 0
        self._subscribers: "list" = []
        self.feed_seq = 0  # seq of the latest published ServeDelta
        self._mem_cache: "tuple | None" = None  # (graph, version, MemoryStats)
        self._dist = np.empty((0, 0), dtype=np.int32)
        self._tables = np.empty((0, 0), dtype=np.int32)
        self._refresh()
        # Counters measure *serving* work: zero out the initial population.
        self.rows_recomputed = 0
        self.tables_recomputed = 0
        self.entries_updated = 0
        self.full_refreshes = 0

    # ------------------------------------------------------------------ #
    # read side
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        """The live topology G (read-only — drive churn through apply)."""
        return self.maintainer.graph

    @property
    def advertised(self) -> Graph:
        """The live advertised sub-graph H (the maintained spanner)."""
        return self.maintainer.spanner.graph

    @property
    def num_nodes(self) -> int:
        """Current id-space size n (the serving matrices' dimension)."""
        return self.maintainer.graph.num_nodes

    def distance(self, u: int, v: int) -> "int | None":
        """The served H-distance ``d_H(u, v)`` (None when unreachable).

        Read straight off the maintained D matrix — with
        :meth:`next_hop` this is everything
        :func:`~repro.routing.greedy_routing.route_served` needs to
        forward packets and track the per-hop potential without a BFS.
        """
        g = self.graph
        g._check(u)
        if not (0 <= v < g.num_nodes):
            raise NodeNotFound(v, g.num_nodes)
        d = int(self._dist[u, v])
        return d if d >= 0 else None

    def table(self, u: int) -> dict:
        """Node *u*'s next-hop table, in :func:`routing_table`'s dict shape."""
        self.graph._check(u)
        row = self._tables[u]
        return {int(v): int(row[v]) for v in np.flatnonzero(row >= 0)}

    def next_hop(self, u: int, v: int) -> "int | None":
        """The served next hop of *u* toward *v* (None when unroutable)."""
        g = self.graph
        g._check(u)
        if u == v:
            raise ParameterError("source equals target")
        if not (0 <= v < g.num_nodes):
            raise NodeNotFound(v, g.num_nodes)
        hop = int(self._tables[u, v])
        return hop if hop >= 0 else None

    def next_hops(self, us, vs) -> "np.ndarray":
        """:meth:`next_hop` for every pair ``(us[i], vs[i])`` in one gather
        on T (−1 where that lookup answers ``None``)."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        check_lookups(us, vs, self.graph.num_nodes, distinct=True)
        return self._gather_hops(us, vs)

    def distances(self, us, vs) -> "np.ndarray":
        """:meth:`distance` for every pair ``(us[i], vs[i])`` in one gather
        on D (−1 where that lookup answers ``None``)."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        check_lookups(us, vs, self.graph.num_nodes, distinct=False)
        return self._gather_dists(us, vs)

    # The batch router's per-step gathers, unchecked: it checks its batch
    # once, and every later id is a hop the table gave (int64 arrays of
    # known ids, and us[i] != vs[i] for the hops).
    def _gather_hops(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._tables[us, vs]

    def _gather_dists(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._dist[us, vs]

    def memory_stats(self) -> MemoryStats:
        """Current matrix footprint + dormant-id count.

        The O(n) dormant scan is memoized on ``Graph.version``, so the
        per-event report stamping costs one scan per *mutating* event and
        nothing for no-ops or repeated reads.
        """
        g = self.maintainer.graph
        cached = self._mem_cache
        if cached is not None and cached[0] is g and cached[1] == g.version:
            return cached[2]
        stats = MemoryStats(
            nodes=g.num_nodes,
            dormant=sum(not adj for adj in g._adj),
            dist_bytes=self._matrix_bytes(self._dist),
            table_bytes=self._matrix_bytes(self._tables),
        )
        self._mem_cache = (g, g.version, stats)
        return stats

    def _matrix_bytes(self, matrix: "np.ndarray") -> int:
        """Real footprint of one serving matrix (logical bytes here; the
        sharded service overrides with the shared blocks' capacity)."""
        return int(matrix.nbytes)

    # ------------------------------------------------------------------ #
    # delta feed (the distributed tier subscribes here)
    # ------------------------------------------------------------------ #

    def subscribe(self, callback):
        """Register *callback* to receive a :class:`ServeDelta` per tick.

        Called synchronously after each :meth:`apply`/:meth:`apply_batch`
        — the service's own tables are already updated when the callback
        runs, so a subscriber that mirrors the deltas can immediately
        compare its replica against the serial truth.  Returns *callback*
        so ``service.subscribe(fn)`` works as a registration expression.
        """
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback) -> None:
        self._subscribers.remove(callback)

    def _publish(
        self,
        events: int,
        changed: bool,
        rebuilt: bool,
        g_added: "tuple[tuple[int, int], ...]",
        g_removed: "tuple[tuple[int, int], ...]",
        h_added: "tuple[tuple[int, int], ...]",
        h_removed: "tuple[tuple[int, int], ...]",
        nodes_joined: "tuple[int, ...]",
        resync: bool = False,
    ) -> None:
        if not self._subscribers:
            return
        self.feed_seq += 1
        delta = ServeDelta(
            seq=self.feed_seq,
            events=events,
            changed=changed,
            rebuilt=rebuilt,
            g_added=g_added,
            g_removed=g_removed,
            h_added=h_added,
            h_removed=h_removed,
            nodes_joined=nodes_joined,
            num_nodes=self.num_nodes,
            resync=resync,
        )
        for callback in list(self._subscribers):
            callback(delta)

    def _event_g_delta(
        self, event: "EdgeEvent | NodeEvent"
    ) -> "tuple[tuple, tuple, tuple]":
        """Net (g_added, g_removed, nodes_joined) *event* will cause.

        Evaluated pre-application (a leave's severed star is only
        readable before the maintainer applies it); edges in the
        canonical sorted shape the batch reports use.
        """
        if isinstance(event, NodeEvent):
            if event.kind == LEAVE:
                star = tuple(
                    tuple(sorted((event.node, w)))
                    for w in sorted(self.maintainer.graph.neighbors(event.node))
                )
                return (), star, ()
            return (), (), (event.node,)
        edge = tuple(sorted((event.u, event.v)))
        if event.kind == ADD:
            return (edge,), (), ()
        return (), (edge,), ()

    # ------------------------------------------------------------------ #
    # write side
    # ------------------------------------------------------------------ #

    def apply(self, event: "EdgeEvent | NodeEvent") -> ServeReport:
        """Apply one event; repair spanner, distance rows and tables."""
        sw = obs.Stopwatch()
        star_changed = self._star_damage(event)
        g_added, g_removed, joined = self._event_g_delta(event)
        report = self.maintainer.apply(event)
        self.events_applied += 1
        if not report.changed:
            out = self._report(1, False, (False, 0, 0, 0), sw)
            self._publish(1, False, False, (), (), (), (), ())
            return out
        stats = self._ingest(report.h_added, report.h_removed, star_changed, report.rebuilt)
        out = self._report(1, True, stats, sw)
        self._publish(
            1, True, report.rebuilt, g_added, g_removed,
            report.h_added, report.h_removed, joined,
        )
        return out

    def apply_batch(self, events: "Sequence[EdgeEvent | NodeEvent]") -> ServeReport:
        """Apply one tick of events with a single coalesced repair."""
        sw = obs.Stopwatch()
        events = list(events)
        try:
            report = self.maintainer.apply_batch(events)
        except Exception:
            # A malformed mid-batch event made the maintainer rebuild over
            # the partially-applied tick; resync (and resize) the matrices
            # to the rebuilt spanner before surfacing the error.
            self.refresh()
            raise
        self.events_applied += len(events)
        if not report.changed:
            out = self._report(len(events), False, (False, 0, 0, 0), sw)
            self._publish(len(events), False, False, (), (), (), (), ())
            return out
        star_changed = {x for e in (*report.g_added, *report.g_removed) for x in e}
        stats = self._ingest(report.h_added, report.h_removed, star_changed, report.rebuilt)
        out = self._report(len(events), True, stats, sw)
        self._publish(
            len(events), True, report.rebuilt, report.g_added, report.g_removed,
            report.h_added, report.h_removed, report.nodes_joined,
        )
        return out

    def _report(
        self, events: int, changed: bool, stats: "tuple[bool, int, int, int]", sw: obs.Stopwatch
    ) -> ServeReport:
        mem = self.memory_stats()
        refreshed, dirty_rows, dirty_tables, entries = stats
        return ServeReport(
            events=events,
            changed=changed,
            refreshed=refreshed,
            dirty_rows=dirty_rows,
            dirty_tables=dirty_tables,
            entries_updated=entries,
            seconds=sw.elapsed(),
            matrix_bytes=mem.total_bytes,
            dormant_ids=mem.dormant,
        )

    def apply_stream(
        self, events: "Iterable[EdgeEvent | NodeEvent]", tick: int = 1
    ) -> "list[ServeReport]":
        """Apply a stream, singly (``tick=1``) or in coalesced ticks.

        Each report's ``wall_seconds`` is the full per-tick wall clock —
        unlike ``seconds`` it includes work a subclass does around the
        ``apply`` proper (matrix freezing, shared-memory publishing), so
        ``wall_seconds >= seconds`` always.
        """
        if tick < 1:
            raise ParameterError(f"tick must be ≥ 1, got {tick}")
        events = list(events)
        reports: "list[ServeReport]" = []
        if tick == 1:
            ticks: "list[list[EdgeEvent | NodeEvent]]" = [[ev] for ev in events]
        else:
            ticks = [list(events[lo : lo + tick]) for lo in range(0, len(events), tick)]
        for batch in ticks:
            with obs.span("serving.tick") as sp:
                report = self.apply(batch[0]) if tick == 1 else self.apply_batch(batch)
            reports.append(replace(report, wall_seconds=sp.seconds))
        return reports

    def refresh(self) -> None:
        """Recompute every distance row and table from scratch (fallback).

        Re-projects in place so ``entries_updated`` keeps counting only
        cells whose next hop actually changed, refresh or not.  A direct
        call means the caller suspects a change the feed never saw, so it
        publishes a ``resync`` :class:`ServeDelta`: subscribed replicas
        reload the whole (G, H) rather than trust their delta stream.
        """
        self._refresh()
        self._publish(0, True, True, (), (), (), (), (), resync=True)

    def _refresh(self) -> None:
        """:meth:`refresh` without the feed (the rebuilt-tick path, whose
        net delta the tick's own :class:`ServeDelta` already carries)."""
        n = self.maintainer.graph.num_nodes
        self._resize_matrices(n)
        with obs.span("serving.recompute_rows"):
            self._recompute_rows(range(n))
        with obs.span("serving.project_tables"):
            self._project_tables(TableDamage.of_whole(range(n)))
        obs.inc("serve.full_refreshes")
        self.full_refreshes += 1
        self.rows_recomputed += n
        self.tables_recomputed += n

    def compact(self) -> "dict[int, int]":
        """Renumber live ids densely, dropping dormant (degree-0) slots.

        Long-horizon node churn grows the id space monotonically (leaves
        keep their slot), so the n×n matrices grow without bound unless the
        dormant ids are reclaimed.  ``compact()`` remaps the ``deg > 0``
        nodes onto ``0..k-1`` (preserving relative order), rebuilds the
        maintainer on the remapped topology and refreshes the matrices at
        the smaller dimension.  Returns the ``{old_id: new_id}`` mapping —
        **callers must translate any node ids they held**; cumulative
        counters survive, but ``entries_updated`` deltas across a compact
        compare renumbered cells and are only indicative.

        The spanner is rebuilt from scratch on the renumbered graph (ids
        participate in tie-breaks, so the old trees need not survive the
        renumbering); served tables again match :func:`routing_table`
        bit-for-bit — the property tests assert it.  The closing
        :meth:`refresh` publishes a ``resync`` :class:`ServeDelta`, so
        subscribed replicas reload the renumbered (G, H).
        """
        g = self.maintainer.graph
        keep = [u for u in g.nodes() if g.neighbors(u)]
        mapping = {old: new for new, old in enumerate(keep)}
        if len(keep) == g.num_nodes:
            return mapping  # nothing dormant: no-op
        new_g = Graph(len(keep), ((mapping[u], mapping[v]) for u, v in g.edges()))
        old = self.maintainer
        self.maintainer = SpannerMaintainer(
            new_g, rebuild_fraction=old.rebuild_fraction, **self._ctor
        )
        # Cumulative counters continue across the swap (the fresh build
        # itself is accounted by the refresh below, like any fallback).
        self.maintainer.events_applied = old.events_applied
        self.maintainer.batches_applied = old.batches_applied
        self.maintainer.incremental_repairs = old.incremental_repairs
        self.maintainer.full_rebuilds = old.full_rebuilds
        self.maintainer.trees_recomputed = old.trees_recomputed
        self.compactions += 1
        self.refresh()
        return mapping

    # ------------------------------------------------------------------ #
    # overridable stages (the sharded service swaps these)
    # ------------------------------------------------------------------ #

    def _resize_matrices(self, n: int) -> None:
        """Bring D and T to shape ``(n, n)`` (see :func:`resized`)."""
        self._dist = resized(self._dist, n)
        self._tables = resized(self._tables, n)

    def _owner(self) -> RowOwner:
        return RowOwner(DenseRows(self._dist), DenseRows(self._tables))

    def _recompute_rows(
        self, order: Iterable[int], delta: "RowDelta | None" = None
    ) -> "dict[int, np.ndarray | None]":
        """Bring the given D rows up to date on the freshly frozen H
        (:meth:`RowOwner.update_rows`); returns the changed columns per
        moved row (``{}`` for a refresh, *delta* ``None``)."""
        return self._owner().update_rows(self.advertised.freeze(), order, delta)

    def _project_tables(self, damage: TableDamage) -> int:
        """Re-argmin the damaged table entries (:meth:`RowOwner.project`);
        returns how many tables were touched and adds every changed cell
        to ``entries_updated``."""
        self.entries_updated += self._owner().project(self.graph.freeze(), damage)
        return len(damage)

    # ------------------------------------------------------------------ #
    # incremental machinery
    # ------------------------------------------------------------------ #

    def _star_damage(self, event: "EdgeEvent | NodeEvent") -> set[int]:
        """Sources whose G-neighborhood this event edits (pre-application).

        A leave severs every incident G edge, so the leaver *and all its
        former neighbors* lose an argmin candidate — even when H never
        carried those edges and no distance row moves.
        """
        if isinstance(event, NodeEvent):
            if event.kind == LEAVE:
                return {event.node, *self.maintainer.graph.neighbors(event.node)}
            return set()  # a joined node is covered as a fresh row/table
        return {event.u, event.v}

    def _ingest(
        self,
        h_added: "tuple[tuple[int, int], ...]",
        h_removed: "tuple[tuple[int, int], ...]",
        star_changed: set[int],
        rebuilt: bool,
    ) -> "tuple[bool, int, int, int]":
        """Fold one repair's deltas into the matrices.

        Returns ``(refreshed, dirty_rows, dirty_tables, entries_updated)``.
        """
        g = self.maintainer.graph
        n = g.num_nodes
        old_dim = self._dist.shape[0]
        if n != old_dim:  # node churn grew the id space: pad with -1
            self._resize_matrices(n)
        if rebuilt:  # global churn: the maintainer rebuilt, so do we
            before = self.entries_updated
            self._refresh()
            return True, n, n, self.entries_updated - before
        new_nodes = range(old_dim, n)
        with obs.span("serving.dirty_rows"):
            dirty = dirty_rows(self._dist, self.advertised, h_added, h_removed)
        dirty.update(new_nodes)
        changed: "dict[int, np.ndarray | None]" = {}
        if dirty:
            with obs.span("serving.recompute_rows"):
                changed = self._recompute_rows(
                    sorted(dirty), RowDelta(h_added, h_removed, old_dim)
                )
        self.rows_recomputed += len(dirty)
        # A table moves only if its argmin inputs did: a neighbor's row
        # changed, or its own G-star changed (then all destinations).
        with obs.span("serving.damage"):
            damage = RowOwner.damage(g.freeze(), changed, [*star_changed, *new_nodes])
        entries_before = self.entries_updated
        with obs.span("serving.project_tables"):
            tables_touched = self._project_tables(damage)
        self.tables_recomputed += tables_touched
        return False, len(dirty), tables_touched, self.entries_updated - entries_before


def dirty_rows(
    d: "np.ndarray",
    h: Graph,
    h_added: "Sequence[tuple[int, int]]",
    h_removed: "Sequence[tuple[int, int]]",
    rows: "np.ndarray | None" = None,
) -> set[int]:
    """Sources whose H-BFS row may have changed, from the old matrix *d*.

    *d* holds ``d_H(w, ·)`` on the H before the net delta (ΔH⁺ =
    *h_added*, ΔH⁻ = *h_removed*); *h* is the H after it.  Certified
    complement — a row failing every test below kept all its distances.
    Inserted edges shrink row *w* only when they shortcut it
    (``|D[w,x] − D[w,y]| > 1`` with unreachable = ∞).  A removed edge
    stretches row *w* only when it was *tight* (``D[w,x] + 1 = D[w,y]``)
    **and** the farther endpoint has no surviving equally-tight parent:
    any shortest path that crossed ``xy`` reroutes through an alternative
    parent ``z`` with ``D[w,z] + 1 = D[w,y]`` and ``zy`` still in H, level
    by level, so the whole row is preserved (the alternative-parent
    induction of dynamic SSSP).  The joint evaluation on the *old* matrix
    is exact: rows passing the deletion tests keep their distances through
    all deletions, making the insertion test's baseline valid.

    Every test for row *w* reads only row *w*, so *rows* may restrict the
    analysis to a subset of rows — the only ones *d* needs to hold.  The
    serial service passes every row (``None``); a shard actor passes the
    rows it holds (owned sources and their G-neighbors).  The removal test
    is :func:`~repro.graph.traversal.orphaned_far_ends`, the same one that
    seeds :func:`~repro.graph.traversal.repair_rows`.
    """
    n = d.shape[0]
    if n == 0 or (not h_added and not h_removed):
        return set()
    if rows is None:
        ids = None
        pick: "slice | np.ndarray" = slice(None)
        count = n
    else:
        ids = np.asarray(rows, dtype=np.intp)
        if ids.size == 0:
            return set()
        pick, count = ids, ids.size
    dirty = np.zeros(count, dtype=bool)
    for _far, orphaned in orphaned_far_ends(d, h, h_removed, ids):
        dirty |= orphaned
    for x, y in h_removed:
        # Defensive: mixed reachability should be impossible for an old
        # H edge; treat it as dirty rather than provably clean.
        dirty |= (d[pick, x] < 0) != (d[pick, y] < 0)
    for x, y in h_added:
        dx = np.where(d[pick, x] < 0, _FAR, d[pick, x]).astype(np.int64)
        dy = np.where(d[pick, y] < 0, _FAR, d[pick, y]).astype(np.int64)
        # The new edge shortcuts w's view of one endpoint → row shrinks.
        dirty |= np.abs(dx - dy) > 1
    hits = np.flatnonzero(dirty)
    return {int(w) for w in (hits if ids is None else ids[hits])}
