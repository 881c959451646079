"""Breadth-first traversal primitives: distances, parents, balls and rings.

Everything in the paper is phrased in terms of BFS by-products:

* ``B_G(u, r)`` — the ball of radius *r* around *u* (§1.1);
* rings ``B_G(u, r') \\ B_G(u, r'-1)`` — the per-distance layers Algorithm 1
  covers one at a time;
* BFS parent forests — "add to T a shortest path from u to x in G" is
  implemented by walking parent pointers, which guarantees the union of the
  added paths is a tree (design decision 2 in DESIGN.md).

The functions here are the hot path of every construction, so they run on
two paths, and the input alone picks one:

* **csr** — flat-array loops over a :class:`~repro.graph.csr.CSRGraph`
  snapshot: a vectorized level-synchronous frontier expansion (numpy
  gathers over ``indptr``/``indices``) with a pure-Python small-frontier
  path, plus preallocated ``array('i')`` queues for the canonical parent
  forest.  A ``CSRGraph`` argument runs here, and so does a ``Graph`` of
  at least 64 nodes whose :meth:`~repro.graph.graph.Graph.freeze`
  snapshot is still fresh;
* **sets** — pure-Python loops over ``g.neighbors(u)`` for everything
  else: small graphs, graphs being mutated between calls (the greedy
  spanner BFS-probes the graph it grows) and any graph-like object such
  as :class:`~repro.graph.views.AugmentedView`.  These loops are the
  reference the CSR path is tested against: pass ``g.freeze()`` to reach
  CSR, and a never-frozen ``Graph`` (e.g. ``g.copy()``) to reach sets.

For per-node loops — every Algorithm 1–5 construction, stretch
certification, APSP — use :func:`batched_bfs`, which freezes once and
amortizes buffer allocation across sources.

When a graph changes by a small net delta, :func:`repair_rows` brings
existing BFS rows up to date instead of re-running them: only the entries
whose distance moved are relabelled, and only those are returned.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

import numpy as np

from ..errors import ParameterError
from .csr import CSRGraph
from .graph import Graph, canonical_edge

__all__ = [
    "bfs_distances",
    "bfs_parents",
    "bfs_layers",
    "ball",
    "ring",
    "path_to_root",
    "multi_source_distances",
    "bounded_distance",
    "batched_bfs",
    "orphaned_far_ends",
    "repair_rows",
    "repairable_rows",
    "row_changes",
    "connected_components",
    "is_connected",
]

#: Sentinel distance for unreachable nodes in the arrays returned below.
UNREACHED = -1

#: Frontier size at or below which the vectorized engine expands in pure
#: Python — numpy call overhead dominates on tiny frontiers (deep, skinny
#: graphs like paths degenerate to one node per level).
_SMALL_FRONTIER = 16

#: Sources per chunk in :func:`batched_bfs` (``None`` chunk argument).
#: Small enough that the flat ``chunk * n`` distance buffer stays
#: cache-friendly, large enough to amortize per-level numpy call overhead
#: across sources (64 measured best on the 2200-node UDG of
#: ``benchmarks/test_bench_traversal.py``).
_BATCH_CHUNK = 64

#: Below this node count a ``Graph`` stays on the set loops even with a
#: fresh snapshot: numpy call overhead exceeds the whole BFS on toy graphs
#: (the property-test regime).  A ``CSRGraph`` argument is always CSR.
_AUTO_MIN_NODES = 64


# --------------------------------------------------------------------- #
# path selection
# --------------------------------------------------------------------- #


def _csr_of(g) -> "CSRGraph | None":
    """The CSR snapshot to run *g* on, or ``None`` for the set loops.

    It never *builds* a snapshot: it uses one only when it is free (g
    already is a ``CSRGraph``, or a ``Graph`` of at least
    :data:`_AUTO_MIN_NODES` nodes carrying a fresh cached ``freeze()``),
    so mutation-heavy callers keep the set loops without pathological
    re-conversions.
    """
    if isinstance(g, CSRGraph):
        return g
    if isinstance(g, Graph) and g.num_nodes >= _AUTO_MIN_NODES:
        return g._csr  # fresh cached snapshot or None
    return None


# --------------------------------------------------------------------- #
# CSR engine: vectorized level-synchronous expansion
# --------------------------------------------------------------------- #


def _expand_levels(
    csr: CSRGraph,
    dist: np.ndarray,
    frontier: list,
    d: int,
    cutoff: "int | None",
    layers: "list[list[int]] | None",
) -> None:
    """Expand *frontier* (all nodes at distance *d*) until exhaustion/cutoff.

    ``dist`` is an int32 numpy array with the seed distances already
    written; discovered nodes get ``d+1, d+2, ...``.  When *layers* is a
    list, each discovered level is appended to it as a list of ints.

    Small frontiers walk the rows in Python through zero-copy memoryview
    slices (numpy call overhead dominates otherwise); large frontiers use
    one vectorized gather per level: ``starts/counts`` from ``indptr``, a
    ``repeat`` + ``arange`` flat offset build, one fancy-index into
    ``indices``, then a mask of unseen candidates.
    """
    indptr = csr._indptr
    rows = memoryview(csr._indices)  # sliced per node, no copies
    np_indptr, np_indices = csr.numpy_arrays()
    np_frontier: "np.ndarray | None" = None
    while True:
        size = len(frontier) if np_frontier is None else int(np_frontier.size)
        if size == 0 or (cutoff is not None and d >= cutoff):
            return
        d += 1
        if size <= _SMALL_FRONTIER:
            if np_frontier is not None:
                frontier = np_frontier.tolist()
                np_frontier = None
            nxt: list[int] = []
            for u in frontier:
                for v in rows[indptr[u] : indptr[u + 1]]:
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
            if layers is not None and nxt:
                layers.append(nxt)
        else:
            if np_frontier is None:
                np_frontier = np.asarray(frontier, dtype=np.int64)
            starts = np_indptr[np_frontier]
            counts = np_indptr[np_frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                return
            cum = np.cumsum(counts)
            offs = np.repeat(starts - cum + counts, counts) + np.arange(total)
            cand = np_indices[offs]
            cand = cand[dist[cand] < 0]
            if cand.size == 0:
                return
            dist[cand] = d
            np_frontier = np.flatnonzero(dist == d).astype(np.int64)
            if layers is not None:
                layers.append(np_frontier.tolist())


def _csr_parents(
    csr: CSRGraph, source: int, cutoff: "int | None"
) -> "tuple[list[int], list[int]]":
    """Canonical parent forest on flat arrays with a preallocated queue.

    CSR rows are sorted ascending, so plain row order reproduces the
    ``sorted(g.neighbors(u))`` expansion of the set path exactly —
    identical ``(dist, parent)`` output, no per-node sort.
    """
    n = csr.num_nodes
    indptr = csr._indptr
    rows = memoryview(csr._indices)  # zero-copy row slices
    dist = [UNREACHED] * n
    parent = [UNREACHED] * n
    dist[source] = 0
    parent[source] = source
    queue = array("i", [0]) * n  # preallocated: every node enqueues at most once
    queue[0] = source
    head, tail = 0, 1
    d = 0
    while head < tail:
        if cutoff is not None and d >= cutoff:
            break
        d += 1
        level_end = tail
        while head < level_end:
            u = queue[head]
            head += 1
            for v in rows[indptr[u] : indptr[u + 1]]:
                if dist[v] == UNREACHED:
                    dist[v] = d
                    parent[v] = u
                    queue[tail] = v
                    tail += 1
    return dist, parent


# --------------------------------------------------------------------- #
# set loops, and the one driver both paths share
# --------------------------------------------------------------------- #


def _set_levels(
    g, dist: list, frontier: list, d: int, cutoff: "int | None", layers: "list[list[int]] | None"
) -> None:
    """The set-path twin of :func:`_expand_levels`, with the same contract.

    *dist* is a list and rows are read through ``g.neighbors(u)``, so any
    graph-like object works.
    """
    while frontier and (cutoff is None or d < cutoff):
        d += 1
        nxt: list[int] = []
        for u in frontier:
            for v in g.neighbors(u):
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        if layers is not None and nxt:
            layers.append(nxt)
        frontier = nxt


def _distances(
    g, sources: Iterable[int], cutoff: "int | None", layers: "list[list[int]] | None" = None
) -> "list[int] | np.ndarray":
    """Distance from each node to the nearest of *sources*, on the path
    :func:`_csr_of` picks: a list on the set path, an int32 array on CSR.
    *layers* is as in :func:`_expand_levels`."""
    csr = _csr_of(g)
    if csr is None:
        dist: "list[int] | np.ndarray" = [UNREACHED] * g.num_nodes
    else:
        dist = np.full(csr.num_nodes, UNREACHED, dtype=np.int32)
    frontier: list[int] = []
    for s in sources:
        g._check(s)
        if dist[s] < 0:
            dist[s] = 0
            frontier.append(s)
    if csr is None:
        _set_levels(g, dist, frontier, 0, cutoff, layers)
    else:
        _expand_levels(csr, dist, frontier, 0, cutoff, layers)
    return dist


# --------------------------------------------------------------------- #
# public primitives
# --------------------------------------------------------------------- #


def bfs_distances(g, source: int, cutoff: "int | None" = None) -> list[int]:
    """Distances from *source* to every node (``-1`` if unreachable).

    ``cutoff`` bounds the exploration radius: nodes further than *cutoff*
    keep distance ``-1``.  This is what makes the local algorithms local —
    a node running ``DomTreeGdy_{r,β}`` only ever explores ``B_G(u, r+β)``.
    """
    dist = _distances(g, (source,), cutoff)
    return dist if isinstance(dist, list) else dist.tolist()


def bfs_parents(g, source: int, cutoff: "int | None" = None) -> "tuple[list[int], list[int]]":
    """``(dist, parent)`` arrays of a BFS from *source*.

    ``parent[source] == source``; unreached nodes have ``parent == -1``.
    The parent pointers form a shortest-path forest: following them from any
    reached node yields a shortest path to *source*, and the union of any
    collection of such paths is a tree rooted at *source*.

    Neighbors are expanded in sorted order so the forest is a *canonical*
    function of the graph: two nodes with identical local views compute
    identical forests — the property that makes the distributed protocol's
    trees match the centralized construction edge-for-edge.  (Both paths
    realize the same order: the CSR path exploits that its rows are already
    sorted.)
    """
    g._check(source)
    csr = _csr_of(g)
    if csr is not None:
        return _csr_parents(csr, source, cutoff)
    n = g.num_nodes
    dist = [UNREACHED] * n
    parent = [UNREACHED] * n
    dist[source] = 0
    parent[source] = source
    frontier = [source]
    d = 0
    while frontier:
        if cutoff is not None and d >= cutoff:
            break
        nxt: list[int] = []
        d += 1
        for u in frontier:
            for v in sorted(g.neighbors(u)):
                if dist[v] == UNREACHED:
                    dist[v] = d
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    return dist, parent


def bfs_layers(g, source: int, cutoff: "int | None" = None) -> list[list[int]]:
    """BFS layers ``[ [source], ring(1), ring(2), ... ]`` up to *cutoff*.

    Layer membership is the same on both paths; the order of nodes *within*
    a layer is not specified (callers treat layers as sets).
    """
    layers = [[source]]
    _distances(g, (source,), cutoff, layers)
    return layers


def ball(g, center: int, radius: int) -> set[int]:
    """``B_G(center, radius)`` — all nodes at distance ≤ radius (incl. center)."""
    if radius < 0:
        raise ParameterError(f"radius must be ≥ 0, got {radius}")
    out: set[int] = set()
    for layer in bfs_layers(g, center, cutoff=radius):
        out.update(layer)
    return out


def ring(g, center: int, radius: int) -> set[int]:
    """Nodes at distance exactly *radius* from *center*."""
    if radius < 0:
        raise ParameterError(f"radius must be ≥ 0, got {radius}")
    layers = bfs_layers(g, center, cutoff=radius)
    if len(layers) <= radius:
        return set()
    return set(layers[radius])


def path_to_root(parent: list[int], node: int) -> list[int]:
    """Walk *parent* pointers from *node* to the BFS root.

    Returns the node sequence ``[node, ..., root]``.  Raises
    :class:`~repro.errors.ParameterError` if *node* was not reached.
    """
    if parent[node] == UNREACHED:
        raise ParameterError(f"node {node} unreachable in parent forest")
    path = [node]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path


def multi_source_distances(
    g, sources: Iterable[int], cutoff: "int | None" = None
) -> list[int]:
    """Distance from each node to the nearest of *sources* (``-1`` beyond cutoff)."""
    dist = _distances(g, sources, cutoff)
    return dist if isinstance(dist, list) else dist.tolist()


def bounded_distance(g, s: int, t: int, cap: int) -> int:
    """``d_G(s, t)`` if ≤ *cap*, else ``cap + 1`` — with early exit at *t*.

    The incremental-spanner probe ("would this edge's endpoints already be
    within the stretch budget?"): unlike ``bfs_distances(...)[t]`` it stops
    the moment *t* is reached, and it never converts to CSR, so it stays
    cheap on a graph that is being mutated between calls.
    """
    g._check(s)
    g._check(t)
    if cap < 0:
        raise ParameterError(f"cap must be ≥ 0, got {cap}")
    if s == t:
        return 0
    dist = [UNREACHED] * g.num_nodes
    dist[s] = 0
    frontier = [s]
    d = 0
    while frontier and d < cap:
        nxt: list[int] = []
        d += 1
        for u in frontier:
            for v in g.neighbors(u):
                if dist[v] == UNREACHED:
                    if v == t:
                        return d
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return cap + 1


# --------------------------------------------------------------------- #
# batched multi-source engine
# --------------------------------------------------------------------- #


def batched_bfs(
    g,
    sources: "Iterable[int] | None" = None,
    cutoff: "int | None" = None,
    chunk: "int | None" = None,
    arrays: bool = False,
) -> Iterator["tuple[int, list[int]]"]:
    """Yield ``(source, dist)`` for each source — the amortized per-node loop.

    This is the engine behind every "for every node u: BFS from u" loop in
    the paper (Algorithm 3's assembly, stretch certification, APSP).  It
    freezes *g* once and runs *chunk* sources simultaneously on the flat
    CSR arrays: one distance buffer of ``chunk × n`` int32 entries encodes
    all BFS states, frontiers are flat ``source_slot * n + node`` keys, and
    each level is a single vectorized gather — so numpy call overhead and
    buffer allocation amortize across sources instead of recurring per
    node.

    Yields in the order of *sources* (default: all nodes).  Each ``dist``
    is a fresh list the caller owns — or, with ``arrays=True``, a
    read-only int32 ndarray (a view into the chunk buffer: numpy consumers
    like the routing-table kernels skip the list round-trip; copy before
    mutating).  Results agree exactly with ``bfs_distances(g, s, cutoff)``
    — the property tests assert it.

    A ``Graph`` below :data:`_AUTO_MIN_NODES` nodes skips the engine
    entirely and each source runs a plain set-path BFS — the vectorized
    machinery only pays off past toy sizes.
    """
    if chunk is None:
        chunk = _BATCH_CHUNK
    if chunk < 1:
        raise ParameterError(f"chunk must be ≥ 1, got {chunk}")
    if not isinstance(g, CSRGraph) and g.num_nodes < _AUTO_MIN_NODES:
        src_iter = range(g.num_nodes) if sources is None else sources
        for s in src_iter:
            dist = bfs_distances(g, s, cutoff)
            yield int(s), (np.asarray(dist, dtype=np.int32) if arrays else dist)
        return
    csr = g if isinstance(g, CSRGraph) else g.freeze()
    n = csr.num_nodes
    src_list = list(range(n)) if sources is None else list(sources)
    for s in src_list:
        csr._check(s)
    np_indptr, np_indices = csr.numpy_arrays()
    for lo in range(0, len(src_list), chunk):
        srcs = np.asarray(src_list[lo : lo + chunk], dtype=np.int64)
        b = len(srcs)
        dist = np.full(b * n, UNREACHED, dtype=np.int32)
        slots = np.arange(b, dtype=np.int64) * n
        dist[slots + srcs] = 0
        frontier = slots + srcs
        d = 0
        while frontier.size and (cutoff is None or d < cutoff):
            d += 1
            node = frontier % n
            base = frontier - node
            starts = np_indptr[node]
            counts = np_indptr[node + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            cum = np.cumsum(counts)
            offs = np.repeat(starts - cum + counts, counts) + np.arange(total)
            cand = np.repeat(base, counts) + np_indices[offs]
            cand = cand[dist[cand] < 0]
            if cand.size == 0:
                break
            dist[cand] = d
            # Deduplicate the new frontier: sort the (few) candidates when
            # they are sparse, scan the flat buffer when they are dense.
            if cand.size < (b * n) >> 4:
                frontier = np.unique(cand)
            else:
                frontier = np.flatnonzero(dist == d)
        rows = dist.reshape(b, n)
        for i, s in enumerate(src_list[lo : lo + b]):
            yield int(s), (rows[i] if arrays else rows[i].tolist())


# --------------------------------------------------------------------- #
# incremental row repair
# --------------------------------------------------------------------- #


def orphaned_far_ends(
    d: "np.ndarray",
    h,
    h_removed: "Iterable[tuple[int, int]]",
    rows: "np.ndarray | None" = None,
    exclude: "frozenset | set" = frozenset(),
) -> Iterator["tuple[int, np.ndarray]"]:
    """Yield ``(far, mask)``: where a removed edge orphaned its far endpoint.

    *d* holds BFS rows on the graph before the delta, *h* is the graph
    after it and *h_removed* the removed edges.  For each removed edge
    and each orientation ``near → far``, ``mask[i]`` is set when the edge
    was *tight* from row ``w`` (``d[w, near] + 1 == d[w, far]``: it lay on
    a shortest path) and no surviving neighbor ``z`` of *far* in *h* is
    an equally tight parent (``d[w, z] + 1 == d[w, far]``).  Edges in
    *exclude* do not count as surviving.  Only orientations with a set
    mask are yielded.

    Row ``w`` is ``rows[i]`` (every row of *d* when *rows* is ``None``),
    and every test reads only that row.
    """
    pick = slice(None) if rows is None else np.asarray(rows, dtype=np.intp)
    for x, y in h_removed:
        dx = d[pick, x].astype(np.int64)
        dy = d[pick, y].astype(np.int64)
        for near, far, far_node in ((dx, dy, y), (dy, dx, x)):
            tight = (near >= 0) & (near + 1 == far)
            hits = np.flatnonzero(tight)
            if hits.size == 0:
                continue
            alts = sorted(
                z for z in h.neighbors(far_node) if canonical_edge(z, far_node) not in exclude
            )
            if alts:
                ids = hits if rows is None else pick[hits]
                block = d[ids[:, None], alts]
                tight[hits[(block + 1 == far[hits, None]).any(axis=1)]] = False
            if tight.any():
                yield far_node, tight


def repairable_rows(d: "np.ndarray", rows: "Iterable[int]", old_n: int) -> "tuple[list, list]":
    """Split *rows* into ``(repairable, needs_bfs)`` for :func:`repair_rows`.

    A row can be repaired only when it holds the exact distances of the
    graph before the delta.  Rows of ids at or past *old_n* (joined since)
    have none, and a row whose own diagonal is not 0 is not a BFS row at
    all: a crashed writer's row that was reset to −1 is one.  Both need a
    full BFS.
    """
    rows = np.asarray(list(rows), dtype=np.int64)
    if rows.size == 0:
        return [], []
    old = rows < old_n
    ok = np.zeros(rows.size, dtype=bool)
    ok[old] = d[rows[old], rows[old]] == 0
    return rows[ok].tolist(), rows[~ok].tolist()


_NEVER = np.iinfo(np.int64).max  # tentative distance of a not-yet-reached entry


class _RowPatch:
    """Sparse changes to BFS rows of a matrix, keyed ``row * n + node``.

    The matrix itself is only read, through a flat view of its rows (no
    copy, also for a row-strided view into a larger buffer).  The patch
    holds sorted keys with their new values (−1 = unreachable) and answers
    lookups over "matrix with the patch applied".
    """

    def __init__(self, d: "np.ndarray", n: int) -> None:
        self.d, self.n = d, n
        self.stride = d.strides[0] // d.itemsize
        span = (d.shape[0] - 1) * self.stride + n
        self.flat = np.lib.stride_tricks.as_strided(
            d, shape=(span,), strides=(d.itemsize,), writeable=False
        )
        self.keys = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0, dtype=np.int64)

    def old(self, keys: "np.ndarray") -> "np.ndarray":
        if self.stride != self.n:
            keys = keys + keys // self.n * (self.stride - self.n)
        return self.flat[keys].astype(np.int64)

    def cur(self, keys: "np.ndarray") -> "np.ndarray":
        vals = self.old(keys)
        pos, hit = _locate(self.keys, keys)
        vals[hit] = self.vals[pos[hit]]
        return vals

    def assign(self, keys: "np.ndarray", vals) -> None:
        """Set sorted unique *keys* to *vals*, replacing earlier values."""
        vals = np.broadcast_to(np.asarray(vals, dtype=np.int64), keys.shape)
        pos, hit = _locate(self.keys, keys)
        self.vals[pos[hit]] = vals[hit]
        fresh = ~hit
        at = np.searchsorted(self.keys, keys[fresh])
        self.keys = np.insert(self.keys, at, keys[fresh])
        self.vals = np.insert(self.vals, at, vals[fresh])

    def expand(self, graph: "tuple[np.ndarray, np.ndarray]", keys: "np.ndarray"):
        """``(neighbor keys, index into keys)`` of every edge out of *keys*."""
        indptr, indices = graph
        node = keys % self.n
        starts = indptr[node]
        counts = indptr[node + 1] - starts
        total = int(counts.sum())
        cum = np.cumsum(counts)
        offs = np.repeat(starts - cum + counts, counts) + np.arange(total)
        nbrs = np.repeat(keys - node, counts) + indices[offs]
        return nbrs, np.repeat(np.arange(keys.size, dtype=np.int32), counts)


def _locate(sorted_keys: "np.ndarray", keys: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
    """``(position, found)`` of each of *keys* in the sorted *sorted_keys*."""
    if sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=np.intp), np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return pos, sorted_keys[pos] == keys


def _without_edges(
    indptr: "np.ndarray", indices: "np.ndarray", edges: "set[tuple[int, int]]"
) -> "tuple[np.ndarray, np.ndarray]":
    """CSR arrays of the graph minus *edges* (each must be present)."""
    pos = []
    for x, y in edges:
        for a, b in ((x, y), (y, x)):
            lo, hi = int(indptr[a]), int(indptr[a + 1])
            at = lo + int(np.searchsorted(indices[lo:hi], b))
            if at >= hi or indices[at] != b:
                raise ParameterError(f"inserted edge {(x, y)} is not in the graph")
            pos.append(at)
    keep = np.ones(indices.size, dtype=bool)
    keep[pos] = False
    ends = np.fromiter((v for e in edges for v in e), dtype=np.int64)
    dropped = np.cumsum(np.bincount(ends, minlength=indptr.size - 1))
    mid = indptr.copy()
    mid[1:] -= dropped
    return mid, indices[keep]


def repair_rows(
    g,
    d: "np.ndarray",
    rows: "Iterable[int]",
    h_added: "Iterable[tuple[int, int]]" = (),
    h_removed: "Iterable[tuple[int, int]]" = (),
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Bring BFS rows up to date with a net edge delta; returns the changes.

    ``d[w]`` must hold the exact distances from ``w`` (−1 = unreachable)
    on the graph *before* the delta, for every ``w`` in *rows*; *g* is
    the graph *after* it, ``h_added``/``h_removed`` the net delta
    (ΔH⁺/ΔH⁻).  Columns of ids that did not exist before read −1, and
    each row of *d* must be contiguous (it may be a view into a larger
    buffer, as the shared serving matrices are).  Returns the changed entries as ``(rows, cols, values)`` arrays,
    sorted by row, then column; applying them makes ``d[w]`` equal to
    ``batched_bfs(g, [w])``.  *d* is only read.

    Two phases, each in the style of dynamic BFS (Even–Shiloach,
    Ramalingam–Reps), vectorized across rows on flat ``row * n + node``
    keys like :func:`batched_bfs`:

    * **deletions**, on ``g − ΔH⁺``: the seeds are the far endpoints that
      :func:`orphaned_far_ends` reports (ΔH⁺ excluded as parents).  Level
      by level, a child becomes *affected* when it has no unaffected tight
      parent left.  The affected entries are then relabelled in level
      order from their unaffected boundary (−1 where nothing reaches);
    * **insertions**, on *g*: each ΔH⁺ edge that shortcuts an endpoint
      seeds a decrease, and decreases propagate in level order.

    Only entries whose distance moved are touched: working memory is
    proportional to them (plus *rows*, and rows × |ΔH⁺| per chunk of
    inserted edges), never rows × n.
    """
    csr = g if isinstance(g, CSRGraph) else g.freeze()
    n = csr.num_nodes
    rows = np.unique(np.fromiter(rows, dtype=np.int64))
    plus = {canonical_edge(x, y) for x, y in h_added}
    h_removed = list(h_removed)
    if rows.size == 0 or not (plus or h_removed):
        return rows[:0], rows[:0], np.empty(0, dtype=np.int32)
    if d.shape[1] != n:
        raise ParameterError(f"rows have {d.shape[1]} columns, the graph {n} nodes")
    if d.strides[1] != d.itemsize:
        raise ParameterError("repair_rows needs contiguous rows")
    indptr, indices = csr.numpy_arrays()
    patch = _RowPatch(d, n)
    if h_removed:
        mid = _without_edges(indptr, indices, plus) if plus else (indptr, indices)
        _repair_deletions(patch, csr, mid, rows, h_removed, plus)
    if plus:
        _repair_insertions(patch, (indptr, indices), rows, sorted(plus))
    keys, vals = patch.keys, patch.vals
    moved = vals != patch.old(keys)
    keys, vals = keys[moved], vals[moved]
    return keys // n, keys % n, vals.astype(np.int32)


def _repair_deletions(patch: _RowPatch, csr: CSRGraph, mid, rows, h_removed, plus) -> None:
    """Phase 1: relabel the entries whose distance grew on ``g − ΔH⁺``."""
    n = patch.n
    seeds = [
        rows[orphaned] * n + far
        for far, orphaned in orphaned_far_ends(patch.d, csr, h_removed, rows, plus)
    ]
    if not seeds:
        return
    seeds = np.unique(np.concatenate(seeds))
    levels = patch.old(seeds)
    order = np.argsort(levels, kind="stable")
    seeds, levels = seeds[order], levels[order]
    # Cascade in level order: an entry at level L is affected iff it has no
    # tight parent (level L − 1) outside the affected set — and the only
    # affected entries at level L − 1 are the previous frontier.
    found = []
    frontier = seeds[:0]
    level, i = int(levels[0]), 0
    while True:
        j = int(np.searchsorted(levels, level, side="right"))
        cand = seeds[i:j]
        i = j
        if frontier.size:
            kids, _ = patch.expand(mid, frontier)
            cand = np.concatenate([cand, kids[patch.old(kids) == level]])
        cand = np.unique(cand)
        nbrs, owner = patch.expand(mid, cand)
        parent = (patch.old(nbrs) == level - 1) & ~_locate(frontier, nbrs)[1]
        frontier = cand[np.bincount(owner[parent], minlength=cand.size) == 0]
        if frontier.size:
            found.append(frontier)
            level += 1
        elif i < seeds.size:
            level = int(levels[i])
        else:
            break
    # Relabel from the boundary: tentative distance through the nearest
    # unaffected neighbor, then settle level by level inside the set.
    affected = np.sort(np.concatenate(found))
    tent = np.full(affected.size, _NEVER, dtype=np.int64)
    cuts = np.searchsorted(affected, rows[:: _BATCH_CHUNK] * n).tolist()
    for lo, hi in zip(cuts, cuts[1:] + [affected.size]):  # a chunk of rows at a time
        nbrs, owner = patch.expand(mid, affected[lo:hi])
        vals = patch.old(nbrs)
        outside = (vals >= 0) & ~_locate(affected, nbrs)[1]
        np.minimum.at(tent, lo + owner[outside], vals[outside] + 1)
    done = np.zeros(affected.size, dtype=bool)
    while True:
        pending = ~done & (tent < _NEVER)
        if not pending.any():
            break
        level = int(tent[pending].min())
        now = np.flatnonzero(pending & (tent == level))
        done[now] = True
        nbrs, _ = patch.expand(mid, affected[now])
        pos, inside = _locate(affected, nbrs)
        pos = pos[inside]
        pos = pos[~done[pos]]
        tent[pos] = np.minimum(tent[pos], level + 1)
    patch.assign(affected, np.where(tent < _NEVER, tent, UNREACHED))


def _repair_insertions(patch: _RowPatch, full, rows, plus: "list[tuple[int, int]]") -> None:
    """Phase 2: propagate the decreases the ΔH⁺ edges cause, on *g*."""
    base = rows[:, None] * patch.n
    keys, vals = [], []
    for lo in range(0, len(plus), _BATCH_CHUNK):
        ends = np.asarray(plus[lo : lo + _BATCH_CHUNK], dtype=np.int64)
        kx = (base + ends[:, 0]).ravel()
        ky = (base + ends[:, 1]).ravel()
        vx, vy = patch.cur(kx), patch.cur(ky)
        for k, here, there in ((ky, vy, vx), (kx, vx, vy)):
            better = (there >= 0) & ((here < 0) | (here > there + 1))
            keys.append(k[better])
            vals.append(there[better] + 1)
    seeds, levels = np.concatenate(keys), np.concatenate(vals)
    if seeds.size == 0:
        return
    order = np.lexsort((levels, seeds))  # by key, then level
    seeds, levels = seeds[order], levels[order]
    first = np.append(True, seeds[1:] != seeds[:-1])  # each key's smallest level
    seeds, levels = seeds[first], levels[first]
    patch.assign(seeds, levels)
    order = np.argsort(levels, kind="stable")
    seeds, levels = seeds[order], levels[order]
    frontier = seeds[:0]
    level, i = int(levels[0]), 0
    while True:
        j = int(np.searchsorted(levels, level, side="right"))
        due = seeds[i:j]
        i = j
        # A seed a shorter path has lowered since is settled already.
        frontier = np.union1d(frontier, due[patch.cur(due) == level])
        if frontier.size:
            nbrs, _ = patch.expand(full, frontier)
            now = patch.cur(nbrs)
            frontier = np.unique(nbrs[(now < 0) | (now > level + 1)])
            patch.assign(frontier, level + 1)
            level += 1
        elif i < seeds.size:
            level = int(levels[i])
        else:
            break


def row_changes(
    rows: "np.ndarray", cols: "np.ndarray", vals: "np.ndarray"
) -> Iterator["tuple[int, np.ndarray, np.ndarray]"]:
    """Split :func:`repair_rows` output into ``(row, cols, values)`` per row."""
    if rows.size == 0:
        return
    cuts = np.flatnonzero(rows[1:] != rows[:-1]) + 1
    heads = rows[np.concatenate([[0], cuts])].tolist()
    yield from zip(heads, np.split(cols, cuts), np.split(vals, cuts))


# --------------------------------------------------------------------- #
# connectivity
# --------------------------------------------------------------------- #


def connected_components(g) -> list[list[int]]:
    """Connected components as lists of node ids (each sorted ascending)."""
    seen = [False] * g.num_nodes
    comps: list[list[int]] = []
    for s in g.nodes():
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        frontier = [s]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in g.neighbors(u):
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        nxt.append(v)
            frontier = nxt
        comps.append(sorted(comp))
    return comps


def is_connected(g) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    if g.num_nodes == 0:
        return True
    return len(connected_components(g)) == 1
