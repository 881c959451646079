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
runs up to 64 sources per level as the bits of one ``uint64`` word per
node.

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
    "connected_components",
    "is_connected",
]

#: Sentinel distance for unreachable nodes in the arrays returned below.
UNREACHED = -1

#: Frontier size at or below which the vectorized engine expands in pure
#: Python — numpy call overhead dominates on tiny frontiers (deep, skinny
#: graphs like paths degenerate to one node per level).
_SMALL_FRONTIER = 16

#: Sources per lane word of :func:`batched_bfs` (bits of a ``uint64``),
#: and each lane's bit.
_LANES = 64
_LANE_BITS = np.left_shift(np.uint64(1), np.arange(_LANES, dtype=np.uint64))

#: Sources per chunk in :func:`batched_bfs` (``None`` chunk argument):
#: one lane word.
_BATCH_CHUNK = _LANES

#: Fewest sources a :func:`batched_bfs` chunk needs to run the lane
#: kernel; smaller chunks run the frontier kernel.  A lane level costs the
#: same for 1 source as for 64, a frontier level grows with the sources.
#: Measured crossover (best-of-7, 2-CPU host): 4–6 sources on the
#: ``pool-nodechurn`` spanner (n = 1500, m = 4912), 6–8 on the
#: 2200-node UDG of ``benchmarks/test_bench_traversal.py``.
_LANE_MIN_SOURCES = 6

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
    the paper (Algorithm 3's assembly, stretch certification, APSP, the
    serving tier's D rows).  It freezes *g* once and runs *chunk* sources
    at a time on the flat CSR arrays, with one of two kernels picked by
    the chunk's source count:

    * **lanes** (at least :data:`_LANE_MIN_SOURCES` sources) — each source
      owns one bit of a ``uint64`` word per node, 64 sources to a word.  A
      level is one ``np.bitwise_or.reduceat`` of the frontier words over
      the CSR rows (every node ORs its neighbours' bits) and one
      ``new = gathered & ~seen``; the level number goes into bit-sliced
      planes, unpacked into ``dist`` rows once at the end.  A level costs
      the same for 1 source as for 64;
    * **frontier** (fewer sources) — frontiers are flat
      ``source_slot * n + node`` keys and each level is one vectorized
      gather over the frontier's rows, so a level costs what its frontier
      touches.  It wins only on tiny batches.

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
    src_list = list(range(csr.num_nodes)) if sources is None else list(sources)
    for s in src_list:
        csr._check(s)
    lanes = _Lanes(csr)
    for lo in range(0, len(src_list), chunk):
        part = src_list[lo : lo + chunk]
        few = len(part) < _LANE_MIN_SOURCES
        for w in range(0, len(part), _LANES):
            srcs = part[w : w + _LANES]
            rows = _frontier_rows(csr, srcs, cutoff) if few else lanes.rows(srcs, cutoff)
            for s, row in zip(srcs, rows):
                yield int(s), (row if arrays else row.tolist())


def _frontier_rows(csr: CSRGraph, srcs: "list[int]", cutoff: "int | None") -> np.ndarray:
    """The frontier kernel of :func:`batched_bfs`: a ``(len(srcs), n)``
    int32 distance block."""
    np_indptr, np_indices = csr.numpy_arrays()
    n = csr.num_nodes
    b = len(srcs)
    dist = np.full(b * n, UNREACHED, dtype=np.int32)
    frontier = np.arange(b, dtype=np.int64) * n + np.asarray(srcs, dtype=np.int64)
    dist[frontier] = 0
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
    return dist.reshape(b, n)


class _Lanes:
    """The lane kernel of :func:`batched_bfs` over one CSR snapshot.

    ``np.bitwise_or.reduceat`` returns the element itself, not 0, for an
    empty segment, so the reduction runs over the rows that have
    neighbours only; zero-degree (dormant) rows gather nothing.
    """

    def __init__(self, csr: CSRGraph) -> None:
        indptr, self.indices = csr.numpy_arrays()
        self.n = csr.num_nodes
        self.busy = np.flatnonzero(indptr[1:] > indptr[:-1])
        self.starts = indptr[self.busy]

    def rows(self, srcs: "list[int]", cutoff: "int | None") -> np.ndarray:
        """A ``(len(srcs), n)`` int32 distance block, ``len(srcs) ≤ 64``."""
        n, busy = self.n, self.busy
        b = len(srcs)
        front = np.zeros(n, dtype=np.uint64)
        np.bitwise_or.at(front, np.asarray(srcs, dtype=np.intp), _LANE_BITS[:b])
        unseen = ~front
        gathered = np.zeros(n, dtype=np.uint64)
        taken = np.empty(self.indices.size, dtype=np.uint64)
        planes: "list[np.ndarray]" = []  # planes[j] bit i: bit j of lane i's level
        d = 0
        while busy.size and (cutoff is None or d < cutoff):
            d += 1
            np.take(front, self.indices, out=taken)
            gathered[busy] = np.bitwise_or.reduceat(taken, self.starts)
            np.bitwise_and(gathered, unseen, out=front)
            if not front.any():
                break
            unseen ^= front
            for j in range(d.bit_length()):
                if j == len(planes):
                    planes.append(np.zeros(n, dtype=np.uint64))
                if d >> j & 1:
                    planes[j] |= front
        dist = np.zeros((b, n), dtype=np.int32)
        for plane in reversed(planes):
            dist <<= 1
            dist |= _unpack(plane, b)
        dist[_unpack(unseen, b) == 1] = UNREACHED
        return dist


def _unpack(words: np.ndarray, b: int) -> np.ndarray:
    """Lanes ``0..b-1`` of per-node words as a ``(b, n)`` uint8 0/1 block."""
    as_bytes = np.asarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(as_bytes, axis=1, count=b, bitorder="little").T


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


#: Label of an entry no path reaches (yet).  Half the int64 range, so a
#: label plus one never wraps.
_NEVER = np.iinfo(np.int64).max >> 1

#: Affected entries expanded at once when their boundary is read: bounds
#: the neighbor scratch of one huge repair.
_BOUNDARY_CHUNK = 1 << 11


class _RowPatch:
    """Sparse changes to BFS rows of a matrix, keyed ``row * n + node``
    with ``n`` the row stride of the matrix (its column count, or the
    capacity of the buffer a row-strided view looks into).

    The matrix itself is only read, through a flat view of its rows (no
    copy), so a key is also its entry's offset in that view.  The patch
    holds sorted keys with their new labels and answers lookups over
    "matrix with the patch applied", unreachable read as :data:`_NEVER`.
    """

    def __init__(self, d: "np.ndarray") -> None:
        self.d = d
        self.n = d.strides[0] // d.itemsize
        span = (d.shape[0] - 1) * self.n + d.shape[1]
        self.flat = np.lib.stride_tricks.as_strided(
            d, shape=(span,), strides=(d.itemsize,), writeable=False
        )
        self.keys = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0, dtype=np.int64)

    def old(self, keys: "np.ndarray") -> "np.ndarray":
        """The matrix entries at *keys* (−1 = unreachable), as int64."""
        return self.flat[keys].astype(np.int64)

    def _lookup(self, keys: "np.ndarray"):
        """The current labels of *keys*, with :func:`_find` among the patched."""
        vals = self.old(keys)
        vals[vals < 0] = _NEVER
        at, found = _find(self.keys, keys)
        vals[found] = self.vals[at[found]]
        return vals, at, found

    def label(self, keys: "np.ndarray") -> "np.ndarray":
        """The current label of each of *keys*: patched, else the matrix's."""
        return self._lookup(keys)[0]

    def unreach(self, keys: "np.ndarray") -> None:
        """Patch the sorted unique *keys* (none patched yet) to unreached."""
        self.keys, self.vals = keys, np.full(keys.size, _NEVER, dtype=np.int64)

    def lower(self, keys: "np.ndarray", vals: "np.ndarray") -> "np.ndarray":
        """Lower each of the sorted unique *keys* whose label exceeds its
        entry of *vals* to it; returns which were lowered."""
        cur, at, found = self._lookup(keys)
        down = vals < cur
        here = down & found
        self.vals[at[here]] = vals[here]
        new = down & ~found
        self.keys = np.insert(self.keys, at[new], keys[new])
        self.vals = np.insert(self.vals, at[new], vals[new])
        return down

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


def _find(sorted_keys: "np.ndarray", keys: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
    """``(insertion point, found)`` of each of *keys* in the sorted *sorted_keys*."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < sorted_keys.size
    found[found] = sorted_keys[at[found]] == keys[found]
    return at, found


def _rounds(keys: "np.ndarray", levels: "np.ndarray", n: int) -> "np.ndarray":
    """Each entry's round: its level counted from the lowest level among
    the entries of its own row (*keys* sorted, so rows run contiguous)."""
    row = keys // n
    starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
    base = np.minimum.reduceat(levels, starts)
    return levels - np.repeat(base, np.diff(np.r_[starts, keys.size]))


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
    buffer, as the shared serving matrices are).  Returns the changed
    entries as ``(rows, cols, values)`` arrays, sorted by row, then
    column; applying them makes ``d[w]`` equal to ``batched_bfs(g, [w])``.
    *d* is only read.

    Two passes in the style of dynamic BFS (Even–Shiloach,
    Ramalingam–Reps), vectorized across rows on flat ``row * n + node``
    keys like :func:`batched_bfs`:

    * **affected set**, on ``g − ΔH⁺``: the seeds are the far endpoints
      that :func:`orphaned_far_ends` reports (ΔH⁺ excluded as parents).
      Level by level, a child is *affected* — its distance grew — when it
      has no unaffected tight parent left;
    * **settle**, on *g*: one level-ordered wave from two kinds of seed —
      each affected entry's nearest unaffected neighbor, and each ΔH⁺
      edge that shortcuts an endpoint.  An entry is lowered whenever the
      wave reaches it shorter than its label; affected entries it never
      reaches end at −1.

    Both passes count each row's levels from that row's own lowest seed,
    so a pass runs as many rounds as the widest single row spans, not the
    union of every row's levels.  Only entries whose distance moved, or
    that the affected pass visits, are touched: working memory is
    proportional to them (plus rows × |ΔH⁺| per chunk of inserted edges),
    never rows × n.
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
    patch = _RowPatch(d)
    affected = rows[:0]
    if h_removed:
        mid = _without_edges(indptr, indices, plus) if plus else (indptr, indices)
        affected = _affected(patch, csr, mid, rows, h_removed, plus)
        patch.unreach(affected)  # until the settle reaches them
    _settle(patch, (indptr, indices), rows, affected, sorted(plus))
    keys = patch.keys
    vals = np.where(patch.vals < _NEVER, patch.vals, UNREACHED)
    moved = vals != patch.old(keys)
    keys, vals = keys[moved], vals[moved]
    return keys // patch.n, keys % patch.n, vals.astype(np.int32)


def _affected(patch: _RowPatch, csr: CSRGraph, mid, rows, h_removed, plus) -> "np.ndarray":
    """The sorted keys whose distance grows on ``g − ΔH⁺`` (*mid*)."""
    n = patch.n
    seeds = [
        rows[orphaned] * n + far
        for far, orphaned in orphaned_far_ends(patch.d, csr, h_removed, rows, plus)
    ]
    if not seeds:
        return rows[:0]
    seeds = np.unique(np.concatenate(seeds))
    levels = patch.old(seeds)
    due = _rounds(seeds, levels, n)
    order = np.argsort(due, kind="stable")
    seeds, levels, due = seeds[order], levels[order], due[order]
    # Cascade in level order, each row from its own lowest seed: an entry
    # at level L is affected iff it has no tight parent (level L − 1)
    # outside the affected set — and the only affected entries of its row
    # at level L − 1 are in the previous round's frontier.
    found = []
    frontier, flevels = seeds[:0], levels[:0]
    r, i = int(due[0]), 0
    while True:
        j = int(np.searchsorted(due, r, side="right"))
        cand, clevels = seeds[i:j], levels[i:j]
        i = j
        if frontier.size:
            kids, owner = patch.expand(mid, frontier)
            klevels = patch.old(kids)
            tight = klevels == flevels[owner] + 1
            cand = np.concatenate([cand, kids[tight]])
            clevels = np.concatenate([clevels, klevels[tight]])
        cand, first = np.unique(cand, return_index=True)
        clevels = clevels[first]
        nbrs, owner = patch.expand(mid, cand)
        tight = patch.old(nbrs) == clevels[owner] - 1
        nbrs, owner = nbrs[tight], owner[tight]
        parent = owner[~_find(frontier, nbrs)[1]]
        orphan = np.bincount(parent, minlength=cand.size) == 0
        frontier, flevels = cand[orphan], clevels[orphan]
        if frontier.size:
            found.append(frontier)
            r += 1
        elif i < seeds.size:
            r = int(due[i])
        else:
            break
    return np.sort(np.concatenate(found))


def _settle(patch: _RowPatch, full, rows, affected, plus: "list[tuple[int, int]]") -> None:
    """Lower every entry the new graph *full* reaches shorter, in level order."""
    n = patch.n
    keys, labels = [], []
    # Each affected entry from its nearest unaffected neighbor on g.
    for lo in range(0, affected.size, _BOUNDARY_CHUNK):
        part = affected[lo : lo + _BOUNDARY_CHUNK]
        nbrs, owner = patch.expand(full, part)
        if not nbrs.size:
            continue
        starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        near = np.minimum.reduceat(patch.label(nbrs), starts)
        hit = near < _NEVER  # some neighbor is reached
        keys.append(part[owner[starts][hit]])
        labels.append(near[hit] + 1)
    # Each ΔH⁺ edge that shortcuts one of its endpoints.
    base = rows[:, None] * n
    for lo in range(0, len(plus), _BATCH_CHUNK):
        ends = np.asarray(plus[lo : lo + _BATCH_CHUNK], dtype=np.int64)
        kx = (base + ends[:, 0]).ravel()
        ky = (base + ends[:, 1]).ravel()
        lx, ly = patch.label(kx), patch.label(ky)
        for k, here, there in ((ky, ly, lx), (kx, lx, ly)):
            better = here > there + 1
            keys.append(k[better])
            labels.append(there[better] + 1)
    if not keys:
        return
    seeds, levels = np.concatenate(keys), np.concatenate(labels)
    if seeds.size == 0:
        return
    order = np.lexsort((levels, seeds))  # by key, then level
    seeds, levels = seeds[order], levels[order]
    first = np.r_[True, seeds[1:] != seeds[:-1]]  # each key's lowest level
    seeds, levels = seeds[first], levels[first]
    patch.lower(seeds, levels)
    due = _rounds(seeds, levels, n)
    order = np.argsort(due, kind="stable")
    seeds, levels, due = seeds[order], levels[order], due[order]
    # One wave, each row from its own lowest seed: every entry a row's
    # frontier holds carries the same label, so a neighbor reached this
    # round gets that label plus one.
    frontier, flevels = seeds[:0], levels[:0]
    r, i = int(due[0]), 0
    while True:
        j = int(np.searchsorted(due, r, side="right"))
        if j > i:
            now, nlevels = seeds[i:j], levels[i:j]
            i = j
            live = patch.label(now) == nlevels  # not lowered since it was seeded
            frontier = np.concatenate([frontier, now[live]])
            flevels = np.concatenate([flevels, nlevels[live]])
        if frontier.size:
            nbrs, owner = patch.expand(full, frontier)
            nbrs, first = np.unique(nbrs, return_index=True)
            reach = flevels[owner[first]] + 1
            lower = patch.lower(nbrs, reach)
            frontier, flevels = nbrs[lower], reach[lower]
            r += 1
        elif i < seeds.size:
            r = int(due[i])
        else:
            break


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
