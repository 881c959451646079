"""Undirected, unweighted graph over dense integer node ids.

The whole paper works with unweighted graphs whose algorithms are BFS plus
set operations on neighborhoods (dominating sets, multipoint relays,
set-cover over ``N(x)``).  :class:`Graph` therefore stores adjacency as a
``list[set[int]]`` indexed by node id ``0..n-1``:

* ``G.neighbors(u)`` is O(1) and supports the set algebra the algorithms are
  written in (``N(x) & S``, ``N(v) <= M`` ...) without conversions;
* dense ids let hot paths (BFS in :mod:`repro.graph.traversal`) use flat
  integer arrays rather than hashing arbitrary node objects.

Mutation is through :meth:`add_edge` / :meth:`remove_edge` plus the churn
mutators :meth:`add_node` / :meth:`remove_node` (node ids stay dense:
``add_node`` appends id *n*, ``remove_node`` isolates — it never re-indexes,
matching :func:`repro.graph.ops.remove_nodes`).  This keeps the algorithms'
invariant (the node set of a spanner equals the node set of the input:
``V(H) = V(G)``) and lets sub-graphs share nothing with their parent while
staying index-compatible.

Two adjacency backends coexist: this mutable set-based class, and the
immutable flat-array :class:`~repro.graph.csr.CSRGraph` produced by
:meth:`Graph.freeze`.  Freeze a graph before running per-node BFS loops over
it — the traversal primitives detect a fresh snapshot and take their fast
CSR path automatically, falling back to set iteration otherwise.

Graphs are value-comparable (``==`` compares node count and edge sets) and
hash-free (mutable).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import GraphError, NodeNotFound

__all__ = ["Graph", "Edge", "canonical_edge"]

#: An undirected edge as an ordered pair ``(min(u, v), max(u, v))``.
Edge = tuple  # tuple[int, int] — kept loose for 3.10 compatibility in docs


def canonical_edge(u: int, v: int) -> "tuple[int, int]":
    """Return the canonical ``(min, max)`` form of the undirected edge uv."""
    return (u, v) if u <= v else (v, u)


def _patch_row_budget(n: int) -> int:
    """How many dirty adjacency rows a delta re-freeze may patch.

    Beyond roughly an eighth of the rows the bulk-copy spans fragment and a
    plain :meth:`CSRGraph.from_graph` rebuild wins; the floor keeps small
    graphs patchable through a handful of events.
    """
    return max(32, n >> 3)


class Graph:
    """Simple undirected graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of nodes.  Node ids are the integers ``0..n-1``.
    edges:
        Optional iterable of ``(u, v)`` pairs to insert.  Duplicates are
        ignored; self-loops raise :class:`~repro.errors.GraphError`.

    Examples
    --------
    >>> g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.num_edges
    3
    """

    __slots__ = (
        "_n",
        "_adj",
        "_m",
        "_version",
        "_csr",
        "_csr_base",
        "_csr_dirty",
    )

    def __init__(self, n: int, edges: "Iterable[tuple[int, int]] | None" = None) -> None:
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        self._n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._m = 0
        self._version = 0  # bumped on every successful mutation
        self._csr = None  # cached CSRGraph snapshot, dropped on mutation
        self._csr_base = None  # previous snapshot kept as a patch base
        self._csr_dirty = None  # rows mutated since _csr_base was current
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._m

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every successful edge add/remove.

        Together with :meth:`freeze` this gives cheap cache invalidation:
        anything derived from the graph (the CSR snapshot, the serving
        memory report) is keyed by ``version`` and silently expires when the
        graph changes.
        """
        return self._version

    def nodes(self) -> range:
        """The node ids, as a :class:`range` (cheap, re-iterable)."""
        return range(self._n)

    def neighbors(self, u: int) -> set[int]:
        """The adjacency set ``N(u)``.

        **Live-set sharing contract.**  The returned set is the live
        internal set — callers must not mutate it.  (Returning it directly
        keeps ``N(x) & S`` loops allocation-free; all library code treats
        it as read-only.)  The frozen backend differs here:
        :meth:`CSRGraph.neighbors <repro.graph.csr.CSRGraph.neighbors>`
        returns a *fresh* set per call because there is no internal set to
        share.  Code written against the contract above (never mutate, never
        rely on identity across calls) works with either backend.
        """
        self._check(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        """``|N(u)|``."""
        self._check(u)
        return len(self._adj[u])

    def max_degree(self) -> int:
        """Maximum degree Δ of the graph (0 for the empty graph)."""
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge uv is present."""
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def edges(self) -> Iterator["tuple[int, int]"]:
        """Iterate over edges in canonical ``(u, v)`` with ``u < v`` order."""
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> set["tuple[int, int]"]:
        """All edges as a set of canonical pairs."""
        return set(self.edges())

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def _touch(self, *rows: int) -> None:
        """Record a successful mutation of *rows*: bump the version, drop the
        fresh CSR snapshot (demoting it to a patch base) and track which
        adjacency rows diverge from that base so :meth:`freeze` can patch
        instead of rebuilding.  Once too many rows are dirty the base is
        dropped — a full rebuild is cheaper than a near-total patch."""
        self._version += 1
        if self._csr is not None:
            self._csr_base = self._csr
            self._csr_dirty = set()
            self._csr = None
        if self._csr_dirty is not None:
            self._csr_dirty.update(rows)
            if len(self._csr_dirty) > _patch_row_budget(self._n):
                self._csr_base = None
                self._csr_dirty = None

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge uv.  Returns ``True`` if the edge was new."""
        self._check(u)
        self._check(v)
        if u == v:
            raise GraphError(f"self-loop {u}-{v} not allowed")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1
        self._touch(u, v)
        return True

    def add_edges(self, edges: Iterable["tuple[int, int]"]) -> int:
        """Insert many edges; returns how many were new."""
        return sum(1 for u, v in edges if self.add_edge(u, v))

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge uv.  Returns ``True`` if it was present."""
        self._check(u)
        self._check(v)
        if v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1
        self._touch(u, v)
        return True

    def add_node(self) -> int:
        """Append a fresh isolated node and return its id (the new ``n-1``).

        Dense ids are preserved — the new node is always the largest id.
        The patch base is dropped (a snapshot of a smaller node set cannot
        be patched into one row more).
        """
        u = self._n
        self._n += 1
        self._adj.append(set())
        self._version += 1
        self._csr = None
        self._csr_base = None
        self._csr_dirty = None
        return u

    def add_nodes(self, count: int) -> range:
        """Append *count* isolated nodes; returns their id range."""
        if count < 0:
            raise GraphError(f"node count must be non-negative, got {count}")
        first = self._n
        for _ in range(count):
            self.add_node()
        return range(first, self._n)

    def remove_node(self, u: int) -> int:
        """Isolate node *u*: delete every incident edge, keep the id space.

        Returns the number of edges removed.  Ids are never re-indexed (the
        convention of :func:`repro.graph.ops.remove_nodes`), so bookkeeping
        indexed by node id stays valid across churn — an isolated id may be
        re-populated later by :meth:`add_edge`.
        """
        self._check(u)
        nbrs = self._adj[u]
        if not nbrs:
            return 0
        for v in nbrs:
            self._adj[v].discard(u)
        removed = len(nbrs)
        self._m -= removed
        self._touch(u, *nbrs)
        self._adj[u] = set()
        return removed

    # ------------------------------------------------------------------ #
    # derived constructions
    # ------------------------------------------------------------------ #

    def freeze(self):
        """The CSR snapshot of the current adjacency (cached until mutation).

        Returns a :class:`~repro.graph.csr.CSRGraph` sharing nothing with
        ``self``.  While the snapshot is fresh (no mutation since), the BFS
        primitives in :mod:`repro.graph.traversal` automatically route
        through it — so per-node loops pay the O(n + m) conversion once.

        **Delta-aware re-freeze.**  When the graph was mutated in only a few
        adjacency rows since the previous snapshot, the new snapshot is
        built by :meth:`CSRGraph.patched <repro.graph.csr.CSRGraph.patched>`
        — bulk-copying the unchanged row spans and re-sorting only the dirty
        rows — instead of re-sorting the whole adjacency.  This is what
        makes freeze-per-event affordable for the dynamic-graph subsystem
        (:mod:`repro.dynamic`).  The result is bit-identical to a full
        rebuild (property-tested).

        >>> g = Graph(3, [(0, 1), (1, 2)])
        >>> g.freeze() is g.freeze()          # cached
        True
        >>> _ = g.add_edge(0, 2)              # mutation invalidates
        >>> g.freeze().has_edge(0, 2)
        True
        """
        if self._csr is None:
            from .csr import CSRGraph

            if self._csr_base is not None and self._csr_dirty:
                self._csr = CSRGraph.patched(self._csr_base, self, self._csr_dirty)
                self._csr_base = None
                self._csr_dirty = None
            else:
                self._csr = CSRGraph.from_graph(self)
        return self._csr

    def copy(self) -> "Graph":
        """Deep copy."""
        g = Graph(self._n)
        g._adj = [set(a) for a in self._adj]
        g._m = self._m
        return g

    def spanning_subgraph(self, edges: Iterable["tuple[int, int]"]) -> "Graph":
        """Sub-graph on the *same node set* containing only *edges*.

        Every edge must exist in ``self``; this is the ``V(H) = V(G)``
        sub-graph constructor used for spanners.
        """
        h = Graph(self._n)
        for u, v in edges:
            if not self.has_edge(u, v):
                raise GraphError(f"edge {(u, v)} not present in parent graph")
            h.add_edge(u, v)
        return h

    def is_spanning_subgraph_of(self, other: "Graph") -> bool:
        """Whether ``self`` has the same node set and only edges of *other*."""
        if self._n != other._n:
            return False
        return all(self._adj[u] <= other._adj[u] for u in range(self._n))

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    def __contains__(self, u: object) -> bool:
        return isinstance(u, int) and 0 <= u < self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, m={self._m})"

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _check(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise NodeNotFound(u, self._n)
