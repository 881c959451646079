"""Compressed-sparse-row adjacency backend — the immutable fast twin of
:class:`~repro.graph.graph.Graph`.

Every construction in the paper reduces to repeated BFS balls and rings, so
traversal is the hot path.  The mutable set-based :class:`Graph` is the
right representation while a spanner is being *assembled* (``N(x) & S``
algebra, cheap edge insertion), but its per-node Python sets are slow to
scan.  :class:`CSRGraph` snapshots the adjacency into two flat
``array('i')`` buffers:

* ``indptr`` — ``n + 1`` row offsets;
* ``indices`` — the ``2m`` neighbor ids, sorted ascending within each row
  (the canonical order :func:`~repro.graph.traversal.bfs_parents` relies
  on).

The flat layout enables three access styles, all used by
:mod:`repro.graph.traversal`:

* ``neighbors_csr(u)`` — a zero-copy :class:`memoryview` slice of the row,
  for pure-Python scanning without building sets;
* ``numpy_arrays()`` — zero-copy :mod:`numpy` views for the vectorized
  level-synchronous BFS engines (:func:`~repro.graph.traversal.batched_bfs`);
* ``neighbors(u)`` — a *fresh* set per call, so existing set-algebra
  callers keep working unchanged (contrast with ``Graph.neighbors``, which
  returns its live internal set).

Obtain one with :meth:`Graph.freeze` (cached, invalidated on mutation) or
:meth:`CSRGraph.from_graph` (always rebuilds).  A ``CSRGraph`` is
immutable.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Iterable, Iterator

import numpy as np

from ..errors import NodeNotFound

if TYPE_CHECKING:  # pragma: no cover - import cycles broken at runtime
    from ..parallel.shm import SharedCSR
    from .graph import Graph

__all__ = ["CSRGraph"]


class CSRGraph:
    """Immutable undirected graph in compressed-sparse-row form.

    Supports the read-only subset of the :class:`~repro.graph.graph.Graph`
    protocol (``num_nodes``, ``num_edges``, ``nodes``, ``neighbors``,
    ``degree``, ``has_edge``, ``edges``, ``edge_set``) plus the flat-array
    accessors the traversal engines consume.  Build via
    :meth:`from_graph` / :meth:`Graph.freeze`.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> c = Graph(4, [(0, 1), (1, 2), (2, 3)]).freeze()
    >>> list(c.neighbors_csr(1))
    [0, 2]
    >>> c.edge_set() == {(0, 1), (1, 2), (2, 3)}
    True
    """

    __slots__ = (
        "_n",
        "_m",
        "_indptr",
        "_indices",
        "_np_indptr",
        "_np_indices",
        "_pin",
    )

    # ``_indptr``/``_indices`` are ``array('i')`` buffers on a private
    # snapshot but shared numpy views on an attached one — both sides of
    # that union support the slicing/bisect protocol the accessors use,
    # which a static union type cannot express cleanly; hence ``Any``.
    _n: int
    _m: int
    _indptr: Any
    _indices: Any
    _np_indptr: np.ndarray
    _np_indices: np.ndarray
    _pin: Any

    def __init__(self, n: int, indptr: array, indices: array) -> None:
        if len(indptr) != n + 1:
            raise ValueError(f"indptr must have n+1 = {n + 1} entries, got {len(indptr)}")
        self._n = n
        self._m = len(indices) // 2
        self._indptr = indptr
        self._indices = indices
        # Zero-copy numpy views over the same buffers, for the vectorized
        # BFS engines.  int64 indptr avoids overflow in offset arithmetic.
        self._np_indptr = np.frombuffer(indptr, dtype=np.intc).astype(np.int64)
        self._np_indices = (
            np.frombuffer(indices, dtype=np.intc)
            if len(indices)
            else np.empty(0, dtype=np.intc)
        )
        self._pin = None  # keeps a shared-memory attachment alive (repro.parallel)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(cls, g: Any) -> "CSRGraph":
        """Snapshot any graph-like object (``num_nodes`` + ``neighbors``).

        Rows are sorted ascending, so ``neighbors_csr`` yields the same
        canonical order ``sorted(g.neighbors(u))`` the deterministic
        constructions expand in.  Prefer :meth:`Graph.freeze`, which caches
        the snapshot until the next mutation.
        """
        n = g.num_nodes
        flat: list[int] = []
        indptr = array("i", [0]) * (n + 1)
        for u in range(n):
            nbrs = sorted(g.neighbors(u))
            flat.extend(nbrs)
            indptr[u + 1] = len(flat)
        return cls(n, indptr, array("i", flat))

    @classmethod
    def _from_flat(cls, n: int, np_indptr: "np.ndarray", np_indices: "np.ndarray") -> "CSRGraph":
        """Build from numpy buffers via a C memcpy into the ``array('i')`` twins."""
        indptr = array("i")
        indptr.frombytes(np.ascontiguousarray(np_indptr, dtype=np.intc).tobytes())
        indices = array("i")
        indices.frombytes(np.ascontiguousarray(np_indices, dtype=np.intc).tobytes())
        return cls(n, indptr, indices)

    @classmethod
    def patched(cls, base: "CSRGraph", g: Any, changed: "Iterable[int]") -> "CSRGraph":
        """Snapshot *g* by patching the prior snapshot *base*.

        *changed* are the node ids whose adjacency may differ between
        *base* and *g*; every other row is bulk-copied from the base buffers
        (one vectorized span copy per run of clean rows) and only the dirty
        rows are re-sorted from the live sets.  With *k* dirty rows this
        costs O(k) Python work plus O(n + m) C memcpy — the delta-aware
        re-freeze behind :meth:`Graph.freeze <repro.graph.graph.Graph.\
freeze>` for the dynamic-graph workloads.

        The result is bit-identical to ``from_graph(g)`` (property-tested);
        *base* is never mutated.  Falls back to a full rebuild when the node
        counts disagree.
        """
        n = g.num_nodes
        if n != base._n:
            return cls.from_graph(g)
        dirty = sorted(set(changed))
        if dirty and not (0 <= dirty[0] and dirty[-1] < n):
            raise NodeNotFound(dirty[0] if dirty[0] < 0 else dirty[-1], n)
        if not dirty:
            return base
        base_indptr, base_indices = base._np_indptr, base._np_indices
        deg = (base_indptr[1:] - base_indptr[:-1]).copy()
        rows = {u: sorted(g.neighbors(u)) for u in dirty}
        for u, row in rows.items():
            deg[u] = len(row)
        new_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=new_indptr[1:])
        new_indices = np.empty(int(new_indptr[-1]), dtype=np.intc)
        prev = 0  # first row of the current clean span
        for u in dirty:
            if prev < u:
                new_indices[new_indptr[prev] : new_indptr[u]] = base_indices[
                    base_indptr[prev] : base_indptr[u]
                ]
            row = rows[u]
            if row:
                new_indices[new_indptr[u] : new_indptr[u + 1]] = row
            prev = u + 1
        if prev < n:
            new_indices[new_indptr[prev] :] = base_indices[base_indptr[prev] :]
        return cls._from_flat(n, new_indptr, new_indices)

    def to_graph(self) -> "Graph":
        """Thaw back into a mutable set-based :class:`Graph`."""
        from .graph import Graph

        return Graph(self._n, self.edges())

    # ------------------------------------------------------------------ #
    # shared-memory export (repro.parallel)
    # ------------------------------------------------------------------ #

    def share(self) -> "SharedCSR":
        """Export this snapshot into :mod:`multiprocessing.shared_memory`.

        Returns a :class:`~repro.parallel.shm.SharedCSR` owner whose
        picklable ``handle`` lets worker processes :meth:`attach` with
        zero copies — the workers' numpy views alias the very same shared
        buffers.  Later snapshots are shipped whole into the same blocks
        (:meth:`SharedCSR.publish <repro.parallel.shm.SharedCSR.publish>`);
        ~25% capacity headroom lets churn grow the graph without
        reallocating them.
        """
        from ..parallel.shm import SharedCSR

        return SharedCSR(self)

    @classmethod
    def attach(cls, handle: Any) -> "CSRGraph":
        """Materialize a shared snapshot exported by :meth:`share`.

        *handle* is a :class:`~repro.parallel.shm.SharedCSRHandle` (or the
        worker-side attachment that carries one).  The returned graph's
        flat arrays are **zero-copy views into the shared blocks** — no
        bytes move; the attaching process must keep the underlying
        attachment open for the graph's lifetime (the worker pool does this
        bookkeeping automatically).
        """
        from ..parallel.shm import attach_csr

        return attach_csr(handle)

    @classmethod
    def _wrap_views(cls, n: int, np_indptr: "np.ndarray", np_indices: "np.ndarray") -> "CSRGraph":
        """Build a graph around existing int64/int32 views without copying.

        The zero-copy twin of ``__init__`` used by :meth:`attach`: the
        python-level accessors index the numpy views directly (memoryview
        slicing and :func:`bisect.bisect_left` accept them), so shared and
        private snapshots behave identically everywhere.
        """
        self = cls.__new__(cls)
        self._n = n
        self._m = len(np_indices) // 2
        self._indptr = np_indptr
        self._indices = np_indices
        self._np_indptr = np_indptr
        self._np_indices = np_indices
        self._pin = None
        return self

    # ------------------------------------------------------------------ #
    # Graph protocol (read-only subset)
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._m

    def nodes(self) -> range:
        return range(self._n)

    def neighbors(self, u: int) -> "set[int]":
        """``N(u)`` as a **fresh** set (allocated per call).

        Unlike ``Graph.neighbors`` there is no live internal set to share;
        set-algebra callers work unchanged but pay one allocation.  Hot
        loops should use :meth:`neighbors_csr` instead.
        """
        self._check(u)
        # .tolist() exists on both the array('i') buffer and the numpy view
        # of a shared snapshot, and yields plain ints in either case.
        return set(self._indices[self._indptr[u] : self._indptr[u + 1]].tolist())

    def neighbors_csr(self, u: int) -> memoryview:
        """``N(u)`` as a zero-copy sorted ``memoryview`` slice.

        The public form of the flat-row access style; the traversal
        engines inline the same slicing over one shared memoryview to
        avoid per-node method-call overhead.
        """
        self._check(u)
        return memoryview(self._indices)[self._indptr[u] : self._indptr[u + 1]]

    def numpy_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(indptr, indices)`` numpy views (int64 offsets, int32 ids)."""
        return self._np_indptr, self._np_indices

    def degree(self, u: int) -> int:
        self._check(u)
        return self._indptr[u + 1] - self._indptr[u]

    def max_degree(self) -> int:
        if self._n == 0:
            return 0
        return int((self._np_indptr[1:] - self._np_indptr[:-1]).max())

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test by binary search in the sorted row of *u*."""
        self._check(u)
        self._check(v)
        lo, hi = self._indptr[u], self._indptr[u + 1]
        pos = bisect_left(self._indices, v, lo, hi)
        return pos < hi and self._indices[pos] == v

    def edges(self) -> Iterator["tuple[int, int]"]:
        indptr, indices = self._indptr, self._indices
        for u in range(self._n):
            for i in range(indptr[u], indptr[u + 1]):
                v = indices[i]
                if u < v:
                    yield (u, v)

    def edge_set(self) -> set["tuple[int, int]"]:
        return set(self.edges())

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    def __contains__(self, u: object) -> bool:
        return isinstance(u, int) and 0 <= u < self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        # Compare through the numpy views so private (array-backed) and
        # shared (view-backed) snapshots are mutually comparable.
        return (
            self._n == other._n
            and np.array_equal(self._np_indptr, other._np_indptr)
            and np.array_equal(self._np_indices, other._np_indices)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self._n}, m={self._m})"

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _check(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise NodeNotFound(u, self._n)
