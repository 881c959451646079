"""The augmented graph :math:`H_u` — the heart of the remote-spanner notion.

Given the advertised sub-graph ``H`` and the full graph ``G``, node *u*
routes on :math:`H_u`, the graph with edge set
:math:`E(H) \\cup \\{uv \\mid v \\in N_G(u)\\}` (paper §1).  The stretch of a
remote-spanner is defined through distances *in this augmented view*, so the
library gives it first-class support.

:class:`AugmentedView` exposes ``neighbors``/BFS without materializing a new
graph: only node *u*'s adjacency differs from ``H`` (and symmetric entries
for members of ``N_G(u)``).  Distance queries on :math:`H_u` are a single
BFS, so verifying a remote-spanner costs one BFS per source node — the same
as regular spanner verification.
"""

from __future__ import annotations

from ..errors import NodeNotFound, NotASubgraphError
from .graph import Graph

__all__ = ["AugmentedView", "augmented_graph", "augmented_distances"]


class AugmentedView:
    """Read-only view of :math:`H_u` for a fixed source node *u*.

    Parameters
    ----------
    h:
        The advertised sub-graph ``H`` (``V(H) = V(G)``).
    g:
        The full topology ``G``; supplies ``N_G(u)``.
    u:
        The source node whose incident edges are grafted onto ``H``.

    Notes
    -----
    ``neighbors(x)`` allocates a fresh set only for *u* itself and for the
    members of ``N_G(u)`` that are not already ``H``-adjacent to them; other
    nodes get the live ``H`` adjacency (read-only by library convention).
    """

    __slots__ = ("_h", "_g", "_u", "_extra")

    def __init__(self, h: Graph, g: Graph, u: int) -> None:
        if h.num_nodes != g.num_nodes:
            raise NotASubgraphError(
                f"H has {h.num_nodes} nodes but G has {g.num_nodes}; V(H) must equal V(G)"
            )
        if not (0 <= u < g.num_nodes):
            raise NodeNotFound(u, g.num_nodes)
        self._h = h
        self._g = g
        self._u = u
        # Neighbors of u in G that H does not already connect to u.
        self._extra = g.neighbors(u) - h.neighbors(u)

    @property
    def num_nodes(self) -> int:
        return self._h.num_nodes

    @property
    def source(self) -> int:
        """The augmentation node *u*."""
        return self._u

    def _check(self, x: int) -> None:
        """Node-range check (graph-protocol parity with :class:`Graph`)."""
        if not (0 <= x < self.num_nodes):
            raise NodeNotFound(x, self.num_nodes)

    def neighbors(self, x: int) -> set[int]:
        """``N_{H_u}(x)``."""
        if x == self._u:
            if not self._extra:
                return self._h.neighbors(x)
            return self._h.neighbors(x) | self._extra
        if x in self._extra:
            return self._h.neighbors(x) | {self._u}
        return self._h.neighbors(x)

    def has_edge(self, x: int, y: int) -> bool:
        if self._h.has_edge(x, y):
            return True
        if x == self._u:
            return y in self._extra
        if y == self._u:
            return x in self._extra
        return False

    def distances_from(self, source: int, cutoff: "int | None" = None) -> list[int]:
        """BFS distances in :math:`H_u` from *source* (``-1`` = unreachable).

        When *source* is the augmentation node *u* itself (the case every
        stretch predicate hits, once per node of G) and ``H`` carries a
        fresh CSR snapshot, the BFS runs on the flat arrays: level 1 is
        seeded with ``N_{H_u}(u)`` directly and the remaining expansion
        never needs the grafted edges (they all lead back to *u*, already
        settled at distance 0).  Freeze ``H`` once before a per-node
        verification loop to enable this path.
        """
        from . import traversal

        if (
            source == self._u
            and isinstance(self._h, Graph)
            and self._h._csr is not None
            and self._h.num_nodes >= traversal._AUTO_MIN_NODES
        ):
            return self._csr_distances_from_u(cutoff)
        n = self.num_nodes
        dist = [-1] * n
        dist[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            if cutoff is not None and d >= cutoff:
                break
            nxt: list[int] = []
            d += 1
            for x in frontier:
                for y in self.neighbors(x):
                    if dist[y] == -1:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        return dist

    def freeze(self):
        """Materialize :math:`H_u` as an immutable CSR snapshot.

        Only node *u*'s adjacency row and the rows of its grafted
        neighbors ``N_G(u) \\ N_H(u)`` differ from ``H``, so the snapshot
        is built by patching H's own frozen snapshot
        (:meth:`CSRGraph.patched <repro.graph.csr.CSRGraph.patched>`):
        O(deg_G(u)) row re-sorts plus bulk span copies instead of a full
        O(n + m) conversion.  When nothing is grafted the result *is* H's
        snapshot.  This is what lets per-node BFS loops over :math:`H_u`
        (the routing-table kernel in :mod:`repro.routing.tables`) run on
        the batched flat-array engine.
        """
        from .csr import CSRGraph

        base = self._h.freeze() if isinstance(self._h, Graph) else CSRGraph.from_graph(self._h)
        if not self._extra:
            return base
        return CSRGraph.patched(base, self, {self._u, *self._extra})

    def _csr_distances_from_u(self, cutoff: "int | None") -> list[int]:
        """Flat-array BFS from *u* on H's fresh CSR snapshot."""
        import numpy as np

        from .traversal import UNREACHED, _expand_levels

        csr = self._h._csr
        dist = np.full(csr.num_nodes, UNREACHED, dtype=np.int32)
        dist[self._u] = 0
        if cutoff is not None and cutoff < 1:
            return dist.tolist()
        level1 = self._h.neighbors(self._u) | self._extra
        frontier = list(level1)
        dist[frontier] = 1
        _expand_levels(csr, dist, frontier, 1, cutoff, None)
        return dist.tolist()


def augmented_graph(h: Graph, g: Graph, u: int) -> Graph:
    """Materialize :math:`H_u` as a standalone :class:`~repro.graph.Graph`.

    Used where an algorithm needs full graph machinery (e.g. disjoint-path
    flow computations in :math:`H_s`); for plain distance queries prefer
    :class:`AugmentedView`.
    """
    AugmentedView(h, g, u)  # validates V(H) = V(G) and node range
    out = h.copy()
    for v in g.neighbors(u):
        out.add_edge(u, v)
    return out


def augmented_distances(h: Graph, g: Graph, u: int, cutoff: "int | None" = None) -> list[int]:
    """Distances from *u* in :math:`H_u` — the quantity α·d_G(u,v)+β bounds."""
    return AugmentedView(h, g, u).distances_from(u, cutoff=cutoff)
