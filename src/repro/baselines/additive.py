"""Additive (1, 2)-spanner (Aingworth–Chekuri–Indyk–Motwani style).

Representative of the ``(k, k−1)``-spanner family of Table 1's row 2
(Baswana–Kavitha–Mehlhorn–Pettie [2]) at its smallest instantiation: a
purely additive surplus of 2 with ``O(n^{3/2})``-ish edges.  Construction:

* keep **every** edge incident to a low-degree vertex (degree < threshold,
  default ``√n``);
* greedily pick a dominating set D for the high-degree vertices (their
  closed neighborhoods as the cover sets — size ``O((n/θ)·log n)``);
* add a full BFS tree from every dominator.

Stretch argument: a shortest u-v path either consists of low-degree
vertices only (all its edges survive) or contains a high-degree vertex w;
w's dominator d sees both endpoints at ``d(u,d) ≤ d(u,w)+1`` and
``d(d,v) ≤ 1+d(w,v)``, so the two BFS-tree paths give ``d(u,v)+2``.

Per §1.2 of the paper, a (1, 2)-spanner is automatically a (1, 2)-remote-
spanner — the comparison the additive row of the bench table draws.
"""

from __future__ import annotations

import math

from ..errors import ParameterError
from ..graph import Graph
from ..graph.traversal import bfs_parents
from ..setcover import SetCoverInstance, greedy_set_cover

__all__ = ["additive_two_spanner", "dominating_set_for"]


def dominating_set_for(g: Graph, targets: "set[int]") -> list[int]:
    """Greedy dominating set for *targets* using closed neighborhoods."""
    if not targets:
        return []
    sets = {
        x: frozenset((g.neighbors(x) | {x}) & targets)
        for x in g.nodes()
        if (g.neighbors(x) | {x}) & targets
    }
    inst = SetCoverInstance.from_sets(sets, universe=targets)
    return list(greedy_set_cover(inst))


def additive_two_spanner(g: Graph, degree_threshold: "int | None" = None) -> Graph:
    """A (1, 2)-additive spanner with ``O(n^{3/2} log n)`` edges."""
    n = g.num_nodes
    if degree_threshold is None:
        degree_threshold = max(1, math.isqrt(n))
    if degree_threshold < 1:
        raise ParameterError(f"degree threshold must be ≥ 1, got {degree_threshold}")
    h = Graph(n)
    high = {v for v in g.nodes() if g.degree(v) >= degree_threshold}
    # All edges with a low-degree endpoint.
    for u, v in g.edges():
        if u not in high or v not in high:
            h.add_edge(u, v)
    # Canonical BFS trees from a dominating set of the high-degree vertices,
    # each on the frozen snapshot's flat arrays.
    csr = g.freeze()
    for d in dominating_set_for(g, high):
        _dist, parent = bfs_parents(csr, d)
        for v in g.nodes():
            p = parent[v]
            if p >= 0 and p != v:
                h.add_edge(v, p)
    return h
