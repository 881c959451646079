"""All-pairs and aggregate distance utilities.

Used by the verification predicates (stretch certification needs distances
in ``G`` and in every ``H_u``) and by the experiment harnesses (diameter
controls the sweep ranges; pair sampling keeps large-n checks tractable).
"""

from __future__ import annotations

import numpy as np

from ..rng import ensure_rng
from .graph import Graph
from .traversal import batched_bfs, bfs_distances, connected_components

__all__ = [
    "all_pairs_distances",
    "eccentricity",
    "diameter",
    "distance_matrix",
    "sample_pairs",
    "nonadjacent_pairs",
]


def all_pairs_distances(g: Graph) -> list[list[int]]:
    """APSP by n batched BFS runs; ``dist[u][v] == -1`` when unreachable.

    O(n·m) — fine for the n ≤ a few thousand graphs of the experiments.
    Runs on the CSR backend via :func:`~repro.graph.traversal.batched_bfs`.
    """
    return [dist for _u, dist in batched_bfs(g)]


def distance_matrix(g: Graph) -> np.ndarray:
    """APSP as an ``(n, n)`` int32 numpy array (``-1`` = unreachable)."""
    n = g.num_nodes
    out = np.empty((n, n), dtype=np.int32)
    for u, dist in batched_bfs(g, arrays=True):
        out[u] = dist
    return out


def eccentricity(g: Graph, u: int) -> int:
    """Max distance from *u* to any reachable node."""
    return max(d for d in bfs_distances(g, u) if d >= 0)


def diameter(g: Graph) -> int:
    """Diameter of the (assumed connected) graph; 0 for n ≤ 1."""
    if g.num_nodes <= 1:
        return 0
    best = 0
    for _u, dist in batched_bfs(g):
        best = max(best, max(d for d in dist if d >= 0))
    return best


def nonadjacent_pairs(g: Graph) -> list["tuple[int, int]"]:
    """All unordered node pairs that are *not* edges (and are distinct).

    These are exactly the pairs the remote-spanner stretch condition
    constrains (adjacent pairs trivially satisfy it through ``H_u``).
    """
    n = g.num_nodes
    return [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]


def sample_pairs(
    g: Graph,
    count: int,
    seed: "int | np.random.Generator | None" = None,
    require_nonadjacent: bool = True,
    require_connected: bool = True,
) -> list["tuple[int, int]"]:
    """Sample up to *count* distinct node pairs, optionally non-adjacent.

    ``require_connected`` drops pairs with no path in ``G``, i.e. pairs in
    different connected components (checked by component label).  Sampling
    is rejection-based with a deterministic fallback to full enumeration
    when the graph is small or very dense, so it always terminates.
    """
    rng = ensure_rng(seed)
    n = g.num_nodes
    if n < 2:
        return []
    label: list[int] = []
    if require_connected:
        label = [0] * n
        for i, comp in enumerate(connected_components(g)):
            for v in comp:
                label[v] = i
    # Dense/small graphs: enumerate and choose.
    if n * (n - 1) // 2 <= 4 * count or n <= 64:
        pool = nonadjacent_pairs(g) if require_nonadjacent else [
            (u, v) for u in range(n) for v in range(u + 1, n)
        ]
        if require_connected:
            pool = [(u, v) for u, v in pool if label[u] == label[v]]
        if len(pool) <= count:
            return pool
        idx = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in sorted(idx)]
    out: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = 50 * count
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if (u, v) in out:
            continue
        if require_nonadjacent and g.has_edge(u, v):
            continue
        if require_connected and label[u] != label[v]:
            continue
        out.add((u, v))
    return sorted(out)
