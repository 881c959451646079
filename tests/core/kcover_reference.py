"""Set-based Algorithm 4: the test reference for ``dom_tree_kcover``.

The library greedy runs on bitmasks of u's 2-ring.  This is the same
greedy in the paper's own terms — Python sets, one gain counter per
candidate, the S-removal rule "``N(v) ∩ N(u) ⊆ M`` or ``|N(v) ∩ M| ≥ k``"
kept as explicit ``cov``/``avail`` counts — so the two share no code and
equal output is a meaningful check.  ``benchmarks/test_bench_construction.py``
times the library kernel against it.
"""

from __future__ import annotations

from repro.core.domtree import DomTree
from repro.errors import ParameterError
from repro.graph import Graph
from repro.graph.traversal import bfs_layers


def reference_kcover(g: Graph, u: int, k: int) -> DomTree:
    """Algorithm 4 on sets: per candidate ``gain[x] = |N(x) ∩ S|``; per
    2-ring node its coverage ``cov[v] = |N(v) ∩ M|`` and its still
    available common neighbours ``avail[v] = |N(v) ∩ N(u) \\ M|``.  A
    node leaves S when ``avail[v] == 0`` or ``cov[v] ≥ k``, and its
    removal decrements the gains of its candidate neighbours.  Ties break
    on the smallest id."""
    if k < 1:
        raise ParameterError(f"k must be ≥ 1, got {k}")
    layers = bfs_layers(g, u, cutoff=2)
    two_ring = set(layers[2]) if len(layers) > 2 else set()
    nu = g.neighbors(u)

    tree = DomTree(root=u)
    if not two_ring:
        return tree
    in_s: dict[int, bool] = {v: True for v in two_ring}
    cov = {v: 0 for v in two_ring}
    avail = {v: len(g.neighbors(v) & nu) for v in two_ring}
    candidates = sorted(nu)
    gain = {x: len(g.neighbors(x) & two_ring) for x in candidates}
    picked: set[int] = set()
    s_size = len(two_ring)
    while s_size > 0:
        best_x = -1
        best_gain = 0
        for x in candidates:
            if x in picked:
                continue
            gx = gain[x]
            if gx > best_gain:
                best_gain = gx
                best_x = x
        if best_x < 0:
            raise AssertionError("uncoverable 2-ring: inconsistent input graph")
        picked.add(best_x)
        tree.add_root_path([u, best_x])
        removed: list[int] = []
        for v in g.neighbors(best_x):
            if v not in in_s:
                continue
            if in_s[v]:
                cov[v] += 1
                avail[v] -= 1
                if cov[v] >= k or avail[v] == 0:
                    in_s[v] = False
                    removed.append(v)
            else:
                avail[v] -= 1
        for v in removed:
            s_size -= 1
            for x in g.neighbors(v) & nu:
                if x in gain:
                    gain[x] -= 1
    return tree
