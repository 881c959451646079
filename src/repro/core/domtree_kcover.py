"""Algorithm 4 — ``DomTreeGdy_{2,0,k}(u)``: k-coverage multipoint relays.

Builds a k-connecting (2, 0)-dominating tree: a depth-1 star ``{ux : x ∈ M}``
where ``M ⊆ N(u)`` covers every node at distance 2 from *u* at least k
times (or as many times as its common-neighborhood allows — the definition's
"``uw ∈ E(T)`` for all ``w ∈ N(u) ∩ N(v)``" escape clause).

This is exactly the *k-coverage multipoint relay* selection of OLSR
[4, 5] — the paper's observation is that the union of these stars over all
nodes forms a k-connecting (1, 0)-remote-spanner (Proposition 5 /
Theorem 2), a fact never proved in the MPR literature.

Guarantee (Proposition 6): ``|M|`` is within ``1 + log Δ`` of the optimal
k-connecting (2, 0)-dominating tree, by the Dobson/Wolsey analysis of
greedy multicover [12, 26].

The greedy gain is the paper's literal ``|B_G(x, 1) ∩ S|`` where S holds
the *not yet fully covered* distance-2 nodes (subtly different from the
residual-demand gain of :func:`repro.setcover.greedy_multicover`; both have
the same guarantee, we reproduce the paper's rule).  Ties break on smallest
node id.

Each tree is a local computation over a bounded probe set — u's 2-hop
ball — so the greedy runs on bitmasks of that set: the 2-ring is numbered
locally and each candidate carries one Python-int mask of its 2-ring
neighbours, so a gain is one ``&`` and one ``bit_count``.
"""

from __future__ import annotations

from ..errors import ParameterError
from ..graph import Graph
from .domtree import DomTree

__all__ = ["dom_tree_kcover", "mpr_set"]


def dom_tree_kcover(g: Graph, u: int, k: int) -> DomTree:
    """Compute a k-connecting (2, 0)-dominating tree for *u* (Algorithm 4).

    The paper's greedy on bitmasks of u's 2-ring:

    * each candidate ``x ∈ N(u)``, in sorted order, holds ``mask[x]`` =
      ``N(x) ∩ ring``; its gain ``|N(x) ∩ S|`` is
      ``(mask[x] & S).bit_count()``, and a strict ``>`` over the sorted
      candidates keeps the smallest-id tie-break;
    * coverage is k bit-sliced counters, ``cover[j]`` = the nodes covered
      at least j times; picking m sets ``cover[j] |= cover[j-1] & m`` from
      j = k down, and S loses ``cover[k]``;
    * the paper's other removal rule, ``N(v) ∩ N(u) ⊆ M``, says v is in
      no unpicked mask.  Such a v adds to no remaining gain, so it needs
      no bit of its own: the greedy stops when the best gain is 0, which
      is exactly when S under both rules is empty.

    A candidate whose gain reaches 0 never gains again (S only shrinks),
    so each scan drops it.  Output is the same parent map, in the same
    pick order, as the set-based greedy kept as the test reference.
    """
    if k < 1:
        raise ParameterError(f"k must be ≥ 1, got {k}")
    g._check(u)
    nbrs = g.neighbors
    nu = nbrs(u)
    outside = nu | {u}  # everything not in the 2-ring
    bit: dict[int, int] = {}  # 2-ring node -> its local bit
    live: list[tuple[int, int]] = []
    for x in sorted(nu):
        m = 0
        for v in nbrs(x) - outside:
            b = bit.get(v)
            if b is None:
                b = bit[v] = 1 << len(bit)
            m |= b
        if m:
            live.append((x, m))

    tree = DomTree(root=u)
    parent = tree.parent
    s = (1 << len(bit)) - 1
    cover = [s] + [0] * k
    while live:
        best_x = best_m = best_gain = 0
        keep = []
        for x, m in live:
            gx = (m & s).bit_count()
            if gx:
                keep.append((x, m))
                if gx > best_gain:
                    best_gain, best_x, best_m = gx, x, m
        if not best_gain:
            break
        parent[best_x] = u
        keep.remove((best_x, best_m))
        live = keep
        for j in range(k, 0, -1):
            cover[j] |= cover[j - 1] & best_m
        s &= ~cover[k]
    return tree


def mpr_set(g: Graph, u: int, k: int = 1) -> set[int]:
    """The multipoint-relay set ``M ⊆ N(u)`` selected by Algorithm 4.

    ``k = 1`` is the classical OLSR MPR selection [15, 4]; larger k is the
    k-coverage extension [5].  Exposed separately because the routing and
    flooding experiments consume the relay sets directly.
    """
    tree = dom_tree_kcover(g, u, k)
    return tree.nodes() - {u}
