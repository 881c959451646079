"""Executable versions of the paper's §4 future-work directions.

Two constructions the concluding remarks sketch without proof, built so
the benches can probe them empirically:

1. **Edge-connecting remote-spanners.**  "It seems possible to extend our
   results to edge-connectivity."  The *naive* transfer — reuse Algorithm
   4's union as a k-edge-connecting (1, 0)-remote-spanner — is **false**,
   and this repo's property tests found a 7-node counterexample (see
   :func:`edge_conjecture_counterexample`): two triangles hanging off a
   hub, where the optimal edge-disjoint family reuses the cut vertex and
   needs triangle edges that the node-disjoint coverage rules discard.
   The exchange argument of Lemma 2 genuinely uses node-disjointness; an
   edge-connectivity extension needs different dominating structures.
   :func:`is_k_edge_connecting_remote_spanner` checks the property
   exactly (flow-based, edge-disjoint d^k) so candidates can be evaluated;
   :func:`naive_edge_candidate_failure_rate` quantifies how often the
   naive candidate fails on random instances.

2. **k-connecting (1+ε, O(1))-remote-spanners.**  "An interesting followup
   resides in constructing sparse k-connecting (1+ε, O(1))-remote-spanners
   for any ε > 0 and k > 1."  :func:`build_k_connecting_eps_spanner`
   assembles the obvious candidate — the union of Theorem 1's
   (⌈1/ε⌉+1, 1)-dominating trees with Theorem 3's k-connecting (2, 1)
   trees — which inherits (1+ε, 1−2ε) plain stretch *by construction*
   (it contains a Theorem-1 spanner) while the k-connecting stretch is
   measured, not guaranteed.  :func:`evaluate_k_connecting_eps` reports
   the measured k-connecting ratios so experiments can chart how far the
   naive union is from the conjectured goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import NotASubgraphError, ParameterError
from ..graph import AugmentedView, Graph
from ..paths.edge_disjoint import k_edge_connecting_profile
from .remote_spanner import (
    RemoteSpanner,
    StretchGuarantee,
    build_from_trees,
    resolve_construction,
)

__all__ = [
    "is_k_edge_connecting_remote_spanner",
    "k_edge_connecting_violations",
    "build_edge_connecting_spanner",
    "edge_conjecture_counterexample",
    "naive_edge_candidate_failure_rate",
    "build_k_connecting_eps_spanner",
    "KConnectingEpsReport",
    "evaluate_k_connecting_eps",
]


# --------------------------------------------------------------------- #
# 1. edge-connectivity
# --------------------------------------------------------------------- #


def k_edge_connecting_violations(
    h: Graph,
    g: Graph,
    k: int,
    alpha: float,
    beta: float,
    pairs: "Sequence[tuple[int, int]] | None" = None,
) -> list:
    """Ordered pairs violating the *edge*-connecting stretch condition.

    The edge-disjoint analog of
    :func:`repro.core.stretch.k_connecting_violations_spanner`:
    for nonadjacent (s, t) and k' ≤ k with finite edge-disjoint
    :math:`d^{k'}_G`, require
    :math:`d^{k'}_{H_s} ≤ α·d^{k'}_G + k'·β` under edge-disjointness.
    """
    if k < 1:
        raise ParameterError(f"k must be ≥ 1, got {k}")
    if not h.is_spanning_subgraph_of(g):
        raise NotASubgraphError("H must be a spanning sub-graph of G")
    if pairs is None:
        n = g.num_nodes
        pairs = [
            (s, t) for s in range(n) for t in range(s + 1, n) if not g.has_edge(s, t)
        ]
    bad: list = []
    for s, t in pairs:
        if g.has_edge(s, t):
            continue
        profile_g = k_edge_connecting_profile(g, s, t, k)
        for src, dst in ((s, t), (t, s)):
            view = AugmentedView(h, g, src)
            profile_h = k_edge_connecting_profile(view, src, dst, k)
            for k_prime in range(1, k + 1):
                d_g = profile_g[k_prime - 1]
                if d_g == math.inf:
                    break
                d_h = profile_h[k_prime - 1]
                if d_h > alpha * d_g + k_prime * beta + 1e-9:
                    bad.append((src, dst, k_prime, d_g, d_h))
    return bad


def is_k_edge_connecting_remote_spanner(
    h: Graph,
    g: Graph,
    k: int,
    alpha: float,
    beta: float,
    pairs: "Sequence[tuple[int, int]] | None" = None,
) -> bool:
    """Exact check of the edge-connecting remote-spanner property."""
    return not k_edge_connecting_violations(h, g, k, alpha, beta, pairs)


def build_edge_connecting_spanner(g: Graph, k: int = 2) -> RemoteSpanner:
    """The NAIVE §4 edge-connectivity candidate: Algorithm 4's union.

    Identical edges to :func:`build_k_connecting_spanner`.  For k = 1 the
    edge- and node-disjoint conditions coincide, so the result is correct;
    for k ≥ 2 it is **not** an edge-connecting remote-spanner in general —
    see :func:`edge_conjecture_counterexample`.  Kept as the baseline the
    extension experiments measure failure rates against.
    """
    from .remote_spanner import build_k_connecting_spanner

    rs = build_k_connecting_spanner(g, k=k)
    return RemoteSpanner(
        graph=rs.graph,
        trees=rs.trees,
        guarantee=StretchGuarantee(1.0, 0.0, k),
        method=f"edge-connecting-candidate(k={k})",
    )


def edge_conjecture_counterexample() -> "tuple[Graph, RemoteSpanner, list]":
    """The 7-node refutation of the naive §4 edge-connectivity transfer.

    ``G`` is two triangles (2-3-4 and 4-5-6) hanging off hub 4 plus a
    pendant path 0-4 (and 0-1).  For the pair (2, 5):
    :math:`d^2_{edge,G}(2,5) = 6` via 2-4-5 and 2-3-4-6-5 — the two paths
    share node 4 but no edge.  Algorithm 4's union (k = 2) discards the
    triangle edges (2,3) and (5,6) because no *node-disjoint* distance-2
    requirement needs them, leaving :math:`d^2_{edge,H_2}(2,5) = ∞`.

    Returns ``(G, naive_spanner, violations)`` with violations non-empty.
    """
    g = Graph(7, [(0, 1), (0, 4), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)])
    rs = build_edge_connecting_spanner(g, k=2)
    viol = k_edge_connecting_violations(rs.graph, g, 2, 1.0, 0.0)
    return g, rs, viol


def naive_edge_candidate_failure_rate(
    graphs: "Sequence[Graph]", k: int = 2
) -> "tuple[int, int]":
    """``(failures, total)`` of the naive candidate over *graphs*."""
    failures = 0
    for g in graphs:
        rs = build_edge_connecting_spanner(g, k=k)
        if k_edge_connecting_violations(rs.graph, g, k, 1.0, 0.0):
            failures += 1
    return failures, len(graphs)


# --------------------------------------------------------------------- #
# 2. k-connecting (1+ε, O(1)) candidate
# --------------------------------------------------------------------- #


def build_k_connecting_eps_spanner(g: Graph, k: int, epsilon: float) -> RemoteSpanner:
    """The naive union candidate for §4's k-connecting (1+ε, O(1)) goal.

    Per node: a (⌈1/ε⌉+1, 1)-dominating tree (Theorem 1's ingredient —
    certifies plain stretch (1+ε', 1−2ε')) unioned with a k-connecting
    (2, 1)-dominating tree (Theorem 3's ingredient — certifies
    k'-connectivity preservation locally).  The k-connecting *stretch* of
    the union is an open question; :func:`evaluate_k_connecting_eps`
    measures it.
    """
    eps_trees = resolve_construction("mis", epsilon=epsilon)
    eps_tree, k_tree_fn = eps_trees.tree_fn, resolve_construction("kmis", k=k).tree_fn

    def both_trees(graph: Graph, u: int):
        tree = eps_tree(graph, u)
        k_tree = k_tree_fn(graph, u)
        # Merge the k-tree into the ε-tree's parent map where compatible;
        # nodes already present keep their (shallower or equal) parents.
        for path_node in k_tree.nodes() - tree.nodes():
            root_path = list(reversed(k_tree.path_to_root(path_node)))
            tree.add_root_path(root_path)
        return tree

    guarantee = replace(eps_trees.guarantee, k=k)
    return build_from_trees(
        g, both_trees, guarantee, method=f"kconn-eps-candidate(k={k}, r={eps_trees.r})"
    )


@dataclass
class KConnectingEpsReport:
    """Measured behaviour of the §4 candidate construction."""

    edges: int
    plain_stretch_ok: bool  # the guaranteed part
    max_kconn_ratio: float  # measured d^k ratio (no guarantee)
    kconn_additive_worst: float  # worst d^k_H − (1+ε)·d^k_G
    pairs_checked: int


def evaluate_k_connecting_eps(
    g: Graph,
    k: int,
    epsilon: float,
    pairs: "Sequence[tuple[int, int]] | None" = None,
) -> KConnectingEpsReport:
    """Build the §4 candidate and measure its k-connecting behaviour."""
    from ..paths import k_connecting_profile
    from .stretch import is_remote_spanner

    rs = build_k_connecting_eps_spanner(g, k, epsilon)
    plain_ok = is_remote_spanner(rs.graph, g, rs.guarantee.alpha, rs.guarantee.beta)
    if pairs is None:
        n = g.num_nodes
        pairs = [
            (s, t) for s in range(n) for t in range(s + 1, n) if not g.has_edge(s, t)
        ]
    worst_ratio = 0.0
    worst_add = -math.inf
    checked = 0
    for s, t in pairs:
        profile_g = k_connecting_profile(g, s, t, k)
        d_g = profile_g[k - 1]
        if d_g == math.inf:
            continue
        checked += 1
        view = AugmentedView(rs.graph, g, s)
        d_h = k_connecting_profile(view, s, t, k)[k - 1]
        if d_h == math.inf:
            worst_ratio = math.inf
            worst_add = math.inf
            continue
        worst_ratio = max(worst_ratio, d_h / d_g)
        worst_add = max(worst_add, d_h - rs.guarantee.alpha * d_g)
    return KConnectingEpsReport(
        edges=rs.num_edges,
        plain_stretch_ok=plain_ok,
        max_kconn_ratio=worst_ratio,
        kconn_additive_worst=worst_add if worst_add != -math.inf else 0.0,
        pairs_checked=checked,
    )
