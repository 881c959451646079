"""Ablations of the paper's design choices.

Four knobs DESIGN.md calls out, each isolated against a controlled
alternative:

1. **Cover heuristic (Alg. 1) vs MIS (Alg. 2)** at equal (r, 1): greedy
   buys smaller trees per node at a log Δ guarantee cost; MIS buys the
   doubling-metric size bound.  Measured: union edge counts + mean tree
   size on the same instances.
2. **β = 0 vs β = 1** for the greedy tree at fixed r: β = 1 admits
   same-ring dominators (a wider candidate pool) but pays one extra hop of
   path per pick; empirically the trees come out *larger* — β = 1 is used
   by Proposition 1 because it is what the (1+ε, 1−2ε) characterization
   needs, not because it saves edges.
3. **Max-gain greedy vs first-fit cover**: replace Algorithm 4's
   "pick x maximizing |N(x) ∩ S|" with "pick the first usable x" and watch
   the edge count inflate — the greedy choice is what earns the
   (1 + log Δ) factor.
4. **Nearest-first vs farthest-first MIS order** (Algorithm 2's ordering
   requirement): farthest-first still covers the ball but breaks the
   depth bookkeeping (a dominator may sit *deeper* than r' − 1 + 1),
   producing (r, 1)-domination violations.  Measured: violation counts —
   empirically demonstrating why the pseudo-code orders picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from ..core import build_from_trees, dom_tree_greedy, dom_tree_mis
from ..core.domtree import DomTree, dominating_tree_violations
from ..core.remote_spanner import (
    StretchGuarantee,
    build_k_connecting_spanner,
    resolve_construction,
)
from ..graph import Graph
from ..graph.traversal import bfs_layers, bfs_parents, path_to_root
from ..rng import derive_seed
from .runner import largest_component, scaled_udg

__all__ = [
    "AblationReport",
    "ablate_greedy_vs_mis",
    "ablate_beta",
    "ablate_first_fit",
    "ablate_mis_order",
    "first_fit_star",
    "dom_tree_mis_farthest_first",
]


@dataclass
class AblationReport:
    """A named comparison: variant -> measured dict."""

    name: str
    variants: dict


def _instance(seed: int, n: int = 220, degree: float = 12.0) -> Graph:
    g_full, _pts = scaled_udg(n, degree, derive_seed(seed, "abl"))
    g, _ids = largest_component(g_full)
    return g


def ablate_greedy_vs_mis(r: int = 3, seed: int = 11, n: int = 220) -> AblationReport:
    """Knob 1: Algorithm 1 vs Algorithm 2 at identical (r, 1)."""
    g = _instance(seed, n)
    greedy, mis = (resolve_construction(name, r=r) for name in ("greedy", "mis"))
    rs_greedy = build_from_trees(g, greedy.tree_fn, greedy.guarantee, "greedy")
    rs_mis = build_from_trees(g, mis.tree_fn, mis.guarantee, "mis")
    return AblationReport(
        name=f"greedy vs MIS (r={r}, beta=1)",
        variants={
            "greedy": {
                "union_edges": rs_greedy.num_edges,
                "mean_tree_edges": mean(t.num_edges for t in rs_greedy.trees.values()),
            },
            "mis": {
                "union_edges": rs_mis.num_edges,
                "mean_tree_edges": mean(t.num_edges for t in rs_mis.trees.values()),
            },
        },
    )


def ablate_beta(r: int = 3, seed: int = 12, n: int = 220) -> AblationReport:
    """Knob 2: β = 0 vs β = 1 for the greedy tree at fixed r."""
    g = _instance(seed, n)
    out: dict = {}
    for beta in (0, 1):
        sizes = [dom_tree_greedy(g, u, r, beta).num_edges for u in g.nodes()]
        out[f"beta={beta}"] = {
            "mean_tree_edges": mean(sizes),
            "max_tree_edges": max(sizes),
        }
    return AblationReport(name=f"beta ablation (r={r})", variants=out)


def first_fit_star(g: Graph, u: int, k: int = 1) -> DomTree:
    """Algorithm 4 with the greedy choice replaced by first-fit.

    Picks the smallest-id usable neighbor instead of the max-coverage one.
    Still correct (the loop invariant only needs progress) — just bigger.
    """
    layers = bfs_layers(g, u, cutoff=2)
    two_ring = set(layers[2]) if len(layers) > 2 else set()
    nu = g.neighbors(u)
    tree = DomTree(root=u)
    m: set[int] = set()
    s_set = set(two_ring)
    while s_set:
        x = next(x for x in sorted(nu - m) if g.neighbors(x) & s_set)
        m.add(x)
        tree.add_root_path([u, x])
        s_set = {
            v
            for v in s_set
            if not (g.neighbors(v) & nu <= m or len(g.neighbors(v) & m) >= k)
        }
    return tree


def ablate_first_fit(seed: int = 13, n: int = 220) -> AblationReport:
    """Knob 3: max-gain greedy vs first-fit MPR selection."""
    g = _instance(seed, n)
    mpr = build_k_connecting_spanner(g, 1)
    greedy_sizes = [t.num_edges for t in mpr.trees.values()]
    ff_sizes = [first_fit_star(g, u, 1).num_edges for u in g.nodes()]
    union_greedy = mpr.num_edges
    union_ff = build_from_trees(
        g, lambda gg, u: first_fit_star(gg, u, 1), StretchGuarantee(1, 0, 1), "ff"
    ).num_edges
    return AblationReport(
        name="max-gain vs first-fit MPR",
        variants={
            "max_gain": {"mean_star": mean(greedy_sizes), "union_edges": union_greedy},
            "first_fit": {"mean_star": mean(ff_sizes), "union_edges": union_ff},
        },
    )


def dom_tree_mis_farthest_first(g: Graph, u: int, r: int) -> DomTree:
    """Algorithm 2 with the pick order REVERSED (farthest-first).

    Deliberately wrong variant for the ordering ablation: dominators may
    end up deeper than the dominated node's radius allows, breaking the
    (r, 1) property — which :func:`ablate_mis_order` counts.
    """
    _dist, parent = bfs_parents(g, u, cutoff=r)
    layers = bfs_layers(g, u, cutoff=r)
    tree = DomTree(root=u)
    remaining: set[int] = set()
    top = min(r, len(layers) - 1)
    for r_prime in range(2, top + 1):
        remaining.update(layers[r_prime])
    for r_prime in range(top, 1, -1):  # farthest ring first
        for x in sorted(layers[r_prime]):
            if x not in remaining:
                continue
            tree.add_root_path(list(reversed(path_to_root(parent, x))))
            remaining -= g.neighbors(x)
            remaining.discard(x)
    return tree


def ablate_mis_order(r: int = 4, seed: int = 14, n: int = 220) -> AblationReport:
    """Knob 4: nearest-first (correct) vs farthest-first MIS ordering."""
    g = _instance(seed, n)
    near_viol = 0
    far_viol = 0
    near_sizes, far_sizes = [], []
    for u in g.nodes():
        t_near = dom_tree_mis(g, u, r)
        t_far = dom_tree_mis_farthest_first(g, u, r)
        near_viol += len(dominating_tree_violations(g, t_near, r, 1))
        far_viol += len(dominating_tree_violations(g, t_far, r, 1))
        near_sizes.append(t_near.num_edges)
        far_sizes.append(t_far.num_edges)
    return AblationReport(
        name=f"MIS pick order (r={r})",
        variants={
            "nearest_first": {
                "violations": near_viol,
                "mean_tree_edges": mean(near_sizes),
            },
            "farthest_first": {
                "violations": far_viol,
                "mean_tree_edges": mean(far_sizes),
            },
        },
    )
