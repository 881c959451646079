"""Remote-spanner construction — the paper's headline deliverables.

A remote-spanner is assembled exactly as Algorithm 3 prescribes: compute a
dominating tree ``T_u`` for every node *u* and take the union of their
edges.  The three theorem-level products:

* :func:`build_remote_spanner` — Theorem 1's ``(1+ε, 1−2ε)``-remote-spanner
  from ``(⌈1/ε⌉+1, 1)``-dominating trees (Proposition 1), via either the
  MIS trees of Algorithm 2 (default; linear size on doubling unit ball
  graphs) or the greedy trees of Algorithm 1;
* :func:`build_k_connecting_spanner` — Theorem 2's k-connecting
  ``(1, 0)``-remote-spanner from the k-coverage MPR stars of Algorithm 4
  (Proposition 5); ``k = 1`` gives plain exact-distance remote-spanners;
* :func:`build_biconnecting_spanner` — Theorem 3's 2-connecting
  ``(2, −1)``-remote-spanner from Algorithm 5's trees (Proposition 4).

Every builder returns a :class:`RemoteSpanner` carrying the spanner graph,
the per-node trees (the objects a router would actually advertise), and the
stretch guarantee the construction certifies.  They, the incremental
maintainer and the distributed protocols all take their trees from one
table of the four constructions, through :func:`resolve_construction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping

from ..errors import ParameterError
from ..graph import Graph
from .domtree import DomTree
from .domtree_greedy import dom_tree_greedy
from .domtree_kcover import dom_tree_kcover
from .domtree_kmis import dom_tree_kmis
from .domtree_mis import dom_tree_mis

__all__ = [
    "CONSTRUCTION_NAMES",
    "Construction",
    "StretchGuarantee",
    "RemoteSpanner",
    "resolve_construction",
    "epsilon_to_radius",
    "effective_epsilon",
    "build_remote_spanner",
    "build_k_connecting_spanner",
    "build_biconnecting_spanner",
    "build_from_trees",
]


@dataclass(frozen=True)
class StretchGuarantee:
    """An ``(α, β)`` stretch promise, optionally k-connecting.

    ``k = 1`` is the plain remote-spanner condition; for ``k > 1`` the
    promise is :math:`d^{k'}_{H_s}(s,t) ≤ α·d^{k'}_G(s,t) + k'·β` for all
    ``k' ≤ k`` (paper §3).
    """

    alpha: float
    beta: float
    k: int = 1

    def bound(self, d: float, k_prime: int = 1) -> float:
        """The guaranteed upper bound for a pair at (k'-connecting) distance d."""
        return self.alpha * d + k_prime * self.beta

    def __str__(self) -> str:
        base = f"({self.alpha:g}, {self.beta:g})"
        return base if self.k == 1 else f"{self.k}-connecting {base}"


@dataclass
class RemoteSpanner:
    """A constructed remote-spanner: graph + per-node trees + guarantee."""

    graph: Graph
    trees: "Mapping[int, DomTree]"
    guarantee: StretchGuarantee
    method: str

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def tree_for(self, u: int) -> DomTree:
        """The dominating tree advertised by node *u*."""
        return self.trees[u]

    def density(self, g: Graph) -> float:
        """Fraction of the input graph's edges kept (1.0 = no savings)."""
        return self.graph.num_edges / g.num_edges if g.num_edges else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteSpanner(edges={self.num_edges}, guarantee={self.guarantee}, "
            f"method={self.method!r})"
        )


# --------------------------------------------------------------------- #
# ε ↔ r translation (Proposition 1)
# --------------------------------------------------------------------- #


def epsilon_to_radius(epsilon: float) -> int:
    """The domination radius ``r = ⌈1/ε⌉ + 1`` of Proposition 1."""
    if not (0.0 < epsilon <= 1.0):
        raise ParameterError(f"ε must be in (0, 1], got {epsilon}")
    return math.ceil(Fraction(epsilon).limit_denominator(10**9) ** -1) + 1


def effective_epsilon(r: int) -> float:
    """The stretch actually certified by radius r: ``ε' = 1/(r−1) ≤ ε``.

    Proposition 1's proof shows the construction achieves
    ``(1 + ε', 1 − 2ε')`` which implies the requested ``(1 + ε, 1 − 2ε)``.
    """
    if r < 2:
        raise ParameterError(f"r must be ≥ 2, got {r}")
    return 1.0 / (r - 1)


# --------------------------------------------------------------------- #
# the construction table
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Construction:
    """One row of the table: a family of (r, β)-dominating trees at fixed
    (r, β, k), from which everything else derives.

    ``tree`` takes the ``params`` after ``(g, u)``.  ``info_radius`` is
    Algorithm 3's flood radius D = r − 1 + β, the one radius of a row: T_u
    reads only the edges incident to ``B_G(u, D)``, so a node builds its
    own tree from a D-flood and an edit with both endpoints farther than D
    from u, before and after it, leaves ``T_u`` alone.  A tree's BFS to
    depth r discovers its depth-r layer through edges that leave depth
    r − 1 ≤ D, so an edge between two nodes at distance ≥ D + 1 is never
    read.  ``guarantee`` is (1, 0) for β = 0 and
    Proposition 1's (1 + ε′, 1 − 2ε′), ε′ = 1/(r − 1), for β = 1: (2, −1)
    for kmis, at r = 2.
    """

    name: str
    tree: "Callable[..., DomTree]"
    params: "tuple[str, ...]"
    r: int
    beta: int
    k: int

    @property
    def tree_fn(self) -> "Callable[[Graph, int], DomTree]":
        return partial(self.tree, **{p: getattr(self, p) for p in self.params})

    @property
    def label(self) -> str:
        if "k" in self.params:
            return f"{self.name}(k={self.k})"
        return f"{self.name}(r={self.r}, beta={self.beta})"

    @property
    def info_radius(self) -> int:
        return self.r - 1 + self.beta

    @property
    def guarantee(self) -> StretchGuarantee:
        eps = effective_epsilon(self.r) if self.beta else 0.0
        return StretchGuarantee(alpha=1.0 + eps, beta=self.beta - 2.0 * eps, k=self.k)


#: The four constructions at their defaults; a row's ``params`` are what a
#: caller may change.
_TABLE = {
    "kcover": Construction("kcover", dom_tree_kcover, ("k",), r=2, beta=0, k=1),  # Alg. 4, Th. 2
    "kmis": Construction("kmis", dom_tree_kmis, ("k",), r=2, beta=1, k=2),  # Alg. 5, Th. 3
    "mis": Construction("mis", dom_tree_mis, ("r",), r=3, beta=1, k=1),  # Alg. 2, Th. 1
    "greedy": Construction("greedy", dom_tree_greedy, ("r", "beta"), r=3, beta=1, k=1),  # Alg. 1
}
#: Every construction the package builds, maintains and runs distributed.
CONSTRUCTION_NAMES: "tuple[str, ...]" = tuple(_TABLE)


def resolve_construction(
    name: str = "kcover",
    *,
    k: "int | None" = None,
    epsilon: "float | None" = None,
    r: "int | None" = None,
    beta: "int | None" = None,
) -> Construction:
    """Resolve a construction name and its parameters against the table.

    ``None`` keeps the row's default, and a row ignores what it fixes:
    kcover and kmis take k (defaults 1 and 2); mis and greedy take r,
    given or set by ε through Proposition 1 (default ε = 0.5, r = 3);
    greedy also takes β (default 1).  An unknown name, k < 1, r < 2 or
    β ∉ {0, 1} raises :class:`~repro.errors.ParameterError`: at β ≥ 2
    Proposition 1's stretch fails, so no row offers it.
    """
    row = _TABLE.get(name)
    if row is None:
        raise ParameterError(f"unknown construction {name!r} (want one of {CONSTRUCTION_NAMES})")
    if "r" in row.params and r is None and epsilon is not None:
        r = epsilon_to_radius(epsilon)
    given = {"k": k, "r": r, "beta": beta}
    c = replace(row, **{p: given[p] for p in row.params if given[p] is not None})
    if c.k < 1 or c.r < 2 or c.beta not in (0, 1):
        raise ParameterError(
            f"{name} needs k ≥ 1, r ≥ 2, β ∈ {{0, 1}}; got k={c.k}, r={c.r}, β={c.beta}"
        )
    return c


# --------------------------------------------------------------------- #
# builders
# --------------------------------------------------------------------- #


def build_from_trees(
    g: Graph, tree_fn: "Callable[[Graph, int], DomTree]", guarantee: StretchGuarantee, method: str
) -> RemoteSpanner:
    """Union of ``tree_fn(g, u)`` over all nodes — the Algorithm 3 assembly."""
    # One CSR snapshot serves every per-node tree construction below: the
    # BFS calls inside tree_fn (bfs_parents / bfs_layers) detect the fresh
    # snapshot and run on flat arrays instead of per-node set scans.
    g.freeze()
    trees: dict[int, DomTree] = {}
    h = Graph(g.num_nodes)
    for u in g.nodes():
        t = tree_fn(g, u)
        trees[u] = t
        for a, b in t.edges():
            h.add_edge(a, b)
    return RemoteSpanner(graph=h, trees=trees, guarantee=guarantee, method=method)


def build_remote_spanner(
    g: Graph, epsilon: float, method: str = "mis"
) -> RemoteSpanner:
    """Theorem 1: a ``(1+ε, 1−2ε)``-remote-spanner for any ``0 < ε ≤ 1``.

    ``method="mis"`` uses Algorithm 2 (``O(ε^{-(p+1)} n)`` edges on unit
    ball graphs of doubling dimension p, no log Δ factor); ``"greedy"``
    uses Algorithm 1 (near-optimal per-tree size on arbitrary graphs).
    The recorded guarantee uses the *effective* ε' = 1/(r−1) ≤ ε that the
    radius actually certifies.
    """
    if method not in ("mis", "greedy"):
        raise ParameterError(f"unknown method {method!r} (want 'mis' or 'greedy')")
    c = resolve_construction(method, epsilon=epsilon)
    return build_from_trees(g, c.tree_fn, c.guarantee, c.label)


def build_k_connecting_spanner(g: Graph, k: int = 1) -> RemoteSpanner:
    """Theorem 2: a k-connecting ``(1, 0)``-remote-spanner.

    Union of Algorithm 4's k-coverage MPR stars; size within
    ``2(1 + log Δ)`` of the optimal k-connecting (1, 0)-remote-spanner.
    ``k = 1`` preserves exact distances (a (1, 0)-remote-spanner — the
    object a (1, 0)-*spanner* can never be sparse for).
    """
    c = resolve_construction("kcover", k=k)
    return build_from_trees(g, c.tree_fn, c.guarantee, c.label)


def build_biconnecting_spanner(g: Graph) -> RemoteSpanner:
    """Theorem 3: a 2-connecting ``(2, −1)``-remote-spanner.

    Union of Algorithm 5's 2-connecting (2, 1)-dominating trees
    (Proposition 4 supplies the stretch; Proposition 7 the O(n) size on
    doubling unit ball graphs).  The table records the trees' own k as
    the guarantee's connectivity, so ``resolve_construction("kmis", k=3)``
    records a 3-connecting (2, −1) guarantee: the stretch oracle certifies
    it on seeded graphs, though Theorem 3 states only k = 2.  k = 1 is
    Proposition 1 at r = 2 (ε = 1), which gives the same (2, −1).
    """
    c = resolve_construction("kmis", k=2)
    return build_from_trees(g, c.tree_fn, c.guarantee, c.label)
