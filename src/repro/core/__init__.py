"""The paper's primary contribution: remote-spanners and dominating trees.

Public surface:

* dominating trees — :class:`DomTree`, the four constructions
  (Algorithms 1, 2, 4, 5) and the definition-level predicates;
* remote-spanner builders — Theorems 1, 2, 3 (:func:`build_remote_spanner`,
  :func:`build_k_connecting_spanner`, :func:`build_biconnecting_spanner`),
  over the one construction table (:func:`resolve_construction`);
* stretch verification — exact checkers for the (α, β) and k-connecting
  remote-spanner conditions;
* characterizations — executable Propositions 1 and 5;
* exact optima — the OPT side of the approximation guarantees.
"""

from .domtree import (
    DomTree,
    dominating_tree_violations,
    induces_dominating_trees,
    induces_k_connecting_star_trees,
    is_dominating_tree,
    is_k_connecting_dominating_tree,
    k_connecting_violations,
)
from .domtree_greedy import dom_tree_greedy
from .domtree_mis import dom_tree_mis
from .domtree_kcover import dom_tree_kcover, mpr_set
from .domtree_kmis import dom_tree_kmis
from .remote_spanner import (
    RemoteSpanner,
    StretchGuarantee,
    build_biconnecting_spanner,
    build_from_trees,
    build_k_connecting_spanner,
    build_remote_spanner,
    effective_epsilon,
    epsilon_to_radius,
    resolve_construction,
)
from .stretch import (
    KConnectingStats,
    RemoteStretchStats,
    is_k_connecting_remote_spanner,
    is_remote_spanner,
    k_connecting_stretch_stats,
    k_connecting_violations_spanner,
    remote_spanner_violations,
    remote_stretch_stats,
)
from .characterization import (
    proposition1_holds,
    proposition1_sides,
    proposition5_holds,
    proposition5_sides,
)
from .optimal import (
    k_connecting_spanner_lower_bound,
    optimal_dom_tree_edges,
    optimal_kconnecting_star_size,
)
from .translation import (
    RemoteAdvantage,
    check_translation_lemma,
    is_spanner,
    remote_advantage,
    spanner_violations,
    translated_guarantee,
)
from . import extensions

__all__ = [
    "DomTree",
    "dominating_tree_violations",
    "induces_dominating_trees",
    "induces_k_connecting_star_trees",
    "is_dominating_tree",
    "is_k_connecting_dominating_tree",
    "k_connecting_violations",
    "dom_tree_greedy",
    "dom_tree_mis",
    "dom_tree_kcover",
    "mpr_set",
    "dom_tree_kmis",
    "RemoteSpanner",
    "StretchGuarantee",
    "build_biconnecting_spanner",
    "build_from_trees",
    "build_k_connecting_spanner",
    "build_remote_spanner",
    "effective_epsilon",
    "epsilon_to_radius",
    "resolve_construction",
    "KConnectingStats",
    "RemoteStretchStats",
    "is_k_connecting_remote_spanner",
    "is_remote_spanner",
    "k_connecting_stretch_stats",
    "k_connecting_violations_spanner",
    "remote_spanner_violations",
    "remote_stretch_stats",
    "proposition1_holds",
    "proposition1_sides",
    "proposition5_holds",
    "proposition5_sides",
    "k_connecting_spanner_lower_bound",
    "optimal_dom_tree_edges",
    "optimal_kconnecting_star_size",
    "RemoteAdvantage",
    "check_translation_lemma",
    "is_spanner",
    "remote_advantage",
    "spanner_violations",
    "translated_guarantee",
    "extensions",
]
