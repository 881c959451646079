"""Graph substrate: adjacency-set graphs, BFS primitives, views and ops.

This package is the foundation every paper algorithm stands on.  See
``DESIGN.md`` §1.2 for why the library ships its own graph type instead of
building on networkx (performance of BFS + set-algebra hot paths; networkx
is reserved for test oracles).
"""

from .graph import Graph, canonical_edge
from .csr import CSRGraph
from .traversal import (
    UNREACHED,
    ball,
    batched_bfs,
    bfs_distances,
    bfs_layers,
    bfs_parents,
    bounded_distance,
    connected_components,
    is_connected,
    multi_source_distances,
    path_to_root,
    repair_rows,
    ring,
)
from .distances import (
    all_pairs_distances,
    diameter,
    distance_matrix,
    eccentricity,
    nonadjacent_pairs,
    sample_pairs,
)
from .views import AugmentedView, augmented_distances, augmented_graph
from .ops import difference, edge_union, induced_subgraph, intersection, remove_nodes, union
from . import generators, io

__all__ = [
    "Graph",
    "CSRGraph",
    "canonical_edge",
    "UNREACHED",
    "ball",
    "batched_bfs",
    "bounded_distance",
    "bfs_distances",
    "bfs_layers",
    "bfs_parents",
    "connected_components",
    "is_connected",
    "multi_source_distances",
    "path_to_root",
    "repair_rows",
    "ring",
    "all_pairs_distances",
    "diameter",
    "distance_matrix",
    "eccentricity",
    "nonadjacent_pairs",
    "sample_pairs",
    "AugmentedView",
    "augmented_distances",
    "augmented_graph",
    "difference",
    "edge_union",
    "induced_subgraph",
    "intersection",
    "remove_nodes",
    "union",
    "generators",
    "io",
]
