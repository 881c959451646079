"""Link-state routing application: the paper's §1 motivation, executable.

Greedy hop-by-hop forwarding on :math:`H_u`, next-hop tables, and the
advertisement-overhead accounting that justifies flooding a remote-spanner
instead of the full topology.
"""

from .tables import next_hop, routing_table, routing_table_scan
from .greedy_routing import (
    RouteResult,
    RoutingStats,
    route,
    route_all_pairs_stats,
    route_served,
)
from .overhead import AdvertisementCost, full_link_state_cost, spanner_advertisement_cost

__all__ = [
    "next_hop",
    "routing_table",
    "routing_table_scan",
    "RouteResult",
    "RoutingStats",
    "route",
    "route_served",
    "route_all_pairs_stats",
    "AdvertisementCost",
    "full_link_state_cost",
    "spanner_advertisement_cost",
]
