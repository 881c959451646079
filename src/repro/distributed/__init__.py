"""Distributed substrate: lock-step simulation *and* the serving actor tier.

Two tiers share one message vocabulary and one accounting ruler
(:mod:`~repro.distributed.codec`):

* the synchronous simulator (the LOCAL model) realizes Algorithm 3 as an
  actual protocol — nodes exchange HELLOs, flood neighbor lists with TTL
  r−1+β, compute their dominating trees from the received partial
  topology, and flood the trees back — so the paper's round-complexity
  and locality claims are *measured*, not assumed;
* the asyncio actor tier (:mod:`~repro.distributed.actors`) serves the
  *maintained tables* for real: shard actors, each owning a balanced BFS
  region of the ids, replicate (G, H) from
  sequence-numbered incremental LSA floods
  (:mod:`~repro.distributed.wire`) over a pluggable
  :class:`~repro.distributed.transport.Transport` — deterministic
  in-process loopback, TCP or Unix-domain sockets — and forward
  ``route_served`` journeys hop-by-hop, crossing the wire only between
  regions.
"""

from .actors import ActorSystem, ShardActor
from .codec import WIRE_SCHEMA, decode, encode, kind_of, link_units, wire_bytes
from .messages import Hello, NeighborAdvert, TreeAdvert, size_in_links
from .metrics import SimStats, WireStats
from .node import ProtocolNode
from .simulator import SyncNetwork
from .transport import (
    LoopbackTransport,
    TcpTransport,
    Transport,
    UdsTransport,
    make_transport,
)
from .wire import (
    HELLO_TIMEOUT,
    LOOP_WINDOW,
    FullTopology,
    HelloBeacon,
    LsaDb,
    LsaUpdate,
    ResendRequest,
    RouteQuery,
    RouteReply,
)
from .protocols import (
    DistributedResult,
    FloodState,
    PeriodicLinkState,
    RemSpanNode,
    StabilizationReport,
    run_remspan,
)

__all__ = [
    "Hello",
    "NeighborAdvert",
    "TreeAdvert",
    "size_in_links",
    "SimStats",
    "WireStats",
    "ProtocolNode",
    "SyncNetwork",
    "DistributedResult",
    "FloodState",
    "PeriodicLinkState",
    "RemSpanNode",
    "StabilizationReport",
    "run_remspan",
    # actor tier
    "ActorSystem",
    "ShardActor",
    "Transport",
    "LoopbackTransport",
    "TcpTransport",
    "UdsTransport",
    "make_transport",
    "WIRE_SCHEMA",
    "encode",
    "decode",
    "kind_of",
    "link_units",
    "wire_bytes",
    "HELLO_TIMEOUT",
    "LOOP_WINDOW",
    "HelloBeacon",
    "LsaUpdate",
    "FullTopology",
    "ResendRequest",
    "RouteQuery",
    "RouteReply",
    "LsaDb",
]
