"""Protocols running on the synchronous simulator.

``hello`` and ``flood`` are the primitives; ``remspan`` is Algorithm 3
(one-shot construction, 2r−1+2β communication rounds); ``link_state`` is
the periodic steady-state regime with the T+2F stabilization bound.
"""

from .hello import HelloNode, run_hello
from .flood import FloodState, ScopedFloodNode, run_scoped_flood
from .remspan import DistributedResult, RemSpanNode, run_remspan
from .link_state import PeriodicLinkState, StabilizationReport

__all__ = [
    "HelloNode",
    "run_hello",
    "FloodState",
    "ScopedFloodNode",
    "run_scoped_flood",
    "DistributedResult",
    "RemSpanNode",
    "run_remspan",
    "PeriodicLinkState",
    "StabilizationReport",
]
