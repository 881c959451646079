"""Protocols running on the synchronous simulator.

``flood`` is the TTL-scoped relay primitive; ``remspan`` is Algorithm 3
(one-shot construction, 2r−1+2β communication rounds: HELLO, then the
neighbor and tree floods); ``link_state`` is the periodic steady-state
regime with the T+2F stabilization bound.
"""

from .flood import FloodState
from .remspan import DistributedResult, RemSpanNode, run_remspan
from .link_state import PeriodicLinkState, StabilizationReport

__all__ = [
    "FloodState",
    "DistributedResult",
    "RemSpanNode",
    "run_remspan",
    "PeriodicLinkState",
    "StabilizationReport",
]
