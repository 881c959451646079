"""Scoped flooding with TTL — the information-dissemination primitive.

Steps 2 and 4 of Algorithm 3 flood data "to all nodes in B_G(u, r−1+β)".
A TTL-limited flood achieves exactly that: a message originated with
``ttl = D`` and relayed with ``ttl − 1`` reaches precisely the ball of
radius D around its origin, in D communication rounds.

:class:`FloodState` is the relay bookkeeping (duplicate suppression per
origin, as real link-state flooding does via sequence numbers) that the
RemSpan protocol embeds once per flood family.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["FloodState"]


class FloodState:
    """Duplicate-suppressing relay bookkeeping for one flood family.

    Tracks which origins have been seen; :meth:`accept` returns the
    messages to re-broadcast (first copy per origin, TTL permitting).
    """

    def __init__(self) -> None:
        self.seen: dict[int, object] = {}

    def accept(self, messages: Sequence) -> list:
        relays = []
        for m in messages:
            if m.origin in self.seen:
                continue
            self.seen[m.origin] = m
            # A copy received at ttl=1 was the flood's last hop; relay()
            # also answers None at the exhausted boundary (ttl <= 0).
            relayed = m.relay() if m.ttl > 1 else None
            if relayed is not None:
                relays.append(relayed)
        return relays
