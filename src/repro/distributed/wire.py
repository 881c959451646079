"""Sequence-numbered LSA wire protocol for the distributed serving tier.

The actor tier (:mod:`~repro.distributed.actors`) does not flood full
topology the way OSPF-style link state does.  The maintainer already
computes the *net* effect of every churn tick (``BatchReport``'s
ΔG/ΔH/joins), so what crosses the wire is an incremental link-state
advertisement: one :class:`LsaUpdate` per tick, sequence-numbered by the
feed, scope-flooded over the actor overlay with a TTL and a loop-window
header, deduplicated and aged by each actor's :class:`LsaDb`.

Protocol elements (the classic LSR skeleton, adapted):

* **HELLO / neighbor timeout** — :class:`HelloBeacon` carries the
  sender's highest contiguously-applied sequence number; overlay
  neighbors use it for liveness (an actor that stops beaconing is marked
  suspect after :data:`HELLO_TIMEOUT` silent rounds) and for
  anti-entropy (a beacon ahead of the local applied seq reveals missed
  updates → :class:`ResendRequest`).
* **dedup + aging** — :class:`LsaDb` accepts each ``(origin, seq)`` at
  most once, applies updates strictly in sequence order, and ages out
  pending out-of-order updates that a gap has stalled for longer than
  ``max_age`` rounds (they are re-requested rather than applied late).
* **TTL / loop-window headers** — a relayed copy decrements ``ttl`` and
  appends the relaying actor to the bounded ``seen`` window;
  :meth:`LsaUpdate.relay` answers ``None`` at an exhausted TTL or when
  the relayer already appears in the window, so no copy can circulate
  an overlay cycle (regression-tested in
  ``tests/distributed/test_wire_protocol.py``).

:class:`FullTopology` is the naive-flooding twin — the entire live G and
H edge sets per tick — kept as the cold-start bootstrap and as the
baseline ``BENCH_wire.json`` measures incremental LSAs against.
:class:`RouteQuery`/:class:`RouteReply` carry ``route_served`` journeys
hop-by-hop across actors.  Every type registers its encoding *and* its
link-unit cost with :mod:`~repro.distributed.codec` — one ruler for the
simulator and the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ProtocolError
from . import codec

__all__ = [
    "HELLO_TIMEOUT",
    "LOOP_WINDOW",
    "FullTopology",
    "HelloBeacon",
    "LsaDb",
    "LsaUpdate",
    "ResendRequest",
    "RouteQuery",
    "RouteReply",
]

#: Loop-window header length: a relayed copy remembers at most this many
#: relaying actors.  Long enough to cover any cycle of the small actor
#: overlay; bounded so the header cannot grow with the flood.
LOOP_WINDOW = 16

#: Overlay-neighbor liveness: rounds of silence before a peer that has
#: beaconed before is marked suspect.
HELLO_TIMEOUT = 8


@dataclass(frozen=True)
class HelloBeacon:
    """Liveness + anti-entropy probe between overlay peers.

    ``seq`` is the sender's highest contiguously-applied feed sequence
    number — a receiver that is behind learns it missed updates without
    waiting for a later flood to reveal the gap.
    """

    origin: int  # sending endpoint (actor or feed driver)
    seq: int = 0
    stamp: int = 0  # sender's round clock at emission


@dataclass(frozen=True)
class LsaUpdate:
    """One tick's net topology delta, sequence-numbered by the feed.

    ``origin`` is the feed endpoint; ``seq`` starts at 1 and increments
    per emitted update.  The payload is exactly the maintainer's wire
    delta (net ΔG, ΔH, joined ids, the id-space size after the tick and
    whether the repair was a full rebuild — the deltas stay *net* either
    way).  ``ttl``/``seen`` are the scoped-flooding headers.
    """

    origin: int
    seq: int
    ttl: int = 0
    g_added: "tuple[tuple[int, int], ...]" = ()
    g_removed: "tuple[tuple[int, int], ...]" = ()
    h_added: "tuple[tuple[int, int], ...]" = ()
    h_removed: "tuple[tuple[int, int], ...]" = ()
    nodes_joined: "tuple[int, ...]" = ()
    num_nodes: int = 0
    rebuilt: bool = False
    stamp: int = 0
    seen: "tuple[int, ...]" = ()  # loop-window header: relaying actors

    def relay(self, via: int) -> "LsaUpdate | None":
        """The copy actor *via* re-floods; ``None`` when it must drop.

        Dropped at an exhausted TTL (``ttl <= 0`` — never a negative-TTL
        copy) and when *via* already appears in the loop window (the
        copy has circled back around the overlay).
        """
        if self.ttl <= 0 or via in self.seen:
            return None
        window = (*self.seen, via)[-LOOP_WINDOW:]
        return replace(self, ttl=self.ttl - 1, seen=window)


@dataclass(frozen=True)
class FullTopology:
    """Naive full-flooding advertisement: the whole live G and H.

    The cold-start bootstrap (sequence 1 seeds every actor's replica),
    the resync after a state change no delta describes (compaction), the
    answer to a resend request for seqs the driver already trimmed from
    its log, and the baseline the bytes-on-the-wire benchmark measures the
    incremental :class:`LsaUpdate` stream against.  It is the whole state
    as of ``seq``: :meth:`LsaDb.take_ready` lets it close any gap below.
    """

    origin: int
    seq: int
    ttl: int = 0
    num_nodes: int = 0
    g_edges: "tuple[tuple[int, int], ...]" = ()
    h_edges: "tuple[tuple[int, int], ...]" = ()
    stamp: int = 0
    seen: "tuple[int, ...]" = ()

    def relay(self, via: int) -> "FullTopology | None":
        if self.ttl <= 0 or via in self.seen:
            return None
        window = (*self.seen, via)[-LOOP_WINDOW:]
        return replace(self, ttl=self.ttl - 1, seen=window)


@dataclass(frozen=True)
class ResendRequest:
    """Anti-entropy: *origin* asks the feed to retransmit missing seqs."""

    origin: int
    want: "tuple[int, ...]" = ()


@dataclass(frozen=True)
class RouteQuery:
    """A ``route_served`` journey in flight across the actor tier.

    ``path``/``potentials`` accumulate exactly the fields of
    :class:`~repro.routing.greedy_routing.RouteResult` (``None`` in
    ``potentials`` encodes ∞ on the wire).  ``pending_hop`` is a hop
    chosen by the previous actor whose distance row lives with the
    receiver: the receiving actor appends the potential ``D[hop, v] + 1``
    from its own shard before forwarding further.
    """

    qid: int
    target: int
    hops_left: int
    path: "tuple[int, ...]" = ()
    potentials: "tuple[float | None, ...]" = ()
    pending_hop: "int | None" = None


@dataclass(frozen=True)
class RouteReply:
    """The completed journey, returned to the querying endpoint."""

    qid: int
    path: "tuple[int, ...]" = ()
    potentials: "tuple[float | None, ...]" = ()
    delivered: bool = False


class LsaDb:
    """Per-actor link-state database: dedup, in-order apply, aging.

    Updates are keyed ``(origin, seq)``; :meth:`accept` stores each at
    most once and never an already-applied seq (the dedup that stops
    re-floods).  :meth:`take_ready` hands back the updates applicable
    *in order* — out-of-order arrivals wait in the pending map until the
    gap fills.  :meth:`missing` names the gap seqs (the anti-entropy
    want-list) and :meth:`purge` ages out pending entries stalled longer
    than ``max_age`` rounds.
    """

    def __init__(self) -> None:
        self._applied: "dict[int, int]" = {}  # origin -> highest contiguous seq
        self._pending: "dict[int, dict[int, tuple[object, int]]]" = {}
        self.duplicates = 0
        self.aged_out = 0

    def applied_seq(self, origin: int) -> int:
        return self._applied.get(origin, 0)

    def accept(self, update, now: int = 0) -> bool:
        """Store *update* unless stale/duplicate; True when it was fresh."""
        seq = int(update.seq)
        if seq < 0:
            raise ProtocolError(f"negative LSA sequence {seq}")
        origin = int(update.origin)
        if seq <= self._applied.get(origin, 0):
            self.duplicates += 1
            return False
        pending = self._pending.setdefault(origin, {})
        if seq in pending:
            self.duplicates += 1
            return False
        pending[seq] = (update, now)
        return True

    def take_ready(self, origin: int) -> list:
        """Pop and return the in-order applicable updates for *origin*.

        A pending :class:`FullTopology` is the whole state as of its seq,
        so it supersedes every update before it: the gap below it closes
        (those entries are dropped) and it is applicable at once.
        """
        pending = self._pending.get(origin, {})
        snapshots = [s for s, (u, _born) in pending.items() if isinstance(u, FullTopology)]
        if snapshots:
            top = max(snapshots)
            for s in [s for s in pending if s < top]:
                del pending[s]
            self._applied[origin] = top - 1
        ready = []
        nxt = self._applied.get(origin, 0) + 1
        while nxt in pending:
            ready.append(pending.pop(nxt)[0])
            self._applied[origin] = nxt
            nxt += 1
        return ready

    def missing(self, origin: int) -> "tuple[int, ...]":
        """Seqs between applied and the newest pending that never arrived."""
        pending = self._pending.get(origin)
        if not pending:
            return ()
        lo = self._applied.get(origin, 0) + 1
        hi = max(pending)
        return tuple(s for s in range(lo, hi + 1) if s not in pending)

    def purge(self, now: int, max_age: int) -> int:
        """Drop pending updates stalled for more than *max_age* rounds.

        An aged-out update is *not* applied late — the gap before it is
        still open, so applying it would reorder the feed; it is dropped
        and will ride a retransmission once the gap is re-requested.
        Returns how many entries aged out.
        """
        dropped = 0
        for pending in self._pending.values():
            stale = [s for s, (_u, born) in pending.items() if now - born > max_age]
            for s in stale:
                del pending[s]
                dropped += 1
        self.aged_out += dropped
        return dropped


# --------------------------------------------------------------------- #
# codec registrations
# --------------------------------------------------------------------- #


def _pots_to_payload(potentials) -> list:
    # ∞ has no JSON literal; None carries it (decoded back to float birth).
    return [None if p is None or p == float("inf") else p for p in potentials]


def _pots_from_payload(items) -> "tuple[float | None, ...]":
    return tuple(None if p is None else p for p in items)


codec.register_message(
    "hb",
    HelloBeacon,
    to_payload=lambda m: {"o": m.origin, "q": m.seq, "st": m.stamp},
    from_payload=lambda p: HelloBeacon(
        origin=int(p["o"]), seq=int(p.get("q", 0)), stamp=int(p.get("st", 0))
    ),
    link_units=lambda m: 1,
)

codec.register_message(
    "lsa",
    LsaUpdate,
    to_payload=lambda m: {
        "o": m.origin,
        "q": m.seq,
        "t": m.ttl,
        "ga": codec.edges_to_payload(m.g_added),
        "gr": codec.edges_to_payload(m.g_removed),
        "ha": codec.edges_to_payload(m.h_added),
        "hr": codec.edges_to_payload(m.h_removed),
        "j": [int(x) for x in m.nodes_joined],
        "n": m.num_nodes,
        "rb": int(m.rebuilt),
        "st": m.stamp,
        "w": [int(x) for x in m.seen],
    },
    from_payload=lambda p: LsaUpdate(
        origin=int(p["o"]),
        seq=int(p["q"]),
        ttl=int(p.get("t", 0)),
        g_added=codec.edges_from_payload(p.get("ga", ())),
        g_removed=codec.edges_from_payload(p.get("gr", ())),
        h_added=codec.edges_from_payload(p.get("ha", ())),
        h_removed=codec.edges_from_payload(p.get("hr", ())),
        nodes_joined=tuple(int(x) for x in p.get("j", ())),
        num_nodes=int(p.get("n", 0)),
        rebuilt=bool(p.get("rb", 0)),
        stamp=int(p.get("st", 0)),
        seen=tuple(int(x) for x in p.get("w", ())),
    ),
    link_units=lambda m: max(
        1,
        len(m.g_added)
        + len(m.g_removed)
        + len(m.h_added)
        + len(m.h_removed)
        + len(m.nodes_joined),
    ),
)

codec.register_message(
    "full",
    FullTopology,
    to_payload=lambda m: {
        "o": m.origin,
        "q": m.seq,
        "t": m.ttl,
        "n": m.num_nodes,
        "ge": codec.edges_to_payload(m.g_edges),
        "he": codec.edges_to_payload(m.h_edges),
        "st": m.stamp,
        "w": [int(x) for x in m.seen],
    },
    from_payload=lambda p: FullTopology(
        origin=int(p["o"]),
        seq=int(p["q"]),
        ttl=int(p.get("t", 0)),
        num_nodes=int(p.get("n", 0)),
        g_edges=codec.edges_from_payload(p.get("ge", ())),
        h_edges=codec.edges_from_payload(p.get("he", ())),
        stamp=int(p.get("st", 0)),
        seen=tuple(int(x) for x in p.get("w", ())),
    ),
    link_units=lambda m: max(1, len(m.g_edges) + len(m.h_edges)),
)

codec.register_message(
    "rr",
    ResendRequest,
    to_payload=lambda m: {"o": m.origin, "w": [int(s) for s in m.want]},
    from_payload=lambda p: ResendRequest(
        origin=int(p["o"]), want=tuple(int(s) for s in p.get("w", ()))
    ),
    link_units=lambda m: 1,
)

codec.register_message(
    "rq",
    RouteQuery,
    to_payload=lambda m: {
        "i": m.qid,
        "v": m.target,
        "hl": m.hops_left,
        "pa": [int(x) for x in m.path],
        "po": _pots_to_payload(m.potentials),
        "ph": m.pending_hop,
    },
    from_payload=lambda p: RouteQuery(
        qid=int(p["i"]),
        target=int(p["v"]),
        hops_left=int(p["hl"]),
        path=tuple(int(x) for x in p.get("pa", ())),
        potentials=_pots_from_payload(p.get("po", ())),
        pending_hop=None if p.get("ph") is None else int(p["ph"]),
    ),
    link_units=lambda m: 1,
)

codec.register_message(
    "rp",
    RouteReply,
    to_payload=lambda m: {
        "i": m.qid,
        "pa": [int(x) for x in m.path],
        "po": _pots_to_payload(m.potentials),
        "d": int(m.delivered),
    },
    from_payload=lambda p: RouteReply(
        qid=int(p["i"]),
        path=tuple(int(x) for x in p.get("pa", ())),
        potentials=_pots_from_payload(p.get("po", ())),
        delivered=bool(p.get("d", 0)),
    ),
    link_units=lambda m: 1,
)
