"""Accounting for distributed runs: rounds, messages, advertised links.

The paper evaluates distributed algorithms by *rounds* (Table 1's
"computation time" column) and motivates remote-spanners by *advertisement
volume* (flooding fewer links than OSPF).  The simulator fills one of these
records per run so the benches can print both.

Since PR 7 the record is backed by a :class:`repro.obs.MetricsRegistry`
instead of plain dataclass fields: the familiar attributes
(``stats.rounds`` etc.) are live counter reads, ``record_round`` also
feeds a per-round message-count histogram, and :meth:`SimStats.snapshot`
emits the same schema serving soaks write — one format for simulator runs
and serving metrics.  The registry is dedicated and ungated (simulation
accounting is the experiment's *output*, not optional instrumentation),
so the ``REPRO_OBS`` knob never changes a simulator result.
"""

from __future__ import annotations

from ..obs.metrics import BYTE_BOUNDS, COUNT_BOUNDS, MetricsRegistry

__all__ = ["SimStats", "WireStats"]


class SimStats:
    """Cost profile of one simulated protocol execution."""

    __slots__ = ("registry", "per_round_messages")

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.registry = MetricsRegistry() if registry is None else registry
        self.per_round_messages: list[int] = []

    @property
    def rounds(self) -> int:
        return int(self.registry.counter("sim.rounds"))

    @property
    def messages(self) -> int:
        """Node-to-neighbor deliveries."""
        return int(self.registry.counter("sim.messages"))

    @property
    def broadcasts(self) -> int:
        """Local broadcast operations (radio transmissions)."""
        return int(self.registry.counter("sim.broadcasts"))

    @property
    def links_advertised(self) -> int:
        """Sum of message sizes in link units."""
        return int(self.registry.counter("sim.links_advertised"))

    def record_round(self, messages: int, broadcasts: int, links: int) -> None:
        reg = self.registry
        reg.inc("sim.rounds")
        reg.inc("sim.messages", messages)
        reg.inc("sim.broadcasts", broadcasts)
        reg.inc("sim.links_advertised", links)
        reg.observe("sim.round_messages", messages, COUNT_BOUNDS)
        self.per_round_messages.append(messages)

    def snapshot(self) -> dict:
        """The run's counters in the ``repro.obs`` snapshot schema."""
        return self.registry.snapshot()

    def __repr__(self) -> str:
        return (
            f"SimStats(rounds={self.rounds}, messages={self.messages}, "
            f"broadcasts={self.broadcasts}, links_advertised={self.links_advertised})"
        )


class WireStats:
    """Cost profile of one distributed-transport run (the actor tier).

    The wire twin of :class:`SimStats`: same registry backing, same
    snapshot schema, but counting *frames and bytes* as the codec
    encodes them rather than lock-step deliveries.  ``links`` is the
    paper's advertised-link unit resolved through
    :func:`repro.distributed.codec.link_units` — the one ruler both
    tiers share — so ``BENCH_wire.json`` can put simulator floods and
    actor LSA streams on the same axis.  ``dropped``/``delayed`` count
    fault-plane interventions (:func:`repro.faults.on_wire_send`).
    """

    __slots__ = ("registry",)

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.registry = MetricsRegistry() if registry is None else registry

    @property
    def rounds(self) -> int:
        return int(self.registry.counter("wire.rounds"))

    @property
    def messages(self) -> int:
        """Frames handed to a transport (post fault-plane verdict)."""
        return int(self.registry.counter("wire.messages"))

    @property
    def bytes(self) -> int:
        """Encoded frame bytes, excluding transport framing overhead."""
        return int(self.registry.counter("wire.bytes"))

    @property
    def links(self) -> int:
        return int(self.registry.counter("wire.links"))

    @property
    def dropped(self) -> int:
        return int(self.registry.counter("wire.dropped"))

    @property
    def delayed(self) -> int:
        return int(self.registry.counter("wire.delayed"))

    def record_round(self) -> None:
        self.registry.inc("wire.rounds")

    def record_send(self, size_bytes: int, link_units: int) -> None:
        reg = self.registry
        reg.inc("wire.messages")
        reg.inc("wire.bytes", size_bytes)
        reg.inc("wire.links", link_units)
        reg.observe("wire.frame_bytes", size_bytes, BYTE_BOUNDS)

    def record_dropped(self) -> None:
        self.registry.inc("wire.dropped")

    def record_delayed(self) -> None:
        self.registry.inc("wire.delayed")

    def snapshot(self) -> dict:
        """The run's counters in the ``repro.obs`` snapshot schema."""
        return self.registry.snapshot()

    def __repr__(self) -> str:
        return (
            f"WireStats(rounds={self.rounds}, messages={self.messages}, "
            f"bytes={self.bytes}, links={self.links}, "
            f"dropped={self.dropped}, delayed={self.delayed})"
        )
