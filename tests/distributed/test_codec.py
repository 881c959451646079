"""One codec, one ruler: round-trips, sizing parity, registry hygiene."""

import json

import pytest

from repro.distributed import (
    WIRE_SCHEMA,
    FullTopology,
    Hello,
    HelloBeacon,
    LsaUpdate,
    NeighborAdvert,
    ResendRequest,
    RouteQuery,
    RouteReply,
    TreeAdvert,
    decode,
    encode,
    kind_of,
    link_units,
    size_in_links,
    wire_bytes,
)
from repro.distributed import codec
from repro.distributed.metrics import WireStats
from repro.dynamic import make_scenario
from repro.dynamic.maintainer import SpannerMaintainer
from repro.errors import ProtocolError

SIM_MESSAGES = [
    Hello(origin=3),
    NeighborAdvert(origin=1, neighbors=frozenset({0, 2, 5}), ttl=4, stamp=2),
    TreeAdvert(origin=2, edges=frozenset({(0, 1), (1, 2)}), ttl=3, stamp=7),
]

WIRE_MESSAGES = [
    HelloBeacon(origin=4, seq=9, stamp=12),
    LsaUpdate(
        origin=4,
        seq=2,
        ttl=3,
        g_added=((0, 1), (2, 3)),
        g_removed=((4, 5),),
        h_added=((0, 2),),
        h_removed=(),
        nodes_joined=(6,),
        num_nodes=7,
        rebuilt=True,
        regions=((6, 1),),
        stamp=5,
        seen=(1, 2),
    ),
    FullTopology(
        origin=4,
        seq=1,
        ttl=2,
        num_nodes=4,
        g_edges=((0, 1),),
        h_edges=((0, 1), (1, 2)),
        regions=(0, 0, 1, 1),
    ),
    ResendRequest(origin=2, want=(3, 4, 7)),
    RouteQuery(qid=11, target=5, hops_left=9, path=(0, 3), potentials=(4.0, None), pending_hop=2),
    RouteReply(qid=11, path=(0, 3, 5), potentials=(4.0, 2.0, 0), delivered=True),
]


class TestRoundTrip:
    @pytest.mark.parametrize("message", SIM_MESSAGES + WIRE_MESSAGES, ids=lambda m: type(m).__name__)
    def test_encode_decode_identity(self, message):
        data = encode(message)
        assert decode(data) == message
        # Canonical bytes: equal messages encode to equal frames.
        assert encode(decode(data)) == data

    def test_frames_carry_the_schema_stamp(self):
        doc = json.loads(encode(Hello(origin=0)).decode("utf-8"))
        assert doc["s"] == WIRE_SCHEMA
        assert doc["k"] == kind_of(Hello(origin=0)) == "hello"

    def test_update_without_joins_carries_no_region_key(self):
        m = LsaUpdate(origin=4, seq=3, g_added=((0, 1),))
        assert "rg" not in json.loads(encode(m).decode("utf-8"))["p"]
        assert decode(encode(m)) == m

    def test_potential_infinity_rides_as_null(self):
        q = RouteQuery(qid=1, target=2, hops_left=3, potentials=(float("inf"), 5.0, None))
        # ∞ has no JSON literal: both ∞ and None round-trip as None.
        assert decode(encode(q)).potentials == (None, 5.0, None)


class TestSizing:
    def test_sim_sizes_resolve_through_the_codec(self):
        # Satellite 1: `size` / `size_in_links` and the codec agree — one
        # accounting rule, not two that can drift.
        for m in SIM_MESSAGES:
            assert m.size == link_units(m) == size_in_links(m)

    def test_link_units_reflect_advertised_links(self):
        assert link_units(Hello(origin=0)) == 1
        assert link_units(NeighborAdvert(origin=0, neighbors=frozenset({1, 2, 3}))) == 3
        assert link_units(LsaUpdate(origin=0, seq=1, g_added=((0, 1),), h_removed=((1, 2),))) == 2
        assert link_units(LsaUpdate(origin=0, seq=1)) == 1  # floor: a frame costs ≥ 1
        assert link_units(FullTopology(origin=0, seq=1, g_edges=((0, 1),), h_edges=((0, 1),))) == 2

    def test_wire_bytes_is_the_exact_frame_length(self):
        for m in SIM_MESSAGES + WIRE_MESSAGES:
            assert wire_bytes(m) == len(encode(m))


class TestRegistry:
    def test_all_protocol_kinds_registered(self):
        kinds = codec.registered_kinds()
        for kind in ("hello", "nbr", "tree", "hb", "lsa", "full", "rr", "rq", "rp"):
            assert kind in kinds

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ProtocolError):
            codec.register_message(
                "hello",
                type("Fresh", (), {}),
                to_payload=lambda m: {},
                from_payload=lambda p: None,
                link_units=lambda m: 1,
            )

    def test_duplicate_type_rejected(self):
        with pytest.raises(ProtocolError):
            codec.register_message(
                "hello2",
                Hello,
                to_payload=lambda m: {},
                from_payload=lambda p: None,
                link_units=lambda m: 1,
            )

    def test_unregistered_type_rejected(self):
        class Stranger:
            pass

        with pytest.raises(ProtocolError):
            encode(Stranger())
        with pytest.raises(ProtocolError):
            link_units(Stranger())

    def test_foreign_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode(b"\xff\xfe not json")
        with pytest.raises(ProtocolError):
            decode(b'{"k": "hello", "p": {}}')  # missing schema stamp
        with pytest.raises(ProtocolError):
            decode(b'{"s": "repro.wire/1", "k": "meteor", "p": {}}')  # unknown kind


def test_bootstrap_frame_lands_in_a_finite_frame_bytes_bucket():
    # The cold-start FullTopology is the biggest frame the actor tier
    # sends; at n=1500 it is ~10^5 bytes, far past the 4096 ceiling of
    # the count buckets the histogram used to borrow.
    g = make_scenario("failure", 1500, 1, seed=20090525).initial
    h = SpannerMaintainer(g).spanner.graph
    frame = FullTopology(
        origin=-1,
        seq=1,
        num_nodes=g.num_nodes,
        g_edges=tuple(sorted(g.edges())),
        h_edges=tuple(sorted(h.edges())),
    )
    size = wire_bytes(frame)
    assert size > 4096
    stats = WireStats()
    stats.record_send(size, link_units(frame))
    hist = stats.registry.histogram("wire.frame_bytes")
    assert hist.count == 1 and hist.counts[-1] == 0  # nothing in overflow
    assert hist.bounds[0] <= 64 and hist.bounds[-1] >= 4 * 2**20
