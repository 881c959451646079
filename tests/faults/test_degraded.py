"""Graceful degradation: bounded staleness, hop fallback, reconvergence.

The serving contract under faults, in three clauses:

* **Bounded staleness** — the directory posts the committed generation
  and the pending one (the newest started repair), and staleness is
  ``pending − committed`` for every row alike: 0 at quiescence, 1 while a
  repair is in flight or died mid-flight, never unbounded drift.  A
  reader with ``max_staleness=k`` refuses to serve past *k*.
* **Degraded serving** — while a repair is in flight or its writer has
  crashed, readers keep answering from committed state: old values, per
  -hop fallbacks from committed distance rows, or an explicit refusal —
  never an exception, never a block.
* **Reconvergence** — after the faults stop and the supervisor (or a
  resync) heals the pool, the shared matrices are bit-identical to a
  serial twin that never saw a fault.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro import faults
from repro.dynamic import NodeEvent, RoutingService, make_scenario
from repro.errors import GraphError, ParameterError
from repro.faults import EXIT_TASK_CRASH, FaultPlan, FaultRule
from repro.parallel import RouteReader, ShardedRoutingService

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]

#: First task of the first delta repair: the two build stages (serve_rows,
#: serve_tables) are exactly two task starts per worker, so ``after=2``
#: skips the build and fires on the worker's first post-build task.
MID_DELTA_CRASH = FaultPlan(
    "mid-delta", 5, (FaultRule("task.crash", p=1.0, count=1, after=2, fresh_only=True),)
)


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.uninstall()


def _arm(monkeypatch, plan):
    monkeypatch.setenv(faults.ENV_PLAN, plan.spec())
    faults.install(plan)


class TestMaxStalenessValidation:
    @pytest.mark.parametrize("bad", [True, -1, 0.5, "2"])
    def test_rejected(self, bad, tmp_path):
        with pytest.raises(ParameterError, match="max_staleness"):
            RouteReader("irrelevant", max_staleness=bad)

    def test_quiescent_service_serves_under_zero_budget(self):
        # max_staleness=0 refuses rows only *mid-repair*; at quiescence
        # the committed generation equals the pending one.
        sc = make_scenario("mobility", 25, 5, seed=3)
        with ShardedRoutingService(sc.initial, "kcover", workers=2) as service:
            with RouteReader(service.reader_handle(), max_staleness=0) as reader:
                assert all(reader.staleness(u) == 0 for u in range(reader.num_nodes))
                serial = RoutingService(sc.initial, "kcover")
                for u in sc.initial.nodes():
                    for v in sc.initial.nodes():
                        if u != v:
                            assert reader.next_hop(u, v) == serial.next_hop(u, v)

    @pytest.mark.parametrize("batched", [False, True], ids=["apply", "apply_batch"])
    def test_malformed_event_leaves_no_staleness(self, batched):
        # A malformed event is refused before anything is repaired, so the
        # degraded post it opened must be closed: a max_staleness=0 reader
        # keeps serving every row.
        sc = make_scenario("mobility", 25, 5, seed=3)
        with ShardedRoutingService(sc.initial, "kcover", workers=2) as service:
            with RouteReader(service.reader_handle(), max_staleness=0) as reader:
                generation = service.generation
                with pytest.raises(GraphError):
                    if batched:
                        service.apply_batch([NodeEvent.join(999)])
                    else:
                        service.apply(NodeEvent.join(999))
                assert all(reader.staleness(u) == 0 for u in range(reader.num_nodes))
                u, v = next(iter(sc.initial.edges()))
                assert reader.next_hop(u, v) == v  # served, not refused
                assert service.generation == generation


    def test_generation_only_posts_skip_the_handles(self, monkeypatch):
        # A tick that resizes nothing posts the same handles: the reader
        # follows the committed generation from the header words alone.
        from repro.parallel import shm

        sc = make_scenario("failure", 25, 6, seed=3)
        with ShardedRoutingService(sc.initial, "kcover", workers=2) as service:
            with RouteReader(service.reader_handle()) as reader:
                loads = []
                real = shm.pickle.loads
                monkeypatch.setattr(shm.pickle, "loads", lambda b: loads.append(1) or real(b))
                for ev in sc.events:
                    service.apply(ev)
                    assert reader.generation == service.generation
                    assert reader.staleness(0) == 0
                assert loads == []


class TestHopFallback:
    def test_fallback_walks_are_journey_valid_and_deliver(self):
        sc = make_scenario("mobility", 30, 5, seed=11)
        g = sc.initial
        serial = RoutingService(g, "kcover")
        with ShardedRoutingService(g, "kcover", workers=2) as service:
            with RouteReader(service.reader_handle()) as reader:
                n = reader.num_nodes
                for u in g.nodes():
                    row_u = reader.distance_row(u)
                    for v in g.nodes():
                        if u == v:
                            continue
                        hop = reader.hop_fallback(u, v)
                        if serial.distance(u, v) is None:
                            assert hop is None  # unreachable: no certified progress
                            continue
                        # Certified: the hop is an H-edge of u, strictly
                        # closer to v than u per v's committed row.
                        assert hop is not None
                        assert row_u[hop] == 1
                        assert serial.distance(hop, v) in (0, serial.distance(u, v) - 1) or (
                            serial.distance(hop, v) < serial.distance(u, v)
                        )
                # A fallback-only walk must deliver within n hops.
                for u in g.nodes():
                    for v in g.nodes():
                        if u == v or serial.distance(u, v) is None:
                            continue
                        current, hops = u, 0
                        while current != v:
                            current = reader.hop_fallback(current, v)
                            assert current is not None
                            hops += 1
                            assert hops <= n, f"fallback walk {u}->{v} looped"

    def test_route_served_fallback_inert_on_healthy_tables(self):
        from repro.routing import route_served

        sc = make_scenario("mobility", 25, 5, seed=13)
        with ShardedRoutingService(sc.initial, "kcover", workers=2) as service:
            with RouteReader(service.reader_handle()) as reader:
                for u in sc.initial.nodes():
                    for v in sc.initial.nodes():
                        if u == v:
                            continue
                        plain = route_served(reader, u, v)
                        assisted = route_served(reader, u, v, hop_fallback=True)
                        assert assisted.path == plain.path
                        assert assisted.delivered == plain.delivered


class TestCrashDuringDeltaPublish:
    """Satellite: a worker crash mid-delta-publish self-heals, and readers
    attached before the repair keep serving committed state throughout."""

    @pytest.mark.parametrize("method", START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_self_heals_and_reconverges(self, method, workers, monkeypatch):
        _arm(monkeypatch, MID_DELTA_CRASH)
        sc = make_scenario("mobility", 30, 16, seed=17)
        serial = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        with ShardedRoutingService(
            sc.initial, "kcover", workers=workers, start_method=method, rebuild_fraction=1.0
        ) as service:
            with RouteReader(service.reader_handle()) as reader:
                gen0 = reader.generation
                events = list(sc.events)
                serial.apply_batch(events)
                service.apply_batch(events)  # the crash heals inside
                assert service.pool_health.respawns >= 1
                assert EXIT_TASK_CRASH in service.pool_health.last_exitcodes.values()
                assert np.array_equal(np.asarray(service._dist), serial._dist)
                assert np.array_equal(np.asarray(service._tables), serial._tables)
                # The pre-attached reader advanced exactly one committed
                # generation, and nothing is pending past it.
                assert reader.generation == gen0 + 1
                assert all(reader.staleness(u) == 0 for u in range(reader.num_nodes))

    def test_concurrent_reader_stays_on_committed_state(self, monkeypatch):
        if "fork" not in START_METHODS:  # pragma: no cover - platform guard
            pytest.skip("fork start method unavailable")
        _arm(monkeypatch, MID_DELTA_CRASH)
        ctx = multiprocessing.get_context("fork")
        sc = make_scenario("mobility", 30, 16, seed=17)
        with ShardedRoutingService(
            sc.initial, "kcover", workers=2, start_method="fork", rebuild_fraction=1.0
        ) as service:
            ready, stop = ctx.Event(), ctx.Event()
            out_q = ctx.SimpleQueue()
            proc = ctx.Process(
                target=_observe_degraded_window,
                args=(service.reader_handle(), ready, stop, out_q),
            )
            proc.start()
            try:
                assert ready.wait(timeout=30)
                service.apply_batch(list(sc.events))
                assert service.pool_health.respawns >= 1
            finally:
                stop.set()
            status, detail = out_q.get()
            proc.join(timeout=30)
            assert status == "ok", f"observer failed: {detail}"
            saw_degraded, bad_generations, bad_staleness = detail
            assert bad_generations == []  # only gen0 and gen0+1, in order
            assert bad_staleness == []  # staleness bounded by 1 throughout
            # The crash + respawn backoff holds the degraded window open
            # long enough that the observer must have sampled it.
            assert saw_degraded > 0
            assert proc.exitcode == 0


def _observe_degraded_window(directory, ready, stop, out_q):
    """Reader process: record staleness/generation while a repair crashes.

    The window under observation: ``apply_batch`` posts ``pending = g+1``
    before the fan-out, the injected crash holds the repair open through a
    respawn, and only the final publish commits ``g+1``.  Throughout, the
    committed generation must only ever step ``g0 -> g0+1`` and staleness
    must never exceed 1 (the protocol's bound for one in-flight repair).
    """
    try:
        reader = RouteReader(directory)
        g0 = reader.generation
        ready.set()
        saw_degraded = 0
        bad_generations = []
        bad_staleness = []
        deadline = time.monotonic() + 60.0
        while not stop.is_set() and time.monotonic() < deadline:
            gen = reader.generation
            staleness = reader.staleness(0)
            if gen not in (g0, g0 + 1):
                bad_generations.append(gen)
            if staleness > 1:
                bad_staleness.append(staleness)
            if staleness:
                saw_degraded += 1
                # Mid-repair, committed state must still be served: the
                # distance of a committed row resolves without raising.
                reader.distance(0, 1)
            if gen == g0 + 1 and staleness == 0:
                break  # healed: the repair committed, nothing pending
        out_q.put(("ok", (saw_degraded, bad_generations, bad_staleness)))
        reader.close()
    except BaseException as exc:  # pragma: no cover - surfaced by the assert
        out_q.put(("error", repr(exc)))
        raise


class TestReconvergence:
    @pytest.mark.parametrize("method", START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_torn_writer_build_heals_bit_identical(self, method, workers, monkeypatch):
        # write.crash fires *after* the row version went odd: the very
        # first build write is torn, the supervisor repairs + retries, and
        # the result must still equal the serial build exactly.
        _arm(
            monkeypatch,
            FaultPlan("torn", 5, (FaultRule("write.crash", p=1.0, count=1, fresh_only=True),)),
        )
        sc = make_scenario("mobility", 25, 10, seed=23)
        serial = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        with ShardedRoutingService(
            sc.initial, "kcover", workers=workers, start_method=method, rebuild_fraction=1.0
        ) as service:
            assert service.pool_health.respawns >= 1
            assert service.pool_health.torn_rows_repaired >= 1
            for ev in sc.events:
                serial.apply(ev)
                service.apply(ev)
            assert np.array_equal(np.asarray(service._dist), serial._dist)
            assert np.array_equal(np.asarray(service._tables), serial._tables)

    def test_probabilistic_crashes_over_full_scenario(self, monkeypatch):
        # The chaos-corpus shape: unlimited probabilistic crashes across a
        # whole scenario, serial twin compared after every tick.  Seeded,
        # so the run (including every injected crash) replays exactly.
        _arm(monkeypatch, FaultPlan("storm", 2, (FaultRule("task.crash", p=0.15),)))
        sc = make_scenario("mobility", 30, 20, seed=29)
        serial = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        events = list(sc.events)
        with ShardedRoutingService(
            sc.initial, "kcover", workers=2, rebuild_fraction=1.0
        ) as service:
            for start in range(0, len(events), 5):
                chunk = events[start : start + 5]
                serial.apply_batch(chunk)
                service.apply_batch(chunk)
                assert np.array_equal(np.asarray(service._dist), serial._dist)
                assert np.array_equal(np.asarray(service._tables), serial._tables)
            assert service.pool_health.respawns >= 1  # the storm was real
