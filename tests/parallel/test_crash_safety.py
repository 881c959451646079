"""Seqlock crash safety: a task raising mid-write must not wedge readers.

The write bracket (``write_rows``, and ``row_write`` over one row) flips
each bracketed row's version counter odd on entry and commits it (even
again) in a ``finally`` on exit.  Before writes were bracketed that way, a
task raising between the two flips left the counter odd *forever* — and
every subsequent seqlock read of that row spun its whole retry budget and
died with :class:`TornReadError`.

``crash_in_write`` (in the production ``TASKS`` registry, so ``spawn``
workers resolve it after re-import) raises inside ``row_write``.  These
tests pin, under both start methods:

* the failed task surfaces as :class:`WorkerError` in the parent;
* the row version is even again afterwards (the ``finally`` ran) — also
  for a raise inside ``row_write`` in this process;
* readers — an in-process :class:`AttachedMatrix`, a
  :class:`RouteReader`, and a concurrent reader *process* — keep
  returning clean committed values promptly;
* and why the commit matters: a row left odd (the state only a writer
  *dying* inside the bracket leaves) really does drive readers to
  :class:`TornReadError` (terminates, never spins forever).

The incremental row repair is retry-safe too: a worker killed inside the
``serve_rows`` stage's write bracket leaves every row of that bracket
torn, which the supervisor resets to −1, and the other rows committed
(exact new distances) or untouched.  The retried task repairs committed
rows to a no-op, sends the torn rows (their diagonal is no longer 0) to a
full BFS, and repairs the rest — D and T end bit-identical to the serial
twin.
"""

import multiprocessing

import numpy as np
import pytest

from repro import faults, obs
from repro.dynamic import RoutingService, make_scenario
from repro.errors import TornReadError
from repro.faults import FaultPlan, FaultRule
from repro.parallel import ShardedRoutingService, WorkerError, WorkerPool
from repro.parallel.shm import AttachedMatrix, SharedDirectory, SharedMatrix

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


def _crash(pool, name, row):
    with pytest.raises(WorkerError, match="injected crash"):
        pool.run("crash_in_write", [(name, row)])


def _post(pool, directory):
    """Post what :class:`ShardedRoutingService` posts: the ``(dist,
    tables)`` handles with words ``(generation, pending)``, quiescent."""
    directory.post(
        (pool.matrix_owner("dist").handle, pool.matrix_owner("tables").handle),
        (1, 1),
    )


def _reader_loop(directory, ready, stop, out_q):
    """Concurrent reader process: next_hop(0, 1) until told to stop."""
    from repro.parallel import RouteReader

    reader = RouteReader(directory)
    ready.set()
    reads = 0
    try:
        while not stop.is_set():
            assert reader.next_hop(0, 1) == 3
            reads += 1
        out_q.put(("ok", reads))
    except BaseException as exc:  # pragma: no cover - surfaced by the assert
        out_q.put(("error", repr(exc)))
        raise


@pytest.mark.parametrize("method", START_METHODS)
class TestCrashInsideWriteBracket:
    def test_row_version_restored_and_row_readable(self, method):
        with WorkerPool(1, start_method=method) as pool:
            pool.matrix("m", 4, 4, fill=7)
            _crash(pool, "m", 2)
            owner = pool.matrix_owner("m")
            versions = owner.row_versions
            assert versions is not None and versions[2] % 2 == 0
            attached = AttachedMatrix(owner.handle)
            try:
                assert attached.read_row(2).tolist() == [7, 7, 7, 7]
                assert attached.torn_retries == 0
            finally:
                attached.close()

    def test_route_reader_survives_crashed_writer(self, method):
        with WorkerPool(1, start_method=method) as pool:
            pool.matrix("dist", 4, 4, fill=5)
            pool.matrix("tables", 4, 4, fill=3)
            directory = SharedDirectory()
            try:
                _post(pool, directory)
                from repro.parallel import RouteReader

                reader = RouteReader(directory.name)
                assert reader.next_hop(0, 1) == 3
                _crash(pool, "tables", 0)
                _crash(pool, "dist", 1)
                # Both lookups terminate promptly with the committed values.
                assert reader.next_hop(0, 1) == 3
                assert reader.distance(1, 2) == 5
                assert reader.torn_retries == 0
            finally:
                directory.close()

    def test_concurrent_reader_process_unaffected(self, method):
        ctx = multiprocessing.get_context(method)
        with WorkerPool(1, start_method=method) as pool:
            pool.matrix("dist", 4, 4, fill=5)
            pool.matrix("tables", 4, 4, fill=3)
            directory = SharedDirectory()
            proc = None
            try:
                _post(pool, directory)
                ready, stop = ctx.Event(), ctx.Event()
                out_q = ctx.SimpleQueue()
                proc = ctx.Process(
                    target=_reader_loop, args=(directory.name, ready, stop, out_q)
                )
                proc.start()
                assert ready.wait(timeout=30)
                for _ in range(5):
                    _crash(pool, "tables", 0)
                stop.set()
                status, detail = out_q.get()
                proc.join(timeout=30)
                assert status == "ok", f"reader process failed: {detail}"
                assert detail > 0  # it really was reading while we crashed
                assert proc.exitcode == 0
            finally:
                stop.set()
                if proc is not None and proc.is_alive():  # pragma: no cover
                    proc.terminate()
                    proc.join(timeout=10)
                directory.close()


def test_raise_inside_row_write_commits_the_row():
    """The in-process twin of ``crash_in_write``: the body raises, the
    exception propagates, and the version is even again — for the owner
    and for an attachment alike."""
    m = SharedMatrix(4, 4, fill=7)
    att = AttachedMatrix(m.handle)
    try:
        for writer in (m, att):
            with pytest.raises(RuntimeError, match="boom"):
                with writer.row_write(2) as row:
                    row[:2] = 9
                    raise RuntimeError("boom")
            assert int(m.row_versions[2]) % 2 == 0
        assert att.read_row(2).tolist() == [9, 9, 7, 7]  # committed as left
        assert att.torn_retries == 0
    finally:
        att.close()
        m.close()


def test_unbalanced_bracket_reaches_torn_read_error(monkeypatch):
    """The counter-factual: a row left odd must *terminate* readers.

    With the retry budget ``shm._READ_RETRIES`` shrunk (the production
    200k takes ~20s of backoff), a reader of a row whose writer died
    inside ``row_write`` raises TornReadError instead of spinning forever
    — the state ``row_write``'s commit-on-exit never leaves behind.
    """
    from repro.parallel import shm

    monkeypatch.setattr(shm, "_READ_RETRIES", 2048)
    with WorkerPool(1) as pool:
        pool.matrix("m", 4, 4, fill=7)
        owner = pool.matrix_owner("m")
        owner.row_versions[2] += 1  # simulate a writer that died mid-write
        try:
            attached = AttachedMatrix(owner.handle)
            try:
                with pytest.raises(TornReadError):
                    attached.read_row(2)
                assert attached.read_row(1).tolist() == [7, 7, 7, 7]  # other rows fine
            finally:
                attached.close()
        finally:
            owner.row_versions[2] += 1


@pytest.mark.parametrize("method", START_METHODS)
def test_write_crash_mid_incremental_row_repair(method, monkeypatch):
    """A torn write inside an incremental ``serve_rows`` stage heals exactly."""
    sc = make_scenario("failure", 40, 20, seed=5)
    events = list(sc.events)
    # One worker and one write bracket per stage: the build is two
    # brackets (every D row in one BFS chunk, every T row in one
    # projection), so the third is the first tick's serve_rows repair
    # write, and the crash tears exactly the D rows that tick moves.
    twin = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
    before_tick = twin._dist.copy()
    twin.apply_batch(events[:5])
    torn = int(np.count_nonzero((twin._dist != before_tick).any(axis=1)))
    assert torn > 1, "the first tick must move several rows for the bracket to matter"
    plan = FaultPlan(
        "torn-repair",
        3,
        (FaultRule("write.crash", p=1.0, count=1, after=2, fresh_only=True),),
    )
    monkeypatch.setenv(faults.ENV_PLAN, plan.spec())
    faults.install(plan)
    try:
        serial = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        before = obs.snapshot()
        with ShardedRoutingService(
            sc.initial, "kcover", workers=1, start_method=method, rebuild_fraction=1.0
        ) as service:
            for lo in range(0, len(events), 5):
                serial.apply_batch(events[lo : lo + 5])
                service.apply_batch(events[lo : lo + 5])
                assert np.array_equal(np.asarray(service._dist), serial._dist)
                assert np.array_equal(np.asarray(service._tables), serial._tables)
            assert service.pool_health.respawns == 1
            assert service.pool_health.torn_rows_repaired == torn
            shards = service.metrics()["merged"]["counters"]
        counters = obs.diff_snapshots(before, obs.snapshot())["counters"]
        # The crash hit the row stage, not the table projection ...
        assert counters.get("sharded.crash_full_damage", 0) == 1
        # ... and the respawned worker repaired rows and BFSed the torn ones.
        assert shards.get("serve.rows_repaired", 0) > 0
        assert shards.get("serve.rows_bfs", 0) >= torn
    finally:
        faults.uninstall()
