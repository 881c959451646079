"""Shared-memory transport: share/attach exactness, publishing, matrices.

The data plane's contract is byte-level: an attached snapshot must be
indistinguishable from the original (``share()``/``attach()`` round-trip),
and every publish — in place or into reallocated blocks — must leave
readers seeing exactly the new snapshot.  Matrix rows are written only
through the one ``write_rows`` bracket (:class:`TestWriteRows`), or its
one-row spelling ``row_write`` (:class:`TestRowWrite`).
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.errors import ParameterError, ProtocolError
from repro.graph import CSRGraph, Graph, bfs_distances
from repro.graph.generators import gnp_random_graph, path_graph, random_connected_gnp
from repro.parallel import (
    AttachedCSR,
    AttachedMatrix,
    SharedCSR,
    SharedMatrix,
    WorkerError,
    WorkerPool,
    attach_csr,
)

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


@pytest.fixture
def shared_cleanup():
    owners = []
    yield owners.append
    for owner in owners:
        owner.close()


class TestShareAttachRoundTrip:
    def test_round_trip_is_exact(self, shared_cleanup):
        g = random_connected_gnp(60, 0.12, seed=5)
        csr = g.freeze()
        shared = csr.share()
        shared_cleanup(shared)
        attached = CSRGraph.attach(shared.handle)
        assert attached == csr
        assert attached.num_nodes == csr.num_nodes
        assert attached.num_edges == csr.num_edges
        assert attached.edge_set() == csr.edge_set()
        for u in csr.nodes():
            assert attached.neighbors(u) == csr.neighbors(u)
            assert list(attached.neighbors_csr(u)) == list(csr.neighbors_csr(u))

    def test_attached_graph_runs_the_csr_engine(self, shared_cleanup):
        g = random_connected_gnp(80, 0.08, seed=9)
        csr = g.freeze()
        shared = csr.share()
        shared_cleanup(shared)
        attached = CSRGraph.attach(shared.handle)
        for s in (0, 7, 41):
            assert bfs_distances(attached, s) == bfs_distances(csr, s)

    def test_attach_is_zero_copy(self, shared_cleanup):
        # Writing through the owner must be visible through the attachment:
        # both alias the same shared buffer.
        csr = path_graph(10).freeze()
        shared = csr.share()
        shared_cleanup(shared)
        attached = CSRGraph.attach(shared.handle)
        indptr, indices = attached.numpy_arrays()
        assert not indices.flags.owndata  # a view, not a copy
        shared._idx_view(1)[0] = 7  # poke the shared buffer directly
        assert indices[0] == 7

    def test_attach_rejects_garbage(self):
        with pytest.raises(ParameterError):
            CSRGraph.attach("not-a-handle")

    def test_empty_and_edgeless_graphs(self, shared_cleanup):
        for g in (Graph(0), Graph(5)):
            shared = g.freeze().share()
            shared_cleanup(shared)
            attached = attach_csr(shared.handle)
            assert attached == g.freeze()


class TestPublish:
    def _published_pair(self, g, shared_cleanup):
        csr = g.freeze()
        shared = csr.share()
        shared_cleanup(shared)
        return shared, CSRGraph.attach(shared.handle)

    def test_full_publish_updates_readers(self, shared_cleanup):
        g = random_connected_gnp(40, 0.15, seed=3)
        shared, _old = self._published_pair(g, shared_cleanup)
        g.add_edge(0, g.num_nodes - 1) if not g.has_edge(0, g.num_nodes - 1) else g.remove_edge(
            0, g.num_nodes - 1
        )
        stats = shared.publish(g.freeze())
        assert not stats.reallocated
        assert CSRGraph.attach(shared.handle) == g.freeze()

    def test_export_and_publish_count_the_whole_snapshot(self, shared_cleanup):
        g = random_connected_gnp(50, 0.1, seed=11)
        shared, _ = self._published_pair(g, shared_cleanup)
        indptr, indices = g.freeze().numpy_arrays()
        assert shared.exported.bytes_written == indptr.nbytes + indices.nbytes
        assert shared.exported.reallocated and shared.exported.version == 0
        g.add_edge(0, 2) if not g.has_edge(0, 2) else g.remove_edge(0, 2)
        indptr, indices = g.freeze().numpy_arrays()
        stats = shared.publish(g.freeze())
        assert stats.bytes_written == indptr.nbytes + indices.nbytes
        assert CSRGraph.attach(shared.handle) == g.freeze()

    def test_growth_reallocates_and_stays_exact(self, shared_cleanup):
        g = path_graph(30)
        shared = SharedCSR(g.freeze())
        shared_cleanup(shared)
        old_handle = shared.handle
        g.add_nodes(200)
        for i in range(30, 229):
            g.add_edge(i, i + 1)
        stats = shared.publish(g.freeze())
        assert stats.reallocated
        assert shared.handle.indptr_name != old_handle.indptr_name
        assert CSRGraph.attach(shared.handle) == g.freeze()

    def test_publish_sequence_random_churn(self, shared_cleanup, rng):
        # Many rounds of random edits, node growth among them: the owner's
        # view must equal a fresh freeze after every publish, whether it
        # rewrote the blocks in place or moved to bigger ones.
        g = gnp_random_graph(35, 0.1, seed=14)
        shared, _ = self._published_pair(g, shared_cleanup)
        reallocations = 0
        for _round in range(40):
            if _round % 8 == 7:
                g.add_nodes(int(rng.integers(10, 40)))
            for _ in range(int(rng.integers(1, 12))):
                u, v = (int(x) for x in rng.integers(0, g.num_nodes, 2))
                if u == v:
                    continue
                (g.remove_edge if g.has_edge(u, v) else g.add_edge)(u, v)
            stats = shared.publish(g.freeze())
            reallocations += stats.reallocated
            assert shared.graph() == g.freeze()
            assert CSRGraph.attach(shared.handle) == g.freeze()
        assert reallocations >= 1  # the growth outran the headroom at least once

    def test_degree_preserving_publish_rewrites_in_place(self, shared_cleanup):
        # A 2-swap (remove ab, cd; add ac, bd) keeps every degree: the
        # publish stays in the same blocks, so a worker's refresh re-wraps
        # its existing maps and sees the new adjacency.
        g = path_graph(200)
        shared, _ = self._published_pair(g, shared_cleanup)
        worker = AttachedCSR(shared.handle)
        old_handle = shared.handle
        g.remove_edge(10, 11)
        g.remove_edge(100, 101)
        g.add_edge(10, 100)
        g.add_edge(11, 101)
        csr = g.freeze()
        indptr, indices = csr.numpy_arrays()
        stats = shared.publish(csr)
        assert not stats.reallocated
        assert stats.bytes_written == indptr.nbytes + indices.nbytes
        assert shared.handle.indptr_name == old_handle.indptr_name
        assert shared.handle.indices_name == old_handle.indices_name
        worker.refresh(shared.handle)
        assert worker.version == old_handle.version + 1
        assert worker.graph == csr
        assert worker.graph.neighbors(10) == csr.neighbors(10) == {9, 100}
        worker.close()

    def test_shrinking_publish_stays_in_place_and_exact(self, shared_cleanup):
        # Fewer edges fit the old blocks: no reallocation, and the stale
        # tail of the indices block never shows through the new handle.
        g = random_connected_gnp(60, 0.15, seed=21)
        shared, _ = self._published_pair(g, shared_cleanup)
        before = shared.handle
        for u, v in sorted(g.freeze().edge_set())[::3]:
            g.remove_edge(u, v)
        stats = shared.publish(g.freeze())
        assert not stats.reallocated
        assert shared.handle.indices_name == before.indices_name
        assert shared.handle.num_indices < before.num_indices
        assert shared.graph() == g.freeze()
        assert CSRGraph.attach(shared.handle) == g.freeze()

    def test_closed_owner_rejects_publish(self):
        g = path_graph(5)
        shared = g.freeze().share()
        shared.close()
        with pytest.raises(ParameterError):
            shared.publish(g.freeze())
        shared.close()  # idempotent


class TestSharedMatrix:
    def test_round_trip_and_aliasing(self):
        m = SharedMatrix(4, 6, fill=-1)
        try:
            att = AttachedMatrix(m.handle)
            view = att.array
            assert view.shape == (4, 6)
            assert (view == -1).all()
            with m.row_write(2) as row:
                row[3] = 42
            assert view[2, 3] == 42  # same bytes
            with att.row_write(0) as row:
                row[0] = 7
            assert m.array[0, 0] == 7
            att.close()
        finally:
            m.close()

    def test_grow_within_capacity_keeps_content(self):
        m = SharedMatrix(3, 3, fill=0)
        try:
            for u in range(3):
                with m.row_write(u) as row:
                    row[:] = np.arange(3 * u, 3 * u + 3)
            assert m.resize(5, 5, fill=-1) is False  # no reallocation
            assert (m.array[:3, :3] == np.arange(9).reshape(3, 3)).all()
            assert (m.array[3:, :] == -1).all()
            assert (m.array[:, 3:] == -1).all()
        finally:
            m.close()

    def test_grow_past_capacity_reallocates_and_copies(self):
        m = SharedMatrix(3, 3, fill=5)
        try:
            old_name = m.handle.name
            assert m.resize(80, 80, fill=-1) is True
            assert m.handle.name != old_name
            assert (m.array[:3, :3] == 5).all()
            assert (m.array[3:, :] == -1).all()
        finally:
            m.close()

    def test_shrink_then_grow_refills_border(self):
        m = SharedMatrix(6, 6, fill=9)
        try:
            m.resize(3, 3)
            m.resize(6, 6, fill=-1)
            assert (m.array[:3, :3] == 9).all()
            assert (m.array[3:, :] == -1).all()
        finally:
            m.close()


class TestVersionedMatrix:
    """The seqlock layer concurrent readers ride (repro.parallel.sharded)."""

    def test_write_brackets_flip_parity(self):
        m = SharedMatrix(4, 4, fill=0)
        try:
            att = AttachedMatrix(m.handle)
            assert int(att.versions[2]) == 0
            with att.row_write(2) as row:
                assert int(att.versions[2]) == 1  # odd: in progress
                row[:] = 7
            assert int(att.versions[2]) == 2  # even: committed
            assert (att.read_row(2) == 7).all()
            assert att.read_cell(2, 3) == 7
            assert att.torn_retries == 0
            att.close()
        finally:
            m.close()

    def test_every_matrix_carries_zeroed_counters(self):
        # No option turns the seqlock off: a plain matrix has one even
        # counter per allocated row, shared with every attachment.
        m = SharedMatrix(3, 5)
        try:
            handle = m.handle
            assert isinstance(handle.versions_name, str)
            assert m.row_versions.shape == (handle.capacity[0],)
            assert (m.row_versions == 0).all()
            att = AttachedMatrix(handle)
            assert (att.versions == 0).all()
            with m.row_write(1) as row:
                row[:] = 4
            assert int(att.versions[1]) == 2
            assert att.read_row(1).tolist() == [4] * 5
            att.close()
        finally:
            m.close()

    def test_reader_retries_while_writer_holds_the_row(self):
        import threading
        import time

        m = SharedMatrix(4, 4, fill=0)
        try:
            att = AttachedMatrix(m.handle)
            holding = threading.Event()

            def write_slowly():
                with m.row_write(1) as out:  # writer holds row 1 (odd version)
                    out[:] = 99
                    holding.set()
                    time.sleep(0.05)

            t = threading.Thread(target=write_slowly)
            t.start()
            assert holding.wait(timeout=10)
            row = att.read_row(1)  # must spin until the commit, then succeed
            t.join()
            assert (row == 99).all()
            assert att.torn_retries > 0  # the held row was observed and retried
            att.close()
        finally:
            m.close()

    def test_dead_writer_surfaces_as_torn_read_error(self, monkeypatch):
        from repro.errors import TornReadError
        from repro.parallel import shm

        m = SharedMatrix(3, 3, fill=0)
        try:
            att = AttachedMatrix(m.handle)
            m.row_versions[0] += 1  # a writer that died inside row_write
            monkeypatch.setattr(shm, "_READ_RETRIES", 50)
            with pytest.raises(TornReadError):
                att.read_row(0)
            with pytest.raises(TornReadError):
                att.read_cell(0, 0)
            att.close()
        finally:
            m.close()

    def test_reallocation_carries_the_counters_forward(self):
        m = SharedMatrix(3, 3)
        try:
            with m.row_write(2):
                pass
            old_versions_name = m.handle.versions_name
            assert m.resize(80, 80, fill=-1) is True
            assert m.handle.versions_name != old_versions_name
            assert int(m.row_versions[2]) == 2  # monotone across the swap
            assert int(m.row_versions[79]) == 0
        finally:
            m.close()


class _WriterDuringGather:
    """Stands in for an attachment's array: the first gather finds a
    writer that entered row *u* after the reader captured the versions —
    it half-writes the row and, with ``commit``, finishes the write before
    the gather returns (the version then moved by two, even to even)."""

    def __init__(self, att, u, *, commit):
        self.arr, self.ver, self.u, self.commit = att._arr, att.versions, u, commit
        self.fired = False

    def __getitem__(self, key):
        if not self.fired:
            self.fired = True
            self.ver[self.u] += 1  # row_write entered: odd
            self.arr[self.u, :2] = -7  # half-written
            torn = self.arr[key].copy()
            if self.commit:
                self.arr[self.u] = 5
                self.ver[self.u] += 1  # committed: even again
            return torn
        return self.arr[key]


class TestReadCells:
    """``AttachedMatrix.read_cells``: one capture, gather, re-load pass, and
    only committed cells out."""

    def test_gathers_committed_cells(self):
        m = SharedMatrix(4, 4, fill=0)
        try:
            for u in range(4):
                with m.row_write(u) as row:
                    row[:] = 10 * u + np.arange(4)
            att = AttachedMatrix(m.handle)
            us, vs = np.array([3, 0, 2, 3]), np.array([1, 0, 3, 1])
            assert att.read_cells(us, vs).tolist() == [31, 0, 23, 31]
            assert att.read_cells(us[:0], vs[:0]).tolist() == []
            assert att.torn_retries == 0
            att.close()
        finally:
            m.close()

    def test_never_returns_a_cell_of_a_row_held_open(self, monkeypatch):
        from repro.errors import TornReadError
        from repro.parallel import shm

        monkeypatch.setattr(shm, "_READ_RETRIES", 50)
        m = SharedMatrix(3, 3, fill=1)
        try:
            att = AttachedMatrix(m.handle)
            with m.row_write(1) as row:  # held open for the whole read
                row[:] = -7
                with pytest.raises(TornReadError):
                    att.read_cells(np.array([0, 1]), np.array([2, 0]))
            assert att.read_cells(np.array([0, 1]), np.array([2, 0])).tolist() == [1, -7]
            att.close()
        finally:
            m.close()

    @pytest.mark.parametrize("commit", [False, True])
    def test_a_write_entering_mid_gather_is_reread(self, commit, monkeypatch):
        # The re-load is what catches this: the captured versions were all
        # even, and only the second load sees the row moved.
        from repro.errors import TornReadError
        from repro.parallel import shm

        monkeypatch.setattr(shm, "_READ_RETRIES", 50)
        m = SharedMatrix(3, 3, fill=1)
        try:
            att = AttachedMatrix(m.handle)
            att._arr = _WriterDuringGather(att, 1, commit=commit)
            us, vs = np.array([0, 1, 2]), np.array([1, 0, 2])
            if commit:
                assert att.read_cells(us, vs).tolist() == [1, 5, 1]  # the committed row
            else:
                with pytest.raises(TornReadError):
                    att.read_cells(us, vs)
            att.close()
        finally:
            m.close()

    def test_reader_answers_a_torn_refusal(self, monkeypatch):
        from repro import obs
        from repro.dynamic import make_scenario
        from repro.parallel import RouteReader, ShardedRoutingService, shm

        sc = make_scenario("failure", 20, 4, seed=2)
        with ShardedRoutingService(sc.initial, "kcover", workers=1) as service:
            owner = service._pool.matrix_owner("serve:tables")
            with RouteReader(service.reader_handle()) as reader:
                us, vs = np.array([2, 0, 2]), np.array([5, 3, 7])
                served = reader.next_hops(us, vs)
                monkeypatch.setattr(shm, "_READ_RETRIES", 50)
                before = obs.metrics().counter("reader.torn_refusals")
                with owner.row_write(2):  # row 2's writer is mid-write throughout
                    hops = reader.next_hops(us, vs)
                    assert reader.next_hop(2, 5) is None
                assert hops.tolist() == [-1, served[1], -1]
                assert obs.metrics().counter("reader.torn_refusals") - before == 3


def _nested_write_child(handle, out_q) -> None:
    """Worker-process body: a nested ``row_write`` on one attached row."""
    att = AttachedMatrix(handle)
    try:
        with att.row_write(3):
            with att.row_write(3):
                pass
    except ProtocolError as exc:
        out_q.put(("ProtocolError", str(exc)))
    else:  # pragma: no cover - surfaced by the assert
        out_q.put(("no error", ""))
    finally:
        att.close()


class TestRowWrite:
    """``with m.row_write(u) as row:`` is the one write bracket over one row."""

    def test_versioned_array_is_read_only(self):
        m = SharedMatrix(4, 4, fill=0)
        att = AttachedMatrix(m.handle)
        try:
            for view in (m.array, att.array):
                with pytest.raises(ValueError, match="read-only"):
                    view[1, 2] = 5
                with pytest.raises(ValueError, match="read-only"):
                    view[1] = 5
            with att.row_write(1) as row:
                row[2] = 5
            assert m.array[1, 2] == 5 and att.read_cell(1, 2) == 5
            assert int(m.row_versions[1]) == 2
        finally:
            att.close()
            m.close()

    def test_pool_hands_out_read_only_versioned_views(self):
        with WorkerPool(1, start_method=START_METHODS[0]) as pool:
            for name, shape in (("d", (3, 3)), ("s", (3, 1))):
                view = pool.matrix(name, *shape, fill=0)
                with pytest.raises(ValueError, match="read-only"):
                    view[0, 0] = 1
                with pool.matrix_owner(name).row_write(0) as row:
                    row[0] = 1
                assert view[0, 0] == 1

    def test_a_raising_body_still_commits_the_row(self):
        # The body's partial write stays, but the version goes even again,
        # so readers take the row at once instead of spinning on it.
        m = SharedMatrix(3, 4, fill=0)
        att = AttachedMatrix(m.handle)
        try:
            with pytest.raises(RuntimeError, match="abandoned"):
                with m.row_write(1) as row:
                    row[0] = 6
                    raise RuntimeError("abandoned mid-row")
            assert int(m.row_versions[1]) == 2
            assert att.read_row(1).tolist() == [6, 0, 0, 0]
            assert att.torn_retries == 0
            with m.row_write(1) as row:  # the row is free for the next writer
                row[:] = 8
            assert m.array.tolist() == [[0] * 4, [8] * 4, [0] * 4]
        finally:
            att.close()
            m.close()

    def test_nested_row_write_raises(self):
        m = SharedMatrix(4, 4, fill=0)
        att = AttachedMatrix(m.handle)
        try:
            for outer, inner in ((m, m), (m, att), (att, att)):
                with outer.row_write(3) as row:
                    row[:] = 1
                    with pytest.raises(ProtocolError, match="already mid-write"):
                        with inner.row_write(3):
                            pass  # pragma: no cover - entry raises
                    assert int(m.row_versions[3]) % 2 == 1  # still held, not flipped
                assert int(m.row_versions[3]) % 2 == 0
            assert att.read_row(3).tolist() == [1, 1, 1, 1]
        finally:
            att.close()
            m.close()

    @pytest.mark.parametrize("method", START_METHODS)
    def test_nested_row_write_raises_inside_worker_processes(self, method):
        # The check is part of row_write itself: it fires in fresh fork
        # and spawn processes alike.
        ctx = multiprocessing.get_context(method)
        m = SharedMatrix(8, 8, fill=0)
        try:
            out_q = ctx.SimpleQueue()
            proc = ctx.Process(target=_nested_write_child, args=(m.handle, out_q))
            proc.start()
            kind, message = out_q.get()
            proc.join(timeout=30)
            assert kind == "ProtocolError" and "already mid-write" in message
            assert proc.exitcode == 0
            assert int(m.row_versions[3]) == 2  # the outer write committed
        finally:
            m.close()

    @pytest.mark.parametrize("method", START_METHODS)
    def test_pool_worker_refuses_a_row_already_mid_write(self, method):
        with WorkerPool(1, start_method=method) as pool:
            pool.matrix("d", 8, 8, fill=0)
            owner = pool.matrix_owner("d")
            with owner.row_write(3):
                with pytest.raises(WorkerError, match="ProtocolError"):
                    pool.run("crash_in_write", [("d", 3)])
            assert int(owner.row_versions[3]) == 2
            with pytest.raises(WorkerError, match="injected crash"):
                pool.run("crash_in_write", [("d", 3)])  # a fresh write proceeds
            assert int(owner.row_versions[3]) == 4

    def test_bracket_primitives_are_unreachable_outside_shm(self):
        # The layering table's seqlock_bracket row keeps every spelling of
        # the raw bracket inside shm.py; here, no public method exposes it.
        for cls in (SharedMatrix, AttachedMatrix):
            assert not hasattr(cls, "begin_row_write")
            assert not hasattr(cls, "end_row_write")


class TestWriteRows:
    """``with m.write_rows(rows) as arr:`` is the one write bracket."""

    def test_bracketed_rows_are_odd_inside_and_even_after_a_raising_body(self):
        m = SharedMatrix(6, 6, fill=0)
        att = AttachedMatrix(m.handle)
        try:
            for writer in (m, att):
                before = m.row_versions[:6].copy()
                with pytest.raises(RuntimeError, match="body failed"):
                    with writer.write_rows([4, 1, 4]) as arr:
                        assert (m.row_versions[[1, 4]] % 2 == 1).all()
                        assert (m.row_versions[[0, 2, 3, 5]] % 2 == 0).all()
                        arr[[1, 4], 2] = 9
                        raise RuntimeError("body failed")
                after = m.row_versions[:6]
                assert (after % 2 == 0).all()
                assert (after - before).tolist() == [0, 2, 0, 0, 2, 0]
            assert att.read_row(4).tolist() == [0, 0, 9, 0, 0, 0]
        finally:
            att.close()
            m.close()

    def test_a_bracket_overlapping_a_row_mid_write_raises(self):
        m = SharedMatrix(6, 6, fill=0)
        att = AttachedMatrix(m.handle)
        try:
            with m.write_rows([2, 3]):
                with pytest.raises(ProtocolError, match="already mid-write"):
                    with att.write_rows([0, 3]):  # row 3 is held open
                        pass  # pragma: no cover - entry raises
                assert int(m.row_versions[0]) == 0  # refused before touching anything
                assert (m.row_versions[[2, 3]] % 2 == 1).all()
                with att.write_rows([0, 5]) as arr:  # disjoint rows proceed
                    arr[0, 0] = 1
            assert (m.row_versions[:6] % 2 == 0).all()
            assert m.array[0, 0] == 1
        finally:
            att.close()
            m.close()

    def test_views_are_built_once_and_rewrapped_on_resize(self):
        m = SharedMatrix(4, 4, fill=0)
        try:
            assert m.array is m.array and m.row_versions is m.row_versions
            assert not m.array.flags.writeable
            m.resize(5, 5, fill=-1)  # within capacity: a new shape, same blocks
            assert m.array.shape == (5, 5) and m.array[4, 4] == -1
            m.resize(200, 200, fill=-1)  # past capacity: new blocks
            assert m.array.shape == (200, 200) and (m.array[:4, :4] == 0).all()
            assert not m.array.flags.writeable and m.row_versions.size >= 200
            with m.row_write(150) as row:
                row[:] = 3
            assert m.array[150, 199] == 3 and m.row_versions[150] == 2
        finally:
            m.close()


class TestNoKnobCreep:
    """The runtime switches stay the obs switch and the fault plane's two
    (the layering table's env_* rows); everything else is a constant where
    it is used."""

    def test_tuning_holds_only_the_obs_switch(self):
        from repro import tuning

        assert [f.name for f in dataclasses.fields(tuning.Tuning)] == ["obs"]
        assert dataclasses.asdict(tuning.get()) == {"obs": 1}


def _post_changing_lengths(directory, stop):
    """Forked child: post payloads whose length keeps changing until *stop*."""
    k = 0
    while not stop.is_set():
        k += 1
        directory.post((k, b"x" * (k % 40 * 97)))


class TestSharedDirectory:
    def test_post_read_round_trip(self):
        from repro.parallel import AttachedDirectory, SharedDirectory

        d = SharedDirectory()
        try:
            att = AttachedDirectory(d.name)
            gen0 = att.generation()
            d.post({"hello": [1, 2, 3]})
            payload, gen = att.read()
            assert payload == {"hello": [1, 2, 3]}
            assert gen > gen0 and gen % 2 == 0
            d.post(("second", 42))
            assert att.generation() > gen
            payload2, _ = att.read()
            assert payload2 == ("second", 42)
            att.close()
        finally:
            d.close()

    def test_words_only_post_skips_the_payload(self):
        from repro.parallel import AttachedDirectory, SharedDirectory

        d = SharedDirectory()
        try:
            att = AttachedDirectory(d.name)
            d.post(("handles", 1), (3, 4))
            first = att.poll(-1)
            assert (first.payload, first.words) == (("handles", 1), (3, 4))
            d.post(("handles", 1), (5, 6))  # same bytes: the version holds
            same = att.poll(first.version)
            assert (same.payload, same.version, same.words) == (None, first.version, (5, 6))
            assert same.generation > first.generation
            d.post(("handles", 2), (5, 6))
            moved = att.poll(first.version)
            assert (moved.payload, moved.version) == (("handles", 2), first.version + 1)
            assert att.read() == (("handles", 2), moved.generation)
            att.close()
        finally:
            d.close()

    def test_oversized_payload_is_rejected(self):
        from repro.parallel import SharedDirectory

        d = SharedDirectory()
        try:
            with pytest.raises(ParameterError):
                d.post(b"x" * 8192)
        finally:
            d.close()

    def test_odd_header_raises_torn_read_error(self, monkeypatch):
        from repro.errors import TornReadError
        from repro.parallel import AttachedDirectory, SharedDirectory, shm

        d = SharedDirectory()
        att = AttachedDirectory(d.name)
        try:
            d.post("committed")
            np.ndarray((2,), dtype=np.int64, buffer=d._shm.buf)[0] += 1  # owner died mid-post
            monkeypatch.setattr(shm, "_READ_RETRIES", 50)
            with pytest.raises(TornReadError):
                att.read()
        finally:
            att.close()
            d.close()

    @pytest.mark.skipif("fork" not in START_METHODS, reason="the poster shares the owner by fork")
    def test_concurrent_posts_of_changing_length_never_tear(self):
        import time

        from repro.parallel import AttachedDirectory, SharedDirectory

        ctx = multiprocessing.get_context("fork")
        d = SharedDirectory()
        att = AttachedDirectory(d.name)
        stop = ctx.Event()
        poster = ctx.Process(target=_post_changing_lengths, args=(d, stop))
        poster.start()
        try:
            gen0 = att.generation()
            while att.generation() == gen0:  # the poster is running
                pass
            seen = set()
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                (k, blob), gen = att.read()
                assert blob == b"x" * (k % 40 * 97) and gen % 2 == 0
                seen.add(k)
        finally:
            stop.set()
            poster.join(timeout=30)
            att.close()
            d.close()
        assert len(seen) > 2  # the reads really raced the posts
