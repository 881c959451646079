"""Shared-memory transport: share/attach exactness, delta publish, matrices.

The data plane's contract is byte-level: an attached snapshot must be
indistinguishable from the original (``share()``/``attach()`` round-trip),
and a delta publish must leave attached readers seeing exactly the new
snapshot while shipping fewer bytes than a full rewrite.  Versioned rows
are written only through ``row_write`` (:class:`TestRowWrite`).
"""

import ast
import dataclasses
import functools
import multiprocessing
import re
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ParameterError, ProtocolError
from repro.graph import CSRGraph, Graph, bfs_distances
from repro.graph.generators import gnp_random_graph, path_graph, random_connected_gnp
from repro.parallel import (
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
REPO_ROOT = Path(__file__).resolve().parents[2]


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


class TestDeltaPublish:
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

    def test_degree_preserving_delta_writes_only_dirty_rows(self, shared_cleanup):
        # A 2-swap (remove ab, cd; add ac, bd) preserves every degree, so
        # the delta path must write just the four dirty rows' spans.
        g = path_graph(200)
        shared, _ = self._published_pair(g, shared_cleanup)
        g.remove_edge(10, 11)
        g.remove_edge(100, 101)
        g.add_edge(10, 100)
        g.add_edge(11, 101)
        csr = g.freeze()
        full_bytes = csr.numpy_arrays()[0].nbytes + csr.numpy_arrays()[1].nbytes
        stats = shared.publish(csr, dirty_rows=[10, 11, 100, 101])
        assert stats.rows_rewritten == 4
        assert stats.bytes_written == 8 * np.dtype(np.intc).itemsize  # 4 rows × 2 ids
        assert stats.bytes_written < full_bytes // 10
        assert CSRGraph.attach(shared.handle) == csr

    def test_suffix_delta_when_degrees_change(self, shared_cleanup):
        g = path_graph(400)
        shared, _ = self._published_pair(g, shared_cleanup)
        g.add_edge(390, 395)  # late rows: only a short suffix shifts
        csr = g.freeze()
        full_bytes = csr.numpy_arrays()[0].nbytes + csr.numpy_arrays()[1].nbytes
        stats = shared.publish(csr, dirty_rows=[390, 395])
        assert stats.bytes_written < full_bytes // 4
        assert CSRGraph.attach(shared.handle) == csr

    def test_publish_without_hint_is_full_and_exact(self, shared_cleanup):
        g = random_connected_gnp(50, 0.1, seed=11)
        shared, _ = self._published_pair(g, shared_cleanup)
        g.add_edge(0, 2) if not g.has_edge(0, 2) else g.remove_edge(0, 2)
        stats = shared.publish(g.freeze())
        assert stats.rows_rewritten == -1  # full rewrite
        assert CSRGraph.attach(shared.handle) == g.freeze()

    def test_growth_reallocates_and_stays_exact(self, shared_cleanup):
        g = path_graph(30)
        csr = g.freeze()
        shared = SharedCSR(csr, capacity_nodes=31, capacity_indices=60)
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
        # Many rounds of random edits with accurate dirty hints: the
        # attached view must equal a fresh freeze after every publish.
        g = gnp_random_graph(35, 0.1, seed=14)
        shared, _ = self._published_pair(g, shared_cleanup)
        for _round in range(25):
            dirty = set()
            for _ in range(int(rng.integers(1, 4))):
                u, v = (int(x) for x in rng.integers(0, g.num_nodes, 2))
                if u == v:
                    continue
                (g.remove_edge if g.has_edge(u, v) else g.add_edge)(u, v)
                dirty |= {u, v}
            shared.publish(g.freeze(), dirty_rows=dirty)
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
            from repro.parallel import AttachedMatrix

            att = AttachedMatrix(m.handle)
            view = att.array
            assert view.shape == (4, 6)
            assert (view == -1).all()
            m.array[2, 3] = 42
            assert view[2, 3] == 42  # same bytes
            view[0, 0] = 7
            assert m.array[0, 0] == 7
            att.close()
        finally:
            m.close()

    def test_grow_within_capacity_keeps_content(self):
        m = SharedMatrix(3, 3, capacity_rows=10, capacity_cols=10, fill=0)
        try:
            m.array[:] = np.arange(9).reshape(3, 3)
            assert m.resize(5, 5, fill=-1) is False  # no reallocation
            assert (m.array[:3, :3] == np.arange(9).reshape(3, 3)).all()
            assert (m.array[3:, :] == -1).all()
            assert (m.array[:, 3:] == -1).all()
        finally:
            m.close()

    def test_grow_past_capacity_reallocates_and_copies(self):
        m = SharedMatrix(3, 3, capacity_rows=3, capacity_cols=3)
        try:
            m.array[:] = 5
            old_name = m.handle.name
            assert m.resize(8, 8, fill=-1) is True
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

    def test_unversioned_matrix_has_no_counters(self):
        m = SharedMatrix(3, 3)
        try:
            assert m.handle.versions_name is None
            assert m.row_versions is None
            with m.row_write(1) as row:  # no counters to flip, not an error
                row[:] = 4
            att = AttachedMatrix(m.handle)
            assert att.versions is None
            assert (att.read_row(0) == m.array[0]).all()
            att.close()
        finally:
            m.close()

    def test_write_brackets_flip_parity(self):
        m = SharedMatrix(4, 4, versioned=True, fill=0)
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

    def test_reader_retries_while_writer_holds_the_row(self):
        import threading
        import time

        m = SharedMatrix(4, 4, versioned=True, fill=0)
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

        m = SharedMatrix(3, 3, versioned=True, fill=0)
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
        m = SharedMatrix(3, 3, capacity_rows=3, capacity_cols=3, versioned=True)
        try:
            with m.row_write(2):
                pass
            old_versions_name = m.handle.versions_name
            assert m.resize(8, 8, fill=-1) is True
            assert m.handle.versions_name != old_versions_name
            assert int(m.row_versions[2]) == 2  # monotone across the swap
            assert int(m.row_versions[7]) == 0
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
        m = SharedMatrix(4, 4, versioned=True, fill=0)
        try:
            for u in range(4):
                with m.row_write(u) as row:
                    row[:] = 10 * u + np.arange(4)
            att = AttachedMatrix(m.handle)
            us, vs = np.array([3, 0, 2, 3]), np.array([1, 0, 3, 1])
            assert att.read_cells(us, vs).tolist() == [31, 0, 23, 31]
            assert att.read_cells(us[:0], vs[:0]).tolist() == []
            assert att.torn_retries == 0
            plain = SharedMatrix(2, 2, fill=4)
            try:
                assert AttachedMatrix(plain.handle).read_cells(us[:1] - 2, vs[:1]).tolist() == [4]
            finally:
                plain.close()
            att.close()
        finally:
            m.close()

    def test_never_returns_a_cell_of_a_row_held_open(self, monkeypatch):
        from repro.errors import TornReadError
        from repro.parallel import shm

        monkeypatch.setattr(shm, "_READ_RETRIES", 50)
        m = SharedMatrix(3, 3, versioned=True, fill=1)
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
        m = SharedMatrix(3, 3, versioned=True, fill=1)
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


#: Names only ``parallel/shm.py`` may use: spellings of the raw seqlock
#: bracket and the writable-view hooks behind ``row_write``.
_BRACKET_NAMES = frozenset(
    {
        "begin_row_write",
        "end_row_write",
        "_begin_row_write",
        "_end_row_write",
        "_writable",
        "_versions",
    }
)
_COUNTER_VIEWS = frozenset({"row_versions", "versions"})


def _bracket_uses(tree: ast.AST) -> "list[int]":
    """Lines of *tree* that touch the bracket outside ``row_write``: a
    bracket-name reference, or a store into a row-version counter view."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _BRACKET_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in _BRACKET_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for tgt in targets:
                base = tgt.value if isinstance(tgt, ast.Subscript) else None
                if isinstance(base, ast.Attribute) and base.attr in _COUNTER_VIEWS:
                    lines.append(node.lineno)
    return sorted(lines)


#: What the one seqlock read loop (``shm._read_stable``) may call besides
#: the conversion its caller passes, and the conversions callers may pass.
#: None of them can park the reader, so the loop stays a bounded spin.
_READ_LOOP_CALLS = frozenset({"int", "range", "_spin", "obs.inc"})
_READ_CASTS = frozenset({"int", "bytes", "np.array"})
_CAST_ARG = 4  # _read_stable(ver, i, data, key, cast, owner=None)


def read_loop_violations(modules) -> "list[str]":
    """Breaches of the single-read-loop structure over *modules*, the
    ``(label, ast)`` pairs standing for ``src/repro``: exactly one
    ``_read_stable`` holding exactly one loop, that loop calling only
    :data:`_READ_LOOP_CALLS` and its cast parameter, ``_spin`` referenced
    nowhere else, and every caller passing a cast from :data:`_READ_CASTS`."""
    out = []
    readers = []
    for label, tree in modules:
        inside = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "_read_stable":
                readers.append((label, node))
                inside |= {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = ast.unparse(node)
            else:
                name = ""
            if name.split(".")[-1] == "_spin" and id(node) not in inside:
                out.append(f"{label}:{node.lineno}: _spin outside _read_stable")
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_read_stable"):
                cast = [kw.value for kw in node.keywords if kw.arg == "cast"]
                cast += node.args[_CAST_ARG : _CAST_ARG + 1]
                if not cast or ast.unparse(cast[0]) not in _READ_CASTS:
                    out.append(f"{label}:{node.lineno}: _read_stable cast not in {sorted(_READ_CASTS)}")
    if len(readers) != 1:
        return out + [f"expected one _read_stable, found {len(readers)}"]
    label, reader = readers[0]
    loops = [n for n in ast.walk(reader) if isinstance(n, (ast.For, ast.While))]
    if len(loops) != 1:
        return out + [f"{label}: expected one loop in _read_stable, found {len(loops)}"]
    allowed = _READ_LOOP_CALLS | {reader.args.args[_CAST_ARG].arg}
    for node in ast.walk(loops[0]):
        if isinstance(node, ast.Call) and ast.unparse(node.func) not in allowed:
            out.append(f"{label}:{node.lineno}: {ast.unparse(node.func)}() in the read loop")
    return out


SHM_PATH = "src/repro/parallel/shm.py"


def shm_source(*, sleep_in_read_loop: bool = False) -> str:
    """``parallel/shm.py``'s source, optionally with a blocking call
    inserted into the ``_read_stable`` loop (a mutation the guard must
    catch)."""
    source = (REPO_ROOT / SHM_PATH).read_text(encoding="utf-8")
    copy_line = "            value = cast(data[key])\n"
    assert source.count(copy_line) == 1
    if sleep_in_read_loop:
        source = source.replace(copy_line, "            time.sleep(0.001)\n" + copy_line)
    return source


#: The classes that own shared-memory blocks; only their methods create one.
_BLOCK_OWNERS = frozenset({"SharedCSR", "SharedMatrix", "SharedDirectory"})


def ownership_violations(modules) -> "list[str]":
    """Breaches of single block ownership over *modules*, the ``(label,
    ast)`` pairs standing for ``src/repro``: exactly one ``_free_block``,
    in ``shm.py``, holding the only ``.unlink()`` call (``os.unlink`` of a
    file path is not a block), and ``_create_block`` called only from
    methods of :data:`_BLOCK_OWNERS` in ``shm.py``."""
    out = []
    helpers = 0
    for label, tree in modules:
        in_helper, in_owner = set(), set()
        for node in tree.body if label == SHM_PATH else ():
            if isinstance(node, ast.FunctionDef) and node.name == "_free_block":
                helpers += 1
                in_helper |= {id(sub) for sub in ast.walk(node)}
            if isinstance(node, ast.ClassDef) and node.name in _BLOCK_OWNERS:
                in_owner |= {
                    id(sub)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    for sub in ast.walk(method)
                }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            if func.endswith(".unlink") and func != "os.unlink" and id(node) not in in_helper:
                out.append(f"{label}:{node.lineno}: {func}() outside _free_block")
            if func.split(".")[-1] == "_create_block" and id(node) not in in_owner:
                out.append(f"{label}:{node.lineno}: _create_block() outside an owner method")
    if helpers != 1:
        out.append(f"expected one _free_block in {SHM_PATH}, found {helpers}")
    return out


def repro_modules_with(source: str, label: str = SHM_PATH) -> "list[tuple[str, ast.Module]]":
    """:func:`repro_modules` with module *label* (``shm.py`` by default)
    replaced by, or joined by, *source*."""
    modules = dict(repro_modules())
    modules[label] = ast.parse(source)
    return sorted(modules.items())


@functools.lru_cache(maxsize=1)
def repro_modules() -> "tuple[tuple[str, ast.Module], ...]":
    """Every module under ``src/repro`` as ``(relative path, ast)``."""
    root = REPO_ROOT / "src" / "repro"
    return tuple(
        (str(path.relative_to(REPO_ROOT)), ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(root.rglob("*.py"))
    )


class TestRowWrite:
    """``with m.row_write(u) as row:`` is the only way to write a versioned row."""

    def test_versioned_array_is_read_only(self):
        m = SharedMatrix(4, 4, versioned=True, fill=0)
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
            versioned = pool.matrix("d", 3, 3, fill=0, versioned=True)
            plain = pool.matrix("s", 3, 1, fill=0)
            with pytest.raises(ValueError, match="read-only"):
                versioned[0, 0] = 1
            plain[0, 0] = 1  # unversioned: writable as before
            assert pool.matrix_owner("s").array[0, 0] == 1

    def test_unversioned_row_write_is_a_plain_row_view(self):
        m = SharedMatrix(3, 4, fill=0)
        try:
            assert m.array.flags.writeable
            with m.row_write(2) as row:
                row[:] = 8
            with pytest.raises(RuntimeError):
                with m.row_write(1) as row:
                    row[0] = 6
                    raise RuntimeError("no counters to restore")
            with m.row_write(0):
                with m.row_write(0):  # nesting is harmless without counters
                    pass
            assert m.array.tolist() == [[0] * 4, [6, 0, 0, 0], [8] * 4]
        finally:
            m.close()

    def test_nested_row_write_raises(self):
        m = SharedMatrix(4, 4, versioned=True, fill=0)
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
        m = SharedMatrix(8, 8, versioned=True, fill=0)
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
            pool.matrix("d", 8, 8, versioned=True, fill=0)
            owner = pool.matrix_owner("d")
            with owner.row_write(3):
                with pytest.raises(WorkerError, match="ProtocolError"):
                    pool.run("crash_in_write", [("d", 3)])
            assert int(owner.row_versions[3]) == 2
            with pytest.raises(WorkerError, match="injected crash"):
                pool.run("crash_in_write", [("d", 3)])  # a fresh write proceeds
            assert int(owner.row_versions[3]) == 4

    def test_bracket_primitives_are_unreachable_outside_shm(self):
        for cls in (SharedMatrix, AttachedMatrix):
            assert not hasattr(cls, "begin_row_write")
            assert not hasattr(cls, "end_row_write")
        shm_module = REPO_ROOT / "src" / "repro" / "parallel" / "shm.py"
        offenders = []
        scanned = 0
        for top in ("src", "benchmarks", "scripts"):
            for path in sorted((REPO_ROOT / top).rglob("*.py")):
                if path == shm_module:
                    continue
                scanned += 1
                tree = ast.parse(path.read_text(encoding="utf-8"))
                offenders += [f"{path.relative_to(REPO_ROOT)}:{n}" for n in _bracket_uses(tree)]
        assert scanned > 50
        assert offenders == [], "raw seqlock bracket outside shm.py: " + ", ".join(offenders)
        assert _bracket_uses(ast.parse(shm_module.read_text(encoding="utf-8")))  # scan sees it

    def test_bracket_scan_flags_every_spelling(self):
        source = (
            "m.begin_row_write(u)\n"
            "m._end_row_write(u)\n"
            "row = m._writable()[u]\n"
            "m.row_versions[u] += 1\n"
            "att.versions[u] = 0\n"
            "with m.row_write(u) as row:\n"
            "    row[:] = 1\n"
            "x = m.row_versions[u]\n"
        )
        assert _bracket_uses(ast.parse(source)) == [1, 2, 3, 4, 5]


class TestReadLoop:
    """Every seqlock read goes through the one ``_read_stable`` loop."""

    def test_repo_has_one_read_loop_and_nothing_blocks_in_it(self):
        modules = repro_modules()
        assert len(modules) > 50
        assert read_loop_violations(modules) == []

    def test_guard_flags_each_breach(self):
        found = read_loop_violations(repro_modules_with(shm_source(sleep_in_read_loop=True)))
        assert any("time.sleep()" in v for v in found)
        lambda_cast = shm_source().replace("(u, v), int, self)", "(u, v), lambda x: int(x), self)")
        found = read_loop_violations(repro_modules_with(lambda_cast))
        assert any("cast not in" in v for v in found)
        hand_rolled = ast.parse(
            "from .shm import _spin\n"
            "def read(ver, arr, u):\n"
            "    for attempt in range(9):\n"
            "        if not ver[u] & 1:\n"
            "            return arr[u]\n"
            "        _spin(attempt)\n"
        )
        found = read_loop_violations([*repro_modules(), ("src/repro/other.py", hand_rolled)])
        assert found == [
            "src/repro/other.py:1: _spin outside _read_stable",
            "src/repro/other.py:6: _spin outside _read_stable",
        ]


class TestOwnership:
    """Only the owners create blocks, and only ``_free_block`` unlinks one."""

    def test_blocks_have_one_owner_and_one_release(self):
        assert ownership_violations(repro_modules()) == []
        creates = [
            n
            for n in ast.walk(dict(repro_modules())[SHM_PATH])
            if isinstance(n, ast.Call) and ast.unparse(n.func) == "_create_block"
        ]
        assert len(creates) >= 5  # the scan sees the owners' allocations

    def test_guard_flags_each_breach(self):
        stray_unlink = "def close(pool, owner):\n    owner._shm.unlink()\n"
        found = ownership_violations(
            repro_modules_with(stray_unlink, "src/repro/parallel/pool.py")
        )
        assert found == ["src/repro/parallel/pool.py:2: owner._shm.unlink() outside _free_block"]
        free_side_door = shm_source() + "\ndef scratch(n):\n    return _create_block(n)\n"
        found = ownership_violations(repro_modules_with(free_side_door))
        assert len(found) == 1 and "_create_block() outside an owner method" in found[0]
        no_helper = shm_source().replace("def _free_block(", "def _release_block(")
        found = ownership_violations(repro_modules_with(no_helper))
        assert any(v.startswith("expected one _free_block") for v in found)
        assert any(".unlink() outside _free_block" in v for v in found)


#: The only environment variables library code may read: the obs switch
#: and the fault plane's gate and plan.  Dispatch thresholds are module
#: constants, not knobs.
_ENV_VARS = frozenset({"REPRO_OBS", "REPRO_FAULTS", "REPRO_FAULT_PLAN"})


def env_var_names(modules) -> "set[str]":
    """Every ``REPRO_*`` name in a string constant of *modules*, skipping
    docstrings and other bare string statements."""
    names: "set[str]" = set()
    for _label, tree in modules:
        bare = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in bare:
                    names.update(re.findall(r"\bREPRO_[A-Z0-9_]+", node.value))
    return names


class TestNoKnobCreep:
    """The runtime switches stay the three above; everything else is a
    constant where it is used."""

    def test_library_reads_only_the_three_switches(self):
        assert env_var_names(repro_modules()) == _ENV_VARS

    def test_tuning_holds_only_the_obs_switch(self):
        from repro import tuning

        assert [f.name for f in dataclasses.fields(tuning.Tuning)] == ["obs"]
        assert dataclasses.asdict(tuning.get()) == {"obs": 1}

    def test_guard_flags_a_new_knob_but_not_a_docstring(self):
        knob = (
            '"""REPRO_DOC in a docstring is prose."""\n'
            'import os\nX = os.environ.get("REPRO_CHUNK")\n'
        )
        found = env_var_names(repro_modules_with(knob, "src/repro/other.py"))
        assert found == _ENV_VARS | {"REPRO_CHUNK"}


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
