"""The shared injected-violation corpus.

The corpus is the contract of the layered design: every deliberately
injected protocol violation is either still *caught* — by the layering
table's walk over the source (``static``, ``tests/test_layering.py``) or
by the shared-memory leak check that runs after every test (``leak``) —
or can no longer be written (``structural``): the API raises the moment
it is attempted.  A parametrized test asserts exactly that per case.
The seqlock write violations are all structural: ``row_write`` is the
only way to write a matrix row, ``array`` views are read-only, a nested
write raises, and there is no public "end a write"
call to misuse.  So is a worker's final metrics snapshot arriving twice:
the pool refuses the second one.  A leaked segment is whatever the
``/dev/shm`` listing of ``tests/conftest.py`` still shows after the
test; the table's ``block_create`` and ``block_unlink`` rows keep every
create and unlink inside the owners of ``parallel/shm.py``.  Seed flow
is the ``literal_seed`` row; blocking in a seqlock retry loop is caught
by the ``read_loop`` row, which pins ``_spin`` to the one
``shm._read_stable`` loop, and the ``read_loop_shape`` row, which keeps
anything that can park the reader out of that loop.
"""

import multiprocessing
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.errors import ProtocolError
from repro.graph.generators import path_graph
from repro.parallel import WorkerPool
from repro.parallel import shm as shm_mod
from repro.parallel.pool import _OBS_TASK_ID, fold_row_changes
from repro.parallel.shm import AttachedMatrix, SharedMatrix
from tests.conftest import shm_segments
from tests.test_layering import FIXTURES, SHM, flagged, shm_source

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


# --------------------------------------------------------------------- #
# the shared injected-violation corpus
# --------------------------------------------------------------------- #


def _leak_segment():
    """A block created outside any owner and never unlinked."""
    block = shm_mod._create_block(64)
    block.close()
    return [block.name]


def _leak_at_pool_close():
    """A pool whose matrix owner skips its own close."""
    with WorkerPool(workers=1, seed=3, start_method=START_METHODS[0]) as pool:
        pool.matrix("d", 4, 4, fill=0)
        owner = pool.matrix_owner("d")
        owner.close = lambda: None  # the injected leak
        return [owner.handle.name, owner.handle.versions_name]


def _structural_double_final_snapshot():
    """A worker's final snapshot arrives twice in one pool start."""
    pool = WorkerPool(workers=1, seed=3, start_method=START_METHODS[0])
    pool.matrix("d", 4, 4, fill=0)
    pool.run("echo", [None], to=[0])  # force a start
    # Forge a duplicated final snapshot on the result queue — the
    # exact-once shipping protocol violated in transit.  close() drains
    # it, refuses it, and still frees the matrix (the leak check sees to
    # that).
    forged = (0, _OBS_TASK_ID, True, obs.empty_snapshot())
    pool._result_q.put(forged)
    pool._result_q.put(forged)
    pool.close()


def _write_row(dest, u, value):
    """A helper writing straight into a matrix view, no bracket."""
    dest.array[u] = value


def _structural_unbracketed_write_in_callee():
    with SharedMatrix(4, 4, fill=0) as m:
        att = AttachedMatrix(m.handle)
        try:
            _write_row(att, 1, 5)  # what a worker holds: an attachment
        finally:
            att.close()


def _structural_nested_row_write():
    with SharedMatrix(4, 4, fill=0) as m:
        with m.row_write(1):
            with m.row_write(1):
                pass


def _structural_unmatched_end():
    with SharedMatrix(4, 4, fill=0) as m:
        m.end_row_write(2)


def _static_literal_reseed():
    source = (FIXTURES / "literal_seed_bad.py").read_text(encoding="utf-8")
    return [flagged("literal_seed", source, "src/repro/under_test.py")]


def _static_blocking_in_retry_loop():
    """A hand-rolled blocking retry loop in library code, and a sleep
    inside ``_read_stable`` itself."""
    source = (FIXTURES / "read_loop_bad.py").read_text(encoding="utf-8")
    return [
        flagged("read_loop", source, "src/repro/under_test.py"),
        flagged("read_loop_shape", shm_source(sleep_in_read_loop=True), SHM),
    ]


@dataclass
class Case:
    """One injected violation and how it is stopped."""

    name: str
    layers: "frozenset[str]"  # "static" / "leak" catch it; "structural": unwritable
    static: "object" = None  # callable: one findings list per violating input
    leak: "object" = None  # callable: leaks blocks, returns their names
    attempt: "object" = None  # structural: the callable that must raise ...
    raises: "type[BaseException] | None" = None  # ... this


CORPUS = [
    Case(
        name="literal_reseed_in_helper",
        layers=frozenset({"static"}),
        static=_static_literal_reseed,
    ),
    Case(
        name="blocking_in_retry_loop",
        layers=frozenset({"static"}),
        static=_static_blocking_in_retry_loop,
    ),
    Case(
        name="leaked_shm_segment",
        layers=frozenset({"leak"}),
        leak=_leak_segment,
    ),
    Case(
        name="leak_at_pool_close",
        layers=frozenset({"leak"}),
        leak=_leak_at_pool_close,
    ),
    Case(
        name="double_final_snapshot",
        layers=frozenset({"structural"}),
        attempt=_structural_double_final_snapshot,
        raises=ProtocolError,
    ),
    Case(
        name="unbracketed_write_in_callee",
        layers=frozenset({"structural"}),
        attempt=_structural_unbracketed_write_in_callee,
        raises=ValueError,  # matrix views are read-only
    ),
    Case(
        name="nested_row_write",
        layers=frozenset({"structural"}),
        attempt=_structural_nested_row_write,
        raises=ProtocolError,
    ),
    Case(
        name="unmatched_end",
        layers=frozenset({"structural"}),
        attempt=_structural_unmatched_end,
        raises=AttributeError,  # no public end-of-write call exists
    ),
]


class TestCorpus:
    """Every injected violation is caught by its layer(s) or cannot be written."""

    def test_every_case_declares_at_least_one_layer(self):
        for case in CORPUS:
            assert case.layers, case.name
            assert case.layers <= {"static", "leak", "structural"}, case.name
            if "static" in case.layers:
                assert case.static is not None, case.name
            if "leak" in case.layers:
                assert case.leak is not None, case.name
            if "structural" in case.layers:
                assert case.layers == {"structural"}, case.name
                assert case.attempt is not None and case.raises is not None, case.name

    @pytest.mark.parametrize(
        "case", [c for c in CORPUS if "static" in c.layers], ids=lambda c: c.name
    )
    def test_static_layer_catches(self, case):
        per_input = case.static()
        assert per_input and all(per_input), f"{case.name}: {per_input}"

    @pytest.mark.parametrize(
        "case", [c for c in CORPUS if "leak" in c.layers], ids=lambda c: c.name
    )
    def test_runtime_layer_catches(self, case):
        """The leak layer: the listing the after-test leak check diffs
        reports exactly the injected blocks.  They are freed here, so the
        check itself stays green."""
        before = shm_segments()
        names = case.leak()
        try:
            assert names and shm_segments() - before == set(names), case.name
        finally:
            for name in names:
                shm_mod._free_block(shm_mod._attach_block(name))
        assert shm_segments() - before == set()

    @pytest.mark.parametrize(
        "case", [c for c in CORPUS if "structural" in c.layers], ids=lambda c: c.name
    )
    def test_unwritable_case_raises(self, case):
        """The API itself refuses the violation."""
        with pytest.raises(case.raises):
            case.attempt()


# A separate process that makes one block, prints its name, and frees it
# once told to on stdin.
_OTHER_OWNER = """
from repro.parallel import shm
block = shm._create_block(64)
print(block.name, flush=True)
input()
shm._free_block(block)
"""


class TestLeakCheckScope:
    def test_other_process_blocks_are_not_reported(self):
        """The after-test listing holds this process's blocks only: a block
        another process keeps alive meanwhile (a concurrent benchmark or
        test session) is not a leak, and a block this test leaks still is."""
        before = shm_segments()
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        other = subprocess.Popen(
            [sys.executable, "-c", _OTHER_OWNER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            text=True,
        )
        try:
            name = other.stdout.readline().strip()
            assert name.startswith(shm_mod.BLOCK_PREFIX)
            assert shm_segments() - before == set()
            own = shm_mod._create_block(64)  # the injected leak
            try:
                assert shm_segments() - before == {own.name}
            finally:
                shm_mod._free_block(own)
        finally:
            other.communicate("\n", timeout=30)
        assert other.returncode == 0
        assert shm_segments() - before == set()


# --------------------------------------------------------------------- #
# worker-side traffic
# --------------------------------------------------------------------- #


class TestWorkerSide:
    def test_clean_parallel_traffic_records_no_violations(self):
        """Negative control: real row writes into two shared matrices
        leave no segment behind, and each worker's final
        snapshot is absorbed exactly once."""
        before = shm_segments()
        csr = path_graph(6).freeze()
        with WorkerPool(workers=2, seed=5, start_method=START_METHODS[0]) as pool:
            pool.publish_csr("g", csr)
            pool.matrix("d", 6, 6, fill=-1)
            pool.matrix("s", 6, 6, fill=-1)
            for out in ("d", "s"):
                payloads = [("g", out, rows, None) for rows in ([0, 2, 4], [1, 3, 5])]
                assert fold_row_changes(pool.run("serve_rows", payloads, to=[0, 1])) == {}
            owner = pool.matrix_owner("d")
            assert owner.array[0].tolist() == [0, 1, 2, 3, 4, 5]
            assert all(int(v) == 2 for v in owner.row_versions[:6])
            assert len(shm_segments() - before) == 6  # CSR: 2 blocks, d: 2, s: 2
        assert shm_segments() - before == set()
        assert pool._finals == {0, 1}

    def test_restart_accepts_a_fresh_final_snapshot(self):
        """Exactly once is per start: after a restart each worker ships
        one more final snapshot, and the pool absorbs it."""
        with WorkerPool(workers=1, seed=5, start_method=START_METHODS[0]) as pool:
            pool.run("obs_record", [[("inc", "pool.test.ticks", 2)]], to=[0])
            pool.restart()  # final snapshot #1 of worker 0
            assert pool._finals == {0}
            pool.run("obs_record", [[("inc", "pool.test.ticks", 3)]], to=[0])
        # close() drained final snapshot #2 of worker 0 without refusing it
        assert pool._finals == {0}
        counters = pool.metrics()["merged"]["counters"]
        assert counters["pool.test.ticks"] == 5
