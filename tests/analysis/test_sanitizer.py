"""Runtime sanitizer + the shared injected-violation corpus.

The corpus is the contract of the layered design: every deliberately
injected protocol violation is either still *caught* — by the
interprocedural pass (``static``), the runtime sanitizer (``runtime``),
or both — or can no longer be written (``structural``): the API raises
the moment it is attempted.  A parametrized test asserts exactly that per
case.  The seqlock write violations are all structural: ``row_write`` is
the only way to write a versioned row, versioned ``array`` views are
read-only, a nested write raises, and there is no public "end a write"
call to misuse.  Shm leaks and snapshot shipping stay runtime checks;
seed flow and blocking in a retry loop stay static.
"""

import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.analysis import sanitize
from repro.analysis.deep import deep_lint_sources
from repro.errors import ProtocolError
from repro.graph.generators import path_graph
from repro.parallel import WorkerPool
from repro.parallel import shm as shm_mod
from repro.parallel.shm import AttachedMatrix, SharedMatrix

FIXTURES = Path(__file__).parent / "fixtures"

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


@pytest.fixture(autouse=True)
def _sanitizer_off_after():
    yield
    sanitize.uninstall()


# --------------------------------------------------------------------- #
# sanitizer mechanics
# --------------------------------------------------------------------- #


class TestInstall:
    def test_env_parsing(self):
        assert sanitize.enabled_in_env({}) is None
        for off in ("", "0", "off", "false", "no", "OFF"):
            assert sanitize.enabled_in_env({"REPRO_SANITIZE": off}) is None
        assert sanitize.enabled_in_env({"REPRO_SANITIZE": "1"}) == "raise"
        assert sanitize.enabled_in_env({"REPRO_SANITIZE": "record"}) == "record"

    def test_install_uninstall_roundtrip(self):
        assert not sanitize.active
        sanitize.install("record")
        assert sanitize.active and sanitize.installed_mode() == "record"
        sanitize.uninstall()
        assert not sanitize.active and sanitize.installed_mode() is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sanitize.install("explode")

    def test_suspended_restores_the_flag(self):
        sanitize.install("record")
        with sanitize.suspended():
            assert not sanitize.active
        assert sanitize.active

    def test_raise_mode_raises_and_records(self):
        sanitize.install("raise")
        sanitize.note_final_snapshot(7, 0)
        with pytest.raises(sanitize.SanitizeError, match="absorbed twice"):
            sanitize.note_final_snapshot(7, 0)
        assert [v.kind for v in sanitize.violations()] == ["obs.double_final_snapshot"]

    def test_worker_reset_clears_inherited_state(self):
        sanitize.install("record")
        sanitize.note_segment_create("seg-a")
        sanitize.note_final_snapshot(7, 0)
        sanitize.worker_reset()
        assert sanitize.open_segments() == set()
        sanitize.note_final_snapshot(7, 0)  # the parent's shipment is forgotten
        assert sanitize.violations() == []


# --------------------------------------------------------------------- #
# the shared injected-violation corpus
# --------------------------------------------------------------------- #


def _runtime_segment_leak():
    block = shm_mod._create_block(64)
    try:
        assert sanitize.segment_open(block.name)
        sanitize.assert_no_leaks()  # records shm.leak for the open block
    finally:
        block.close()
        block.unlink()


def _runtime_leak_at_pool_close():
    with WorkerPool(workers=1, seed=3, start_method=START_METHODS[0]) as pool:
        pool.matrix("d", 4, 4, versioned=True, fill=0)
        owner = pool.matrix_owner("d")
        real_close = owner.close
        owner.close = lambda: None  # the injected leak
        try:
            pool.close()
        finally:
            owner.close = real_close
    with sanitize.suspended():
        real_close()


def _runtime_double_final_snapshot():
    import time

    from repro import obs

    pool = WorkerPool(workers=1, seed=3, start_method=START_METHODS[0])
    try:
        pool.run("echo", [None], to=[0])  # force a start
        # Forge a duplicated final snapshot (task id -2) on the result
        # queue — the exact-once shipping protocol violated in transit.
        pool._result_q.put((0, -2, True, obs.empty_snapshot()))
        pool._result_q.put((0, -2, True, obs.empty_snapshot()))
        time.sleep(0.3)
        pool._drain_final_snapshots({0})
    finally:
        with sanitize.suspended():
            pool.close()


def _write_row(dest, u, value):
    """A helper writing straight into a matrix view, no bracket."""
    dest.array[u] = value


def _structural_unbracketed_write_in_callee():
    m = SharedMatrix(4, 4, versioned=True, fill=0)
    att = AttachedMatrix(m.handle)
    try:
        _write_row(att, 1, 5)  # what a worker holds: an attachment
    finally:
        att.close()
        m.close()


def _structural_nested_row_write():
    m = SharedMatrix(4, 4, versioned=True, fill=0)
    try:
        with m.row_write(1):
            with m.row_write(1):
                pass
    finally:
        m.close()


def _structural_unmatched_end():
    m = SharedMatrix(4, 4, versioned=True, fill=0)
    try:
        m.end_row_write(2)
    finally:
        m.close()


@dataclass
class Case:
    """One injected violation and how it is stopped."""

    name: str
    layers: "frozenset[str]"  # "static" / "runtime" catch it; "structural": unwritable
    static_fixture: "str | None" = None  # file in tests/analysis/fixtures
    static_rules: "frozenset[str]" = field(default_factory=frozenset)
    runtime: "object" = None  # callable run under record mode
    runtime_kinds: "frozenset[str]" = field(default_factory=frozenset)
    attempt: "object" = None  # structural: the callable that must raise ...
    raises: "type[BaseException] | None" = None  # ... this


CORPUS = [
    Case(
        name="literal_reseed_in_helper",
        layers=frozenset({"static"}),
        static_fixture="rl009_bad.py",
        static_rules=frozenset({"RL009"}),
    ),
    Case(
        name="blocking_in_retry_loop",
        layers=frozenset({"static"}),
        static_fixture="rl011_bad.py",
        static_rules=frozenset({"RL011"}),
    ),
    Case(
        name="leaked_shm_segment",
        layers=frozenset({"runtime"}),
        runtime=_runtime_segment_leak,
        runtime_kinds=frozenset({"shm.leak"}),
    ),
    Case(
        name="leak_at_pool_close",
        layers=frozenset({"runtime"}),
        runtime=_runtime_leak_at_pool_close,
        runtime_kinds=frozenset({"shm.leak_at_pool_close"}),
    ),
    Case(
        name="double_final_snapshot",
        layers=frozenset({"runtime"}),
        runtime=_runtime_double_final_snapshot,
        runtime_kinds=frozenset({"obs.double_final_snapshot"}),
    ),
    Case(
        name="unbracketed_write_in_callee",
        layers=frozenset({"structural"}),
        attempt=_structural_unbracketed_write_in_callee,
        raises=ValueError,  # versioned views are read-only
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
            assert case.layers <= {"static", "runtime", "structural"}, case.name
            if "static" in case.layers:
                assert case.static_fixture and case.static_rules, case.name
            if "runtime" in case.layers:
                assert case.runtime is not None and case.runtime_kinds, case.name
            if "structural" in case.layers:
                assert case.layers == {"structural"}, case.name
                assert case.attempt is not None and case.raises is not None, case.name

    @pytest.mark.parametrize(
        "case", [c for c in CORPUS if "static" in c.layers], ids=lambda c: c.name
    )
    def test_static_layer_catches(self, case):
        source = (FIXTURES / case.static_fixture).read_text(encoding="utf-8")
        findings = deep_lint_sources([("src/repro/under_test.py", source)])
        assert case.static_rules <= {f.rule for f in findings}, case.name

    @pytest.mark.parametrize(
        "case", [c for c in CORPUS if "runtime" in c.layers], ids=lambda c: c.name
    )
    def test_runtime_layer_catches(self, case):
        sanitize.install("record")
        sanitize.clear_violations()
        case.runtime()
        kinds = {v.kind for v in sanitize.violations()}
        assert case.runtime_kinds <= kinds, f"{case.name}: {kinds}"

    @pytest.mark.parametrize(
        "case", [c for c in CORPUS if "structural" in c.layers], ids=lambda c: c.name
    )
    def test_unwritable_case_raises(self, case):
        """No sanitizer needed: the API itself refuses the violation."""
        with sanitize.suspended(), pytest.raises(case.raises):
            case.attempt()

    @pytest.mark.parametrize(
        "case", [c for c in CORPUS if c.layers == {"static"}], ids=lambda c: c.name
    )
    def test_static_only_cases_are_invisible_to_the_sanitizer(self, case):
        """The layer split is real: static-only corpus entries have no
        runtime scenario because no hook fires for them (the violating
        code never executes in a hook-instrumented path)."""
        assert case.runtime is None


# --------------------------------------------------------------------- #
# worker-side traffic under the sanitizer
# --------------------------------------------------------------------- #


class TestWorkerSide:
    def test_clean_parallel_traffic_records_no_violations(self):
        """Negative control: real row writes into versioned and plain
        shared matrices under the sanitizer produce zero violations."""
        sanitize.install("record")
        csr = path_graph(6).freeze()
        with WorkerPool(workers=2, seed=5, start_method=START_METHODS[0]) as pool:
            pool.publish_csr("g", csr)
            pool.matrix("d", 6, 6, versioned=True, fill=-1)
            pool.matrix("s", 6, 6, fill=-1)
            for out in ("d", "s"):
                payloads = [("g", out, rows, rows, None) for rows in ([0, 2, 4], [1, 3, 5])]
                assert pool.run("bfs_rows", payloads, to=[0, 1]) == [3, 3]
            owner = pool.matrix_owner("d")
            assert owner.array[0].tolist() == [0, 1, 2, 3, 4, 5]
            assert all(int(v) == 2 for v in owner.row_versions[:6])
        assert sanitize.violations() == []
