"""WorkerPool self-healing under injected faults.

The supervisor's contract: a crashed or wedged worker is respawned (with
backoff, replayed state, repaired torn rows) and its tasks re-dispatched
— :meth:`WorkerPool.run` returns the same answers it would have returned
without the fault.  Crash sites are injected through the production fault
plane (armed via the environment so ``fork`` *and* ``spawn`` workers see
the plan), never by monkeypatching pool internals.
"""

import multiprocessing

import pytest

from repro import faults
from repro.faults import EXIT_TASK_CRASH, EXIT_WRITE_CRASH, FaultPlan, FaultRule
from repro.parallel import WorkerError, WorkerPool

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.uninstall()


def _arm(monkeypatch, plan):
    """Arm *plan* the way drivers do: env (spawn) + parent install (fork)."""
    monkeypatch.setenv(faults.ENV_GATE, "1")
    monkeypatch.setenv(faults.ENV_PLAN, plan.spec())
    faults.install(plan)


def _echo_ok(pool, count=6):
    payloads = [f"ping-{i}" for i in range(count)]
    results = pool.run("echo", payloads)
    assert [r[2] for r in results] == payloads  # order preserved
    return results


class TestCrashSelfHeal:
    @pytest.mark.parametrize("method", START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_first_incarnation_crash_heals(self, method, workers, monkeypatch):
        # Every fresh worker dies on its first task; every respawn is exempt.
        _arm(
            monkeypatch,
            FaultPlan("boom", 1, (FaultRule("task.crash", p=1.0, count=1, fresh_only=True),)),
        )
        with WorkerPool(workers, start_method=method) as pool:
            _echo_ok(pool, count=2 * workers)
            assert pool.health.respawns == workers
            assert pool.health.retries >= workers
            assert set(pool.health.last_exitcodes.values()) == {EXIT_TASK_CRASH}
            _echo_ok(pool)  # pool stays usable after the storm



class TestWedgeRestart:
    def test_wedged_worker_detected_and_restarted(self, monkeypatch):
        # The wedge outlives the deadline by far; only the supervisor's
        # timeout brings the worker back.
        _arm(
            monkeypatch,
            FaultPlan(
                "stuck", 1, (FaultRule("worker.wedge", p=1.0, count=1, duration=60.0, fresh_only=True),)
            ),
        )
        with WorkerPool(1, task_timeout=0.5) as pool:
            _echo_ok(pool, count=3)
            assert pool.health.wedge_restarts == 1
            assert pool.health.respawns == 1
            _echo_ok(pool)  # usable again without caller intervention


class TestPoisonAndBudget:
    def test_poison_task_quarantined_not_respawn_looped(self, monkeypatch):
        _arm(monkeypatch, FaultPlan("lava", 1, (FaultRule("task.crash", p=1.0),)))
        with WorkerPool(1) as pool:
            with pytest.raises(WorkerError, match="poison task"):
                pool.run("echo", ["doomed"])
            assert pool.health.quarantined == 1
            # Three kills in a row means two *sequential* respawns, and the
            # second (and later) respawns pay exponential backoff.
            assert pool.health.respawns >= 2
            assert pool.health.backoff_seconds > 0
            # Disarm; the auto-reset pool respawns unarmed workers and the
            # same payload now succeeds — no caller dance required.
            faults.uninstall()
            monkeypatch.delenv(faults.ENV_GATE)
            monkeypatch.delenv(faults.ENV_PLAN)
            _echo_ok(pool)


    def test_poison_blame_names_the_running_payload(self, monkeypatch):
        # Payload 0 finishes with a large result; the crash hits payload 1
        # while that result may still sit in the worker's queue buffer.
        # It must reach the supervisor, which then blames payload 1.
        _arm(
            monkeypatch,
            FaultPlan("second", 1, (FaultRule("task.crash", p=1.0, after=1, count=1),)),
        )
        with WorkerPool(1, poison_threshold=1) as pool:
            with pytest.raises(WorkerError, match="poison task: 'echo' payload 1 killed"):
                pool.run("echo", [b"x" * (4 << 20), "second"], to=[0, 0])


class TestUnsupervisedErrorDetail:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_error_names_exitcode_and_inflight(self, method, monkeypatch):
        _arm(monkeypatch, FaultPlan("boom", 1, (FaultRule("task.crash", p=1.0),)))
        with WorkerPool(1, start_method=method, supervise=False) as pool:
            with pytest.raises(WorkerError) as excinfo:
                pool.run("echo", ["doomed"])
            message = str(excinfo.value)
            assert f"exitcode {EXIT_TASK_CRASH}" in message
            assert "task(s) in flight" in message

    def test_write_crash_exitcode_distinct(self, monkeypatch):
        # The torn-writer site dies with its own exitcode so the error
        # (and the health ledger) can tell the two crash sites apart.
        _arm(monkeypatch, FaultPlan("torn", 1, (FaultRule("write.crash", p=1.0),)))
        with WorkerPool(1, supervise=False) as pool:
            pool.matrix("m", 4, 4, fill=7, versioned=True)
            with pytest.raises(WorkerError, match=f"exitcode {EXIT_WRITE_CRASH}"):
                pool.run("crash_in_write", [("m", 1)])


class TestTornRowRepair:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_mid_write_crash_repairs_row_and_retries(self, method, monkeypatch):
        # write.crash fires *after* the row version went odd — the torn
        # state repair_torn_rows exists for.  The supervisor must mend the
        # row before re-dispatch or every retry spins on the seqlock.
        _arm(
            monkeypatch,
            FaultPlan("torn", 1, (FaultRule("write.crash", p=1.0, count=1, fresh_only=True),)),
        )
        with WorkerPool(1, start_method=method) as pool:
            pool.matrix("m", 4, 4, fill=7, versioned=True)
            with pytest.raises(WorkerError, match="injected crash"):
                # The injected raise lands after the healed torn write.
                pool.run("crash_in_write", [("m", 1)])
            assert pool.health.respawns == 1
            assert pool.health.torn_rows_repaired >= 1
            assert set(pool.health.last_exitcodes.values()) == {EXIT_WRITE_CRASH}
            owner = pool.matrix_owner("m")
            assert owner.row_versions is not None
            assert all(int(v) % 2 == 0 for v in owner.row_versions)

    def test_quarantine_mends_the_row_its_last_victim_tore(self, monkeypatch):
        # Every write crashes, respawns included, so the task is quarantined
        # after three kills — and the third victim's row is left mid-write
        # with no retry to come.  The pool must mend it before giving up:
        # otherwise the next write to that row is refused as nested.
        _arm(monkeypatch, FaultPlan("torn-always", 1, (FaultRule("write.crash", p=1.0),)))
        with WorkerPool(1, start_method="fork") as pool:
            pool.matrix("m", 4, 4, fill=7, versioned=True)
            with pytest.raises(WorkerError, match="poison task"):
                pool.run("crash_in_write", [("m", 1)])
            assert pool.health.quarantined == 1
            assert pool.health.torn_rows_repaired == 3
            owner = pool.matrix_owner("m")
            assert all(int(v) % 2 == 0 for v in owner.row_versions)
            faults.uninstall()  # fork: the next workers start disarmed
            with pytest.raises(WorkerError, match="injected crash"):
                pool.run("crash_in_write", [("m", 1)])
