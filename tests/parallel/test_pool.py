"""WorkerPool contract: dispatch, shard addressing, restart, start methods.

The pool is the control plane of the parallel subsystem — these tests pin
the properties the sharded serving layer builds on: results come back in
payload order, explicit shard addressing lands on the addressed worker,
published shared objects survive a worker restart, and both ``fork`` and
``spawn`` start methods work (the spawn matrix entry re-imports the
package in the children, which is what CI exercises).

Row work goes through the ``serve_rows`` task with refresh payloads
``(graph, matrix, sources, None)``: each worker BFSes its sources on the
attached snapshot into rows ``sources`` of the shared matrix.
"""

import multiprocessing

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph import bfs_distances
from repro.graph.generators import random_connected_gnp
from repro.parallel import WorkerError, WorkerPool, resolve_workers

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


class TestResolveWorkers:
    def test_resolution_rules(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers("auto", cpu_count=1) == 1
        assert resolve_workers("auto", cpu_count=2) == 2
        assert resolve_workers("auto", cpu_count=64) == 4  # capped

    def test_rejects_bad_specs(self):
        for bad in (0, -1, 1.5, "many", True, None):
            with pytest.raises(ParameterError):
                resolve_workers(bad)


class TestDispatch:
    def test_results_in_payload_order(self):
        with WorkerPool(2) as pool:
            results = pool.run("echo", list(range(10)))
            assert [payload for _w, _pid, payload in results] == list(range(10))

    def test_round_robin_spreads_work(self):
        with WorkerPool(2) as pool:
            results = pool.run("echo", list(range(8)))
            assert {wid for wid, _pid, _p in results} == {0, 1}

    def test_explicit_worker_addressing(self):
        with WorkerPool(3) as pool:
            results = pool.run("echo", ["a", "b", "c"], to=[2, 0, 2])
            assert [wid for wid, _pid, _p in results] == [2, 0, 2]

    def test_workers_are_separate_processes(self):
        import os

        with WorkerPool(2) as pool:
            pids = {pid for _w, pid, _p in pool.run("echo", list(range(6)))}
            assert len(pids) == 2
            assert os.getpid() not in pids

    def test_unknown_task_and_bad_addressing(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ParameterError):
                pool.run("no-such-task", [1])
            with pytest.raises(ParameterError):
                pool.run("echo", [1], to=[5])
            with pytest.raises(ParameterError):
                pool.run("echo", [1, 2], to=[0])

    def test_task_error_carries_remote_traceback(self):
        with WorkerPool(1) as pool:
            # serve_rows on a never-published matrix name raises KeyError remotely.
            with pytest.raises(WorkerError, match="KeyError"):
                pool.run("serve_rows", [("nope", "nope", [0], None)])
            # The pool stays usable after a failed task.
            assert pool.run("echo", ["still alive"])[0][2] == "still alive"

    def test_empty_run_is_noop(self):
        with WorkerPool(1) as pool:
            assert pool.run("echo", []) == []


class TestSharedObjectsThroughPool:
    def test_bfs_rows_on_published_graph(self):
        g = random_connected_gnp(60, 0.1, seed=4)
        csr = g.freeze()
        with WorkerPool(2) as pool:
            pool.publish_csr("g", csr)
            out = pool.matrix("out", 4, csr.num_nodes)
            pool.run("serve_rows", [("g", "out", [0, 1], None), ("g", "out", [2, 3], None)])
            for s in range(4):
                assert out[s].tolist() == bfs_distances(csr, s)
            del out  # release the export before close

    def test_delta_publish_reaches_workers(self):
        g = random_connected_gnp(50, 0.12, seed=8)
        with WorkerPool(1) as pool:
            pool.publish_csr("g", g.freeze())
            out = pool.matrix("out", g.num_nodes, g.num_nodes)
            u, v = next(iter(g.edges()))
            g.remove_edge(u, v)
            pool.publish_csr("g", g.freeze(), dirty_rows={u, v})
            pool.run("serve_rows", [("g", "out", [u], None)])
            assert out[u].tolist() == bfs_distances(g, u, backend="sets")
            del out

    def test_kind_collision_rejected(self):
        g = random_connected_gnp(20, 0.2, seed=1)
        with WorkerPool(1) as pool:
            pool.publish_csr("thing", g.freeze())
            with pytest.raises(ParameterError):
                pool.matrix("thing", 2, 2)


class TestRestartAndTeardown:
    def test_restart_mid_stream_replays_shared_state(self):
        g = random_connected_gnp(40, 0.15, seed=6)
        csr = g.freeze()
        with WorkerPool(2) as pool:
            pool.publish_csr("g", csr)
            out = pool.matrix("out", 2, csr.num_nodes)
            pool.run("serve_rows", [("g", "out", [0], None)])
            pids_before = {pid for _w, pid, _p in pool.run("echo", [1, 2])}
            pool.restart()
            # Fresh processes, same published objects — no re-publish needed.
            pool.run("serve_rows", [("g", "out", [1], None)])
            pids_after = {pid for _w, pid, _p in pool.run("echo", [1, 2])}
            assert pids_before.isdisjoint(pids_after)
            assert out[1].tolist() == bfs_distances(csr, 1)
            del out

    def test_killed_worker_is_detected_and_replaced(self):
        with WorkerPool(2, task_timeout=30.0) as pool:
            pool.run("echo", [0, 1])
            pool._procs[0].terminate()
            pool._procs[0].join()
            # Next run notices the dead worker, restarts, and succeeds.
            results = pool.run("echo", ["x", "y", "z"])
            assert [p for _w, _pid, p in results] == ["x", "y", "z"]

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(1)
        pool.run("echo", [1])
        pool.close()
        with pytest.raises(ParameterError):
            pool.run("echo", [2])
        pool.close()  # idempotent


@pytest.mark.parametrize("method", START_METHODS)
class TestStartMethodMatrix:
    def test_bfs_rows_under_start_method(self, method):
        g = random_connected_gnp(40, 0.15, seed=2)
        csr = g.freeze()
        with WorkerPool(2, start_method=method) as pool:
            pool.publish_csr("g", csr)
            out = pool.matrix("out", 3, csr.num_nodes)
            pool.run("serve_rows", [("g", "out", [0, 1], None), ("g", "out", [2], None)])
            rows = np.array(out)
            del out
            for s in range(3):
                assert rows[s].tolist() == bfs_distances(csr, s)
