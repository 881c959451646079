"""Persistent worker pool: the control plane of the parallel subsystem.

:class:`WorkerPool` keeps W long-lived processes attached to the shared
-memory objects of :mod:`repro.parallel.shm` and feeds them small task
messages; all bulk data (CSR snapshots, distance/table matrices) moves
through shared memory, so a task costs one queue round-trip regardless of
graph size.  The design follows the message-passing model of the related
distributed-construction literature: partition the sources, exchange only
summaries.

* **Publishing** — ``publish_csr(name, csr)`` exports or rewrites a named
  snapshot; ``matrix(name, rows, cols)`` allocates a named seqlocked
  shared matrix.  Every published object is rebroadcast to freshly
  (re)started workers, which makes :meth:`restart` (and crash recovery)
  transparent to callers.
* **Dispatch** — ``run(fn, payloads)`` scatters payloads round-robin (or
  to explicit worker ids, for shard-owned state) and gathers the results;
  task functions are entries of the module-level :data:`TASKS` registry
  (importable top-level functions, which is what makes the pool safe under
  both ``fork`` and ``spawn`` start methods).
* **Seeding** — each worker derives its stream via
  :func:`repro.rng.derive_seed`, so randomized tasks stay reproducible
  per ``(pool seed, worker id)``.

``workers="auto"`` resolves from the CPU count, capped at
:data:`_AUTO_MAX_WORKERS`; a single-core host resolves to one worker,
which keeps every code path exercised while adding no parallelism —
the graceful-degradation mode the benchmark gate records on such
runners.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .. import faults as _faults
from .. import obs
from ..errors import ParameterError, ProtocolError, ReproError
from ..rng import derive_seed, ensure_rng
from .shm import AttachedCSR, AttachedMatrix, PublishStats, SharedCSR, SharedMatrix

__all__ = ["WorkerPool", "WorkerError", "PoolHealth", "resolve_workers", "TASKS"]


class WorkerError(ReproError):
    """A task raised inside a worker; carries the remote traceback."""


@dataclass
class PoolHealth:
    """Cumulative supervision report of one :class:`WorkerPool`.

    Every field is also surfaced as a ``pool.supervision.*`` counter in
    :mod:`repro.obs`; this object is the caller-facing aggregate (e.g.
    :class:`~repro.parallel.sharded.ShardedRoutingService` compares
    ``respawns`` across a dispatch to detect that crash recovery ran).
    """

    respawns: int = 0
    retries: int = 0
    wedge_restarts: int = 0
    backoff_seconds: float = 0.0
    quarantined: int = 0
    torn_rows_repaired: int = 0
    #: worker id -> exitcode observed at its most recent death.
    last_exitcodes: "dict[int, int | None]" = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "respawns": self.respawns,
            "retries": self.retries,
            "wedge_restarts": self.wedge_restarts,
            "backoff_seconds": round(self.backoff_seconds, 6),
            "quarantined": self.quarantined,
            "torn_rows_repaired": self.torn_rows_repaired,
            "last_exitcodes": dict(self.last_exitcodes),
        }


#: Cap for ``workers="auto"`` — beyond this the serving fan-out is queue
#: -bound, and benchmark boxes rarely give more truly-free cores.
_AUTO_MAX_WORKERS = 4


def resolve_workers(workers, *, cpu_count: "int | None" = None) -> int:
    """Resolve a ``workers`` spec to a concrete count.

    ``"auto"`` → ``min(_AUTO_MAX_WORKERS, cpu_count)``; an int is
    validated and passed through.
    """
    if workers == "auto":
        cpus = os.cpu_count() or 1 if cpu_count is None else cpu_count
        return max(1, min(_AUTO_MAX_WORKERS, cpus))
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ParameterError(f"workers must be an int or 'auto', got {workers!r}")
    if workers < 1:
        raise ParameterError(f"workers must be ≥ 1, got {workers}")
    return workers


# --------------------------------------------------------------------- #
# worker-side task functions
# --------------------------------------------------------------------- #


class _WorkerState:
    """Per-worker context: attachments, identity, seeded rng."""

    def __init__(self, worker_id: int, num_workers: int, seed: int) -> None:
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.rng = ensure_rng(derive_seed(seed, "worker", worker_id))
        self.csrs: dict[str, AttachedCSR] = {}
        self.matrices: dict[str, AttachedMatrix] = {}

    def csr(self, name: str):
        return self.csrs[name].graph

    def close(self) -> None:
        for a in self.csrs.values():
            a.close()
        for a in self.matrices.values():
            a.close()
        self.csrs.clear()
        self.matrices.clear()


def _task_echo(state: _WorkerState, payload):
    """Liveness/identity probe used by the tests."""
    return (state.worker_id, os.getpid(), payload)


def _task_serve_rows(state: _WorkerState, payload):
    """Bring this shard's rows of the shared distance matrix up to date.

    ``payload = (h, dist, sources, delta)`` — *sources* are rows this
    worker's shard owns, *delta* the tick's
    :class:`~repro.dynamic.serving.RowDelta` or ``None`` for a refresh.
    Runs :meth:`RowOwner.update_rows <repro.dynamic.serving.RowOwner.\
update_rows>` on the attached H snapshot and matrix, so every row is
    written inside ``row_write`` and concurrent readers
    (:class:`~repro.parallel.sharded.RouteReader`) never observe a torn
    one.  Returns the rows that moved and their changed columns as
    :func:`flat_row_changes` — the only bytes that cross the queue; a
    refresh returns nothing.

    Safe to re-run after a crash: a row the failed attempt already
    committed holds the new distances, and repairing exact rows again
    changes nothing.
    """
    from ..dynamic.serving import RowOwner

    h_name, dist_name, sources, delta = payload
    with obs.span("pool.shard_repair"):
        owner = RowOwner(state.matrices[dist_name])
        return flat_row_changes(owner.update_rows(state.csr(h_name), sources, delta))


def flat_row_changes(
    changed: "dict[int, np.ndarray | None]",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``{row: changed columns}`` as three flat int64 arrays: the rows,
    their column counts (−1 = every column) and the columns end to end.

    Three arrays pickle in one small message where a tuple per row
    costs a pickled object each; :func:`fold_row_changes` is the inverse.
    """
    cols = [c for c in changed.values() if c is not None]
    return (
        np.fromiter(changed, dtype=np.int64, count=len(changed)),
        np.fromiter(
            (-1 if c is None else c.size for c in changed.values()),
            dtype=np.int64,
            count=len(changed),
        ),
        np.concatenate(cols).astype(np.int64, copy=False) if cols else np.empty(0, np.int64),
    )


def fold_row_changes(
    flat: "Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]",
) -> "dict[int, np.ndarray | None]":
    """Merge :func:`flat_row_changes` results back into ``{row: changed
    columns}``, each row's columns a slice of the flat array."""
    changed: "dict[int, np.ndarray | None]" = {}
    for rows, counts, cols in flat:
        start = 0
        for s, k in zip(rows.tolist(), counts.tolist()):
            if k < 0:
                changed[s] = None
            else:
                changed[s] = cols[start : start + k]
                start += k
    return changed


def _task_serve_tables(state: _WorkerState, payload):
    """Re-project the next-hop table entries this worker's shard owns.

    ``payload = (g, dist, tables, damage)`` with *damage* the
    :class:`~repro.dynamic.serving.TableDamage` of this shard's tables
    (whole tables plus flat cell arrays) — :meth:`RowOwner.project <repro.\
dynamic.serving.RowOwner.project>` over the shared matrices, the serial
    service's code.  Returns the number of table entries that changed.
    """
    from ..dynamic.serving import RowOwner

    g_name, dist_name, tab_name, damage = payload
    with obs.span("pool.shard_project"):
        owner = RowOwner(state.matrices[dist_name], state.matrices[tab_name])
        return owner.project(state.csr(g_name), damage)


def _task_crash_in_write(state: _WorkerState, payload):
    """Fault injection: raise *inside* ``row_write``.

    ``payload = (matrix, row)`` — opens the write on *row* and raises.
    Exercises the crash path ``row_write`` commits on the way out: the row
    version must be even again so concurrent readers terminate instead of
    spinning.  Lives in the production registry (not the test module) so
    ``spawn`` workers can resolve it after re-import.
    """
    name, row = payload
    with state.matrices[name].row_write(row):
        raise RuntimeError(f"injected crash inside row {row} write")


def _task_obs_snapshot(state: _WorkerState, payload):
    """Ship-and-reset this worker's metrics registry (exact-once shipping:
    every observation leaves the worker exactly once, either here or in the
    final snapshot sent on graceful stop)."""
    return obs.snapshot_and_reset()


def _task_obs_record(state: _WorkerState, payload):
    """Record observations directly into this worker's registry.

    ``payload = [(kind, name, value), ...]`` with kind ``inc`` / ``gauge``
    / ``observe``.  Writes are ungated (registry-level) so the
    cross-process merge property tests are independent of the obs knob.
    """
    registry = obs.metrics()
    for kind, name, value in payload:
        if kind == "inc":
            registry.inc(name, value)
        elif kind == "gauge":
            registry.gauge(name, value)
        else:
            registry.observe(name, value)
    return len(payload)


#: Registry of functions a task message may name.  Top-level functions
#: only — the registry is rebuilt by import in every worker, so entries
#: survive both ``fork`` and ``spawn``.
TASKS = {
    "echo": _task_echo,
    "serve_rows": _task_serve_rows,
    "serve_tables": _task_serve_tables,
    "crash_in_write": _task_crash_in_write,
    "obs_snapshot": _task_obs_snapshot,
    "obs_record": _task_obs_record,
}

#: Reserved pseudo task id for the final metrics snapshot a worker ships
#: on graceful stop (real task ids count up from 0; errors outside a task
#: already use -1).
_OBS_TASK_ID = -2

#: Seconds :meth:`WorkerPool._drain_final_snapshots` waits for the final
#: metric snapshots of gracefully stopped workers.
_DRAIN_TIMEOUT = 1.0

#: Respawns one :meth:`WorkerPool.run` may spend before giving up.
_MAX_RESPAWNS = 8

#: Consecutive workers one payload may kill before it is quarantined.
_POISON_THRESHOLD = 3

#: Supervised respawn backoff: ``_BACKOFF_BASE · 2^(k−1)`` seconds before
#: the k-th respawn of a run, capped at ``_BACKOFF_CAP``.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


def _worker_main(
    worker_id: int, num_workers: int, seed: int, incarnation: int, task_q, result_q
) -> None:
    """Worker process entry point: attach, loop, answer, clean up."""
    state = _WorkerState(worker_id, num_workers, seed)
    # Fork inherits the parent's live registry (and tracer) — a shard's
    # metrics must start empty or parent-side counts would be double
    # -merged; worker trace events are never shipped, so don't collect.
    obs.reset()
    obs.tracer().stop()
    if _faults.active:
        # Re-seed the fault stream per (worker id, incarnation) so chaos
        # runs replay bit-identically under fork and spawn alike, and
        # respawned workers are exempt from fresh-only rules.

        def flush_results() -> None:
            # An injected crash first pushes the results still buffered in
            # the queue's feeder thread into the pipe, or the supervisor
            # would blame a task that had already finished.
            result_q.close()
            result_q.join_thread()

        _faults.worker_reset(worker_id, incarnation, before_exit=flush_results)
    try:
        while True:
            msg = task_q.get()
            kind = msg[0]
            try:
                if kind == "stop":
                    # Last act: ship whatever this worker observed since
                    # its previous snapshot, so graceful stops (including
                    # restart()) lose no metrics.
                    result_q.put((worker_id, _OBS_TASK_ID, True, obs.snapshot_and_reset()))
                    break
                if kind == "csr":
                    _, name, handle = msg
                    if name in state.csrs:
                        state.csrs[name].refresh(handle)
                    else:
                        state.csrs[name] = AttachedCSR(handle)
                elif kind == "matrix":
                    _, name, handle = msg
                    if name in state.matrices:
                        state.matrices[name].refresh(handle)
                    else:
                        state.matrices[name] = AttachedMatrix(handle)
                elif kind == "drop":
                    _, name = msg
                    for book in (state.csrs, state.matrices):
                        if name in book:
                            book.pop(name).close()
                elif kind == "task":
                    _, task_id, fn, payload = msg
                    if _faults.active:
                        _faults.on_task_start(fn)  # crash / wedge sites
                    result = TASKS[fn](state, payload)
                    if _faults.active:
                        action, lag = _faults.on_result(fn)
                        if action == "drop":
                            continue  # the supervisor's wedge path retries
                        if action == "delay":
                            time.sleep(lag)
                    result_q.put((worker_id, task_id, True, result))
            except BaseException:  # crash barrier (a layering-table row): the
                # traceback crosses the queue and the parent re-raises it as
                # WorkerError; swallowing nothing, converting everything.
                task_id = msg[1] if kind == "task" else -1
                result_q.put((worker_id, task_id, False, traceback.format_exc()))
    finally:
        state.close()


# --------------------------------------------------------------------- #
# parent-side pool
# --------------------------------------------------------------------- #


class WorkerPool:
    """W persistent worker processes sharing memory with this process.

    Parameters
    ----------
    workers:
        ``"auto"``, an int ≥ 1, or ``None`` (resolves to 1).
    start_method:
        ``"fork"`` (default where available — instant start), ``"spawn"``
        (portable, re-imports the package) or ``"forkserver"``.
    seed:
        Root of the per-worker :mod:`repro.rng` streams.
    task_timeout:
        Seconds to wait for any single gather before declaring workers
        wedged (dead workers are detected sooner).

    The pool heals itself: a dead or wedged worker is respawned with
    exponential backoff (:data:`_BACKOFF_BASE` doubling up to
    :data:`_BACKOFF_CAP` seconds), its published objects replayed, torn
    seqlock rows repaired, and its unanswered tasks re-dispatched — all
    inside :meth:`run`, invisible to the caller.  A task that kills
    :data:`_POISON_THRESHOLD` workers in a row is quarantined (fails loudly
    instead of respawn-looping), and a run spends at most
    :data:`_MAX_RESPAWNS` respawns before giving up.  Either failure raises
    :class:`WorkerError` naming each dead worker's exitcode and whether a
    task was in flight, and the pool auto-resets, so the *next*
    :meth:`run` starts fresh workers — no caller dance required.
    Cumulative counters live in :attr:`health`.

    Workers start lazily on the first :meth:`run`; published objects are
    replayed to workers on every (re)start, so :meth:`restart` — or a
    worker crash — never loses shared state.  Use as a context manager or
    call :meth:`close`, which also frees every published shared-memory
    block.
    """

    def __init__(
        self,
        workers="auto",
        *,
        start_method: "str | None" = None,
        seed: int = 0,
        task_timeout: float = 300.0,
    ) -> None:
        self.workers = resolve_workers(workers)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self.seed = seed
        self.task_timeout = task_timeout
        self.health = PoolHealth()
        self._incarnations = [0] * self.workers  # respawn count per worker id
        self._ctx = multiprocessing.get_context(start_method)
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None
        self._shared: dict[str, tuple[str, object]] = {}  # name -> (kind, owner)
        self._next_task_id = 0
        self._closed = False
        self._worker_obs: dict[int, dict] = {}  # wid -> merged shipped snapshots
        self._finals: set[int] = set()  # wids whose final snapshot this start absorbed

    # -- lifecycle ------------------------------------------------------ #

    @property
    def alive(self) -> bool:
        return bool(self._procs) and all(p.is_alive() for p in self._procs)

    def _ensure_started(self) -> None:
        if self._closed:
            raise ParameterError("WorkerPool is closed")
        if self.alive:
            return
        if self._procs:  # a worker died (or was torn down): restart cleanly
            self._stop_workers(graceful=False)
        self._finals.clear()
        self._result_q = self._ctx.Queue()
        self._task_qs = [self._ctx.Queue() for _ in range(self.workers)]
        self._procs = []
        for wid in range(self.workers):
            p = self._ctx.Process(
                target=_worker_main,
                args=(
                    wid,
                    self.workers,
                    self.seed,
                    self._incarnations[wid],
                    self._task_qs[wid],
                    self._result_q,
                ),
                daemon=True,
            )
            p.start()
            self._procs.append(p)
        # Replay every published object so fresh workers see current state.
        for name, (kind, owner) in self._shared.items():
            self._broadcast((kind, name, owner.handle))

    def _broadcast(self, msg) -> None:
        for q in self._task_qs:
            q.put(msg)

    def restart(self) -> None:
        """Stop the worker processes; the next task transparently respawns
        them and replays all published shared objects."""
        obs.inc("pool.restarts")
        self._stop_workers(graceful=True)

    def _respawn_worker(self, wid: int) -> None:
        """Replace one dead/wedged worker in place, replaying shared state.

        The worker keeps its id (shard-owned dispatch stays valid) and
        gets a fresh task queue — whatever the dead process left undrained
        is re-sent by the supervisor or re-broadcast here.
        """
        proc = self._procs[wid]
        self.health.last_exitcodes[wid] = proc.exitcode
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        old_q = self._task_qs[wid]
        try:
            old_q.close()
            old_q.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover - queue gone
            pass
        self._task_qs[wid] = self._ctx.Queue()
        self._incarnations[wid] += 1
        p = self._ctx.Process(
            target=_worker_main,
            args=(
                wid,
                self.workers,
                self.seed,
                self._incarnations[wid],
                self._task_qs[wid],
                self._result_q,
            ),
            daemon=True,
        )
        p.start()
        self._procs[wid] = p
        for name, (kind, owner) in self._shared.items():
            self._task_qs[wid].put((kind, name, owner.handle))
        self.health.respawns += 1
        obs.inc("pool.supervision.respawns")

    def _repair_shared(self) -> None:
        """Mend seqlock rows a dead writer left mid-write (see
        :meth:`SharedMatrix.repair_torn_rows
        <repro.parallel.shm.SharedMatrix.repair_torn_rows>`)."""
        for _name, (kind, owner) in self._shared.items():
            if kind == "matrix":
                repaired = owner.repair_torn_rows()
                if repaired:
                    self.health.torn_rows_repaired += len(repaired)
                    obs.inc("pool.supervision.torn_rows_repaired", len(repaired))

    def _stop_workers(self, graceful: bool) -> None:
        stopped = set()
        if graceful:
            for wid, q in enumerate(self._task_qs):
                try:
                    q.put(("stop",))
                    stopped.add(wid)
                except (OSError, ValueError):  # pragma: no cover - queue gone
                    pass
        deadline = time.monotonic() + (5.0 if graceful else 0.5)
        for p in self._procs:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
                stopped.clear()  # a wedged worker may never have shipped
        try:
            self._drain_final_snapshots(stopped)
        finally:
            for q in (*self._task_qs, *([self._result_q] if self._result_q else [])):
                try:
                    q.close()
                    q.cancel_join_thread()
                except (OSError, ValueError):  # pragma: no cover - already closed
                    pass
            self._procs, self._task_qs, self._result_q = [], [], None

    def _drain_final_snapshots(self, expected: set) -> None:
        """Absorb the final metric snapshots stopped workers shipped.

        Bounded wait (:data:`_DRAIN_TIMEOUT`): each gracefully-stopped
        worker sends exactly one ``_OBS_TASK_ID`` message before exiting,
        but its queue feeder may still be flushing as ``join`` returns.
        """
        if self._result_q is None:
            return
        expected = set(expected)
        deadline = time.monotonic() + _DRAIN_TIMEOUT
        while True:
            try:
                wid, task_id, ok, res = self._result_q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                if not expected or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
                continue
            if ok and task_id == _OBS_TASK_ID:
                self._absorb_final(wid, res)
                expected.discard(wid)

    def _absorb_final(self, wid: int, snap: dict) -> None:
        """Fold in worker *wid*'s final snapshot — at most once per start.

        A worker ships exactly one final snapshot when it stops; a second
        one from the same start would merge its counters twice, so it is
        refused before anything is merged.
        """
        if wid in self._finals:
            raise ProtocolError(
                f"worker {wid} shipped a second final snapshot since the pool "
                "started — its counters would merge twice"
            )
        self._finals.add(wid)
        self._absorb_obs(wid, snap)

    def _absorb_obs(self, wid: int, snap: dict) -> None:
        have = self._worker_obs.get(wid)
        self._worker_obs[wid] = snap if have is None else obs.merge_snapshots(have, snap)

    def metrics(self) -> dict:
        """Collect and merge every worker's observability registry.

        Live workers are snapshotted (and reset) over the task channel;
        snapshots shipped earlier (graceful stops, restarts) are already
        folded in.  Returns ``{"shards": {wid: snapshot}, "merged":
        snapshot}`` — exact merges, see :mod:`repro.obs.metrics`.
        """
        if self.alive:
            snaps = self.run("obs_snapshot", [None] * self.workers, to=list(range(self.workers)))
            for wid, snap in enumerate(snaps):
                self._absorb_obs(wid, snap)
        shards = {wid: self._worker_obs[wid] for wid in sorted(self._worker_obs)}
        merged = obs.merge_snapshots(*shards.values()) if shards else obs.empty_snapshot()
        return {"shards": shards, "merged": merged}

    def close(self) -> None:
        """Stop the workers and free every published shared-memory block
        (also when stopping raises)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._stop_workers(graceful=True)
        finally:
            for _name, (_kind, owner) in self._shared.items():
                owner.close()
            self._shared.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- shared objects -------------------------------------------------- #

    def publish_csr(self, name: str, csr) -> PublishStats:
        """Export snapshot *name* or rewrite it whole; broadcasts to workers."""
        if self._closed:
            raise ParameterError("WorkerPool is closed")
        entry = self._shared.get(name)
        if entry is None:
            owner = SharedCSR(csr)
            self._shared[name] = ("csr", owner)
            stats = owner.exported
        else:
            kind, owner = entry
            if kind != "csr":
                raise ParameterError(f"shared object {name!r} is a {kind}, not a csr")
            stats = owner.publish(csr)
        obs.inc("pool.publish.full", 1)
        obs.inc("pool.publish.full_bytes", stats.bytes_written)
        if self._procs:
            self._broadcast(("csr", name, owner.handle))
        return stats

    def matrix(
        self, name: str, rows: int, cols: int, *, fill: "int | None" = None
    ) -> np.ndarray:
        """Create (or resize) shared matrix *name*; returns the live view.

        An existing matrix is resized only when the requested shape
        differs; *fill* initializes fresh cells.  The view is read-only:
        rows change only through ``row_write``, under the per-row seqlock
        counters concurrent readers rely on.  It aliases the workers'
        mapping — drop it before the next resize.
        """
        if self._closed:
            raise ParameterError("WorkerPool is closed")
        entry = self._shared.get(name)
        if entry is None:
            owner = SharedMatrix(rows, cols, fill=fill)
            self._shared[name] = ("matrix", owner)
        else:
            kind, owner = entry
            if kind != "matrix":
                raise ParameterError(f"shared object {name!r} is a {kind}, not a matrix")
            if (owner.rows, owner.cols) != (rows, cols):
                owner.resize(rows, cols, fill=fill)
        if self._procs:
            self._broadcast(("matrix", name, owner.handle))
        return owner.array

    def matrix_owner(self, name: str) -> SharedMatrix:
        kind, owner = self._shared[name]
        if kind != "matrix":
            raise ParameterError(f"shared object {name!r} is a {kind}, not a matrix")
        return owner

    def drop(self, name: str) -> None:
        """Unpublish *name*: workers unmap it, the parent frees the blocks."""
        entry = self._shared.pop(name, None)
        if entry is None:
            return
        if self._procs:
            self._broadcast(("drop", name))
        entry[1].close()

    # -- dispatch --------------------------------------------------------- #

    def _death_report(self, wids, outstanding) -> str:
        """Human-readable account of dead/wedged workers: exitcode plus
        whether (and how many) tasks were in flight on each."""
        parts = []
        for wid in wids:
            proc = self._procs[wid] if wid < len(self._procs) else None
            code = proc.exitcode if proc is not None else None
            inflight = sum(1 for _slot, w in outstanding.values() if w == wid)
            state = "wedged (alive, unresponsive)" if code is None else f"exitcode {code}"
            flight = f"{inflight} task(s) in flight" if inflight else "no task in flight"
            parts.append(f"worker {wid}: {state}, {flight}")
        return "; ".join(parts)

    def run(self, fn: str, payloads, *, to=None) -> list:
        """Scatter *payloads* to the workers and gather results in order.

        ``to`` optionally names the worker id per payload (shard-owned
        dispatch); default is round-robin.  Raises :class:`WorkerError`
        with the remote traceback if any task fails.  Dead and wedged
        workers are detected instead of hanging, respawned and their tasks
        retried — see the class docstring — and only budget exhaustion or
        a poison task surfaces as :class:`WorkerError`.
        """
        if fn not in TASKS:
            raise ParameterError(f"unknown task {fn!r} (want one of {sorted(TASKS)})")
        payloads = list(payloads)
        if not payloads:
            return []
        obs.inc("pool.tasks", len(payloads))
        self._ensure_started()
        if to is None:
            to = [i % self.workers for i in range(len(payloads))]
        elif len(to) != len(payloads):
            raise ParameterError("`to` must match payloads in length")
        for wid in to:
            if not (0 <= wid < self.workers):
                raise ParameterError(f"worker id {wid} out of range (pool size {self.workers})")
        outstanding: "dict[int, tuple[int, int]]" = {}  # task id -> (slot, wid)
        kills: "dict[int, int]" = {}  # slot -> consecutive workers it killed

        def dispatch(slot: int, wid: int) -> None:
            task_id = self._next_task_id
            self._next_task_id += 1
            outstanding[task_id] = (slot, wid)
            self._task_qs[wid].put(("task", task_id, fn, payloads[slot]))

        def fail(wids, message: str) -> "WorkerError":
            # Auto-reset before raising: the next run() restarts fresh
            # workers and replays shared state — no caller dance needed.
            # With every worker stopped, a row left mid-write is torn for
            # good: mend it now, or the next write to it is refused as
            # nested.
            report = self._death_report(wids, outstanding)
            self._stop_workers(graceful=False)
            self._repair_shared()
            return WorkerError(f"{message} [{report}]")

        def take(wid: int, task_id: int, ok: bool, res) -> None:
            if ok and task_id == _OBS_TASK_ID:  # a worker stopped earlier
                self._absorb_final(wid, res)
            elif not ok:
                raise WorkerError(f"task failed in worker {wid}:\n{res}")
            elif task_id in outstanding:  # ignore strays from a prior failed gather
                slot, _wid = outstanding.pop(task_id)
                results[slot] = res

        def recover(wids, *, wedged: bool) -> None:
            nonlocal deadline, respawned
            # Take every result already delivered first: a task that
            # answered before its worker died is neither redone nor blamed.
            while True:
                try:
                    take(*self._result_q.get_nowait())
                except queue_mod.Empty:
                    break
            redo = sorted(tid for tid, (_slot, w) in outstanding.items() if w in wids)
            # Poison accounting: the earliest unanswered task per worker
            # is the one it was executing when it died.
            for wid in wids:
                mine = [tid for tid in redo if outstanding[tid][1] == wid]
                if not mine:
                    continue
                slot = outstanding[min(mine)][0]
                kills[slot] = kills.get(slot, 0) + 1
                if kills[slot] >= _POISON_THRESHOLD:
                    self.health.quarantined += 1
                    obs.inc("pool.supervision.quarantined")
                    raise fail(
                        wids,
                        f"poison task: {fn!r} payload {slot} killed "
                        f"{kills[slot]} workers in a row — quarantined "
                        "instead of respawn-looping",
                    ) from None
            if respawned + len(wids) > _MAX_RESPAWNS:
                raise fail(wids, f"respawn budget exhausted ({_MAX_RESPAWNS} per run)") from None
            backoff = 0.0
            if respawned:
                backoff = min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** (respawned - 1)))
                time.sleep(backoff)
                self.health.backoff_seconds += backoff
                obs.observe("pool.supervision.backoff_s", backoff)
            for wid in wids:
                self._respawn_worker(wid)
            respawned += len(wids)
            if wedged:
                self.health.wedge_restarts += len(wids)
                obs.inc("pool.supervision.wedge_restarts", len(wids))
            # The dead writer is gone for sure now: mend any row it left
            # mid-write before the retries recompute it.
            self._repair_shared()
            for tid in redo:
                slot, wid = outstanding.pop(tid)
                dispatch(slot, wid)
                self.health.retries += 1
                obs.inc("pool.supervision.retries")
            deadline = time.monotonic() + self.task_timeout

        for slot, wid in enumerate(to):
            dispatch(slot, wid)
        results = [None] * len(payloads)
        deadline = time.monotonic() + self.task_timeout
        respawned = 0
        with obs.span("pool.run"):
            while outstanding:
                try:
                    msg = self._result_q.get(timeout=0.1)
                except queue_mod.Empty:
                    dead = [w for w, p in enumerate(self._procs) if not p.is_alive()]
                    if dead:
                        recover(dead, wedged=False)
                    elif time.monotonic() > deadline:
                        wedged = sorted({w for _slot, w in outstanding.values()})
                        recover(wedged, wedged=True)
                    continue
                take(*msg)
        return results
