"""Shared-memory transport: CSR snapshots and dense matrices across processes.

The worker pool's data plane.  Graph snapshots and the serving matrices are
far too large to pickle per task, so they live in
:mod:`multiprocessing.shared_memory` blocks that every worker maps once:

* :class:`SharedCSR` — a :class:`~repro.graph.csr.CSRGraph` exported as two
  blocks (``int64`` row offsets, ``int32`` neighbor ids).  Workers attach
  with **zero copies** (:func:`attach_csr`, surfaced as
  :meth:`CSRGraph.attach <repro.graph.csr.CSRGraph.attach>`); every
  publish rewrites the whole snapshot (164 KB for the n=3000 graph of
  ``BENCH_parallel.json``: tens of microseconds, noise next to a tick).
* :class:`SharedMatrix` — a dense int32 matrix (the serving layer's
  ``D``/``T``) with capacity headroom so node churn can grow ``n`` without
  reallocating; parent and workers read and write the *same* bytes, so
  "sending a row" to a worker costs nothing.
* **Concurrent readers** — every matrix carries one seqlock-style version
  counter per row.  The only way to write a row is ``with m.row_write(u)
  as row:`` — the version goes odd on entry and even again on exit,
  whether the body returns or raises — and its
  :attr:`~SharedMatrix.array` is a **read-only** view, so a write that
  skips the bracket raises ``ValueError`` the first time it runs.
  :meth:`AttachedMatrix.read_row` / :meth:`~AttachedMatrix.read_cell`
  retry until they capture a row whose version was even and unchanged
  across the copy — so a reader process can serve lookups *while* shard
  workers repair, and only ever observes row states the writers actually
  committed (never a torn half-write).

  .. note:: Pure Python offers no cross-process memory fence, so the
     protocol relies on the platform's total-store-order guarantee (x86 /
     x86-64: stores become visible in program order) plus CPython's own
     synchronization around the eval loop.  On weakly-ordered CPUs
     (aarch64) the counter stores could in principle be observed out of
     order with the row data; deployments there should treat the torn-read
     property suite as the arbiter on the actual target hardware.
* :class:`SharedDirectory` — a tiny fixed-size control block publishing
  the current matrix handles under the same seqlock discipline, so a
  detached reader can follow resizes/reallocations without talking to the
  owning process.

Both owners allocate **capacity slack** (~25%) and reallocate into fresh
blocks only when outgrown; every publish bumps a ``version`` so the pool's
control plane (:mod:`repro.parallel.pool`) can tell workers to re-wrap
their views.

Block lifetime has one owner.  Only the three owner classes create
blocks (:func:`_create_block`, every name starting with
:data:`BLOCK_PREFIX`), and only :func:`_free_block` unlinks one — when an
owner closes (``close()``, the end of a ``with`` block, or garbage
collection as a safety net) and when a reallocation retires the blocks
it outgrew.  POSIX semantics keep existing mappings valid after the
unlink; attachers only ``close``.  The layering table
(``tests/test_layering.py``) guards both call sites, and ``tests/conftest.py``
fails any test that leaves a ``/dev/shm/repro-<its pid>-*`` segment behind.

CPython ≤ 3.12 registers *attached* segments with the resource tracker,
which would unlink them when the attaching worker exits (bpo-39959);
:func:`_attach_block` unregisters the attachment to keep ownership with
the creator.
"""

from __future__ import annotations

import os
import pickle
import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

from .. import faults as _faults
from .. import obs
from ..errors import ParameterError, ProtocolError, TornReadError
from ..graph.csr import CSRGraph

__all__ = [
    "BLOCK_PREFIX",
    "SharedCSR",
    "SharedCSRHandle",
    "SharedMatrix",
    "SharedMatrixHandle",
    "SharedDirectory",
    "AttachedDirectory",
    "PublishStats",
    "attach_csr",
    "AttachedCSR",
    "AttachedMatrix",
]

_PTR_DTYPE = np.int64
_IDX_DTYPE = np.intc
_MAT_DTYPE = np.int32
_VER_DTYPE = np.int64

_T = TypeVar("_T")


#: Retry budget for seqlock reads — generous enough to ride out any live
#: writer (writers hold a row for microseconds; the reader yields the CPU
#: while spinning), small enough to surface a dead writer within seconds.
_READ_RETRIES = 200_000


def _spin(attempt: int) -> None:
    """Back off inside a seqlock retry loop without starving the writer.

    The first few retries busy-spin (the writer is mid-row), then the
    reader yields its timeslice, then parks briefly — essential on
    single-core hosts where reader and writer time-share one CPU.
    """
    if attempt >= 1024:
        time.sleep(0.0001)
    elif attempt >= 16:
        time.sleep(0)


def _read_stable(
    ver: np.ndarray,
    i: int,
    data: Any,
    key: Any,
    cast: "Callable[[Any], _T]",
    owner: "AttachedMatrix | None" = None,
) -> _T:
    """``cast(data[key])`` copied while version ``ver[i]`` stayed even.

    The one seqlock read loop: capture the version (retry while odd —
    a writer is mid-row), copy, re-check, retry on any movement, so the
    result is always a state some writer committed.  *cast* must copy
    (``int``, ``np.array``, ``bytes``); the caller passes it rather than
    a closure, so a read allocates nothing beyond its result.  With an
    *owner* (an :class:`AttachedMatrix`) every discarded capture bumps
    ``owner.torn_retries`` and the ``seqlock.retry_busy`` /
    ``seqlock.retry_torn`` counters.  Nothing here may block: the only
    back-off is :func:`_spin` (``tests/test_layering.py`` guards
    that this is the only loop that calls it).  The retry budget is
    looked up only once a read has to retry, so an uncontended read
    costs two version loads and the copy.
    """
    attempt = 0
    while True:
        v0 = int(ver[i])
        if v0 & 1:
            metric = "seqlock.retry_busy"
        else:
            value = cast(data[key])
            if int(ver[i]) == v0:
                return value
            metric = "seqlock.retry_torn"
        if owner is not None:
            owner.torn_retries += 1
            obs.inc(metric)
        if attempt + 1 >= _READ_RETRIES:
            break
        _spin(attempt)
        attempt += 1
    raise TornReadError(f"seqlock version {i} never stabilized (writer died mid-write?)")


def _headroom(size: int) -> int:
    """Capacity with ~25% slack (at least a small fixed floor)."""
    return max(64, size + (size >> 2))


#: Immediate-retry budget for transient shm allocation/attach failures
#: (momentary EMFILE, a name collision, an injected ``shm.alloc`` /
#: ``shm.attach`` fault).  A real ENOENT on attach propagates untried —
#: the owner unlinked the block, and the reader refresh protocol depends
#: on seeing that promptly.
_TRANSIENT_TRIES = 3

#: Name prefix of every block this package creates (on Linux each one is
#: ``/dev/shm/<name>``).  The full name is ``<prefix><creator pid>-<hex>``,
#: so a process can list the blocks it made apart from everyone else's.
BLOCK_PREFIX = "repro-"


def _create_block(nbytes: int) -> shared_memory.SharedMemory:
    """A fresh named block; the creator's pid and a short random suffix keep
    names collision-free.

    Transient allocation failures are retried with a fresh name up to
    :data:`_TRANSIENT_TRIES` times before giving up.
    """
    block = failure = None
    for _ in range(_TRANSIENT_TRIES):
        name = f"{BLOCK_PREFIX}{os.getpid()}-{secrets.token_hex(6)}"
        try:
            if _faults.active:
                _faults.on_shm_create(name)  # simulated allocation failure (OSError)
            block = shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 1))
        except OSError as exc:
            failure = exc
            continue
        break
    if block is None:
        raise failure
    return block


def _free_block(block: shared_memory.SharedMemory) -> None:
    """Unmap a block this process created, then unlink its name.

    The one place a block is unlinked.  A name already gone (another
    process cleaned up after a crash) is not an error.
    """
    block.close()
    try:
        block.unlink()
    except FileNotFoundError:
        pass


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Open an existing block without adopting ownership of its lifetime.

    CPython ≤ 3.12 registers attachments with the (shared) resource
    tracker exactly like creations (bpo-39959), which would double-book
    the block and unlink it under the owner.  Suppressing registration for
    the attach (the 3.13 ``track=False`` semantics) keeps the creator the
    sole owner; worker processes are single-threaded, so the temporary
    patch cannot race.

    Transient failures are retried up to :data:`_TRANSIENT_TRIES` times;
    ``FileNotFoundError`` is excluded — the owner unlinked the block, and
    retrying would only delay the caller's stale-handle recovery.
    """
    from multiprocessing import resource_tracker

    failure = None
    for _ in range(_TRANSIENT_TRIES):
        try:
            if _faults.active:
                _faults.on_shm_attach(name)  # simulated attach failure (OSError)
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
        except FileNotFoundError:
            raise
        except OSError as exc:
            failure = exc
    raise failure


@dataclass(frozen=True)
class PublishStats:
    """What one :meth:`SharedCSR.publish` shipped."""

    bytes_written: int
    reallocated: bool
    version: int


@dataclass(frozen=True)
class SharedCSRHandle:
    """Picklable coordinates of a :class:`SharedCSR` (what workers attach)."""

    indptr_name: str
    indices_name: str
    n: int
    num_indices: int
    version: int


@dataclass(frozen=True)
class SharedMatrixHandle:
    """Picklable coordinates of a :class:`SharedMatrix`."""

    name: str
    versions_name: str  # the per-row seqlock counters
    rows: int
    cols: int
    capacity: "tuple[int, int]"  # the allocated (rows, cols)
    version: int


class _BlockOwner:
    """The lifetime every block owner shares: ``close`` frees the blocks
    the owner holds at that moment (idempotent), ``with`` closes on exit,
    and garbage collection closes as a safety net.  Subclasses list their
    live blocks in :meth:`_blocks`."""

    _closed = False

    def _blocks(self) -> "Iterable[shared_memory.SharedMemory | None]":
        raise NotImplementedError

    def _ensure_open(self) -> None:
        if self._closed:
            raise ParameterError(f"{type(self).__name__} is closed")

    def close(self) -> None:
        """Free every block (idempotent; attached workers keep their maps)."""
        if self._closed:
            return
        self._closed = True
        for block in self._blocks():
            if block is not None:
                _free_block(block)

    def __enter__(self: "_Owner") -> "_Owner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


_Owner = TypeVar("_Owner", bound=_BlockOwner)


class SharedCSR(_BlockOwner):
    """Parent-side owner of a CSR snapshot living in shared memory.

    Create via :meth:`CSRGraph.share`.  ``publish(new_csr)`` rewrites the
    snapshot in place and bumps ``version``; when the new snapshot
    outgrows the capacity the blocks are reallocated under fresh names
    (``reallocated=True`` in the returned stats — the pool then
    rebroadcasts the handle).  Use as a context manager or call
    :meth:`close` to free the blocks.
    """

    _shm_indptr: shared_memory.SharedMemory
    _shm_indices: shared_memory.SharedMemory

    def __init__(self, csr: CSRGraph) -> None:
        self._cap_n = self._cap_i = -1  # no blocks yet: the export allocates them
        self.version = -1
        #: What the export wrote (version 0, always a reallocation).
        self.exported = self.publish(csr)

    # -- views over the blocks ----------------------------------------- #

    def _ptr_view(self, count: int) -> np.ndarray:
        return np.ndarray((count,), dtype=_PTR_DTYPE, buffer=self._shm_indptr.buf)

    def _idx_view(self, count: int) -> np.ndarray:
        return np.ndarray((count,), dtype=_IDX_DTYPE, buffer=self._shm_indices.buf)

    @property
    def handle(self) -> SharedCSRHandle:
        return SharedCSRHandle(
            indptr_name=self._shm_indptr.name,
            indices_name=self._shm_indices.name,
            n=self.n,
            num_indices=self.num_indices,
            version=self.version,
        )

    def graph(self) -> CSRGraph:
        """A zero-copy :class:`CSRGraph` over the parent's own mapping."""
        return CSRGraph._wrap_views(
            self.n, self._ptr_view(self.n + 1), self._idx_view(self.num_indices)
        )

    # -- publishing ----------------------------------------------------- #

    def publish(self, csr: CSRGraph) -> PublishStats:
        """Rewrite the blocks with snapshot *csr* and bump ``version``.

        A snapshot that outgrows the capacity moves to fresh blocks with
        ~25% headroom (``reallocated=True`` — attachment handles change);
        the outgrown blocks are unlinked, and mappings workers still hold
        stay valid until they refresh.
        """
        self._ensure_open()
        np_indptr, np_indices = csr.numpy_arrays()
        n, m2 = csr.num_nodes, len(np_indices)
        reallocated = n > self._cap_n or m2 > self._cap_i
        if reallocated:
            retired = (self._shm_indptr, self._shm_indices) if self.version >= 0 else ()
            self._cap_n = max(_headroom(n), self._cap_n)
            self._cap_i = max(_headroom(m2), self._cap_i)
            self._shm_indptr = _create_block((self._cap_n + 1) * np.dtype(_PTR_DTYPE).itemsize)
            self._shm_indices = _create_block(self._cap_i * np.dtype(_IDX_DTYPE).itemsize)
            for block in retired:  # attached mappings stay valid
                _free_block(block)
        self._ptr_view(n + 1)[:] = np_indptr
        if m2:
            self._idx_view(m2)[:] = np_indices
        self.n, self.num_indices = n, m2
        self.version += 1
        return PublishStats(np_indptr.nbytes + np_indices.nbytes, reallocated, self.version)

    def _blocks(self) -> "Iterable[shared_memory.SharedMemory | None]":
        return (self._shm_indptr, self._shm_indices)


class AttachedCSR:
    """Worker-side attachment of a :class:`SharedCSR`.

    Keeps the mapped blocks open and re-wraps the :class:`CSRGraph` view
    when the publisher announces a new version (:meth:`refresh`).  If the
    announced handle names different blocks (the publisher reallocated),
    the old maps are closed and the new ones attached.
    """

    graph: CSRGraph | None

    def __init__(self, handle: SharedCSRHandle) -> None:
        self._handle = handle
        self._shm_indptr = _attach_block(handle.indptr_name)
        self._shm_indices = _attach_block(handle.indices_name)
        self._wrap()

    def _wrap(self) -> None:
        h = self._handle
        indptr = np.ndarray((h.n + 1,), dtype=_PTR_DTYPE, buffer=self._shm_indptr.buf)
        indices = np.ndarray((h.num_indices,), dtype=_IDX_DTYPE, buffer=self._shm_indices.buf)
        self.graph = CSRGraph._wrap_views(h.n, indptr, indices)

    @property
    def version(self) -> int:
        return self._handle.version

    def refresh(self, handle: SharedCSRHandle) -> None:
        if handle.indptr_name != self._handle.indptr_name:
            self.close()
            self._shm_indptr = _attach_block(handle.indptr_name)
            self._shm_indices = _attach_block(handle.indices_name)
        self._handle = handle
        self._wrap()

    def close(self) -> None:
        self.graph = None
        for shm in (self._shm_indptr, self._shm_indices):
            try:
                shm.close()
            except (BufferError, OSError):  # pragma: no cover - exports/teardown
                pass


def attach_csr(handle: "SharedCSRHandle | AttachedCSR") -> CSRGraph:
    """One-shot zero-copy attach (the :meth:`CSRGraph.attach` entry point).

    Accepts a :class:`SharedCSRHandle` or an :class:`AttachedCSR`.  The
    returned graph aliases the shared buffers; with a bare handle the
    attachment is pinned on the graph object so the mapping outlives it.
    """
    if not isinstance(handle, (AttachedCSR, SharedCSRHandle)):
        raise ParameterError(
            f"attach needs a SharedCSRHandle or AttachedCSR, got {type(handle).__name__}"
        )
    attachment = handle if isinstance(handle, AttachedCSR) else AttachedCSR(handle)
    g = attachment.graph
    if g is None:  # pragma: no cover - only after an explicit close()
        raise ParameterError("AttachedCSR is closed")
    if attachment is not handle:
        g._pin = attachment  # pin the fresh mapping to the graph's lifetime
    return g


class _RowWriter:
    """The write side of the row seqlock, shared by both matrix classes.

    Subclasses provide :meth:`_writable` (the writable logical view) and
    :meth:`_versions` (the per-row seqlock counters).
    """

    def _writable(self) -> np.ndarray:
        raise NotImplementedError

    def _versions(self) -> np.ndarray:
        raise NotImplementedError

    @contextmanager
    def row_write(self, u: int) -> Iterator[np.ndarray]:
        """Write row *u* under the seqlock; yields the writable row.

        The version goes odd before the body runs and even again after
        it on every exit path, so readers never accept a half-written row
        and never spin on one a raising body abandoned.  Entering a row
        that is already odd (a nested write) raises
        :class:`~repro.errors.ProtocolError` before touching anything —
        the inner commit would flip the version even mid-write.  Only a
        process dying inside the body (the ``write.crash`` fault site)
        leaves the row odd, which :meth:`SharedMatrix.repair_torn_rows`
        mends.
        """
        row = self._writable()[u]
        ver = self._versions()
        if int(ver[u]) & 1:
            raise ProtocolError(
                f"row_write({u}) while row {u} is already mid-write — a nested "
                "write would commit a torn row"
            )
        ver[u] += 1
        try:
            if _faults.active:
                _faults.on_begin_row_write(u)  # crash site: row now odd
            yield row
        finally:
            ver[u] += 1


class SharedMatrix(_BlockOwner, _RowWriter):
    """Parent-side owner of a dense int32 matrix in shared memory.

    The logical shape is ``(rows, cols)`` inside a ``(cap_rows, cap_cols)``
    allocation, so growth within capacity is free (bump the shape, fill the
    fresh border).  ``resize`` reallocates when outgrown, preserving the
    overlapping content; both cases bump ``version`` for the control plane.

    A second shared block holds one int64 seqlock counter per row, so
    writer processes publish row updates that concurrent readers observe
    atomically: rows are written only through :meth:`row_write`, and
    :attr:`array` is read-only — see the module docstring and
    :meth:`AttachedMatrix.read_row`.  Use as a context manager or call
    :meth:`close` to free the blocks.
    """

    def __init__(self, rows: int, cols: int, *, fill: "int | None" = None) -> None:
        self._cap_r, self._cap_c = _headroom(rows), _headroom(cols)
        self._shm = _create_block(self._cap_r * self._cap_c * np.dtype(_MAT_DTYPE).itemsize)
        self._shm_ver = _create_block(self._cap_r * np.dtype(_VER_DTYPE).itemsize)
        self.row_versions[:] = 0
        self.rows, self.cols = rows, cols
        self.version = 0
        self.fill = fill  # remembered: repair_torn_rows resets rows to it
        if fill is not None:
            self._writable()[:] = fill

    @property
    def handle(self) -> SharedMatrixHandle:
        return SharedMatrixHandle(
            name=self._shm.name,
            versions_name=self._shm_ver.name,
            rows=self.rows,
            cols=self.cols,
            capacity=(self._cap_r, self._cap_c),
            version=self.version,
        )

    @property
    def row_versions(self) -> np.ndarray:
        """The per-row seqlock counters (one per allocated row)."""
        return np.ndarray((self._cap_r,), dtype=_VER_DTYPE, buffer=self._shm_ver.buf)

    def _versions(self) -> np.ndarray:
        return self.row_versions

    def _writable(self) -> np.ndarray:
        base = np.ndarray((self._cap_r, self._cap_c), dtype=_MAT_DTYPE, buffer=self._shm.buf)
        return base[: self.rows, : self.cols]

    @property
    def array(self) -> np.ndarray:
        """The live ``(rows, cols)`` view, shared with every attachment.

        Read-only: rows change only through :meth:`row_write`.
        """
        view = self._writable()
        view.flags.writeable = False
        return view

    @property
    def capacity_bytes(self) -> int:
        """Bytes actually reserved (capacity, not logical shape)."""
        return self._cap_r * self._cap_c * np.dtype(_MAT_DTYPE).itemsize

    def resize(self, rows: int, cols: int, *, fill: "int | None" = None) -> bool:
        """Change the logical shape; returns ``True`` when blocks moved.

        Within capacity this costs one border fill.  Beyond it, fresh
        blocks are allocated and the overlapping content copied.  *fill*
        initializes any newly exposed cells (also on shrink-then-grow).
        """
        self._ensure_open()
        if fill is not None:
            self.fill = fill
        old_rows, old_cols = self.rows, self.cols
        reallocated = rows > self._cap_r or cols > self._cap_c
        if reallocated:
            old_shm, old_view = self._shm, self._writable()
            old_ver_shm, old_ver = self._shm_ver, self.row_versions
            old_cap_r = self._cap_r
            self._cap_r = max(_headroom(rows), self._cap_r)
            self._cap_c = max(_headroom(cols), self._cap_c)
            itemsize = np.dtype(_MAT_DTYPE).itemsize
            self._shm = _create_block(self._cap_r * self._cap_c * itemsize)
            # Carry the counters over so attached readers comparing
            # versions across the swap never see them move backwards.
            self._shm_ver = _create_block(self._cap_r * np.dtype(_VER_DTYPE).itemsize)
            new_ver = self.row_versions
            new_ver[:] = 0
            new_ver[:old_cap_r] = old_ver
            self.rows, self.cols = rows, cols
            a = self._writable()
            if fill is not None:
                a[:] = fill
            keep_r, keep_c = min(old_rows, rows), min(old_cols, cols)
            a[:keep_r, :keep_c] = old_view[:keep_r, :keep_c]
            del old_view, old_ver  # drop the buffer exports so the mmaps can close
            for block in (old_shm, old_ver_shm):
                _free_block(block)
        else:
            self.rows, self.cols = rows, cols
            if fill is not None:
                a = self._writable()
                if rows > old_rows:
                    a[old_rows:, :] = fill
                if cols > old_cols:
                    a[:, old_cols:] = fill
        self.version += 1
        return reallocated

    def repair_torn_rows(self) -> "list[int]":
        """Commit every row a dead writer left mid-write; returns their ids.

        A worker that died inside :meth:`row_write` leaves the row version
        odd forever: readers spin to :class:`~repro.errors.TornReadError`,
        and the half-written content must never be served.  The supervisor
        calls this after respawning: each odd row is overwritten with the
        matrix *fill* (a committed-looking dormant state) **while the
        version is still odd** — concurrent seqlock readers discard
        anything captured mid-write — and only then committed.  The
        retried task rewrites the real content afterwards.
        """
        ver = self.row_versions
        fill = 0 if self.fill is None else self.fill
        arr = self._writable()
        repaired = []
        for u in range(self.rows):
            if int(ver[u]) & 1:
                arr[u, :] = fill
                ver[u] += 1  # commit: even again, content is the fill state
                repaired.append(u)
        return repaired

    def _blocks(self) -> "Iterable[shared_memory.SharedMemory | None]":
        return (self._shm, self._shm_ver)


class AttachedMatrix(_RowWriter):
    """Worker/reader-side attachment of a :class:`SharedMatrix`.

    Writers (shard workers) update rows with ``with att.row_write(u) as
    row:`` (:attr:`array` is read-only, exactly as on the owner); readers
    in other processes use :meth:`read_row` / :meth:`read_cell`, which
    follow the seqlock protocol — capture the row version (retry while
    odd), copy the data, re-check the version, retry on any movement.
    ``torn_retries`` counts how many captures had to be retried (i.e. torn
    states that were *observed and discarded*, never returned).
    """

    _arr: np.ndarray  # writable: only row_write hands out its rows
    _view: np.ndarray  # what `array` returns (read-only)
    _ver: np.ndarray

    def __init__(self, handle: SharedMatrixHandle) -> None:
        self._handle = handle
        self._shm = _attach_block(handle.name)
        self._shm_ver = _attach_block(handle.versions_name)
        self.torn_retries = 0
        self._rewrap()

    def _rewrap(self) -> None:
        h = self._handle
        base = np.ndarray(h.capacity, dtype=_MAT_DTYPE, buffer=self._shm.buf)
        self._arr = base[: h.rows, : h.cols]
        self._view = self._arr.view()
        self._view.flags.writeable = False
        self._ver = np.ndarray((h.capacity[0],), dtype=_VER_DTYPE, buffer=self._shm_ver.buf)

    def _versions(self) -> np.ndarray:
        return self._ver

    def _writable(self) -> np.ndarray:
        return self._arr

    @property
    def array(self) -> np.ndarray:
        """The mapped ``(rows, cols)`` view, read-only."""
        return self._view

    @property
    def rows(self) -> int:
        return self._handle.rows

    @property
    def cols(self) -> int:
        return self._handle.cols

    @property
    def versions(self) -> np.ndarray:
        """The per-row seqlock counters."""
        return self._ver

    def read_row(self, u: int, cols: "np.ndarray | None" = None) -> np.ndarray:
        """A stable private copy of row *u* (optionally only *cols*).

        Seqlock read: the returned array is bit-identical to a state some
        writer committed — a concurrent half-written row is retried, never
        returned.
        """
        key = u if cols is None else (u, cols)
        return _read_stable(self._ver, u, self._arr, key, np.array, self)

    def read_cell(self, u: int, v: int) -> int:
        """A stable read of one cell, under the same seqlock protocol."""
        return _read_stable(self._ver, u, self._arr, (u, v), int, self)

    def read_cells(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Stable reads of the cells ``(us[i], vs[i])``, as a private array.

        The batched seqlock read: capture the row versions of *us*, gather
        every cell in one pass, re-load the versions.  A cell whose row
        version was odd or moved across the gather is re-read alone
        through :meth:`read_cell` — the one ``_read_stable`` loop — so
        every returned cell is a state some writer committed, and a row
        that never stabilizes raises :class:`~repro.errors.TornReadError`.
        """
        ver = self._ver
        v0 = ver[us]
        out = self._arr[us, vs]
        # Versions only grow, so the re-load equals the capture with its
        # low bit cleared only when the capture was even and nothing moved.
        moved = ver[us] != (v0 & ~1)
        if np.count_nonzero(moved):
            for i in np.flatnonzero(moved).tolist():
                out[i] = self.read_cell(int(us[i]), int(vs[i]))
        return out

    @property
    def handle(self) -> SharedMatrixHandle:
        """The handle this attachment currently wraps."""
        return self._handle

    def refresh(self, handle: SharedMatrixHandle) -> None:
        if handle.name != self._handle.name:
            # Attach the new blocks *before* releasing the old ones: if the
            # new names are already gone (we raced a newer reallocation),
            # the attachment stays consistent with its previous handle and
            # the caller can re-read the directory and retry.
            new_shm = _attach_block(handle.name)
            new_ver = _attach_block(handle.versions_name)
            self.close()
            self._shm, self._shm_ver = new_shm, new_ver
        self._handle = handle
        self._rewrap()

    def close(self) -> None:
        # Drop buffer exports before unmapping (a closed attachment must
        # never be read again, hence the deliberate type violation).
        self._arr = self._view = self._ver = None  # type: ignore[assignment]
        for shm in (self._shm, self._shm_ver):
            try:
                shm.close()
            except (BufferError, OSError):  # pragma: no cover - exports/teardown
                pass


class SharedDirectory(_BlockOwner):
    """A tiny seqlock-published control block naming the live shared state.

    The owning service :meth:`post`\\ s a small picklable payload (the
    current :class:`SharedMatrixHandle`\\ s) and two int64 *words* after
    every mutation; detached reader processes poll
    :meth:`AttachedDirectory.generation` and re-read only when it moved —
    which is how readers follow matrix resizes and reallocations without
    any channel to the owner.  The payload carries its own version, bumped
    only when its pickled bytes change, so a post that moves only the
    words costs a reader one header copy (:meth:`AttachedDirectory.poll`),
    not an unpickle.  Use as a context manager or call :meth:`close` to
    free the block.
    """

    _SIZE = 4096  # plenty for a pickled triple of handles
    #: int64 header words: generation, payload length, payload version, the two words.
    _WORDS = 5
    _HEADER = 8 * _WORDS

    def __init__(self) -> None:
        self._shm = _create_block(self._SIZE)
        self._header()[:] = 0
        self._data = b""

    def _header(self) -> np.ndarray:
        return np.ndarray((self._WORDS,), dtype=np.int64, buffer=self._shm.buf)

    @property
    def name(self) -> str:
        """The block name — the picklable address readers attach to."""
        return self._shm.name

    def post(self, payload: object, words: "tuple[int, int]" = (0, 0)) -> int:
        """Publish *payload* (pickled) and *words* atomically; returns the
        generation.  The payload bytes are rewritten, and its version
        bumped, only when they differ from the last post's."""
        self._ensure_open()
        data = pickle.dumps(payload)
        if len(data) > self._SIZE - self._HEADER:
            raise ParameterError(
                f"directory payload of {len(data)} bytes exceeds the "
                f"{self._SIZE - self._HEADER}-byte block"
            )
        hdr = self._header()
        hdr[0] += 1  # odd: write in progress
        if data != self._data:
            self._shm.buf[self._HEADER : self._HEADER + len(data)] = data
            hdr[1] = len(data)
            hdr[2] += 1
            self._data = data
        hdr[3:] = words
        hdr[0] += 1  # even: committed
        return int(hdr[0])

    def _blocks(self) -> "Iterable[shared_memory.SharedMemory | None]":
        return (self._shm,)


class DirectoryPost(NamedTuple):
    """One committed :class:`SharedDirectory` post, as a reader saw it."""

    generation: int
    version: int  # the payload's version
    words: "tuple[int, int]"
    payload: object  # None when :meth:`AttachedDirectory.poll` skipped it


class AttachedDirectory:
    """Reader-side attachment of a :class:`SharedDirectory`."""

    def __init__(self, name: str) -> None:
        self._shm = _attach_block(name)
        self._hdr = np.ndarray((SharedDirectory._WORDS,), dtype=np.int64, buffer=self._shm.buf)

    def generation(self) -> int:
        """The current publish generation (cheap: one int64 load)."""
        return int(self._hdr[0])

    def read(self) -> "tuple[object, int]":
        """The latest committed payload and its generation (seqlock read)."""
        post = self.poll(-1)
        return post.payload, post.generation

    def poll(self, version: int) -> DirectoryPost:
        """The latest committed post; its payload only if its version is
        not *version* (else ``payload`` is None).

        Both paths are one seqlock read: the header alone when the payload
        is already known, else the whole block, so the generation, words
        and payload bytes always come from the same committed post.
        """
        hdr = _read_stable(self._hdr, 0, self._hdr, slice(None), np.array).tolist()
        if hdr[2] == version:
            return DirectoryPost(hdr[0], hdr[2], (hdr[3], hdr[4]), None)
        block = _read_stable(self._hdr, 0, self._shm.buf, slice(None), bytes)
        gen, length, version, *words = np.frombuffer(
            block, dtype=np.int64, count=SharedDirectory._WORDS
        ).tolist()
        start = SharedDirectory._HEADER
        return DirectoryPost(gen, version, tuple(words), pickle.loads(block[start : start + length]))

    def close(self) -> None:
        self._hdr = None  # type: ignore[assignment]  # drop the export before unmapping
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - exports/teardown
            pass
