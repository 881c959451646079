"""One-shot fan-out helpers behind the ``workers=`` dispatch.

:func:`maybe_parallel_bfs` backs the ``workers=`` parameter of
:func:`~repro.graph.traversal.batched_bfs` (and through it batched APSP
and the routing-table kernel): publish the CSR snapshot to a pool, scatter
source chunks, let each worker write its distance rows into one shared
output matrix, and hand the caller a private copy.

Engagement rules mirror the ``backend="auto"`` philosophy: an explicit
int or pool always engages (the caller asked); ``"auto"`` engages only
when the graph clears ``tuning.parallel_min_nodes`` and there are enough
sources to amortize the fan-out, and resolves to 1 (serial) on single-core
hosts.  A transient pool is spun up and torn down per call — pass a
long-lived :class:`~repro.parallel.pool.WorkerPool` to amortize process
start-up across calls.
"""

from __future__ import annotations

import numpy as np

from .. import tuning
from .pool import WorkerPool, resolve_workers

__all__ = ["maybe_parallel_bfs"]

#: Shared-object names used by the one-shot helpers.
_G, _OUT = "bfs:g", "bfs:out"


def _chunks(items: list, pieces: int) -> "list[list]":
    """Split *items* into at most *pieces* contiguous, near-equal chunks."""
    pieces = max(1, min(pieces, len(items)))
    size, extra = divmod(len(items), pieces)
    out, lo = [], 0
    for i in range(pieces):
        hi = lo + size + (1 if i < extra else 0)
        out.append(items[lo:hi])
        lo = hi
    return out


def maybe_parallel_bfs(csr, sources: "list[int]", cutoff: "int | None", workers) -> "np.ndarray | None":
    """Distance rows for *sources* via a worker pool, or ``None`` (= stay serial).

    Returns a private ``(len(sources), n)`` int32 array whose i-th row is
    ``bfs_distances(csr, sources[i], cutoff)`` — computed by the very same
    batched engine, just in worker processes over shared memory.
    """
    if not sources:
        return None
    if isinstance(workers, WorkerPool):
        # An explicitly supplied pool is used even at W=1 (the caller is
        # amortizing start-up; results are identical either way).
        pool, transient = workers, False
    else:
        w = resolve_workers(workers)
        if w <= 1:
            return None
        if workers == "auto" and (
            csr.num_nodes < tuning.get().parallel_min_nodes or len(sources) < 2 * w
        ):
            return None
        pool, transient = WorkerPool(w), True
    out = None
    try:
        pool.publish_csr(_G, csr)
        out = pool.matrix(_OUT, len(sources), csr.num_nodes)
        payloads = []
        slot = 0
        for chunk in _chunks(list(sources), pool.workers * 4):
            payloads.append((_G, _OUT, chunk, list(range(slot, slot + len(chunk))), cutoff))
            slot += len(chunk)
        pool.run("bfs_rows", payloads)
        return out.copy()
    finally:
        out = None  # release the buffer export before any unlink
        if transient:
            pool.close()

