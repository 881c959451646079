"""Parallel subsystem: shared-memory snapshots, worker pools, sharded serving.

The single-process serving stack (PRs 1–3) left every hot path on one
core.  This package adds the multi-core layer the ROADMAP's "sharded
serving" item calls for, in three tiers:

* :mod:`repro.parallel.shm` — **data plane**: CSR snapshots
  (:meth:`CSRGraph.share <repro.graph.csr.CSRGraph.share>` /
  :meth:`CSRGraph.attach <repro.graph.csr.CSRGraph.attach>`) and dense
  serving matrices in :mod:`multiprocessing.shared_memory`, with
  delta publishing (only dirty row spans cross the bus) and capacity
  headroom for churn;
* :mod:`repro.parallel.pool` — **control plane**: :class:`WorkerPool`,
  W persistent fork/spawn-safe processes attached to the published
  objects, fed small task messages (:data:`~repro.parallel.pool.TASKS`),
  seeded via :mod:`repro.rng`, restart-transparent;
* :mod:`repro.parallel.sharded` — **the serving application**:
  :class:`ShardedRoutingService`, the incremental routing tables of
  :class:`~repro.dynamic.serving.RoutingService` with rows and tables
  partitioned ``u % W`` across shards — property-tested bit-identical to
  the serial service after every event — plus :class:`RouteReader`, a
  read-only query endpoint any process can attach over the seqlock
  -versioned shared matrices to serve ``next_hop``/``route`` lookups
  *while* the shards repair (torn-read-free, property-tested).

``benchmarks/test_bench_parallel.py`` records the W = 1, 2, 4 repair
-throughput curve and the publish costs as ``BENCH_parallel.json``
(degrading to a W = 1 measurement on single-core runners).

The fault-injection plane (:mod:`repro.faults`, ``REPRO_FAULTS=1`` +
``REPRO_FAULT_PLAN=...``) arms itself through the import hook below
before any shared state is touched.  The hook runs in ``spawn`` workers
too, since the task registry forces this package onto their import
path, so a seeded chaos plan survives both start methods.
"""

from ..faults import maybe_install_from_env as _maybe_install_faults

_maybe_install_faults()

from .pool import TASKS, WorkerError, WorkerPool, resolve_workers  # noqa: E402
from .shm import (
    AttachedCSR,
    AttachedDirectory,
    AttachedMatrix,
    PublishStats,
    SharedCSR,
    SharedCSRHandle,
    SharedDirectory,
    SharedMatrix,
    SharedMatrixHandle,
    attach_csr,
)
from .sharded import RouteReader, ShardedRoutingService

__all__ = [
    "TASKS",
    "WorkerError",
    "WorkerPool",
    "resolve_workers",
    "AttachedCSR",
    "AttachedDirectory",
    "AttachedMatrix",
    "PublishStats",
    "SharedCSR",
    "SharedCSRHandle",
    "SharedDirectory",
    "SharedMatrix",
    "SharedMatrixHandle",
    "attach_csr",
    "RouteReader",
    "ShardedRoutingService",
]
