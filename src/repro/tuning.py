"""Runtime-tunable performance knobs for the traversal and parallel engines.

The CSR traversal engine has two crossover constants that used to be frozen
module constants in :mod:`repro.graph.traversal`:

* ``batch_chunk`` — sources expanded simultaneously per
  :func:`~repro.graph.traversal.batched_bfs` chunk (cache-friendliness vs
  numpy call amortization);
* ``auto_min_nodes`` — node count below which ``backend="auto"`` stays on
  the set backend (numpy call overhead exceeds the whole BFS on toy
  graphs).

Their best values depend on the hardware (cache sizes, numpy build), so
they are now runtime-configurable, three ways, in increasing precedence:

1. **defaults** — the values measured on the reference 2200-node UDG;
2. **environment** — ``REPRO_BATCH_CHUNK``, ``REPRO_AUTO_MIN_NODES``,
   ``REPRO_PARALLEL_MIN_NODES`` (read once at first use);
3. **programmatic** — :func:`configure` (persistent) or the
   :func:`overridden` context manager (scoped, exception-safe — what the
   tests use).

``parallel_min_nodes`` is the analogous gate for the multiprocessing fan
-out of :mod:`repro.parallel`: below it, ``workers="auto"`` never engages
(the per-task IPC overhead exceeds the whole BFS).  ``auto_max_workers``
caps how many processes ``workers="auto"`` spawns once it does engage
(``REPRO_AUTO_MAX_WORKERS``), and ``small_frontier`` is the BFS frontier
size below which the traversal expands via index lists instead of boolean
row masks (``REPRO_SMALL_FRONTIER``).

``obs`` gates the :mod:`repro.obs` instrumentation (``REPRO_OBS``; the
strings ``off``/``false``/``no`` mean ``0``, ``on``/``true``/``yes`` mean
``1``).  ``faults`` is the analogous gate for the fault-injection plane
(``REPRO_FAULTS``, see :mod:`repro.faults`) — both are allowed to be
zero, and ``faults`` *defaults* to zero: injection is strictly opt-in.

``read_retries`` (``REPRO_READ_RETRIES``) is the seqlock reader retry
budget before :class:`~repro.errors.TornReadError` — a hard-coded
constant before the fault plane made tightening it under test necessary.

``python -m repro tune`` measures the crossovers on the current hardware
(:func:`calibrate`) and prints recommended values plus the matching
``export`` lines.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

from .errors import ParameterError

__all__ = [
    "Tuning",
    "get",
    "configure",
    "reset",
    "overridden",
    "calibrate",
    "DEFAULT_BATCH_CHUNK",
    "DEFAULT_AUTO_MIN_NODES",
    "DEFAULT_PARALLEL_MIN_NODES",
    "DEFAULT_AUTO_MAX_WORKERS",
    "DEFAULT_SMALL_FRONTIER",
    "DEFAULT_OBS",
    "DEFAULT_FAULTS",
    "DEFAULT_READ_RETRIES",
]

#: Sources per :func:`~repro.graph.traversal.batched_bfs` chunk (64 measured
#: best on the 2200-node UDG of ``benchmarks/test_bench_traversal.py``).
DEFAULT_BATCH_CHUNK = 64

#: Below this node count ``backend="auto"`` stays on sets.
DEFAULT_AUTO_MIN_NODES = 64

#: Below this node count ``workers="auto"`` stays single-process.
DEFAULT_PARALLEL_MIN_NODES = 768

#: Cap for ``workers="auto"`` — beyond this the serving fan-out is queue
#: -bound, and benchmark boxes rarely give more truly-free cores.
DEFAULT_AUTO_MAX_WORKERS = 4

#: Frontiers at or below this size take the index-list expansion path in
#: :func:`~repro.graph.traversal.bfs_distances` (boolean-mask row scans
#: only pay off once the frontier is a decent fraction of the graph).
DEFAULT_SMALL_FRONTIER = 16

#: Observability on by default — :mod:`repro.obs` is designed to be cheap
#: enough to leave on; ``REPRO_OBS=off`` (or 0) kills it for bake-offs.
DEFAULT_OBS = 1

#: Fault injection off by default — ``REPRO_FAULTS=1`` arms the hooks in
#: :mod:`repro.faults` (the plan itself comes from ``REPRO_FAULT_PLAN``).
DEFAULT_FAULTS = 0

#: Seqlock reader retry budget (see :mod:`repro.parallel.shm`) — generous
#: enough to ride out any live writer, small enough to surface a dead one.
DEFAULT_READ_RETRIES = 200_000

_ENV_VARS = {
    "batch_chunk": "REPRO_BATCH_CHUNK",
    "auto_min_nodes": "REPRO_AUTO_MIN_NODES",
    "parallel_min_nodes": "REPRO_PARALLEL_MIN_NODES",
    "auto_max_workers": "REPRO_AUTO_MAX_WORKERS",
    "small_frontier": "REPRO_SMALL_FRONTIER",
    "obs": "REPRO_OBS",
    "faults": "REPRO_FAULTS",
    "read_retries": "REPRO_READ_RETRIES",
}

#: Knobs allowed to be zero (everything else must be >= 1).
_ZERO_OK = frozenset({"obs", "faults"})

#: String spellings accepted for boolean-flavoured env knobs.
_ENV_WORDS = {"off": 0, "false": 0, "no": 0, "on": 1, "true": 1, "yes": 1}


@dataclass(frozen=True)
class Tuning:
    """One immutable snapshot of every tunable (see module docstring)."""

    batch_chunk: int = DEFAULT_BATCH_CHUNK
    auto_min_nodes: int = DEFAULT_AUTO_MIN_NODES
    parallel_min_nodes: int = DEFAULT_PARALLEL_MIN_NODES
    auto_max_workers: int = DEFAULT_AUTO_MAX_WORKERS
    small_frontier: int = DEFAULT_SMALL_FRONTIER
    obs: int = DEFAULT_OBS
    faults: int = DEFAULT_FAULTS
    read_retries: int = DEFAULT_READ_RETRIES

    def __post_init__(self) -> None:
        for name in _ENV_VARS:
            value = getattr(self, name)
            floor = 0 if name in _ZERO_OK else 1
            if not isinstance(value, int) or value < floor:
                kind = "non-negative" if floor == 0 else "positive"
                raise ParameterError(f"{name} must be a {kind} int, got {value!r}")


def _from_env() -> Tuning:
    kwargs: "dict[str, int]" = {}
    for field, var in _ENV_VARS.items():
        raw = os.environ.get(var)
        if raw is None:
            continue
        if raw.strip().lower() in _ENV_WORDS:
            kwargs[field] = _ENV_WORDS[raw.strip().lower()]
            continue
        try:
            kwargs[field] = int(raw)
        except ValueError:
            raise ParameterError(f"{var} must be an int, got {raw!r}") from None
    return Tuning(**kwargs)


_active: "Tuning | None" = None  # lazily initialized from the environment


def get() -> Tuning:
    """The active tuning snapshot (defaults + env + :func:`configure`)."""
    global _active
    if _active is None:
        _active = _from_env()
    return _active


def configure(**kwargs: int) -> Tuning:
    """Persistently override tunables; returns the new active snapshot.

    Unknown names raise :class:`~repro.errors.ParameterError`; values are
    validated like the dataclass fields.  Applies process-wide from the next
    ``get()`` on (worker processes of :mod:`repro.parallel` inherit the
    environment, not programmatic overrides).
    """
    global _active
    unknown = set(kwargs) - set(_ENV_VARS)
    if unknown:
        raise ParameterError(f"unknown tunables {sorted(unknown)} (want {sorted(_ENV_VARS)})")
    _active = replace(get(), **kwargs)
    return _active


def reset() -> None:
    """Drop every programmatic override (environment applies again)."""
    global _active
    _active = None


@contextmanager
def overridden(**kwargs: int) -> "Iterator[Tuning]":
    """Scoped :func:`configure` — restores the previous snapshot on exit."""
    global _active
    previous = get()
    try:
        yield configure(**kwargs)
    finally:
        _active = previous


# --------------------------------------------------------------------- #
# hardware calibration (python -m repro tune)
# --------------------------------------------------------------------- #


def _time_best(fn: "Callable[[], object]", repeats: int = 3) -> float:
    """Best-of-*repeats* wall time of ``fn()`` (min filters scheduler noise)."""
    # Function-local import: obs imports tuning at module level, so the
    # reverse edge must stay lazy.
    from .obs.timing import time_best

    return time_best(fn, repeats)


def calibrate(n: int = 1500, seed: int = 2009, quick: bool = False) -> "dict[str, Any]":
    """Measure the crossover points on the current hardware.

    Returns a dict with the per-size set-vs-CSR timings, the per-chunk
    batched-APSP timings, and the recommended ``auto_min_nodes`` /
    ``batch_chunk`` values.  Drives ``python -m repro tune``; uses only
    seeded generators so two runs on the same machine agree.
    """
    from .graph.generators import random_connected_gnp
    from .graph.traversal import batched_bfs, bfs_distances
    from .rng import derive_seed

    # -- auto_min_nodes: smallest n where one CSR BFS beats one set BFS.
    sizes = (16, 32, 64, 128, 256) if quick else (16, 32, 64, 128, 256, 512)
    crossover_rows = []
    recommended_min = sizes[-1] * 2  # pessimistic default: csr never won
    for size in sizes:
        g = random_connected_gnp(size, min(1.0, 4.0 / size), seed=derive_seed(seed, "tune", size))
        csr = g.freeze()
        t_sets = _time_best(lambda: [bfs_distances(g, s, backend="sets") for s in range(0, size, 4)])
        t_csr = _time_best(lambda: [bfs_distances(csr, s) for s in range(0, size, 4)])
        crossover_rows.append({"n": size, "sets_s": t_sets, "csr_s": t_csr})
        if t_csr < t_sets and recommended_min > size:
            recommended_min = size

    # -- batch_chunk: fastest chunk for a full batched APSP at ~n nodes.
    apsp_n = max(256, n // 4) if quick else n
    g = random_connected_gnp(apsp_n, 4.0 / apsp_n, seed=derive_seed(seed, "tune-apsp"))
    csr = g.freeze()
    chunk_rows = []
    best_chunk, best_time = DEFAULT_BATCH_CHUNK, float("inf")
    for chunk in (16, 32, 64, 128, 256):
        t = _time_best(
            lambda c=chunk: [None for _ in batched_bfs(csr, chunk=c, arrays=True)], repeats=2
        )
        chunk_rows.append({"chunk": chunk, "apsp_s": t})
        if t < best_time:
            best_chunk, best_time = chunk, t

    return {
        "auto_min_nodes": {"rows": crossover_rows, "recommended": recommended_min},
        "batch_chunk": {"n": apsp_n, "rows": chunk_rows, "recommended": best_chunk},
        "active": get(),
    }
