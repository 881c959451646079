"""repro.obs — lightweight observability for the serving stack.

One process-local :class:`MetricsRegistry` (counters, gauges, exact-merge
histograms) plus a nesting :func:`span` tracer, cheap enough to leave on.
The ``obs`` switch of :mod:`repro.tuning` (env ``REPRO_OBS``,
``off``/``0`` to disable) gates the module-level helpers to near-zero
cost; worker processes snapshot their registries and ship them back over
the pool's result queue, where :func:`merge_snapshots` folds them into
one tree.

Usage::

    from repro import obs

    obs.inc("serve.rows_recomputed", 17)
    with obs.span("serving.recompute_rows") as sp:
        ...
    print(sp.seconds)              # valid even with REPRO_OBS=off
    doc = obs.metrics_document()   # {"schema", "process", "shards", "merged"}
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .. import tuning
from .metrics import (
    BYTE_BOUNDS,
    COUNT_BOUNDS,
    SCHEMA,
    TIME_BOUNDS_US,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    empty_snapshot,
    format_diff,
    format_snapshot,
    merge_snapshots,
)
from .timing import Stopwatch, now, time_best
from .tracer import Span, Tracer

__all__ = [
    "BYTE_BOUNDS",
    "COUNT_BOUNDS",
    "SCHEMA",
    "TIME_BOUNDS_US",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Stopwatch",
    "Tracer",
    "diff_snapshots",
    "empty_snapshot",
    "enabled",
    "format_diff",
    "format_snapshot",
    "gauge",
    "inc",
    "merge_snapshots",
    "metrics",
    "metrics_document",
    "now",
    "observe",
    "observe_many",
    "reset",
    "snapshot",
    "snapshot_and_reset",
    "span",
    "time_best",
    "tracer",
]

_registry = MetricsRegistry()
_tracer = Tracer()


def metrics() -> MetricsRegistry:
    """This process's default registry (always counting when used directly)."""
    return _registry


def tracer() -> Tracer:
    """This process's tracer; off until ``tracer().start()``."""
    return _tracer


def enabled() -> bool:
    """Whether the gated helpers record (``obs`` switch / REPRO_OBS)."""
    return tuning.get().obs != 0


def reset() -> None:
    """Clear the default registry and tracer (tests, fresh soaks)."""
    _registry.reset()
    _tracer.clear()


def inc(name: str, value: float = 1) -> None:
    """Gated counter increment into the default registry."""
    if tuning.get().obs != 0:
        _registry.inc(name, value)


def gauge(name: str, value: float) -> None:
    """Gated gauge set into the default registry."""
    if tuning.get().obs != 0:
        _registry.gauge(name, value)


def observe(name: str, value: float, bounds: Sequence[float] | None = None) -> None:
    """Gated histogram observation into the default registry."""
    if tuning.get().obs != 0:
        _registry.observe(name, value, bounds)


def observe_many(name: str, values, bounds: Sequence[float] | None = None) -> None:
    """Gated batch of histogram observations into the default registry."""
    if tuning.get().obs != 0:
        _registry.observe_many(name, values, bounds)


def span(name: str, bounds: Sequence[float] | None = None) -> Span:
    """A context manager timing one region.

    Always measures (``.seconds`` is valid regardless of the knob);
    observes the ``<name>.us`` histogram only when obs is enabled, and
    emits a trace event only when the tracer has been started.
    """
    return Span(
        name,
        _registry if tuning.get().obs != 0 else None,
        _tracer if _tracer.active else None,
        bounds,
    )


def snapshot() -> dict:
    return _registry.snapshot()


def snapshot_and_reset() -> dict:
    return _registry.snapshot_and_reset()


def metrics_document(shards: Mapping[int, dict] | None = None) -> dict:
    """The stable ``--metrics`` file schema.

    ``process`` is this process's snapshot, ``shards`` maps worker id to
    that worker's shipped snapshot, and ``merged`` is the exact fold of
    all of them.
    """
    process = _registry.snapshot()
    shard_map = {int(k): v for k, v in (shards or {}).items()}
    merged = merge_snapshots(process, *[shard_map[k] for k in sorted(shard_map)])
    return {
        "schema": SCHEMA,
        "process": process,
        "shards": {str(k): shard_map[k] for k in sorted(shard_map)},
        "merged": merged,
    }
