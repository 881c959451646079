"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

Design constraints, in order:

* **Exact merges.** Histograms carry explicit bucket boundaries chosen at
  first observation and immutable afterwards, so merging the snapshots of
  W worker processes is pure element-wise addition — the merged histogram
  is bit-identical to the one a single process would have recorded.
* **Cheap enough to leave on.** A counter increment is one dict lookup
  and one float add; a histogram observation adds a ``bisect``.  The
  gating that makes ``REPRO_OBS=off`` near-free lives in
  :mod:`repro.obs` (the package façade), not here — registry methods are
  unconditional so that always-on consumers (``SimStats``) keep counting
  regardless of the knob.
* **Batches.** :meth:`Histogram.observe_many` buffers an array and folds
  the buffered batches in with one sort + ``searchsorted`` over the same
  bounds, so a histogram fed by batches is bucket-for-bucket the one a
  loop of ``observe`` gives, at an append per batch.
* **Plain snapshots.** Snapshots are plain dict/list/float JSON, the
  wire format workers ship back through the pool's result queue.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np

from ..errors import ParameterError

__all__ = [
    "BYTE_BOUNDS",
    "COUNT_BOUNDS",
    "FOLD_AT",
    "SCHEMA",
    "TIME_BOUNDS_US",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "empty_snapshot",
    "format_diff",
    "format_snapshot",
    "merge_snapshots",
]

SCHEMA = "repro.obs/1"

#: Default buckets for durations recorded in microseconds: 10µs .. 10s.
TIME_BOUNDS_US: tuple[float, ...] = (
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
    10_000_000.0,
)

#: Default buckets for small cardinalities (dirty-ball sizes, hop counts).
COUNT_BOUNDS: tuple[float, ...] = (
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
    32.0,
    64.0,
    128.0,
    256.0,
    512.0,
    1_024.0,
    4_096.0,
)

#: Default buckets for sizes in bytes (wire frames): 64 B .. 4 MiB, ×2 apart.
BYTE_BOUNDS: tuple[float, ...] = tuple(float(1 << k) for k in range(6, 23))


#: Values :meth:`Histogram.observe_many` buffers before folding them in:
#: one fold (a sort and a ``searchsorted`` over every buffered batch) costs
#: about what folding a single batch would, so a request batch pays an
#: append, not a fold.
FOLD_AT = 1024


class Histogram:
    """Fixed-boundary histogram; bucket i counts values <= bounds[i].

    ``counts`` has ``len(bounds) + 1`` cells — the last is the overflow
    bucket.  ``sum``/``min``/``max`` ride along so merged snapshots keep
    exact totals and extrema.  Batches from :meth:`observe_many` are
    buffered and folded in once :data:`FOLD_AT` values wait or the
    histogram is read — every reader (the properties, :meth:`snapshot`)
    sees them folded.
    """

    __slots__ = (
        "bounds",
        "_edges",
        "_counts",
        "_count",
        "_total",
        "_vmin",
        "_vmax",
        "_pending",
        "_pending_size",
    )

    def __init__(self, bounds: Sequence[float] = TIME_BOUNDS_US) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ParameterError("histogram bounds must be non-empty and strictly increasing")
        self.bounds = bounds
        self._edges = np.array(bounds)
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._total = 0.0
        self._vmin: float | None = None
        self._vmax: float | None = None
        self._pending: "list[np.ndarray]" = []
        self._pending_size = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self._counts[bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._total += value
        if self._vmin is None or value < self._vmin:
            self._vmin = value
        if self._vmax is None or value > self._vmax:
            self._vmax = value

    def observe_many(self, values: "Sequence[float] | np.ndarray") -> None:
        """:meth:`observe` every value of *values* (copied, then buffered)."""
        batch = np.array(values, ndmin=1)
        if batch.size:
            self._pending.append(batch)
            self._pending_size += batch.size
            if self._pending_size >= FOLD_AT:
                self._fold()

    def _fold(self) -> None:
        """Fold the buffered batches in: one sort, then one ``searchsorted``
        of the bounds into it.  Bucket *i* takes the values in
        ``(bounds[i-1], bounds[i]]`` — :meth:`observe`'s ``bisect_left``
        bucket — so ``counts``/``count``/``min``/``max`` equal a loop of
        :meth:`observe`, and ``sum`` equals it up to float rounding."""
        if not self._pending:
            return
        ordered = np.sort(np.concatenate(self._pending, axis=None).astype(np.float64))
        self._pending.clear()
        self._pending_size = 0
        counts = self._counts
        below = 0
        for i, upto in enumerate(ordered.searchsorted(self._edges, side="right").tolist()):
            counts[i] += upto - below
            below = upto
        counts[-1] += ordered.size - below
        self._count += ordered.size
        self._total += float(ordered.sum())
        lo, hi = float(ordered[0]), float(ordered[-1])
        if self._vmin is None or lo < self._vmin:
            self._vmin = lo
        if self._vmax is None or hi > self._vmax:
            self._vmax = hi

    @property
    def counts(self) -> "list[int]":
        self._fold()
        return self._counts

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total(self) -> float:
        self._fold()
        return self._total

    @property
    def vmin(self) -> "float | None":
        self._fold()
        return self._vmin

    @property
    def vmax(self) -> "float | None":
        self._fold()
        return self._vmax

    def snapshot(self) -> dict:
        self._fold()
        return {
            "bounds": list(self.bounds),
            "counts": list(self._counts),
            "count": self._count,
            "sum": self._total,
            "min": self._vmin,
            "max": self._vmax,
        }


class MetricsRegistry:
    """One process's metric tree: name -> counter / gauge / histogram.

    Names are flat dotted strings (``"serve.rows_recomputed"``); the
    snapshot groups them by kind, which is all downstream consumers need.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float, bounds: Sequence[float] | None = None) -> None:
        """Record ``value`` into histogram ``name``.

        ``bounds`` is honoured only on the histogram's first observation;
        later calls reuse the established buckets (merge exactness).
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(TIME_BOUNDS_US if bounds is None else bounds)
        hist.observe(value)

    def observe_many(
        self, name: str, values: "Sequence[float] | np.ndarray", bounds: Sequence[float] | None = None
    ) -> None:
        """Record every value of *values* into histogram ``name`` (one
        :meth:`Histogram.observe_many`; *bounds* as in :meth:`observe`).
        An empty batch records nothing, not even the histogram."""
        if not len(values):
            return
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(TIME_BOUNDS_US if bounds is None else bounds)
        hist.observe_many(values)

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def snapshot(self) -> dict:
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {name: h.snapshot() for name, h in self._histograms.items()},
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def snapshot_and_reset(self) -> dict:
        snap = self.snapshot()
        self.reset()
        return snap


def empty_snapshot() -> dict:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def _merge_histogram(into: dict, snap: dict, name: str) -> dict:
    if into["bounds"] != snap["bounds"]:
        raise ParameterError(
            f"histogram {name!r}: cannot merge mismatched bounds "
            f"{into['bounds']} vs {snap['bounds']}"
        )
    mins = [m for m in (into["min"], snap["min"]) if m is not None]
    maxs = [m for m in (into["max"], snap["max"]) if m is not None]
    return {
        "bounds": list(into["bounds"]),
        "counts": [a + b for a, b in zip(into["counts"], snap["counts"])],
        "count": into["count"] + snap["count"],
        "sum": into["sum"] + snap["sum"],
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
    }


def merge_snapshots(*snapshots: dict) -> dict:
    """Exact merge: counters and histogram cells add; gauges last-write-win."""
    merged = empty_snapshot()
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["gauges"].update(snap.get("gauges", {}))
        for name, hist in snap.get("histograms", {}).items():
            have = merged["histograms"].get(name)
            if have is None:
                merged["histograms"][name] = _merge_histogram(
                    {**hist, "counts": [0] * len(hist["counts"]), "count": 0, "sum": 0.0,
                     "min": None, "max": None},
                    hist,
                    name,
                )
            else:
                merged["histograms"][name] = _merge_histogram(have, hist, name)
    return merged


def diff_snapshots(old: dict, new: dict) -> dict:
    """``new - old`` for counters and histogram totals; gauges become pairs.

    Names only present in one side show with the other treated as zero.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    names = set(old.get("counters", {})) | set(new.get("counters", {}))
    for name in sorted(names):
        delta = new.get("counters", {}).get(name, 0) - old.get("counters", {}).get(name, 0)
        if delta:
            out["counters"][name] = delta
    gnames = set(old.get("gauges", {})) | set(new.get("gauges", {}))
    for name in sorted(gnames):
        was = old.get("gauges", {}).get(name)
        now_ = new.get("gauges", {}).get(name)
        if was != now_:
            out["gauges"][name] = {"old": was, "new": now_}
    hnames = set(old.get("histograms", {})) | set(new.get("histograms", {}))
    for name in sorted(hnames):
        was_h = old.get("histograms", {}).get(name)
        now_h = new.get("histograms", {}).get(name)
        d_count = (now_h["count"] if now_h else 0) - (was_h["count"] if was_h else 0)
        d_sum = (now_h["sum"] if now_h else 0.0) - (was_h["sum"] if was_h else 0.0)
        if d_count or d_sum:
            out["histograms"][name] = {"count": d_count, "sum": d_sum}
    return out


def _format_lines(snap: dict) -> Iterable[str]:
    counters = snap.get("counters", {})
    if counters:
        yield "counters:"
        for name in sorted(counters):
            yield f"  {name:<40} {counters[name]:>14,.0f}"
    gauges = snap.get("gauges", {})
    if gauges:
        yield "gauges:"
        for name in sorted(gauges):
            yield f"  {name:<40} {gauges[name]:>14,.3f}"
    histograms = snap.get("histograms", {})
    if histograms:
        yield "histograms:"
        for name in sorted(histograms):
            h = histograms[name]
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            lo = 0.0 if h["min"] is None else h["min"]
            hi = 0.0 if h["max"] is None else h["max"]
            yield (
                f"  {name:<40} n={h['count']:<10,} mean={mean:,.2f} "
                f"min={lo:,.2f} max={hi:,.2f}"
            )


def format_snapshot(snap: dict) -> str:
    """Human-readable rendering for ``python -m repro obs``."""
    lines = list(_format_lines(snap))
    return "\n".join(lines) if lines else "(empty snapshot)"


def format_diff(old: dict, new: dict) -> str:
    """Render ``diff_snapshots(old, new)`` with explicit +/- deltas."""
    delta = diff_snapshots(old, new)
    lines: list[str] = []
    if delta["counters"]:
        lines.append("counters (new - old):")
        for name in sorted(delta["counters"]):
            lines.append(f"  {name:<40} {delta['counters'][name]:>+14,.0f}")
    if delta["gauges"]:
        lines.append("gauges (old -> new):")
        for name in sorted(delta["gauges"]):
            pair = delta["gauges"][name]
            lines.append(f"  {name:<40} {pair['old']} -> {pair['new']}")
    if delta["histograms"]:
        lines.append("histograms (new - old):")
        for name in sorted(delta["histograms"]):
            h = delta["histograms"][name]
            lines.append(f"  {name:<40} n={h['count']:+,} sum={h['sum']:+,.2f}")
    return "\n".join(lines) if lines else "(no differences)"
