"""repro.obs.metrics: registry semantics and exact snapshot algebra."""

import pytest

from repro.errors import ParameterError
from repro.obs.metrics import (
    COUNT_BOUNDS,
    TIME_BOUNDS_US,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    empty_snapshot,
    format_diff,
    format_snapshot,
    merge_snapshots,
)
from repro.rng import ensure_rng


class TestRegistry:
    def test_counters_add_and_default_to_zero(self):
        reg = MetricsRegistry()
        assert reg.counter("never.touched") == 0
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("b", 2.5)
        assert reg.counter("a") == 5
        assert reg.counter("b") == 2.5

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1)
        reg.gauge("g", 9.5)
        assert reg.snapshot()["gauges"] == {"g": 9.5}

    def test_histogram_bucket_placement(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        # bucket i counts values <= bounds[i]; last cell is overflow
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(106.0)
        assert snap["min"] == 0.5 and snap["max"] == 100.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ParameterError):
            Histogram(bounds=())
        with pytest.raises(ParameterError):
            Histogram(bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ParameterError):
            Histogram(bounds=(2.0, 1.0))

    def test_observe_bounds_honoured_only_at_creation(self):
        reg = MetricsRegistry()
        reg.observe("h", 3.0, COUNT_BOUNDS)
        reg.observe("h", 5.0, (100.0, 200.0))  # ignored: histogram exists
        hist = reg.histogram("h")
        assert hist.bounds == COUNT_BOUNDS
        assert hist.count == 2

    def test_observe_default_bounds_are_time_buckets(self):
        reg = MetricsRegistry()
        reg.observe("lat", 42.0)
        assert reg.histogram("lat").bounds == TIME_BOUNDS_US

    def test_snapshot_schema_and_reset(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.gauge("g", 1.0)
        reg.observe("h", 5.0, COUNT_BOUNDS)
        snap = reg.snapshot_and_reset()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert set(snap["histograms"]["h"]) == {
            "bounds", "counts", "count", "sum", "min", "max",
        }
        assert reg.snapshot() == empty_snapshot()


def _filled(values):
    reg = MetricsRegistry()
    for v in values:
        reg.inc("ops", 1)
        reg.inc("bytes", 10 * v)
        reg.observe("size", v, COUNT_BOUNDS)
        reg.gauge("last", v)
    return reg


class TestMergeAndDiff:
    def test_merge_is_exact(self):
        # Splitting a stream over two registries and merging must be
        # bit-identical to one registry seeing the whole stream.
        values = [1.0, 3.0, 7.0, 9.0, 200.0, 5000.0]
        whole = _filled(values).snapshot()
        parts = merge_snapshots(
            _filled(values[:2]).snapshot(), _filled(values[2:]).snapshot()
        )
        assert parts == whole

    def test_merge_of_nothing_is_empty(self):
        assert merge_snapshots() == empty_snapshot()

    def test_merge_with_empty_is_identity(self):
        snap = _filled([2.0, 4.0]).snapshot()
        assert merge_snapshots(snap, empty_snapshot()) == snap

    def test_merge_rejects_mismatched_bounds(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.observe("h", 1.0, (1.0, 2.0))
        b.observe("h", 1.0, (1.0, 3.0))
        with pytest.raises(ParameterError):
            merge_snapshots(a.snapshot(), b.snapshot())

    def test_diff_counters_gauges_histograms(self):
        old = _filled([1.0]).snapshot()
        new = _filled([1.0, 8.0]).snapshot()
        delta = diff_snapshots(old, new)
        assert delta["counters"]["ops"] == 1
        assert delta["counters"]["bytes"] == 80.0
        assert delta["gauges"]["last"] == {"old": 1.0, "new": 8.0}
        assert delta["histograms"]["size"] == {"count": 1, "sum": 8.0}

    def test_diff_of_identical_snapshots_is_empty(self):
        snap = _filled([3.0]).snapshot()
        delta = diff_snapshots(snap, snap)
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_format_smoke(self):
        snap = _filled([2.0, 6.0]).snapshot()
        text = format_snapshot(snap)
        assert "counters:" in text and "ops" in text and "histograms:" in text
        assert format_snapshot(empty_snapshot()) == "(empty snapshot)"
        assert format_diff(snap, snap) == "(no differences)"
        assert "+1" in format_diff(_filled([2.0]).snapshot(), snap)


class TestObserveMany:
    """Batched observations: the buckets a loop of ``observe`` fills."""

    VALUES = [0.0, 1.0, 10.0, 10.5, 25.0, 3.3, 7e6, 2e7, 999.9, 1_000.0, 0.5, 10.0]

    def _loop(self, values, bounds=TIME_BOUNDS_US):
        h = Histogram(bounds)
        for v in values:
            h.observe(v)
        return h

    @pytest.mark.parametrize("bounds", [TIME_BOUNDS_US, COUNT_BOUNDS, (1.0, 2.0, 3.0)])
    def test_equals_a_loop_of_observe(self, bounds):
        import numpy as np

        rng = ensure_rng(7)
        values = self.VALUES + list(rng.uniform(0, 2 * bounds[-1], 300)) + list(bounds)
        loop = self._loop(values, bounds)
        batched = Histogram(bounds)
        batched.observe_many(np.array(values[:5]))
        batched.observe_many(values[5:])
        assert batched.counts == loop.counts
        assert batched.count == loop.count
        assert (batched.vmin, batched.vmax) == (loop.vmin, loop.vmax)
        assert batched.total == pytest.approx(loop.total, rel=1e-12)
        assert batched.snapshot()["counts"] == loop.snapshot()["counts"]

    def test_integer_and_empty_batches(self):
        import numpy as np

        h = Histogram(COUNT_BOUNDS)
        h.observe_many(np.array([], dtype=np.int64))
        assert h.count == 0 and h.vmin is None and h.vmax is None
        h.observe_many(np.array([3, 1, 64, 5000]))
        assert h.snapshot() == self._loop([3, 1, 64, 5000], COUNT_BOUNDS).snapshot()
        assert all(type(c) is int for c in h.snapshot()["counts"])

    def test_registry_batches_merge_exactly(self):
        import numpy as np

        values = np.array(self.VALUES * 3)
        a, b, whole = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        a.observe_many("lat", values[:7])
        b.observe_many("lat", values[7:])
        b.observe_many("hops", [1, 2, 2, 9], COUNT_BOUNDS)
        for v in values:
            whole.observe("lat", v)
        for v in (1, 2, 2, 9):
            whole.observe("hops", v, COUNT_BOUNDS)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        expected = whole.snapshot()
        for name in ("lat", "hops"):
            got, want = merged["histograms"][name], expected["histograms"][name]
            assert got["counts"] == want["counts"] and got["count"] == want["count"]
            assert (got["min"], got["max"]) == (want["min"], want["max"])
            assert got["sum"] == pytest.approx(want["sum"], rel=1e-12)

    def test_buffer_folds_at_the_threshold_and_on_read(self):
        from repro.obs.metrics import FOLD_AT

        h = Histogram(COUNT_BOUNDS)
        batch = [1.0, 3.0, 70.0]
        for _ in range(FOLD_AT):
            h.observe_many(batch)
            assert h._pending_size < FOLD_AT  # the buffer stays bounded
        h.observe(5.0)
        assert h.count == 3 * FOLD_AT + 1 and h._pending_size == 0
        assert h.snapshot() == self._loop(batch * FOLD_AT + [5.0], COUNT_BOUNDS).snapshot()

    def test_batches_are_copied(self):
        import numpy as np

        values = np.array([1.0, 2.0])
        h = Histogram((1.0, 2.0))
        h.observe_many(values)
        values[:] = 9.0  # the caller reuses its array before the fold
        assert h.counts == [1, 1, 0] and h.vmax == 2.0

    def test_empty_batch_creates_no_histogram(self):
        r = MetricsRegistry()
        r.observe_many("h", [], (1.0, 2.0))
        assert r.histogram("h") is None
        r.observe_many("h", [1.5], (1.0, 2.0))
        assert r.histogram("h").bounds == (1.0, 2.0)

    def test_gated_facade(self):
        from repro import obs, tuning

        obs.observe_many("batch.h", [1.0, 2.0])
        assert obs.metrics().histogram("batch.h").count == 2
        with tuning.overridden(obs=0):
            obs.observe_many("batch.h", [1.0, 2.0])
        assert obs.metrics().histogram("batch.h").count == 2
