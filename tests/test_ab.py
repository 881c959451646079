"""The A/B runner's per-metric summary, on hand-made paired runs.

``scripts/ab.py`` itself drives perfbench; only :func:`summarize`, the
verdict arithmetic, is exercised here.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

QPS = {"name": "query_qps", "better": "higher", "bound": 0.25}
TICK = {"name": "tick_ms_p50", "better": "lower", "bound": 0.25}


def runs(name, values):
    return [{"metrics": {name: {"value": v}}} for v in values]


def verdict(metric, base, head):
    table = ab.summarize(runs(metric["name"], base), runs(metric["name"], head), [metric])
    return table[metric["name"]]


class TestSummarize:
    def test_tight_clean_gain(self):
        row = verdict(QPS, [100, 101, 99, 100, 102], [200, 199, 201, 202, 198])
        assert row["verdict"] == "gain"
        assert row["wins"] == row["pairs"] == 5
        assert row["median_ratio"] == pytest.approx(2.0, rel=0.02)

    def test_wide_spread_overlapping_runs_are_unresolved(self):
        # Base IQR 40% of the median, above the 25% bound; the sides overlap.
        assert verdict(QPS, [60, 80, 100, 120, 140], [70, 95, 110, 125, 150])["verdict"] == (
            "unresolved"
        )

    def test_wide_spread_clean_win_is_resolved(self):
        # Every change run beats every base run despite the base's spread.
        row = verdict(QPS, [60, 80, 100, 120, 140], [300, 320, 340, 360, 380])
        assert row["base_iqr_frac"] > QPS["bound"]
        assert row["verdict"] == "gain"

    def test_wide_spread_clean_regression_is_worse(self):
        row = verdict(QPS, [60, 80, 100, 120, 140], [20, 25, 30, 35, 40])
        assert row["verdict"] == "worse"

    def test_lower_is_better_direction(self):
        assert verdict(TICK, [50, 51, 49, 50, 52], [30, 31, 29, 30, 32])["verdict"] == "gain"
        assert verdict(TICK, [50, 51, 49, 50, 52], [80, 81, 79, 80, 82])["verdict"] == "worse"

    def test_small_move_within_bound_is_flat(self):
        assert verdict(QPS, [100, 101, 99, 100, 102], [98, 99, 97, 101, 100])["verdict"] == "flat"
