"""Observability wired through the serving stack and the CLI artifacts."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.distributed.metrics import SimStats
from repro.dynamic import (
    RoutingService,
    failure_recovery_scenario,
    make_scenario,
    serve_queries,
)
from repro.graph import sample_pairs
from repro.graph.generators import random_connected_gnp
from repro.parallel import ShardedRoutingService


def _small_service(n=80, events=6, seed=11):
    sc = failure_recovery_scenario(n, events, seed=seed)
    return RoutingService(sc.initial, "kcover"), sc


class TestServeReportWall:
    def test_wall_seconds_covers_apply_seconds(self):
        service, sc = _small_service()
        reports = service.apply_stream(sc.events)
        assert reports
        for r in reports:
            # The tick span opens before apply's stopwatch and closes
            # after it, so the containment is structural, not statistical.
            assert r.wall_seconds >= r.seconds > 0.0

    def test_single_apply_leaves_wall_at_default(self):
        service, sc = _small_service()
        report = service.apply(sc.events[0])
        assert report.wall_seconds == 0.0  # only apply_stream stamps it


class TestServeCounters:
    def test_refresh_and_row_accounting(self):
        service, sc = _small_service()
        before = obs.snapshot()
        for ev in sc.events[:3]:
            service.apply(ev)
        delta = obs.diff_snapshots(before, obs.snapshot())
        assert delta["counters"].get("serve.rows_recomputed", 0) > 0

    def test_rows_split_into_repaired_and_bfs(self):
        # Joins grow the id space (their rows are BFSed); every other dirty
        # row is repaired from the net delta.  The total keeps its name.
        sc = make_scenario("nodechurn", 60, 30, seed=4)
        service = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        before = obs.snapshot()
        reports = service.apply_stream(sc.events, tick=3)
        counters = obs.diff_snapshots(before, obs.snapshot())["counters"]
        total = counters["serve.rows_recomputed"]
        assert total == sum(r.dirty_rows for r in reports)
        assert counters["serve.rows_repaired"] > 0
        assert counters["serve.rows_bfs"] > 0
        assert counters["serve.rows_repaired"] + counters["serve.rows_bfs"] == total

    def test_sharded_rows_split_and_projection_span(self):
        sc = make_scenario("nodechurn", 60, 30, seed=4)
        with ShardedRoutingService(
            sc.initial, "kcover", workers=2, rebuild_fraction=1.0
        ) as service:
            service.apply_stream(sc.events, tick=3)
            shards = service.metrics()["shards"]
        for snap in shards.values():
            rows = snap["counters"]
            assert rows["serve.rows_repaired"] + rows["serve.rows_bfs"] == rows[
                "serve.rows_recomputed"
            ]
            assert snap["histograms"]["pool.shard_project.us"]["count"] > 0
        assert sum(s["counters"]["serve.rows_repaired"] for s in shards.values()) > 0

    def test_churn_tick_records_each_serving_span_once(self):
        sc = make_scenario("nodechurn", 60, 6, seed=4)
        service = RoutingService(sc.initial, "kcover", rebuild_fraction=1.0)
        before = obs.snapshot()
        report = service.apply_batch(sc.events[:3])
        histograms = obs.diff_snapshots(before, obs.snapshot())["histograms"]
        assert report.changed and not report.refreshed and report.dirty_rows > 0
        for name in (
            "serving.dirty_rows",
            "serving.recompute_rows",
            "serving.damage",
            "serving.project_tables",
        ):
            assert histograms[f"{name}.us"]["count"] == 1, name


class TestServeQueries:
    def test_report_and_histograms(self):
        service, _sc = _small_service()
        pairs = sample_pairs(service.graph, 12, seed=3, require_nonadjacent=False)
        before = obs.snapshot()
        report = serve_queries(service, pairs)
        assert report.served == len(pairs)
        assert report.delivered >= 1
        assert report.mean_hops >= 1.0
        assert report.qps > 0.0
        delta = obs.diff_snapshots(before, obs.snapshot())
        assert delta["counters"]["traffic.requests"] == len(pairs)
        assert delta["histograms"]["traffic.request.us"]["count"] == len(pairs)
        assert delta["histograms"]["traffic.hops"]["count"] == report.delivered

    def test_batch_metrics_match_the_per_query_journeys(self):
        from repro.dynamic import EdgeEvent
        from repro.dynamic.traffic import HOP_BOUNDS
        from repro.graph.generators import path_graph
        from repro.routing import route_served

        service, _sc = _small_service()
        pairs = sample_pairs(service.graph, 20, seed=5, require_nonadjacent=False)
        cut = RoutingService(path_graph(6), "kcover")
        cut.apply(EdgeEvent.remove(2, 3))
        for endpoint, batch in ((service, pairs), (cut, [(0, 5), (1, 2), (4, 0), (5, 3)])):
            journeys = [route_served(endpoint, s, t) for s, t in batch]
            before = obs.snapshot()
            report = serve_queries(endpoint, batch)
            after = obs.snapshot()
            delta = obs.diff_snapshots(before, after)
            delivered = [r.hops for r in journeys if r.delivered]
            assert (report.delivered, report.hops_total) == (len(delivered), sum(delivered))
            assert delta["counters"].get("traffic.unroutable", 0) == len(batch) - len(delivered)
            expected = obs.Histogram(HOP_BOUNDS)
            for h in delivered:
                expected.observe(h)
            hops = after["histograms"]["traffic.hops"]
            was = before["histograms"].get("traffic.hops", {"counts": [0] * len(hops["counts"])})
            assert [a - b for a, b in zip(hops["counts"], was["counts"])] == expected.counts
            # Latency: batch start to the finishing step, never beyond the batch.
            latency = delta["histograms"]["traffic.request.us"]
            assert latency["count"] == len(batch)
            assert 0 < latency["sum"] <= len(batch) * report.seconds * 1e6

    def test_disabled_obs_still_serves_and_counts_nothing(self):
        from repro import tuning

        service, _sc = _small_service()
        pairs = sample_pairs(service.graph, 6, seed=4, require_nonadjacent=False)
        with tuning.overridden(obs=0):
            before = obs.snapshot()
            report = serve_queries(service, pairs)
            delta = obs.diff_snapshots(before, obs.snapshot())
        assert report.served == len(pairs)
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}


class TestSimStats:
    def test_counter_backed_attributes(self):
        stats = SimStats()
        stats.record_round(messages=10, broadcasts=4, links=25)
        stats.record_round(messages=6, broadcasts=2, links=9)
        assert stats.rounds == 2
        assert stats.messages == 16
        assert stats.broadcasts == 6
        assert stats.links_advertised == 34
        assert stats.per_round_messages == [10, 6]
        assert "rounds=2" in repr(stats)

    def test_snapshot_speaks_the_obs_schema(self):
        stats = SimStats()
        stats.record_round(messages=3, broadcasts=1, links=5)
        snap = stats.snapshot()
        assert snap["counters"]["sim.rounds"] == 1
        assert snap["histograms"]["sim.round_messages"]["count"] == 1
        # Mergeable with any other obs snapshot — one format everywhere.
        merged = obs.merge_snapshots(snap, snap)
        assert merged["counters"]["sim.messages"] == 6

    def test_registry_is_knob_proof(self):
        from repro import tuning

        with tuning.overridden(obs=0):
            stats = SimStats()
            stats.record_round(messages=1, broadcasts=1, links=1)
        assert stats.rounds == 1  # simulation accounting is never gated


class TestCliArtifacts:
    def test_traffic_writes_metrics_and_trace(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.trace.json"
        rc = main(
            [
                "traffic", "--n", "60", "--events", "6", "--queries", "5",
                "--workload", "uniform", "--compare-bfs", "0",
                "--metrics", str(metrics), "--trace", str(trace),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics snapshot" in out and "trace with" in out
        doc = json.loads(metrics.read_text(encoding="utf-8"))
        assert doc["schema"] == obs.SCHEMA
        assert doc["merged"]["counters"]["traffic.requests"] >= 5
        tdoc = json.loads(trace.read_text(encoding="utf-8"))
        assert tdoc["traceEvents"], "trace must carry span events"
        assert {e["ph"] for e in tdoc["traceEvents"]} == {"X"}

    def test_serve_with_workers_writes_per_shard_breakdown(self, tmp_path):
        metrics = tmp_path / "m.json"
        rc = main(
            [
                "serve", "--scenario", "failure", "--n", "120", "--events", "8",
                "--workers", "2", "--metrics", str(metrics),
            ]
        )
        assert rc == 0
        doc = json.loads(metrics.read_text(encoding="utf-8"))
        assert sorted(doc["shards"]) == ["0", "1"]
        shard_rows = sum(
            s["counters"].get("serve.rows_recomputed", 0) for s in doc["shards"].values()
        )
        assert shard_rows > 0
        assert doc["merged"]["counters"]["serve.rows_recomputed"] >= shard_rows

    def test_chaos_and_serve_agree_on_maintainer_counters(self, tmp_path, capsys):
        # The same stream through `serve` and through a quiet `chaos` must do
        # the same maintainer work: verification records nothing, and the
        # chaos run's pool snapshots land in the file like serve's do.
        stream = "--scenario mobility --n 60 --events 10 --tick 5 --workers 2 --seed 7".split()
        docs = {}
        for cmd in (["serve"], ["chaos", "--plan", "quiet"]):
            obs.reset()
            path = tmp_path / f"{cmd[0]}.json"
            assert main([*cmd, *stream, "--metrics", str(path)]) == 0
            docs[cmd[0]] = json.loads(path.read_text(encoding="utf-8"))
        capsys.readouterr()
        obs.reset()

        def maintainer(doc):
            counters = doc["process"]["counters"]
            return {k: v for k, v in counters.items() if k.startswith("maintainer.")}

        assert maintainer(docs["serve"])["maintainer.full_rebuilds"] > 0
        assert maintainer(docs["chaos"]) == maintainer(docs["serve"])
        assert sorted(docs["chaos"]["shards"]) == ["0", "1"]

    def test_obs_command_prints_and_diffs(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert (
            main(
                [
                    "churn", "--scenario", "failure", "--n", "80", "--events", "6",
                    "--metrics", str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out and "maintainer" in out
        assert main(["obs", str(metrics), str(metrics)]) == 0
        assert "(no differences)" in capsys.readouterr().out

    def test_obs_command_rejects_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            main(["obs", str(tmp_path / "absent.json")])
