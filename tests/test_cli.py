"""Tests for the CLI and the ASCII plotting helpers."""

import pytest

from repro.analysis.plot import ascii_loglog, ascii_series
from repro.cli import build_parser, main
from repro.errors import ParameterError


class TestPlots:
    def test_loglog_renders_points_and_reference(self):
        out = ascii_loglog([10, 100, 1000], [5, 50, 500], ref_slope=1.0, title="T")
        assert out.startswith("T")
        assert "*" in out
        assert "." in out
        assert "reference slope 1" in out

    def test_loglog_validates(self):
        with pytest.raises(ParameterError):
            ascii_loglog([1], [1])
        with pytest.raises(ParameterError):
            ascii_loglog([1, 2], [0, 1])
        with pytest.raises(ParameterError):
            ascii_loglog([1, 2], [1, 2, 3])

    def test_series_renders(self):
        out = ascii_series([1, 2, 3, 4], [4.0, 3.0, 2.5, 2.4])
        assert out.count("*") == 4

    def test_series_validates(self):
        with pytest.raises(ParameterError):
            ascii_series([1], [1])


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for cmd in (
            "table1",
            "figure1",
            "scaling",
            "ksweep",
            "epssweep",
            "rounds",
            "churn",
            "serve",
            "distserve",
            "demo",
        ):
            args = parser.parse_args([cmd])
            assert args.command == cmd
        with pytest.raises(SystemExit):
            parser.parse_args(["lint"])  # the static pass is tests/test_layering.py

    def test_rounds_command(self, capsys):
        rc = main(["rounds", "--n", "25", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "RemSpan" in out
        assert "2r-1+2b" in out

    def test_churn_command_all_scenarios_verified(self, capsys):
        rc = main(
            ["churn", "--n", "60", "--events", "25", "--check-every", "10", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert rc == 0  # 0 iff every scenario's final spanner matches a rebuild
        assert "matches rebuild" in out
        for scenario in ("mobility", "failure", "growth"):
            row = next(line for line in out.splitlines() if f"| {scenario}" in line)
            assert row.rstrip(" |").endswith("yes"), row

    def test_scenario_choices_match_registry(self):
        # The parser hardcodes its scenario list to keep `--help` free of
        # the repro.dynamic import chain; it must mirror SCENARIO_NAMES.
        from repro.dynamic import SCENARIO_NAMES

        parser = build_parser()
        for cmd in ("churn", "serve"):
            args = parser.parse_args([cmd])
            assert args.command == cmd
        for name in SCENARIO_NAMES:
            assert parser.parse_args(["serve", "--scenario", name]).scenario == name
            assert parser.parse_args(["churn", "--scenario", name]).scenario == name
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--scenario", "tectonic"])

    def test_serve_command_verified(self, capsys):
        rc = main(
            ["serve", "--n", "50", "--events", "20", "--check-every", "10", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert rc == 0  # 0 iff served tables match from-scratch routing_table
        assert "matches scratch" in out
        for scenario in ("mobility", "failure", "growth", "nodechurn"):
            row = next(line for line in out.splitlines() if f"| {scenario}" in line)
            assert row.rstrip(" |").endswith("yes"), row

    def test_serve_command_batched_nodechurn(self, capsys):
        rc = main(
            [
                "serve",
                "--scenario",
                "nodechurn",
                "--n",
                "40",
                "--events",
                "15",
                "--tick",
                "5",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "tick 5" in out and "nodechurn" in out

    def test_churn_command_single_scenario_mis(self, capsys):
        rc = main(
            [
                "churn",
                "--scenario",
                "growth",
                "--n",
                "50",
                "--events",
                "30",
                "--method",
                "mis",
                "--epsilon",
                "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "growth" in out and "mobility" not in out

    def test_demo_command_exact(self, capsys):
        rc = main(["demo", "--n", "60", "--epsilon", "1.0", "--k", "1", "--seed", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified: True" in out

    def test_demo_command_epsilon(self, capsys):
        rc = main(["demo", "--n", "60", "--epsilon", "0.5", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(1.5, 0)" in out

    def test_figure1_command(self, capsys):
        rc = main(["figure1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(a) input UDG" in out
        assert "witness" in out

    def test_table1_command_small(self, capsys):
        rc = main(["table1", "--n-any", "20", "--n-udg", "50", "--seed", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 1" in out


class TestWorkersValidation:
    """--workers is validated at argparse: ≥ 1 or rejected with a message.

    Regression: `--workers 0` used to fall silently through to the serial
    path (truthiness checks), while `--workers -2` escaped argparse and
    died inside WorkerPool with a traceback.
    """

    @pytest.mark.parametrize("cmd", ["serve", "traffic"])
    @pytest.mark.parametrize("bad", ["0", "-2", "1.5", "two"])
    def test_invalid_counts_rejected_at_parse_time(self, cmd, bad, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([cmd, "--workers", bad])
        assert exc.value.code == 2  # argparse usage error, not a traceback
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["serve", "traffic"])
    def test_valid_and_omitted_workers(self, cmd):
        parser = build_parser()
        assert parser.parse_args([cmd, "--workers", "3"]).workers == 3
        # Omitting the flag means the single-process serial path.
        assert parser.parse_args([cmd]).workers is None

    def test_help_documents_serial_default(self):
        parser = build_parser()
        serve = next(
            a for a in parser._subparsers._group_actions[0].choices["serve"]._actions
            if "--workers" in a.option_strings
        )
        assert "serial" in serve.help


class TestTrafficCli:
    def test_workload_choices_match_registry(self):
        from repro.dynamic import WORKLOAD_NAMES

        parser = build_parser()
        for name in WORKLOAD_NAMES:
            assert parser.parse_args(["traffic", "--workload", name]).workload == name
        with pytest.raises(SystemExit):
            parser.parse_args(["traffic", "--workload", "tsunami"])

    def test_traffic_command_all_workloads(self, capsys):
        rc = main(
            [
                "traffic", "--n", "50", "--events", "12", "--tick", "4",
                "--queries", "8", "--compare-bfs", "5", "--seed", "7",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0  # 0 iff served journeys matched the BFS reference
        assert "matches route" in out
        for workload in ("uniform", "zipf", "locality"):
            row = next(line for line in out.splitlines() if f"| {workload}" in line)
            assert row.rstrip(" |").endswith("yes"), row

    def test_traffic_single_workload_no_compare(self, capsys):
        rc = main(
            [
                "traffic", "--workload", "locality", "--scenario", "nodechurn",
                "--n", "40", "--events", "10", "--queries", "5", "--compare-bfs", "0",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "locality" in out and "uniform" not in out


class TestDistserveCli:
    def test_scenario_choices_match_registry(self):
        # Literal twin: the parser hardcodes the scenario list to keep
        # `--help` import-free; it must mirror SCENARIO_NAMES (+ "all").
        from repro.dynamic import SCENARIO_NAMES

        parser = build_parser()
        assert parser.parse_args(["distserve"]).scenario == "mobility"
        for name in (*SCENARIO_NAMES, "all"):
            assert parser.parse_args(["distserve", "--scenario", name]).scenario == name
        with pytest.raises(SystemExit):
            parser.parse_args(["distserve", "--scenario", "tectonic"])

    def test_transport_choices_match_factory(self):
        parser = build_parser()
        assert parser.parse_args(["distserve"]).transport == "loop"
        for name in ("loop", "tcp", "uds"):
            assert parser.parse_args(["distserve", "--transport", name]).transport == name
        with pytest.raises(SystemExit):
            parser.parse_args(["distserve", "--transport", "pigeon"])

    def test_loopback_soak_converges_and_routes_match(self, capsys):
        rc = main(
            [
                "distserve", "--n", "36", "--events", "10", "--tick", "5",
                "--shards", "3", "--queries", "6", "--seed", "7",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0  # 0 iff converged bit-for-bit and all journeys matched
        row = next(line for line in out.splitlines() if "| mobility" in line)
        assert "yes" in row and "6/6" in row

    def test_metrics_surface_actor_repair_counters(self, capsys, tmp_path):
        import json

        from repro import obs

        obs.reset()
        out = tmp_path / "distserve.json"
        rc = main(
            [
                "distserve", "--n", "36", "--events", "10", "--tick", "5",
                "--shards", "3", "--queries", "2", "--seed", "7",
                "--metrics", str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        merged = json.loads(out.read_text())["merged"]
        counters = merged["counters"]
        assert counters["actors.full_recomputes"] >= 3  # one bootstrap per actor
        assert counters["actors.rows_recomputed"] > 0
        assert counters["actors.tables_reprojected"] > 0
        # One span per actor per quiesce (bootstrap + 2 ticks), never per row.
        assert 0 < merged["histograms"]["actors.recompute.us"]["count"] <= 3 * 3
        obs.reset()

    def test_uds_soak_converges(self, capsys):
        rc = main(
            [
                "distserve", "--scenario", "growth", "--transport", "uds",
                "--n", "30", "--events", "8", "--tick", "4", "--shards", "2",
                "--queries", "4", "--seed", "9",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "uds transport" in out


class TestChaosCli:
    def test_plan_choices_match_registry(self):
        # Like the scenario list, the parser hardcodes its plan names to
        # keep `--help` import-free; it must mirror faults.PLANS exactly.
        from repro.faults import PLANS

        parser = build_parser()
        assert parser.parse_args(["chaos"]).plan == "crashy"
        for name in PLANS:
            assert parser.parse_args(["chaos", "--plan", name]).plan == name
        with pytest.raises(SystemExit):
            parser.parse_args(["chaos", "--plan", "meteor"])

    def test_scenario_choices_include_fault_scenarios(self):
        from repro.dynamic import FAULT_SCENARIO_NAMES, SCENARIO_NAMES

        parser = build_parser()
        assert parser.parse_args(["chaos"]).scenario == "outage"
        for name in SCENARIO_NAMES + FAULT_SCENARIO_NAMES:
            assert parser.parse_args(["chaos", "--scenario", name]).scenario == name
        with pytest.raises(SystemExit):
            parser.parse_args(["chaos", "--scenario", "tectonic"])

    def test_quiet_plan_soak_reconverges(self, capsys):
        rc = main(
            [
                "chaos", "--plan", "quiet", "--n", "40", "--events", "12",
                "--tick", "4", "--queries", "5", "--workers", "1", "--seed", "7",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0  # 0 iff healthy + reconverged + journey-valid
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines) if "reconverged" in line)
        data = next(line for line in lines[header + 1 :] if line.rstrip().endswith("|"))
        assert data.rstrip(" |").endswith("yes"), data

    def test_crashy_plan_survives_and_reports_respawns(self, capsys):
        rc = main(
            [
                "chaos", "--plan", "crashy", "--scenario", "mobility", "--n", "40",
                "--events", "12", "--tick", "4", "--queries", "5",
                "--workers", "2", "--seed", "7",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "respawns" in out


def _table_rows(out: str, first: str) -> "list[dict[str, str]]":
    """Body rows of the rendered table whose header starts with *first*."""

    def cells(line: str) -> "list[str]":
        return [c.strip() for c in line.strip().strip("|").split("|")]

    lines = out.splitlines()
    top = next(i for i, line in enumerate(lines) if line.startswith(f"| {first} "))
    keys = cells(lines[top])
    rows = []
    for line in lines[top + 2 :]:
        if not line.startswith("|"):
            break
        rows.append(dict(zip(keys, cells(line))))
    return rows


SERVE_COLS = ("scenario", "events", "rows/tick", "tables/tick", "entries upd", "refreshes",
              "matrix MB", "dormant ids", "matches scratch")
TRAFFIC_COLS = ("workload", "ticks", "queries", "delivered", "mean hops", "matches route")

#: One tiny seed-fixed case per soak command: ``(argv, {header: (columns,
#: rows)}, lines)``.  Only the deterministic columns are pinned (timings are
#: not); a row is its cells joined by spaces, a line a substring of stdout.
PINNED = [
    (
        "churn --n 40 --events 12 --check-every 5 --seed 3",
        {"scenario": (("scenario", "events", "incremental", "rebuilds", "mean dirty ball",
                       "spanner edges", "matches rebuild"),
                      ["mobility 12 4 8 29.9 80 yes", "failure 12 3 9 32.5 101 yes",
                       "growth 12 12 0 4.2 9 yes", "nodechurn 12 9 3 15 59 yes"])},
        [],
    ),
    (
        "serve --n 40 --events 12 --tick 3 --check-every 4 --seed 3",
        {"scenario": (SERVE_COLS, ["mobility 12 40 40 432 4 0.01 0 yes",
                                   "failure 12 31.8 34 193 3 0.01 0 yes",
                                   "growth 12 6.2 6.2 70 0 0.01 32 yes",
                                   "nodechurn 12 29.2 30 601 1 0.01 4 yes"])},
        ["mobility: routed 60/60 sampled pairs (max stretch 1.00); apply ",
         "growth: routed 28/28 sampled pairs (max stretch 1.00); apply ",
         "nodechurn: routed 60/60 sampled pairs (max stretch 1.00); apply "],
    ),
    (
        "serve --scenario nodechurn --n 40 --events 10 --tick 5 --workers 2 --seed 3",
        {"scenario": (SERVE_COLS, ["nodechurn 10 41 41 141 2 0.03 0 yes"])},
        ["nodechurn: routed 60/60 sampled pairs (max stretch 1.00); apply "],
    ),
    (
        "traffic --n 40 --events 8 --tick 4 --queries 5 --compare-bfs 4 --seed 3",
        {"workload": (TRAFFIC_COLS, ["uniform 3 15 100% 2.27 yes", "zipf 3 15 100% 2.67 yes",
                                     "locality 3 15 100% 2.2 yes"])},
        [],
    ),
    (
        "traffic --workload zipf --scenario nodechurn --n 40 --events 8 --tick 4 --queries 5 "
        "--workers 2 --compare-bfs 4 --seed 3",
        {"workload": (TRAFFIC_COLS, ["zipf 3 15 100% 3.07 yes"])},
        [],
    ),
    (
        "chaos --plan quiet --scenario mobility --n 40 --events 8 --tick 4 --queries 5 "
        "--workers 1 --seed 3",
        {"ticks": (("ticks", "queries", "delivered", "fallback hops", "degraded ticks",
                    "invalid hops", "reconverged"), ["3 15 100% 0 0 0 yes"]),
         "respawns": (("respawns", "task retries", "wedge restarts", "quarantined",
                       "torn rows repaired", "backoff s"), ["0 0 0 0 0 0"])},
        [],
    ),
    (
        "distserve --n 30 --events 8 --tick 4 --shards 3 --queries 4 --seed 3",
        {"scenario": (("scenario", "events", "rounds", "messages", "bytes", "links", "recomputes",
                       "full", "rows updated", "converged", "routes match"),
                      ["mobility 8 23 62 15506 1434 9 9 180 yes 4/4"])},
        [],
    ),
]


class TestSoakOutputPinned:
    """Every soak command's deterministic output, pinned to fixed values."""

    @pytest.mark.parametrize("argv, tables, lines", PINNED, ids=[c[0] for c in PINNED])
    def test_deterministic_columns(self, argv, tables, lines, capsys):
        assert main(argv.split()) == 0
        out = capsys.readouterr().out
        for first, (cols, expected) in tables.items():
            got = [" ".join(row[c] for c in cols) for row in _table_rows(out, first)]
            assert got == expected, out
        for line in lines:
            assert line in out, out
