"""Command-line interface: regenerate any experiment from the shell.

.. code-block:: bash

    python -m repro table1                 # Table 1 on default instances
    python -m repro figure1                # Figure 1 panels + ASCII scene
    python -m repro scaling --quick        # the n^{4/3} sweep with a plot
    python -m repro ksweep | epssweep      # the k and ε sweeps
    python -m repro rounds                 # distributed round counts
    python -m repro churn                  # incremental spanner maintenance
    python -m repro serve --tick 5         # routing tables under node/edge churn
    python -m repro serve --workers 4      # sharded: repairs fan out over a pool
    python -m repro distserve --transport uds  # actor tier over a real socket
    python -m repro traffic                # route-request soak between churn ticks
    python -m repro tune                   # calibrate traversal tuning knobs
    python -m repro demo --n 250 --seed 7  # one-off build + verify + stats

Each subcommand prints the same artifacts the benchmark suite records, so
a user can reproduce any number in ``EXPERIMENTS.md`` without pytest.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import render_table
from .analysis.plot import ascii_loglog, ascii_series

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type for counts that must be ≥ 1 (worker pools, ticks).

    Rejects at parse time what used to die deep inside :class:`~repro.\
parallel.pool.WorkerPool` (negative counts) or silently fall through to
    the serial path (``--workers 0`` looked falsy to the truthiness
    checks below).
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer (≥ 1), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Remote-spanners (Jacquet & Viennot, IPPS 2009) — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--n-any", type=int, default=60)
    p.add_argument("--n-udg", type=int, default=250)
    p.add_argument("--seed", type=int, default=2009)

    sub.add_parser("figure1", help="regenerate Figure 1's four panels")

    p = sub.add_parser("scaling", help="n^{4/3} Poisson UDG sweep")
    p.add_argument("--quick", action="store_true", help="smaller sweep")
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("ksweep", help="k^{2/3} sweep")
    p.add_argument("--seed", type=int, default=2)

    p = sub.add_parser("epssweep", help="epsilon sweep (Theorem 1)")
    p.add_argument("--seed", type=int, default=3)

    p = sub.add_parser("rounds", help="distributed round counts (Algorithm 3)")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=4)

    def add_churn_args(
        p,
        n_default: int,
        events_default: int,
        scenario_default: str = "all",
        check_every: bool = True,
    ) -> None:
        # Literal twin of repro.dynamic.SCENARIO_NAMES: importing the real
        # tuple here would pull numpy into every `repro --help` invocation
        # (tests assert the two stay in sync).
        scenarios = ("mobility", "failure", "growth", "nodechurn")
        p.add_argument(
            "--scenario",
            choices=(*scenarios, "all") if scenario_default == "all" else scenarios,
            default=scenario_default,
            help="event stream model"
            + (" (default: run every scenario)" if scenario_default == "all" else ""),
        )
        p.add_argument("--n", type=int, default=n_default)
        p.add_argument("--events", type=int, default=events_default)
        p.add_argument(
            "--method", choices=("kcover", "kmis", "mis", "greedy"), default="kcover"
        )
        p.add_argument(
            "--k",
            type=int,
            default=None,
            help="connectivity k: kcover needs k ≥ 1 (default 1), kmis needs k ≥ 2 (default 2)",
        )
        p.add_argument("--epsilon", type=float, default=None, help="ε for mis/greedy")
        p.add_argument("--rebuild-fraction", type=float, default=0.25)
        if check_every:
            p.add_argument(
                "--check-every",
                type=int,
                default=0,
                help="verify against a from-scratch build every N events (0: final state only)",
            )
        p.add_argument("--seed", type=int, default=2009)
        p.add_argument(
            "--workers",
            type=_positive_int,
            default=None,
            metavar="N",
            help="fan work out over N ≥ 1 worker processes (repro.parallel); "
            "omit the flag entirely for the single-process serial path",
        )
        p.add_argument(
            "--metrics",
            default=None,
            metavar="OUT.json",
            help="write the run's merged repro.obs metrics snapshot "
            "(per-shard breakdown included) to this JSON file",
        )
        p.add_argument(
            "--trace",
            default=None,
            metavar="OUT.trace.json",
            help="record spans and write a Chrome trace-event file "
            "(open in https://ui.perfetto.dev or chrome://tracing)",
        )

    p = sub.add_parser(
        "churn", help="evolving-graph churn: incremental spanner maintenance"
    )
    add_churn_args(p, n_default=400, events_default=120)

    p = sub.add_parser(
        "serve",
        help="dynamic serving soak: incremental routing tables under churn",
    )
    add_churn_args(p, n_default=250, events_default=100)
    p.add_argument(
        "--tick",
        type=_positive_int,
        default=1,
        help="events per coalesced batch (1: apply singly)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="check tables against a from-scratch build after every tick "
        "(the final state is always checked)",
    )

    p = sub.add_parser(
        "distserve",
        help="distributed serving soak: sharded table actors fed by "
        "sequence-numbered incremental LSA floods over a transport",
    )
    # Literal twin of repro.dynamic.SCENARIO_NAMES (same import-weight
    # rationale as add_churn_args above; tests pin the sync).
    dist_scenarios = ("mobility", "failure", "growth", "nodechurn")
    p.add_argument(
        "--scenario",
        choices=(*dist_scenarios, "all"),
        default="mobility",
        help="event stream model (default: mobility)",
    )
    p.add_argument("--n", type=int, default=120)
    p.add_argument("--events", type=int, default=48)
    p.add_argument(
        "--method", choices=("kcover", "kmis", "mis", "greedy"), default="kcover"
    )
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--rebuild-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=2009)
    p.add_argument(
        "--shards",
        type=_positive_int,
        default=4,
        help="table actors in the tier (owner(u) = u mod shards)",
    )
    p.add_argument(
        "--transport",
        choices=("loop", "tcp", "uds"),
        default="loop",
        help="wire: deterministic in-process loopback, localhost TCP, "
        "or a Unix-domain socket",
    )
    p.add_argument(
        "--tick",
        type=_positive_int,
        default=6,
        help="events per coalesced batch (one LSA flood per tick)",
    )
    p.add_argument(
        "--queries",
        type=_positive_int,
        default=20,
        help="route queries forwarded across the actors at the end, each "
        "checked against the serial route_served journey",
    )
    p.add_argument("--metrics", default=None, metavar="OUT.json")
    p.add_argument("--trace", default=None, metavar="OUT.trace.json")

    p = sub.add_parser(
        "traffic",
        help="query-serving soak: route requests off the maintained tables "
        "between churn ticks",
    )
    add_churn_args(
        p, n_default=250, events_default=60, scenario_default="failure", check_every=False
    )
    # Literal twin of repro.dynamic.WORKLOAD_NAMES (same import-weight
    # rationale as the scenario list above; tests pin the sync).
    workloads = ("uniform", "zipf", "locality")
    p.add_argument(
        "--workload",
        choices=(*workloads, "all"),
        default="all",
        help="request model (default: run every workload)",
    )
    p.add_argument(
        "--tick",
        type=_positive_int,
        default=5,
        help="events coalesced between request batches",
    )
    p.add_argument(
        "--queries",
        type=_positive_int,
        default=40,
        help="route requests served after each tick",
    )
    p.add_argument(
        "--compare-bfs",
        type=int,
        default=25,
        metavar="PAIRS",
        help="also route PAIRS sampled requests with the per-hop-BFS "
        "reference on the final state and report the speedup (0: skip)",
    )

    p = sub.add_parser(
        "chaos",
        help="fault-injection soak: serve traffic under a named fault plan "
        "(worker crashes, wedges, torn writes) with self-healing shards, "
        "degraded reads and invariant verification",
    )
    # Literal twin of repro.faults.PLANS (same import-weight rationale as
    # the scenario list above; tests pin the sync).
    plans = (
        "quiet",
        "crashy",
        "torn-writer",
        "wedge",
        "lossy-queue",
        "flaky-shm",
        "mayhem",
        "lsa-lossy",
        "lsa-slow",
    )
    p.add_argument(
        "--plan",
        choices=plans,
        default="crashy",
        help="named fault plan from repro.faults.PLANS (default: crashy)",
    )
    # Literal twin of SCENARIO_NAMES + FAULT_SCENARIO_NAMES (tests pin it).
    chaos_scenarios = ("mobility", "failure", "growth", "nodechurn", "outage", "partition")
    p.add_argument(
        "--scenario",
        choices=chaos_scenarios,
        default="outage",
        help="churn model, fault scenarios included (default: outage)",
    )
    p.add_argument("--n", type=int, default=120)
    p.add_argument("--events", type=int, default=60)
    p.add_argument("--method", choices=("kcover", "kmis", "mis", "greedy"), default="kcover")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--rebuild-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=2009)
    p.add_argument("--workers", type=_positive_int, default=2)
    p.add_argument(
        "--workload",
        choices=("uniform", "zipf", "locality"),
        default="zipf",
        help="request model between churn ticks",
    )
    p.add_argument("--tick", type=_positive_int, default=5)
    p.add_argument("--queries", type=_positive_int, default=30)
    p.add_argument(
        "--max-staleness",
        type=int,
        default=None,
        metavar="K",
        help="reader refuses rows more than K committed generations stale "
        "(default: serve any committed state)",
    )
    p.add_argument(
        "--flash-crowd-at",
        type=int,
        nargs="*",
        default=None,
        metavar="TICK",
        help="permute the zipf hotspot ranking at these tick indices",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=5.0,
        help="seconds before unanswered shard tasks count as wedged",
    )
    p.add_argument("--metrics", default=None, metavar="OUT.json")
    p.add_argument("--trace", default=None, metavar="OUT.trace.json")

    p = sub.add_parser(
        "tune",
        help="measure traversal tuning crossovers on this hardware "
        "(repro.tuning: batch chunk, sets-vs-CSR threshold)",
    )
    p.add_argument("--n", type=int, default=1500, help="APSP calibration size")
    p.add_argument("--quick", action="store_true", help="smaller, faster sweep")
    p.add_argument("--seed", type=int, default=2009)

    p = sub.add_parser("demo", help="build + verify a spanner on one UDG")
    p.add_argument("--n", type=int, default=250)
    p.add_argument("--degree", type=float, default=12.0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser(
        "lint",
        help="run reprolint, the project-invariant AST checker "
        "(RNG discipline, shm lifecycle, tuning knobs, ...)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src benchmarks scripts)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    p.add_argument(
        "--deep",
        action="store_true",
        help="also run the interprocedural pass (call graph + function "
        "summaries: RL009, RL011)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json carries suppressed findings, flagged)",
    )

    p = sub.add_parser(
        "obs",
        help="pretty-print a --metrics snapshot, or diff two of them",
    )
    p.add_argument("snapshot", metavar="METRICS.json", help="metrics file to display")
    p.add_argument(
        "baseline",
        nargs="?",
        metavar="BASELINE.json",
        help="older metrics file: print the delta (snapshot - baseline) instead",
    )
    return parser


def _cmd_table1(args) -> int:
    from .experiments import TABLE1_HEADERS, build_table1

    rows = build_table1(n_any=args.n_any, n_udg=args.n_udg, seed=args.seed)
    print(render_table(TABLE1_HEADERS, [r.as_list() for r in rows], title="Table 1 (measured)"))
    return 0 if all(r.stretch_ok in (True, "-") for r in rows) else 1


def _cmd_figure1(_args) -> int:
    from .experiments.figure1 import NAMES, ascii_scene, build_figure1, figure1_points

    fig = build_figure1()
    for label, graph in (
        ("(a) input UDG", fig.graph),
        ("(b) (1,0)-remote-spanner", fig.spanner_b.graph),
        ("(c) minimal (2,-1)-remote-spanner", fig.graph_c),
        ("(d) 2-connecting (2,-1)-remote-spanner", fig.spanner_d.graph),
    ):
        print(label)
        print(ascii_scene(figure1_points(), fig.graph, None if graph is fig.graph else graph))
        print()
    u, x, d = fig.exact_pair
    s, t, dg, dh = fig.stretch_pair
    print(f"(b) witness: d_Hb_{NAMES[u]}({NAMES[u]},{NAMES[x]}) = {d} = d_G")
    print(f"(c) witness: d_Hc_{NAMES[s]}({NAMES[s]},{NAMES[t]}) = {dh} = 2*{dg}-1")
    return 0


def _cmd_scaling(args) -> int:
    from .experiments import udg_edge_scaling

    intensities = (15.0, 30.0, 60.0) if args.quick else (15.0, 30.0, 60.0, 120.0)
    res = udg_edge_scaling(intensities=intensities, side=3.0, trials=2, seed=args.seed)
    ns = [r.values["n"] for r in res.rows]
    print(
        render_table(
            ["mean n", "full edges", "spanner edges"],
            [
                [round(r.values["n"], 1), round(r.values["full_edges"], 1), round(r.values["spanner_edges"], 1)]
                for r in res.rows
            ],
            title="E-Th2-udg — Poisson UDG, fixed square",
        )
    )
    print()
    print(
        ascii_loglog(
            ns,
            [r.values["spanner_edges"] for r in res.rows],
            ref_slope=4 / 3,
            title=f"spanner edges vs n (fit n^{res.exponent('spanner_edges'):.2f}, paper 4/3)",
        )
    )
    print()
    print(
        ascii_loglog(
            ns,
            [r.values["full_edges"] for r in res.rows],
            ref_slope=2.0,
            title=f"full edges vs n (fit n^{res.exponent('full_edges'):.2f}, paper 2)",
        )
    )
    return 0


def _cmd_ksweep(args) -> int:
    from .experiments import k_sweep

    res = k_sweep(ks=(1, 2, 3, 4, 6), intensity=60.0, side=3.0, trials=2, seed=args.seed)
    xs = [r.x for r in res.rows]
    ys = [r.values["spanner_edges"] for r in res.rows]
    print(
        ascii_loglog(
            xs,
            ys,
            ref_slope=2 / 3,
            title=f"spanner edges vs k (fit k^{res.exponent('spanner_edges'):.2f}, paper 2/3)",
        )
    )
    return 0


def _cmd_epssweep(args) -> int:
    from .experiments import eps_sweep

    res = eps_sweep(epsilons=(1.0, 0.5, 1 / 3, 0.25), n=300, trials=2, seed=args.seed)
    xs = [r.x for r in res.rows]
    ys = [r.values["edges_per_n"] for r in res.rows]
    print(
        ascii_series(
            xs, ys, title="edges per node vs epsilon ((1+eps,1-2eps)-remote-spanner)"
        )
    )
    print(f"fitted exponent (1/eps)^{res.exponent('edges_per_n'):.2f} (paper bound: 3)")
    return 0


def _cmd_rounds(args) -> int:
    from .distributed import run_remspan
    from .graph.generators import random_connected_gnp

    g = random_connected_gnp(args.n, 3.0 / args.n, seed=args.seed)
    rows = []
    for kind, kwargs in (
        ("kcover", dict(k=1)),
        ("kcover", dict(k=2)),
        ("greedy", dict(r=3, beta=1)),
        ("mis", dict(r=3)),
        ("kmis", dict(k=2)),
    ):
        res = run_remspan(g, kind, **kwargs)
        rows.append(
            [
                f"{kind}{kwargs}",
                res.communication_rounds,
                res.expected_rounds,
                res.spanner.num_edges,
            ]
        )
    print(
        render_table(
            ["construction", "rounds", "expected (2r-1+2b)", "spanner edges"],
            rows,
            title=f"RemSpan on G(n={args.n}); round counts are graph-independent",
        )
    )
    return 0 if all(r[1] == r[2] for r in rows) else 1


def _obs_begin(args) -> None:
    """Arm the tracer when the run asked for a trace file."""
    if getattr(args, "trace", None):
        from . import obs

        obs.tracer().start()


def _obs_finish(args, shards: "dict[int, dict] | None" = None) -> None:
    """Write the --metrics / --trace artifacts a soak asked for."""
    import json

    metrics_path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace", None)
    if not metrics_path and not trace_path:
        return
    from . import obs

    if metrics_path:
        doc = obs.metrics_document(shards)
        with open(metrics_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        print(f"metrics snapshot ({doc['schema']}) written to {metrics_path}")
    if trace_path:
        count = obs.tracer().write(trace_path)
        print(
            f"trace with {count} events written to {trace_path} "
            "(open in https://ui.perfetto.dev)"
        )


def _load_snapshot(path: str) -> "tuple[dict, dict]":
    """A metrics file's (document, merged-snapshot) pair.

    Accepts both the full ``--metrics`` document and a bare snapshot.
    """
    import json

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc, doc.get("merged", doc)


def _cmd_obs(args) -> int:
    from . import obs

    doc, snap = _load_snapshot(args.snapshot)
    if args.baseline:
        _, base = _load_snapshot(args.baseline)
        print(f"delta: {args.baseline} -> {args.snapshot}")
        print(obs.format_diff(base, snap))
        return 0
    print(obs.format_snapshot(snap))
    shards = doc.get("shards") or {}
    for wid in sorted(shards, key=int):
        shard = shards[wid]
        counters = shard.get("counters", {})
        total = sum(counters.values())
        print(
            f"shard {wid}: {len(counters)} counters (sum {total:,.0f}), "
            f"{len(shard.get('histograms', {}))} histograms"
        )
    return 0


def _cmd_churn(args) -> int:
    from . import obs
    from .dynamic import SCENARIO_NAMES, SpannerMaintainer, make_scenario
    from .graph import Graph

    _obs_begin(args)
    pool = None
    if args.workers:
        from .parallel import WorkerPool

        pool = WorkerPool(args.workers)

    def matches_rebuild(maintainer) -> bool:
        # With --workers the from-scratch reference spanner is assembled by
        # the pool: workers build the per-root trees on a shared CSR of the
        # live graph, the parent unions the edges (parallel construction).
        if pool is None:
            return maintainer.spanner.graph == maintainer.rebuilt_from_scratch().graph
        from .parallel import parallel_tree_edges

        trees = parallel_tree_edges(
            maintainer.graph,
            args.method,
            dict(k=args.k, epsilon=args.epsilon),
            pool,
        )
        union = Graph(
            maintainer.graph.num_nodes, (e for edges in trees.values() for e in edges)
        )
        return union == maintainer.spanner.graph

    names = SCENARIO_NAMES if args.scenario == "all" else (args.scenario,)
    rows = []
    all_ok = True
    for name in names:
        scenario = make_scenario(name, args.n, args.events, seed=args.seed)
        maintainer = SpannerMaintainer(
            scenario.initial,
            args.method,
            k=args.k,
            epsilon=args.epsilon,
            rebuild_fraction=args.rebuild_fraction,
        )
        ok = True
        checked_final = False
        sw = obs.Stopwatch()
        reports = []
        for i, event in enumerate(scenario.events, start=1):
            reports.append(maintainer.apply(event))
            if args.check_every and i % args.check_every == 0:
                ok = ok and matches_rebuild(maintainer)
                checked_final = i == scenario.num_events
        elapsed = sw.elapsed()
        if not checked_final:  # final state always verified, but only once
            ok = ok and matches_rebuild(maintainer)
        all_ok = all_ok and ok
        dirty = [r.dirty for r in reports if r.changed]
        rows.append(
            [
                name,
                len(reports),
                maintainer.incremental_repairs,
                maintainer.full_rebuilds,
                round(sum(dirty) / len(dirty), 1) if dirty else 0.0,
                round(elapsed * 1e3 / max(len(reports), 1), 2),
                maintainer.spanner.num_edges,
                ok,
            ]
        )
    print(
        render_table(
            [
                "scenario",
                "events",
                "incremental",
                "rebuilds",
                "mean dirty ball",
                "ms/event",
                "spanner edges",
                "matches rebuild",
            ],
            rows,
            title=(
                f"churn — {args.method} maintenance, n={args.n}, "
                f"{args.events} events, seed {args.seed}"
                + (f", verified on {args.workers} workers" if args.workers else "")
            ),
        )
    )
    shards = None
    if pool is not None:
        shards = pool.metrics()["shards"]
        pool.close()
    _obs_finish(args, shards)
    return 0 if all_ok else 1


def _cmd_serve(args) -> int:
    from . import obs
    from .dynamic import RoutingService, SCENARIO_NAMES, make_scenario
    from .graph import distance_cache_info, sample_pairs
    from .rng import derive_seed
    from .routing import route_all_pairs_stats, routing_table

    _obs_begin(args)
    names = SCENARIO_NAMES if args.scenario == "all" else (args.scenario,)
    rows = []
    all_ok = True
    cache_lines = []
    shard_acc: "dict[int, dict]" = {}
    for name in names:
        scenario = make_scenario(name, args.n, args.events, seed=args.seed)
        if args.workers:
            from .parallel import ShardedRoutingService

            service = ShardedRoutingService(
                scenario.initial,
                args.method,
                workers=args.workers,
                k=args.k,
                epsilon=args.epsilon,
                rebuild_fraction=args.rebuild_fraction,
            )
        else:
            service = RoutingService(
                scenario.initial,
                args.method,
                k=args.k,
                epsilon=args.epsilon,
                rebuild_fraction=args.rebuild_fraction,
            )

        def tables_match() -> bool:
            h, g = service.advertised, service.graph
            return all(service.table(u) == routing_table(h, g, u) for u in g.nodes())

        ok = True
        events = list(scenario.events)
        cadence = 1 if args.verify else args.check_every
        if cadence:
            reports = []
            applied = 0
            for lo in range(0, len(events), args.tick):
                tick = events[lo : lo + args.tick]
                reports.extend(service.apply_stream(tick, tick=args.tick))
                prev, applied = applied, applied + len(tick)
                # Verify whenever the tick crossed a check-every boundary
                # (ticks need not divide the cadence evenly).
                if prev // cadence < applied // cadence:
                    ok = ok and tables_match()
        else:
            reports = service.apply_stream(events, tick=args.tick)
        # Serving cost only — the interleaved tables_match() verification
        # rebuilds every table from scratch and would swamp ms/event.
        elapsed = sum(r.seconds for r in reports)
        # Full wall clock per tick (span-measured): includes freeze and
        # shared-memory/directory publish time that `seconds` excludes.
        wall = sum(r.wall_seconds for r in reports)
        ok = ok and tables_match()  # final state always verified
        all_ok = all_ok and ok
        ticks = max(len(reports), 1)
        mem = service.memory_stats()
        # Route a sample of live traffic over the final (H, G): exercises
        # the greedy forwarding path end-to-end, and its G-distance probes
        # (plus sample_pairs' connectivity checks) run through the BFS
        # distance cache whose counters are surfaced below.
        pairs = sample_pairs(
            service.graph,
            60,
            seed=derive_seed(args.seed, "serve-sample", name),
            require_nonadjacent=False,
        )
        routed = route_all_pairs_stats(service.advertised, service.graph, pairs=pairs)
        cache = distance_cache_info(service.graph)
        cache_lines.append(
            f"  {name}: routed {routed.delivered}/{routed.pairs} sampled pairs "
            f"(max stretch {routed.max_stretch:.2f}); distance cache "
            f"{cache.entries}/{cache.capacity} entries, {cache.hits} hits / "
            f"{cache.misses} misses / {cache.evictions} evictions; "
            f"apply {elapsed * 1e3:.1f} ms / wall {wall * 1e3:.1f} ms"
        )
        rows.append(
            [
                name,
                len(events),
                round(service.rows_recomputed / ticks, 1),
                round(service.tables_recomputed / ticks, 1),
                service.entries_updated,
                service.full_refreshes,
                round(elapsed * 1e3 / max(len(events), 1), 2),
                round(mem.total_bytes / 1e6, 2),
                mem.dormant,
                ok,
            ]
        )
        if args.workers:
            for wid, snap in service.metrics()["shards"].items():
                have = shard_acc.get(wid)
                shard_acc[wid] = snap if have is None else obs.merge_snapshots(have, snap)
            service.close()
    print(
        render_table(
            [
                "scenario",
                "events",
                "rows/tick",
                "tables/tick",
                "entries upd",
                "refreshes",
                "ms/event",
                "matrix MB",
                "dormant ids",
                "matches scratch",
            ],
            rows,
            title=(
                f"serve — incremental routing tables over {args.method} maintenance, "
                f"n={args.n}, {args.events} events, tick {args.tick}, seed {args.seed}"
                + (f", {args.workers} workers" if args.workers else "")
            ),
        )
    )
    print("\n".join(cache_lines))
    _obs_finish(args, shard_acc if args.workers else None)
    return 0 if all_ok else 1


def _cmd_distserve(args) -> int:
    from .distributed import ActorSystem, make_transport
    from .dynamic import SCENARIO_NAMES, make_scenario
    from .graph import sample_pairs
    from .rng import derive_seed
    from .routing import route_actor, route_served

    _obs_begin(args)
    names = SCENARIO_NAMES if args.scenario == "all" else (args.scenario,)
    rows = []
    all_ok = True
    for name in names:
        scenario = make_scenario(name, args.n, args.events, seed=args.seed)
        system = ActorSystem(
            scenario.initial.copy(),
            args.method,
            k=args.k,
            epsilon=args.epsilon,
            rebuild_fraction=args.rebuild_fraction,
            shards=args.shards,
            transport=make_transport(args.transport),
        )
        with system:
            events = list(scenario.events)
            for lo in range(0, len(events), args.tick):
                system.apply_tick(events[lo : lo + args.tick])
            mismatches = system.mismatches()
            converged = not mismatches
            pairs = sample_pairs(
                system.service.graph,
                args.queries,
                seed=derive_seed(args.seed, "distserve-sample", name),
                require_nonadjacent=False,
            )
            routes_ok = True
            for s, t in pairs:
                actor_res = route_actor(system, s, t)
                serial_res = route_served(system.service, s, t)
                routes_ok = routes_ok and (
                    actor_res.path == serial_res.path
                    and actor_res.delivered == serial_res.delivered
                    and actor_res.potentials == serial_res.potentials
                )
            wire = system.stats
            ok = converged and routes_ok
            all_ok = all_ok and ok
            rows.append(
                [
                    name,
                    len(events),
                    wire.rounds,
                    wire.messages,
                    wire.bytes,
                    wire.links,
                    sum(a.recomputes for a in system.actors),
                    sum(a.full_recomputes for a in system.actors),
                    sum(a.rows_recomputed for a in system.actors),
                    converged,
                    f"{len(pairs)}/{len(pairs)}" if routes_ok else "MISMATCH",
                ]
            )
            if mismatches:
                for line in mismatches[:5]:
                    print(f"  divergence: {line}")
    print(
        render_table(
            [
                "scenario",
                "events",
                "rounds",
                "messages",
                "bytes",
                "links",
                "recomputes",
                "full",
                "rows updated",
                "converged",
                "routes match",
            ],
            rows,
            title=(
                f"distserve — {args.shards} actors over {args.transport} transport, "
                f"{args.method} maintenance, n={args.n}, {args.events} events, "
                f"tick {args.tick}, seed {args.seed}"
            ),
        )
    )
    _obs_finish(args)
    return 0 if all_ok else 1


def _cmd_traffic(args) -> int:
    from . import obs
    from .dynamic import (
        RoutingService,
        WORKLOAD_NAMES,
        make_scenario,
        make_workload,
        serve_queries,
    )
    from .routing import route, route_served
    from .rng import derive_seed, ensure_rng

    _obs_begin(args)
    kinds = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    scenario = make_scenario(args.scenario, args.n, args.events, seed=args.seed)
    rows = []
    all_ok = True
    shard_acc: "dict[int, dict]" = {}
    for kind in kinds:
        workload = make_workload(
            kind, scenario, queries_per_tick=args.queries, tick=args.tick, seed=args.seed
        )
        if args.workers:
            from .parallel import RouteReader, ShardedRoutingService

            service = ShardedRoutingService(
                scenario.initial,
                args.method,
                workers=args.workers,
                k=args.k,
                epsilon=args.epsilon,
                rebuild_fraction=args.rebuild_fraction,
            )
            # Queries ride the concurrent read path: a RouteReader over the
            # shared matrices, exactly what a detached frontend would hold.
            endpoint = RouteReader(service.reader_handle())
        else:
            service = RoutingService(
                scenario.initial,
                args.method,
                k=args.k,
                epsilon=args.epsilon,
                rebuild_fraction=args.rebuild_fraction,
            )
            endpoint = service
        served = delivered = 0
        hops_total = 0
        t_repair = t_serve = 0.0
        for tick in workload.ticks:
            if tick.events:
                with obs.span("traffic.repair") as sp:
                    service.apply_batch(tick.events)
                t_repair += sp.seconds
            batch = serve_queries(endpoint, tick.queries)
            served += batch.served
            delivered += batch.delivered
            hops_total += batch.hops_total
            t_serve += batch.seconds
        # Per-hop-BFS reference on the final state: correctness spot-check
        # (served journeys must be identical) + the speedup column.
        ok = True
        bfs_qps = speedup = None
        if args.compare_bfs > 0:
            h, g = service.advertised, service.graph
            rng = ensure_rng(derive_seed(args.seed, "traffic-compare", kind))
            sample = list(workload.ticks[-1].queries)
            extra = [q for tick in workload.ticks for q in tick.queries]
            while len(sample) < args.compare_bfs and extra:
                sample.append(extra[int(rng.integers(len(extra)))])
            sample = sample[: args.compare_bfs]
            sw = obs.Stopwatch()
            reference = [route(h, g, s, t) for s, t in sample]
            t_bfs = sw.elapsed()
            for (s, t), ref in zip(sample, reference):
                res = route_served(endpoint, s, t)
                ok = ok and res.path == ref.path and res.delivered == ref.delivered
            bfs_qps = len(sample) / t_bfs if t_bfs > 0 else float("inf")
            serve_qps_now = served / t_serve if t_serve > 0 else float("inf")
            speedup = serve_qps_now / bfs_qps if bfs_qps else None
        all_ok = all_ok and ok
        rows.append(
            [
                kind,
                len(workload.ticks),
                served,
                f"{100 * delivered / max(served, 1):.0f}%",
                round(hops_total / max(delivered, 1), 2),
                round(served / t_serve, 0) if t_serve > 0 else "-",
                round(t_repair * 1e3 / max(workload.num_events, 1), 2),
                round(bfs_qps, 1) if bfs_qps is not None else "-",
                round(speedup, 1) if speedup is not None else "-",
                ok,
            ]
        )
        if args.workers:
            for wid, snap in service.metrics()["shards"].items():
                have = shard_acc.get(wid)
                shard_acc[wid] = snap if have is None else obs.merge_snapshots(have, snap)
            endpoint.close()
            service.close()
    print(
        render_table(
            [
                "workload",
                "ticks",
                "queries",
                "delivered",
                "mean hops",
                "serve q/s",
                "repair ms/ev",
                "bfs q/s",
                "speedup",
                "matches route",
            ],
            rows,
            title=(
                f"traffic — served route queries over {args.method} maintenance, "
                f"{args.scenario} scenario, n={args.n}, {args.events} events, "
                f"tick {args.tick}, seed {args.seed}"
                + (f", {args.workers} workers" if args.workers else "")
            ),
        )
    )
    _obs_finish(args, shard_acc if args.workers else None)
    return 0 if all_ok else 1


def _cmd_chaos(args) -> int:
    import os

    from . import faults, obs
    from .dynamic import apply_events, make_scenario, make_workload
    from .parallel import RouteReader, ShardedRoutingService, WorkerError
    from .routing import route_served

    _obs_begin(args)
    plan = faults.PLANS[args.plan]
    scenario = make_scenario(args.scenario, args.n, args.events, seed=args.seed)
    flash = tuple(args.flash_crowd_at) if args.flash_crowd_at else None
    workload = make_workload(
        args.workload,
        scenario,
        queries_per_tick=args.queries,
        tick=args.tick,
        seed=args.seed,
        flash_crowd_at=flash,
    )
    # Arm through the environment — the sanctioned entry point: fork
    # workers inherit the installed plan, spawn workers re-read the
    # variables at repro.parallel import time.
    saved = {var: os.environ.get(var) for var in (faults.ENV_GATE, faults.ENV_PLAN)}
    faults.arm_env(plan)
    faults.maybe_install_from_env()
    served = delivered = fallback_used = invalid_hops = 0
    degraded_ticks = 0
    errors: "list[str]" = []
    reconverged = False
    healthy = True
    try:
        service = None
        for attempt in range(4):
            if attempt:
                # The initial build runs under fire too.  Fault streams are
                # seeded from the *plan* seed per (worker, incarnation), so
                # a retry under the same plan would replay the identical
                # crash pattern — re-arm with an offset seed to re-roll.
                faults.uninstall()
                faults.arm_env(faults.FaultPlan(plan.name, plan.seed + attempt, plan.rules))
                faults.maybe_install_from_env()
            try:
                service = ShardedRoutingService(
                    scenario.initial,
                    args.method,
                    workers=args.workers,
                    seed=args.seed,
                    task_timeout=args.task_timeout,
                    k=args.k,
                    epsilon=args.epsilon,
                    rebuild_fraction=args.rebuild_fraction,
                )
                break
            except (WorkerError, OSError) as exc:
                errors.append(f"build attempt {attempt + 1}: {type(exc).__name__}: {exc}")
                obs.inc("chaos.build_retries")
        if service is None:
            print("chaos: service construction failed under injected faults:")
            for line in errors:
                print(f"  {line}")
            return 1
        endpoint = RouteReader(service.reader_handle(), max_staleness=args.max_staleness)

        def heal() -> bool:
            # Under sustained fault pressure a full resync can itself lose
            # workers (every attempt re-rolls the injected dice, and the
            # pool's respawn/poison budgets reset per run) — retry before
            # declaring the soak unhealable.
            for _ in range(4):
                try:
                    service.refresh()
                    return True
                except (WorkerError, OSError) as exc:
                    errors.append(f"heal: {type(exc).__name__}: {exc}")
                    obs.inc("chaos.heal_retries")
            return False

        def fallback(u: int, v: int) -> "int | None":
            nonlocal fallback_used
            hop = endpoint.hop_fallback(u, v)
            if hop is not None:
                fallback_used += 1
            return hop

        # Mirror of the service's topology, for journey validation: every
        # hop a query takes must be an edge of a state the service passed
        # through (the graph before or after the tick's coalesced repair).
        g_run = scenario.initial.copy()
        valid_edges = g_run.edge_set()
        with obs.span("chaos.soak"):
            from .errors import NodeNotFound

            for tick_ in workload.ticks:
                prev_edges = g_run.edge_set()
                degraded = False
                if tick_.events:
                    apply_events(g_run, tick_.events)
                    try:
                        with obs.span("chaos.repair"):
                            service.apply_batch(tick_.events)
                    except (WorkerError, OSError) as exc:
                        # Shards lost beyond the supervisor's budget (or an
                        # injected shm failure): the tick's queries are
                        # served *degraded* — off whatever mix of committed
                        # rows survived, stale refusals and per-hop
                        # fallbacks included — then a full resync heals.
                        degraded = True
                        degraded_ticks += 1
                        errors.append(f"repair: {type(exc).__name__}: {exc}")
                        obs.inc("chaos.degraded_ticks")
                valid_edges = prev_edges | g_run.edge_set()
                for s, t in tick_.queries:
                    try:
                        res = route_served(endpoint, s, t, hop_fallback=fallback)
                    except NodeNotFound:
                        # A joiner the degraded directory never admitted.
                        served += 1
                        continue
                    served += 1
                    delivered += res.delivered
                    for a, b in zip(res.path, res.path[1:]):
                        if (a, b) not in valid_edges and (b, a) not in valid_edges:
                            invalid_hops += 1
                if degraded and not heal():
                    healthy = False
                    break
        # Quiescent now: the survived state must be bit-identical to a
        # serial twin that never saw a fault.
        if healthy:
            import numpy as np

            from .dynamic import RoutingService

            twin = RoutingService(
                scenario.initial,
                args.method,
                k=args.k,
                epsilon=args.epsilon,
                rebuild_fraction=args.rebuild_fraction,
            )
            for tick_ in workload.ticks:
                if tick_.events:
                    twin.apply_batch(tick_.events)
            reconverged = np.array_equal(
                np.asarray(service._dist), np.asarray(twin._dist)
            ) and np.array_equal(np.asarray(service._tables), np.asarray(twin._tables))
        health = service.pool_health.as_dict()
        endpoint.close()
        service.close()
    finally:
        faults.uninstall()
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    print(
        render_table(
            ["ticks", "queries", "delivered", "fallback hops", "degraded ticks", "invalid hops", "reconverged"],
            [
                [
                    len(workload.ticks),
                    served,
                    f"{100 * delivered / max(served, 1):.0f}%",
                    fallback_used,
                    degraded_ticks,
                    invalid_hops,
                    reconverged,
                ]
            ],
            title=(
                f"chaos — plan {plan.name!r} over {args.scenario} churn, "
                f"{args.workload} traffic, n={args.n}, {args.events} events, "
                f"{args.workers} workers, seed {args.seed}"
                + (f", max_staleness={args.max_staleness}" if args.max_staleness is not None else "")
            ),
        )
    )
    print(
        render_table(
            ["respawns", "task retries", "wedge restarts", "quarantined", "torn rows repaired", "backoff s"],
            [
                [
                    health["respawns"],
                    health["retries"],
                    health["wedge_restarts"],
                    health["quarantined"],
                    health["torn_rows_repaired"],
                    health["backoff_seconds"],
                ]
            ],
            title="self-healing (pool supervision)",
        )
    )
    if errors:
        print("faults survived (healed by retry / full resync):")
        for line in errors:
            print(f"  {line}")
    if not healthy:
        print("chaos: soak aborted — a degraded tick could not be healed")
    _obs_finish(args)
    ok = healthy and reconverged and invalid_hops == 0 and served > 0
    return 0 if ok else 1


def _cmd_tune(args) -> int:
    from . import tuning

    result = tuning.calibrate(n=args.n, seed=args.seed, quick=args.quick)
    cross = result["auto_min_nodes"]
    print(
        render_table(
            ["n", "sets ms", "csr ms"],
            [
                [r["n"], round(r["sets_s"] * 1e3, 3), round(r["csr_s"] * 1e3, 3)]
                for r in cross["rows"]
            ],
            title="sets vs CSR backend — one BFS per 4th node",
        )
    )
    print()
    chunk = result["batch_chunk"]
    print(
        render_table(
            ["chunk", "APSP s"],
            [[r["chunk"], round(r["apsp_s"], 3)] for r in chunk["rows"]],
            title=f"batched_bfs chunk sweep — full APSP at n={chunk['n']}",
        )
    )
    active = result["active"]
    print()
    print(
        f"recommended: auto_min_nodes={cross['recommended']} "
        f"(active {active.auto_min_nodes}), batch_chunk={chunk['recommended']} "
        f"(active {active.batch_chunk})"
    )
    print("apply with:")
    print(f"  export REPRO_AUTO_MIN_NODES={cross['recommended']}")
    print(f"  export REPRO_BATCH_CHUNK={chunk['recommended']}")
    print("or repro.tuning.configure(batch_chunk=..., auto_min_nodes=...)")
    return 0


def _cmd_demo(args) -> int:
    from .core import (
        build_k_connecting_spanner,
        build_remote_spanner,
        is_remote_spanner,
        remote_stretch_stats,
    )
    from .experiments import largest_component, scaled_udg
    from .routing import full_link_state_cost, spanner_advertisement_cost

    g_full, _pts = scaled_udg(args.n, args.degree, seed=args.seed)
    g, _ids = largest_component(g_full)
    print(f"UDG: n={g.num_nodes} m={g.num_edges} max_deg={g.max_degree()}")
    # --epsilon < 1 selects the Theorem-1 builder; otherwise Theorem 2's
    # k-connecting exact-distance construction.
    if args.epsilon < 1.0:
        rs = build_remote_spanner(g, epsilon=args.epsilon)
    else:
        rs = build_k_connecting_spanner(g, k=args.k)
    ok = is_remote_spanner(rs.graph, g, rs.guarantee.alpha, rs.guarantee.beta)
    stats = remote_stretch_stats(rs.graph, g)
    ours = spanner_advertisement_cost(rs)
    ospf = full_link_state_cost(g)
    print(f"spanner: {rs.num_edges} edges ({rs.method}), guarantee {rs.guarantee}")
    print(f"verified: {ok}; max measured stretch {stats.max_ratio:.3f}")
    print(
        f"advertisement: {ours.entries_per_period} entries/period "
        f"({100 * ours.ratio_to(ospf):.0f}% of full link state)"
    )
    return 0 if ok else 1


def _cmd_lint(args) -> int:
    import json as _json
    import os

    from .analysis.deep import deep_lint_paths, default_deep_rules
    from .analysis.lint import default_rules, lint_paths
    from .errors import ParameterError

    rules = default_rules()
    deep_rules = default_deep_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.code} {rule.name}: {rule.description}")
        for rule in deep_rules:
            print(f"{rule.code} {rule.name} [deep]: {rule.description}")
        return 0
    paths = args.paths or [p for p in ("src", "benchmarks", "scripts") if os.path.isdir(p)]
    if not paths:
        print("repro lint: no paths given and none of src/benchmarks/scripts exist here")
        return 2
    as_json = args.format == "json"
    try:
        findings = lint_paths(paths, rules, keep_suppressed=as_json)
        if args.deep:
            findings = sorted(
                findings + deep_lint_paths(paths, deep_rules, keep_suppressed=as_json)
            )
    except ParameterError as exc:
        print(f"repro lint: {exc}")
        return 2
    unsuppressed = [f for f in findings if not f.suppressed]
    if as_json:
        print(
            _json.dumps(
                {
                    "schema": "reprolint/1",
                    "deep": bool(args.deep),
                    "paths": [str(p) for p in paths],
                    "findings": [
                        {
                            "rule": f.rule,
                            "path": f.path,
                            "line": f.line,
                            "col": f.col,
                            "message": f.message,
                            "suppressed": f.suppressed,
                        }
                        for f in findings
                    ],
                    "summary": {
                        "findings": len(unsuppressed),
                        "suppressed": len(findings) - len(unsuppressed),
                    },
                },
                indent=2,
            )
        )
        return 1 if unsuppressed else 0
    for finding in unsuppressed:
        print(finding.format())
    n_rules = len(rules) + (len(deep_rules) if args.deep else 0)
    if unsuppressed:
        print(
            f"repro lint: {len(unsuppressed)} finding(s) in {', '.join(map(str, paths))}"
        )
        return 1
    print(f"repro lint: clean ({', '.join(map(str, paths))}; {n_rules} rules)")
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "figure1": _cmd_figure1,
    "scaling": _cmd_scaling,
    "ksweep": _cmd_ksweep,
    "epssweep": _cmd_epssweep,
    "rounds": _cmd_rounds,
    "churn": _cmd_churn,
    "serve": _cmd_serve,
    "distserve": _cmd_distserve,
    "traffic": _cmd_traffic,
    "chaos": _cmd_chaos,
    "tune": _cmd_tune,
    "demo": _cmd_demo,
    "lint": _cmd_lint,
    "obs": _cmd_obs,
}


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
