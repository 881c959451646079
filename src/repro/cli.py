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
    python -m repro chaos --plan mayhem    # fault-injection soak, self-healing pool
    python -m repro demo --n 250 --seed 7  # one-off build + verify + stats

Each subcommand prints the same artifacts the benchmark suite records, so
a user can reproduce any number in ``EXPERIMENTS.md`` without pytest.  The
soaks (churn, serve, distserve, traffic, chaos) are flag sets and row
renderers over the one tick loop and verify step in :mod:`repro.soak`.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import render_table
from .analysis.plot import ascii_loglog, ascii_series
from .core.remote_spanner import CONSTRUCTION_NAMES

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

    # Literal twins of repro.dynamic.SCENARIO_NAMES, FAULT_SCENARIO_NAMES and
    # WORKLOAD_NAMES and repro.faults.PLANS, kept literal so `repro --help`
    # imports none of those subsystems (tests assert each stays in sync).
    scenarios = ("mobility", "failure", "growth", "nodechurn")
    fault_scenarios = ("outage", "partition")
    workloads = ("uniform", "zipf", "locality")
    plans = "quiet crashy torn-writer wedge lossy-queue flaky-shm mayhem lsa-lossy lsa-slow".split()

    def soak_parser(name, help, scenarios, scenario, n, events, tick):
        """A soak subcommand with the flags every soak shares."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--scenario", choices=scenarios, default=scenario,
                       help="event stream model (default: %(default)s)")
        p.add_argument("--n", type=int, default=n)
        p.add_argument("--events", type=int, default=events)
        p.add_argument("--method", choices=CONSTRUCTION_NAMES, default="kcover")
        p.add_argument("--k", type=int, default=None, help="connectivity k ≥ 1 for kcover "
                       "(default 1) and kmis (default 2)")
        p.add_argument("--epsilon", type=float, default=None, help="ε for mis/greedy")
        p.add_argument("--rebuild-fraction", type=float, default=0.25)
        p.add_argument("--seed", type=int, default=2009)
        if tick:
            p.add_argument("--tick", type=_positive_int, default=tick,
                           help="events per coalesced tick")
        p.add_argument("--metrics", default=None, metavar="OUT.json",
                       help="write the run's merged repro.obs metrics snapshot "
                       "(per-shard breakdown included) to this JSON file")
        p.add_argument("--trace", default=None, metavar="OUT.trace.json",
                       help="record spans and write a Chrome trace-event file "
                       "(open in https://ui.perfetto.dev or chrome://tracing)")
        return p

    check_every = dict(type=int, default=0, help="verify against a from-scratch build "
                       "every N events (0: final state only)")
    serial = dict(type=_positive_int, default=None, metavar="N",
                  help="fan work out over N ≥ 1 worker processes (repro.parallel); "
                  "omit the flag entirely for the single-process serial path")

    p = soak_parser("churn", "evolving-graph churn: incremental spanner maintenance",
                    (*scenarios, "all"), "all", n=400, events=120, tick=None)
    p.add_argument("--check-every", **check_every)

    p = soak_parser("serve", "dynamic serving soak: incremental routing tables under churn",
                    (*scenarios, "all"), "all", n=250, events=100, tick=1)
    p.add_argument("--check-every", **check_every)
    p.add_argument("--workers", **serial)

    p = soak_parser("distserve", "distributed serving soak: sharded table actors fed by "
                    "sequence-numbered incremental LSA floods over a transport",
                    (*scenarios, "all"), "mobility", n=120, events=48, tick=6)
    p.add_argument("--shards", type=_positive_int, default=4,
                   help="table actors in the tier, each owning one balanced BFS "
                   "region of the ids")
    p.add_argument("--transport", choices=("loop", "tcp", "uds"), default="loop",
                   help="wire: deterministic in-process loopback, localhost TCP, "
                   "or a Unix-domain socket")
    p.add_argument("--queries", type=_positive_int, default=20,
                   help="route queries forwarded across the actors at the end, each "
                   "checked against the serial route_served journey")

    p = soak_parser("traffic", "query-serving soak: route requests off the maintained "
                    "tables between churn ticks", scenarios, "failure", n=250, events=60, tick=5)
    p.add_argument("--workers", **serial)
    p.add_argument("--workload", choices=(*workloads, "all"), default="all",
                   help="request model (default: run every workload)")
    p.add_argument("--queries", type=_positive_int, default=40,
                   help="route requests served after each tick")
    p.add_argument("--compare-bfs", type=int, default=25, metavar="PAIRS",
                   help="also route PAIRS sampled requests with the per-hop-BFS "
                   "reference on the final state and report the speedup (0: skip)")

    p = soak_parser("chaos", "fault-injection soak: serve traffic under a named fault plan "
                    "(worker crashes, wedges, torn writes) with self-healing shards, "
                    "degraded reads and invariant verification",
                    (*scenarios, *fault_scenarios), "outage", n=120, events=60, tick=5)
    p.add_argument("--workers", type=_positive_int, default=2)
    p.add_argument("--plan", choices=plans, default="crashy",
                   help="named fault plan from repro.faults.PLANS (default: crashy)")
    p.add_argument("--workload", choices=workloads, default="zipf",
                   help="request model between churn ticks")
    p.add_argument("--queries", type=_positive_int, default=30)
    p.add_argument("--max-staleness", type=int, default=None, metavar="K",
                   help="reader refuses rows more than K committed generations stale; "
                   "staleness is 0 or 1 (default: serve any committed state)")
    p.add_argument("--flash-crowd-at", type=int, nargs="*", default=None, metavar="TICK",
                   help="permute the zipf hotspot ranking at these tick indices")
    p.add_argument("--task-timeout", type=float, default=5.0,
                   help="seconds before unanswered shard tasks count as wedged")

    p = sub.add_parser("demo", help="build + verify a spanner on one UDG")
    p.add_argument("--n", type=int, default=250)
    p.add_argument("--degree", type=float, default=12.0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=42)

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


def _soak(cmd):
    """A soak handler wrapped in the --trace / --metrics plumbing; *cmd* gets
    the args and a dict :func:`repro.soak.open_backend` fills with the pool
    workers' metric snapshots before each pool closes."""

    def handler(args) -> int:
        import json

        from . import obs

        if args.trace:
            obs.tracer().start()
        shards: "dict[int, dict]" = {}
        rc = cmd(args, shards)
        if args.metrics:
            doc = obs.metrics_document(shards)
            with open(args.metrics, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
            print(f"metrics snapshot ({doc['schema']}) written to {args.metrics}")
        if args.trace:
            count = obs.tracer().write(args.trace)
            print(f"trace with {count} events written to {args.trace} "
                  "(open in https://ui.perfetto.dev)")
        return rc

    return handler


def _table(headers, rows, title: str, ok: "bool | None" = None) -> int:
    """Print a soak's table; exit 0 iff *ok* (default: every row's last cell)."""
    print(render_table(headers, rows, title=title))
    return 0 if (all(row[-1] for row in rows) if ok is None else ok) else 1


@_soak
def _cmd_churn(args, shards) -> int:
    from . import soak

    rows = []
    for name, scenario in soak.scenarios(args):
        with soak.open_backend("maintainer", scenario.initial, args) as b:
            soak.run(b, soak.event_ticks(scenario.events, 1), check_every=args.check_every)
        m, events = b.maintainer, len(b.reports)
        dirty = [r.dirty for r in b.reports if r.changed]
        rows.append([name, events, m.incremental_repairs, m.full_rebuilds,
                     round(sum(dirty) / len(dirty), 1) if dirty else 0.0,
                     round(b.seconds * 1e3 / max(events, 1), 2), m.spanner.num_edges, b.ok])
    return _table(["scenario", "events", "incremental", "rebuilds", "mean dirty ball", "ms/event",
                   "spanner edges", "matches rebuild"], rows,
                  f"churn — {args.method} maintenance, n={args.n}, {args.events} events, "
                  f"seed {args.seed}")


@_soak
def _cmd_serve(args, shards) -> int:
    from . import soak
    from .graph import sample_pairs
    from .rng import derive_seed
    from .routing import route_all_pairs_stats

    rows, lines = [], []
    for name, scenario in soak.scenarios(args):
        kind = "pool" if args.workers else "service"
        with soak.open_backend(kind, scenario.initial, args, shards=shards) as b:
            ticks = soak.event_ticks(scenario.events, args.tick)
            soak.run(b, ticks, check_every=args.check_every)
            s, events, per_tick = b.service, len(scenario.events), max(len(b.reports), 1)
            # Serving cost only, and the wall clock (adds freeze and publish).
            apply_s = sum(r.seconds for r in b.reports)
            wall_s = sum(r.wall_seconds for r in b.reports)
            mem = s.memory_stats()
            # Route sampled live traffic over the final (H, G).
            seed = derive_seed(args.seed, "serve-sample", name)
            pairs = sample_pairs(s.graph, 60, seed=seed, require_nonadjacent=False)
            routed = route_all_pairs_stats(s.advertised, s.graph, pairs=pairs)
            rows.append([name, events, round(s.rows_recomputed / per_tick, 1),
                         round(s.tables_recomputed / per_tick, 1), s.entries_updated,
                         s.full_refreshes, round(apply_s * 1e3 / max(events, 1), 2),
                         round(mem.total_bytes / 1e6, 2), mem.dormant, b.ok])
        lines.append(
            f"  {name}: routed {routed.delivered}/{routed.pairs} sampled pairs (max stretch "
            f"{routed.max_stretch:.2f}); apply {apply_s * 1e3:.1f} ms / wall "
            f"{wall_s * 1e3:.1f} ms"
        )
    rc = _table(["scenario", "events", "rows/tick", "tables/tick", "entries upd", "refreshes",
                 "ms/event", "matrix MB", "dormant ids", "matches scratch"], rows,
                f"serve — incremental routing tables over {args.method} maintenance, "
                f"n={args.n}, {args.events} events, tick {args.tick}, seed {args.seed}"
                + (f", {args.workers} workers" if args.workers else ""))
    print("\n".join(lines))
    return rc


@_soak
def _cmd_distserve(args, shards) -> int:
    from . import soak
    from .graph import sample_pairs
    from .rng import derive_seed
    from .routing import route_served

    rows, all_ok = [], True
    for name, scenario in soak.scenarios(args):
        with soak.open_backend("actors", scenario.initial, args) as b:
            soak.run(b, soak.event_ticks(scenario.events, args.tick))
            system, seed = b.system, derive_seed(args.seed, "distserve-sample", name)
            pairs = sample_pairs(system.service.graph, args.queries, seed=seed,
                                 require_nonadjacent=False)
            journeys = [(system.route(s, t), route_served(system.service, s, t)) for s, t in pairs]
            routes_ok = all(actor == serial for actor, serial in journeys)
            all_ok = all_ok and b.ok and routes_ok
            wire, actors = system.stats, system.actors
            rows.append([name, len(scenario.events), wire.rounds, wire.messages, wire.bytes,
                         wire.links, sum(a.recomputes for a in actors),
                         sum(a.full_recomputes for a in actors),
                         sum(a.rows_recomputed for a in actors), b.ok,
                         f"{len(pairs)}/{len(pairs)}" if routes_ok else "MISMATCH"])
    return _table(["scenario", "events", "rounds", "messages", "bytes", "links", "recomputes",
                   "full", "rows updated", "converged", "routes match"], rows,
                  f"distserve — {args.shards} actors over {args.transport} transport, "
                  f"{args.method} maintenance, n={args.n}, {args.events} events, "
                  f"tick {args.tick}, seed {args.seed}", ok=all_ok)


@_soak
def _cmd_traffic(args, shards) -> int:
    from . import obs, soak
    from .dynamic import WORKLOAD_NAMES, make_scenario, make_workload, serve_queries
    from .rng import derive_seed, ensure_rng
    from .routing import route, route_served

    scenario = make_scenario(args.scenario, args.n, args.events, seed=args.seed)
    rows = []
    for kind in WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
        workload = make_workload(kind, scenario, queries_per_tick=args.queries, tick=args.tick,
                                 seed=args.seed)
        batches = []
        backend = "pool" if args.workers else "service"
        with soak.open_backend(backend, scenario.initial, args, shards=shards) as b:
            soak.run(b, workload.ticks,
                     serve=lambda tick: batches.append(serve_queries(b.endpoint, tick.queries)))
            served = sum(x.served for x in batches)
            delivered = sum(x.delivered for x in batches)
            t_serve = sum(x.seconds for x in batches)
            # Per-hop-BFS reference on the final state: same journeys, and the speedup.
            ok, bfs_qps, speedup = b.ok, "-", "-"
            if args.compare_bfs > 0:
                rng = ensure_rng(derive_seed(args.seed, "traffic-compare", kind))
                sample, extra = list(workload.ticks[-1].queries), list(workload.queries())
                while len(sample) < args.compare_bfs and extra:
                    sample.append(extra[int(rng.integers(len(extra)))])
                sample = sample[: args.compare_bfs]
                h, g, sw = b.service.advertised, b.service.graph, obs.Stopwatch()
                reference = [route(h, g, s, t) for s, t in sample]
                t_bfs = sw.elapsed()
                for (s, t), ref in zip(sample, reference):
                    res = route_served(b.endpoint, s, t)
                    ok = ok and res.path == ref.path and res.delivered == ref.delivered
                qps = len(sample) / t_bfs if t_bfs > 0 else float("inf")
                serve_qps = served / t_serve if t_serve > 0 else float("inf")
                bfs_qps, speedup = round(qps, 1), round(serve_qps / qps, 1) if qps else "-"
        rows.append([kind, len(workload.ticks), served, f"{100 * delivered / max(served, 1):.0f}%",
                     round(sum(x.hops_total for x in batches) / max(delivered, 1), 2),
                     round(served / t_serve, 0) if t_serve > 0 else "-",
                     round(b.seconds * 1e3 / max(workload.num_events, 1), 2), bfs_qps, speedup, ok])
    return _table(["workload", "ticks", "queries", "delivered", "mean hops", "serve q/s",
                   "repair ms/ev", "bfs q/s", "speedup", "matches route"], rows,
                  f"traffic — served route queries over {args.method} maintenance, "
                  f"{args.scenario} scenario, n={args.n}, {args.events} events, "
                  f"tick {args.tick}, seed {args.seed}"
                  + (f", {args.workers} workers" if args.workers else ""))


@_soak
def _cmd_chaos(args, shards) -> int:
    from . import faults, soak
    from .dynamic import apply_events, make_scenario, make_workload
    from .errors import NodeNotFound
    from .routing import route_served

    plan = faults.PLANS[args.plan]
    scenario = make_scenario(args.scenario, args.n, args.events, seed=args.seed)
    flash = tuple(args.flash_crowd_at) if args.flash_crowd_at else None
    workload = make_workload(args.workload, scenario, queries_per_tick=args.queries,
                             tick=args.tick, seed=args.seed, flash_crowd_at=flash)
    tally = dict(served=0, delivered=0, fallback=0, invalid=0)

    def fallback(u: int, v: int) -> "int | None":
        hop = b.endpoint.hop_fallback(u, v)
        tally["fallback"] += hop is not None
        return hop

    def serve(tick) -> None:
        valid = mirror.edge_set()
        apply_events(mirror, tick.events)
        valid |= mirror.edge_set()
        for s, t in tick.queries:
            tally["served"] += 1
            try:
                res = route_served(b.endpoint, s, t, hop_fallback=fallback)
            except NodeNotFound:  # a joiner the degraded directory never admitted
                continue
            tally["delivered"] += res.delivered
            hops = zip(res.path, res.path[1:])
            tally["invalid"] += sum((x, y) not in valid and (y, x) not in valid for x, y in hops)

    try:
        with soak.open_backend("pool", scenario.initial, args, plan=plan, shards=shards) as b:
            # Topology mirror for journey validation: every hop must be an edge
            # of a state the service passed through (before or after the tick).
            mirror = scenario.initial.copy()
            soak.run(b, workload.ticks, serve=serve)
            health = b.service.pool_health.as_dict()
    except soak.BuildFailed as exc:
        print("chaos: service construction failed under injected faults:")
        print("\n".join(f"  {line}" for line in exc.errors))
        return 1
    served = tally["served"]
    rc = _table(["ticks", "queries", "delivered", "fallback hops", "degraded ticks", "invalid hops",
            "reconverged"],
           [[len(workload.ticks), served, f"{100 * tally['delivered'] / max(served, 1):.0f}%",
             tally["fallback"], b.degraded_ticks, tally["invalid"], b.ok]],
           f"chaos — plan {plan.name!r} over {args.scenario} churn, {args.workload} traffic, "
           f"n={args.n}, {args.events} events, {args.workers} workers, seed {args.seed}"
           + (f", max_staleness={args.max_staleness}" if args.max_staleness is not None else ""),
           ok=b.ok and tally["invalid"] == 0 and served > 0)
    keys = ["respawns", "retries", "wedge_restarts", "quarantined", "torn_rows_repaired",
            "backoff_seconds"]
    _table(["respawns", "task retries", "wedge restarts", "quarantined", "torn rows repaired",
            "backoff s"], [[health[key] for key in keys]], "self-healing (pool supervision)")
    if b.errors:
        print("faults survived (healed by retry / full resync):")
        print("\n".join(f"  {line}" for line in b.errors))
    if not b.healthy:
        print("chaos: soak aborted — a degraded tick could not be healed")
    return rc


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
    "demo": _cmd_demo,
    "obs": _cmd_obs,
}


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
