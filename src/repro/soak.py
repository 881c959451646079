"""One soak loop and one verify step behind the CLI's soak commands.

The paper's claims are about a *maintained* state: H must stay a
remote-spanner of the live G, and the greedy next hops read off H must
deliver.  ``churn``, ``serve``, ``traffic``, ``chaos`` and ``distserve``
drive that state through a churn stream and check it.  Each is a flag set
and a row renderer over :func:`open_backend` (four backends, opened as
context managers so pools and transports close on every path),
:func:`run` (apply, verify on the ``check_every`` cadence, serve; the
final state is always verified) and :func:`mismatches` (the verify step).
Under a fault plan, :func:`open_backend` and :func:`run` apply the
``chaos`` policy: arm through the environment, retry the build with a
re-seeded plan, serve a failed tick degraded, then heal it.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

import numpy as np

from . import faults, obs, tuning
from .dynamic import SCENARIO_NAMES, RoutingService, SpannerMaintainer, make_scenario
from .dynamic.traffic import TrafficTick
from .graph import distance_matrix
from .parallel import RouteReader, ShardedRoutingService, WorkerError
from .routing import routing_table

__all__ = [
    "Backend", "BuildFailed", "event_ticks", "mismatches", "open_backend", "run", "scenarios"
]

#: Attempts at building the pool, and at healing a degraded tick, under a plan.
RETRIES = 4


class BuildFailed(RuntimeError):
    """Every attempt at building the pool under a fault plan failed."""

    def __init__(self, errors: "list[str]") -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class Backend:
    """An open backend and what a soak over it saw."""

    maintainer: SpannerMaintainer
    service: "RoutingService | None" = None
    system: object = None  # the ActorSystem, for the actors backend
    endpoint: object = None  # what the tick's queries are served from
    plan: "faults.FaultPlan | None" = None
    reports: list = field(default_factory=list)  # one report per applied tick
    seconds: float = 0.0  # time spent applying ticks, verification excluded
    problems: "list[str]" = field(default_factory=list)  # what verification found
    errors: "list[str]" = field(default_factory=list)  # faults survived
    degraded_ticks: int = 0
    healthy: bool = True  # False once a degraded tick could not be healed

    @property
    def ok(self) -> bool:
        return self.healthy and not self.problems

    def apply(self, events) -> None:
        """Apply one tick: one ``apply_batch`` on the layer this backend drives."""
        if self.system is not None:
            self.system.apply_tick(events)
        elif self.service is not None:
            self.reports += self.service.apply_stream(events, tick=len(events))
        else:
            self.reports.append(self.maintainer.apply_batch(events))


def scenarios(args) -> "Iterator[tuple[str, object]]":
    """``(name, scenario)`` for ``--scenario``; every model for ``all``."""
    for name in SCENARIO_NAMES if args.scenario == "all" else (args.scenario,):
        yield name, make_scenario(name, args.n, args.events, seed=args.seed)


def event_ticks(events: tuple, size: int) -> "list[TrafficTick]":
    """Consecutive *size*-event ticks of *events*, no queries."""
    return [TrafficTick(events[lo : lo + size], ()) for lo in range(0, len(events), size)]


def _arm(plan: "faults.FaultPlan") -> None:
    # Through the environment: fork workers inherit the installed plan, and
    # spawn workers re-read the variables when they import repro.parallel.
    faults.arm_env(plan)
    faults.maybe_install_from_env()


@contextmanager
def _armed(plan: "faults.FaultPlan") -> Iterator[None]:
    saved = os.environ.get(faults.ENV_PLAN)
    try:
        _arm(plan)
        yield
    finally:
        faults.uninstall()
        if saved is None:
            os.environ.pop(faults.ENV_PLAN, None)
        else:
            os.environ[faults.ENV_PLAN] = saved


def _build_pool(build, plan, errors: "list[str]") -> ShardedRoutingService:
    for attempt in range(RETRIES):
        if attempt:
            # Fault streams are seeded from the *plan* seed per (worker,
            # incarnation), so a retry under the same plan would replay the
            # identical crash pattern: re-arm with an offset seed to re-roll.
            faults.uninstall()
            _arm(faults.FaultPlan(plan.name, plan.seed + attempt, plan.rules))
        try:
            return build()
        except (WorkerError, OSError) as exc:
            if plan is None:
                raise
            errors.append(f"build attempt {attempt + 1}: {type(exc).__name__}: {exc}")
            obs.inc("chaos.build_retries")
    raise BuildFailed(errors)


@contextmanager
def open_backend(kind: str, g, args, *, plan=None, shards=None) -> Iterator[Backend]:
    """Open a backend on *g*, its construction flags taken from *args*.

    *kind* is ``maintainer`` (bare :class:`SpannerMaintainer`), ``service``
    (:class:`RoutingService`), ``pool`` (:class:`ShardedRoutingService`
    queried through a :class:`RouteReader`) or ``actors`` (``ActorSystem``).
    For the pool, *plan* is armed for the backend's lifetime, and the
    workers' metric snapshots are merged into *shards* before it closes.
    """
    ctor = dict(k=args.k, epsilon=args.epsilon, rebuild_fraction=args.rebuild_fraction)
    with ExitStack() as stack:
        if kind == "maintainer":
            b = Backend(SpannerMaintainer(g, args.method, **ctor))
        elif kind == "service":
            s = RoutingService(g, args.method, **ctor)
            b = Backend(s.maintainer, service=s, endpoint=s)
        elif kind == "actors":
            from .distributed import ActorSystem, make_transport

            wire = make_transport(args.transport)
            system = ActorSystem(g.copy(), args.method, shards=args.shards, transport=wire, **ctor)
            stack.enter_context(system)
            s = system.service
            b = Backend(s.maintainer, service=s, system=system, endpoint=system)
        else:
            errors: "list[str]" = []
            if plan is not None:
                stack.enter_context(_armed(plan))
            chaos = dict(seed=args.seed, task_timeout=args.task_timeout) if plan is not None else {}
            build = partial(ShardedRoutingService, g, args.method, workers=args.workers,
                            **chaos, **ctor)
            s = stack.enter_context(_build_pool(build, plan, errors))
            staleness = getattr(args, "max_staleness", None)
            reader = stack.enter_context(RouteReader(s.reader_handle(), max_staleness=staleness))
            b = Backend(s.maintainer, service=s, endpoint=reader, plan=plan, errors=errors)
        yield b
        if kind == "pool" and shards is not None:
            for wid, snap in s.metrics()["shards"].items():
                have = shards.get(wid)
                shards[wid] = snap if have is None else obs.merge_snapshots(have, snap)


def mismatches(b: Backend) -> "list[str]":
    """The verify step: how *b*'s state differs from a from-scratch one.

    Empty iff H equals a from-scratch build on the live G, every table row
    equals ``routing_table(H, G, u)``, D equals a BFS over H and, for
    actors, ``ActorSystem.mismatches()`` is empty.  Records no metrics.
    """
    out: "list[str]" = []
    with tuning.overridden(obs=0):
        m = b.maintainer
        if m.spanner.graph != m.rebuilt_from_scratch().graph:
            out.append("H differs from a from-scratch build")
        s = b.service
        if s is not None:
            h, g = s.advertised, s.graph
            out += [f"table row {u} differs from routing_table" for u in g.nodes()
                    if s.table(u) != routing_table(h, g, u)]
            dist, fresh = np.asarray(s._dist), distance_matrix(h)
            same = dist.shape == fresh.shape
            moved = (dist != fresh).any(axis=1) if same else np.ones(len(fresh), bool)
            out += [f"distance row {u} differs from a BFS over H" for u in np.flatnonzero(moved)]
        if b.system is not None:
            out += b.system.mismatches()
    return out


def _heal(b: Backend) -> bool:
    # Under sustained fault pressure a resync can itself lose workers (each
    # attempt re-rolls the injected dice): retry before giving up.
    for _ in range(RETRIES):
        try:
            b.service.refresh()
            return True
        except (WorkerError, OSError) as exc:
            b.errors.append(f"heal: {type(exc).__name__}: {exc}")
            obs.inc("chaos.heal_retries")
    return False


def run(b: Backend, ticks, *, check_every: int = 0, serve=None) -> None:
    """Drive *b* through *ticks*: apply, verify on the cadence, serve.

    A tick is verified when the events applied so far cross a multiple of
    *check_every* (ticks need not divide it); the final state is verified
    unless the last tick was.  ``serve(tick)`` serves the tick's queries.
    Under a fault plan, a tick whose repair fails is served degraded (off
    whatever committed rows survived, stale refusals and per-hop
    fallbacks included), then healed.
    """
    applied, verified = 0, False
    for tick in ticks:
        degraded = False
        if tick.events:
            sw = obs.Stopwatch()
            try:
                b.apply(tick.events)
            except (WorkerError, OSError) as exc:
                if b.plan is None:
                    raise
                degraded = True
                b.degraded_ticks += 1
                b.errors.append(f"repair: {type(exc).__name__}: {exc}")
                obs.inc("chaos.degraded_ticks")
            b.seconds += sw.elapsed()
            prev, applied = applied, applied + len(tick.events)
            due = check_every > 0 and prev // check_every < applied // check_every
            verified = due and not degraded
            if verified:
                b.problems += mismatches(b)
        if serve is not None:
            serve(tick)
        if degraded and not _heal(b):
            b.healthy = False
            return
    if not verified:
        b.problems += mismatches(b)
    for line in b.problems[:5]:
        print(f"  divergence: {line}")
