"""Deterministic fault-injection plane — chaos testing for the parallel stack.

The supervision and degradation layers of :mod:`repro.parallel` exist to
survive failures that unit tests cannot produce on demand: a worker
process dying mid-task (or worse, mid-seqlock-write), a shared-memory
allocation failing, a worker wedging past the task timeout, a result
message lost on the queue.  This module makes every one of those events
*injectable, seeded and replayable*:

* :class:`FaultRule` — one fault site plus its firing policy (per
  -opportunity probability, optional fire-count cap, skip-first window,
  duration for wedge/delay sites);
* :class:`FaultPlan` — a named, seeded set of rules with a compact
  string ``spec()`` / :meth:`FaultPlan.parse` round-trip, so a plan can
  ride an environment variable into ``spawn`` workers;
* **hooks** — :func:`on_task_start`, :func:`on_result`,
  :func:`on_shm_create`, :func:`on_shm_attach`,
  :func:`on_begin_row_write`, compiled into :mod:`repro.parallel` behind
  the module-level ``active`` flag (one attribute load when disabled —
  the hooks-off overhead bar in ``BENCH_faults.json`` holds the plane to
  ≤ 2%).

Installation is arranged so a plan survives both ``fork`` and
``spawn``: arm via environment (``REPRO_FAULT_PLAN=<spec>``; unset or
empty means off) and :func:`maybe_install_from_env` installs
at :mod:`repro.parallel` import time, which ``spawn`` workers re-run;
``fork`` workers inherit the installed state directly and re-seed their
private stream in :func:`worker_reset`.

Determinism: every firing decision comes from a
:func:`repro.rng.derive_seed`-keyed generator — ``(plan seed, "faults",
process role)`` — so a chaos run replays bit-identically under the same
plan, worker count and start method.  Crash-flavoured faults
(``task.crash``, ``write.crash``, ``worker.wedge``) only ever fire
inside worker processes (the parent hosts the supervisor that must
survive them); shm faults may fire anywhere, they raise a recoverable
``OSError``.

Fault sites
-----------

=================  ========================================================
``task.crash``     ``os._exit`` at task start (worker dies mid-task)
``write.crash``    ``os._exit`` right after a write bracket's seqlock
                   versions go odd (worker dies mid-write; readers must
                   spin, the supervisor must repair the torn rows)
``worker.wedge``   sleep past ``task_timeout`` at task start
``shm.alloc``      simulated ``OSError`` from block creation
``shm.attach``     simulated ``OSError`` from block attachment
``result.drop``    a task's result message is silently discarded
``result.delay``   a task's result message is delayed by ``~duration``
``lsa.drop``       a link-state update is lost on a distributed transport
``lsa.delay``      a link-state update is withheld for ``~duration`` rounds
=================  ========================================================

The two ``lsa.*`` sites target the distributed actor tier's transports
(:mod:`repro.distributed.transport`), not the process pool: they fire in
whichever process hosts the transport (``_in_worker`` does not gate
them), and only against topology-bearing kinds (``lsa``/``full``) — the
anti-entropy control traffic must survive or a lossy plan could never
converge.

Scenario-level faults — regional outage, partition + heal, flash-crowd
hotspot jumps — are graph *workloads*, not process faults, and live in
:mod:`repro.dynamic.events` / :mod:`repro.dynamic.traffic`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from ..errors import ParameterError
from ..rng import derive_seed, ensure_rng

__all__ = [
    "FaultPlan",
    "FaultRule",
    "PLANS",
    "SITES",
    "active",
    "arm_env",
    "current_plan",
    "enabled_in_env",
    "fired",
    "install",
    "maybe_install_from_env",
    "on_begin_row_write",
    "on_result",
    "on_shm_attach",
    "on_shm_create",
    "on_task_start",
    "on_wire_send",
    "uninstall",
    "worker_reset",
]

#: Exit codes crash faults die with — distinct so the supervisor's
#: exitcode report (and the tests) can tell the sites apart.
EXIT_TASK_CRASH = 43
EXIT_WRITE_CRASH = 44

#: Every fault site a rule may name.
SITES = (
    "task.crash",
    "write.crash",
    "worker.wedge",
    "shm.alloc",
    "shm.attach",
    "result.drop",
    "result.delay",
    "lsa.drop",
    "lsa.delay",
)

#: Wire kinds the ``lsa.*`` sites may target: topology floods only.
#: HELLO beacons and resend requests are the repair channel — a plan
#: that could drop them would make convergence-under-loss unprovable.
_LSA_KINDS = frozenset({"lsa", "full"})

_CRASH_SITES = frozenset({"task.crash", "write.crash", "worker.wedge"})


@dataclass(frozen=True)
class FaultRule:
    """One fault site plus its firing policy.

    ``p`` is the per-opportunity firing probability; ``count`` caps the
    total fires (-1 = unlimited); ``after`` skips the first *after*
    opportunities at the site; ``duration`` is the sleep for
    ``worker.wedge`` / ``result.delay`` (ignored elsewhere).
    ``fresh_only`` restricts the rule to a worker's first incarnation:
    a respawned worker (the supervisor passes its respawn count back in)
    is exempt, which is how a plan says "crash exactly once, then heal"
    — without it a ``p=1`` crash rule would fire again in every respawn
    and (correctly) end in poison quarantine.
    """

    site: str
    p: float = 1.0
    count: int = -1
    after: int = 0
    duration: float = 0.0
    fresh_only: bool = False

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ParameterError(f"unknown fault site {self.site!r} (want one of {SITES})")
        if not (0.0 <= self.p <= 1.0):
            raise ParameterError(f"fault probability must be in [0, 1], got {self.p!r}")
        if self.count < -1 or self.after < 0 or self.duration < 0:
            raise ParameterError(
                f"bad rule bounds for {self.site}: count={self.count} "
                f"after={self.after} duration={self.duration}"
            )

    def spec(self) -> str:
        out = f"{self.site}@{self.p:g}"
        if self.count != -1:
            out += f"x{self.count}"
        if self.after:
            out += f"+{self.after}"
        if self.duration:
            out += f"~{self.duration:g}"
        if self.fresh_only:
            out += "!"
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of :class:`FaultRule`\\ s.

    The ``spec()`` string (``name:seed:site@p[xCOUNT][+AFTER][~DUR],...``)
    round-trips through :meth:`parse`, which is how a plan crosses the
    ``REPRO_FAULT_PLAN`` environment variable into ``spawn`` workers.
    """

    name: str
    seed: int
    rules: "tuple[FaultRule, ...]"

    def spec(self) -> str:
        return f"{self.name}:{self.seed}:" + ",".join(r.spec() for r in self.rules)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        parts = spec.split(":", 2)
        if len(parts) != 3 or not parts[0]:
            raise ParameterError(
                f"fault plan spec must be 'name:seed:rule,...', got {spec!r}"
            )
        name, seed_s, rules_s = parts
        try:
            seed = int(seed_s)
        except ValueError:
            raise ParameterError(f"fault plan seed must be an int, got {seed_s!r}") from None
        rules = []
        for chunk in filter(None, rules_s.split(",")):
            rules.append(_parse_rule(chunk))
        return cls(name, seed, tuple(rules))


def _parse_rule(chunk: str) -> FaultRule:
    site, sep, policy = chunk.partition("@")
    if not sep:
        return FaultRule(site)
    fresh_only = policy.endswith("!")
    if fresh_only:
        policy = policy[:-1]
    duration = 0.0
    if "~" in policy:
        policy, dur_s = policy.split("~", 1)
        duration = float(dur_s)
    after = 0
    if "+" in policy:
        policy, after_s = policy.split("+", 1)
        after = int(after_s)
    count = -1
    if "x" in policy:
        policy, count_s = policy.split("x", 1)
        count = int(count_s)
    try:
        p = float(policy) if policy else 1.0
    except ValueError:
        raise ParameterError(f"bad fault rule {chunk!r}") from None
    return FaultRule(
        site, p=p, count=count, after=after, duration=duration, fresh_only=fresh_only
    )


#: Canned plans for the chaos CLI, the property suite and the benchmark.
#: ``quiet`` is armed-but-silent (every probability zero) — the plan the
#: hooks-on-but-idle overhead measurement runs under.
PLANS = {
    "quiet": FaultPlan("quiet", 0, (FaultRule("task.crash", p=0.0),)),
    "crashy": FaultPlan("crashy", 9, (FaultRule("task.crash", p=0.05),)),
    # write.crash fires per *row write*, and a full refresh writes every
    # row — keep the rate low enough that a from-scratch build has a real
    # chance per attempt, or the poison quarantine dominates the soak.
    "torn-writer": FaultPlan("torn-writer", 9, (FaultRule("write.crash", p=0.008),)),
    "wedge": FaultPlan("wedge", 9, (FaultRule("worker.wedge", p=0.02, count=2, duration=30.0),)),
    "lossy-queue": FaultPlan(
        "lossy-queue",
        9,
        (FaultRule("result.drop", p=0.03), FaultRule("result.delay", p=0.05, duration=0.02)),
    ),
    "flaky-shm": FaultPlan(
        "flaky-shm", 9, (FaultRule("shm.alloc", p=0.2, count=1), FaultRule("shm.attach", p=0.2, count=1))
    ),
    "mayhem": FaultPlan(
        "mayhem",
        9,
        (
            FaultRule("task.crash", p=0.03),
            FaultRule("write.crash", p=0.008),
            FaultRule("result.delay", p=0.03, duration=0.01),
        ),
    ),
    # Wire plans are count-capped: the actor tier must *provably*
    # converge after the loss budget is spent (anti-entropy retransmits
    # also traverse the faulted transport).
    "lsa-lossy": FaultPlan("lsa-lossy", 9, (FaultRule("lsa.drop", p=0.5, count=4),)),
    "lsa-slow": FaultPlan(
        "lsa-slow", 9, (FaultRule("lsa.delay", p=0.4, count=6, duration=2.0),)
    ),
}


#: Cheap guard the hooks in repro.parallel check before paying anything.
active: bool = False

_plan: "FaultPlan | None" = None
_rng = None
_in_worker: bool = False
_incarnation: int = 0
#: Worker-side flush run right before an injected crash exits the process.
_before_exit: "Callable[[], None] | None" = None
#: site -> opportunities seen / fires so far (per process).
_seen: "dict[str, int]" = {}
_fires: "dict[str, int]" = {}

#: Environment protocol: the plan (a :data:`PLANS` name or a spec) arms
#: the plane; unset or empty means off.  This module is its only reader.
ENV_PLAN = "REPRO_FAULT_PLAN"


def enabled_in_env(environ: "dict[str, str] | None" = None) -> "FaultPlan | None":
    """The plan the environment asks for, or ``None`` (off)."""
    env = os.environ if environ is None else environ
    spec = env.get(ENV_PLAN, "").strip()
    if not spec:
        return None
    if spec in PLANS:
        return PLANS[spec]
    return FaultPlan.parse(spec)


def install(plan: FaultPlan) -> None:
    """Arm *plan* in this process (the parent role; workers re-seed via
    :func:`worker_reset`)."""
    global active, _plan, _rng, _in_worker, _incarnation
    _plan = plan
    _rng = ensure_rng(derive_seed(plan.seed, "faults", "parent"))
    _in_worker = False
    _incarnation = 0
    _seen.clear()
    _fires.clear()
    active = True


def uninstall() -> None:
    """Disarm and drop all per-process state."""
    global active, _plan, _rng, _in_worker, _incarnation, _before_exit
    active = False
    _plan = None
    _rng = None
    _in_worker = False
    _incarnation = 0
    _before_exit = None
    _seen.clear()
    _fires.clear()


def maybe_install_from_env() -> None:
    """Install iff the environment says so (import-time hook).

    Called when :mod:`repro.parallel` is imported, which makes ``spawn``
    workers self-arming: the child re-imports the package before it
    touches any shared state.
    """
    plan = enabled_in_env()
    if plan is not None and not active:
        install(plan)


def arm_env(plan: FaultPlan, environ: "dict[str, str] | None" = None) -> None:
    """Write the plan's spec into *environ* (default ``os.environ``).

    The sanctioned way for drivers (the chaos CLI, the benchmark) to arm
    a plan: the variables are inherited by ``fork`` *and* re-read by
    ``spawn`` workers, and a following :func:`maybe_install_from_env`
    arms the calling process itself.
    """
    env = os.environ if environ is None else environ
    env[ENV_PLAN] = plan.spec()


def current_plan() -> "FaultPlan | None":
    return _plan


def worker_reset(
    worker_id: int,
    incarnation: int = 0,
    before_exit: "Callable[[], None] | None" = None,
) -> None:
    """Re-seed for a worker process (fork inherits the parent's stream;
    both start methods must give worker *i* its own deterministic one).

    *incarnation* is the supervisor's respawn count for this worker id —
    part of the seed (a respawned worker replays a *different* stream,
    not its predecessor's fate) and the gate for ``fresh_only`` rules.
    *before_exit* runs right before an injected crash calls ``os._exit``:
    the pool passes a flush of its result queue, so the results of tasks
    that finished before the crash still reach the supervisor.
    """
    global _rng, _in_worker, _incarnation, _before_exit
    if not active:
        return
    assert _plan is not None
    _rng = ensure_rng(derive_seed(_plan.seed, "faults", "worker", worker_id, incarnation))
    _in_worker = True
    _incarnation = incarnation
    _before_exit = before_exit
    _seen.clear()
    _fires.clear()


def fired() -> "dict[str, int]":
    """Fires per site in this process so far (test/report helper)."""
    return dict(_fires)


def _fire(site: str) -> "FaultRule | None":
    """Does a rule for *site* trigger at this opportunity?"""
    if _plan is None:
        return None
    hit = None
    for rule in _plan.rules:
        if rule.site != site:
            continue
        if rule.fresh_only and _incarnation > 0:
            return None
        seen = _seen.get(site, 0)
        _seen[site] = seen + 1
        if seen < rule.after:
            return None
        if rule.count != -1 and _fires.get(site, 0) >= rule.count:
            return None
        if rule.p >= 1.0 or (rule.p > 0.0 and float(_rng.random()) < rule.p):
            hit = rule
        break  # first matching rule owns the site
    if hit is not None:
        _fires[site] = _fires.get(site, 0) + 1
    return hit


# --------------------------------------------------------------------- #
# hooks (called from repro.parallel behind `if _faults.active:`)
# --------------------------------------------------------------------- #


def _crash(code: int) -> None:
    """Die like a killed worker, after handing over finished results."""
    if _before_exit is not None:
        _before_exit()
    os._exit(code)


def on_task_start(fn: str) -> None:
    """Worker-side, before a task executes: crash or wedge sites.

    Observability tasks are exempt — killing a worker inside the metric
    snapshot protocol would test the obs plumbing, not the supervisor.
    """
    if not _in_worker or fn.startswith("obs_"):
        return
    if _fire("task.crash") is not None:
        _crash(EXIT_TASK_CRASH)
    rule = _fire("worker.wedge")
    if rule is not None:
        import time

        time.sleep(rule.duration if rule.duration > 0 else 3600.0)


def on_result(fn: str) -> "tuple[str, float]":
    """Worker-side, before a task result is queued.

    Returns ``("send", 0)``, ``("drop", 0)`` or ``("delay", seconds)``.
    """
    if not _in_worker or fn.startswith("obs_"):
        return ("send", 0.0)
    if _fire("result.drop") is not None:
        return ("drop", 0.0)
    rule = _fire("result.delay")
    if rule is not None:
        return ("delay", rule.duration if rule.duration > 0 else 0.05)
    return ("send", 0.0)


def on_wire_send(kind: str) -> "tuple[str, float]":
    """Transport-side, before a frame leaves a distributed endpoint.

    *kind* is the codec wire tag; only topology floods (``lsa``/``full``)
    are eligible — control traffic always goes through.  Returns
    ``("send", 0)``, ``("drop", 0)`` or ``("delay", rounds)`` where the
    delay is measured in transport rounds (virtual time on the loopback
    transport), not seconds.  Fires in whichever process hosts the
    transport: the actor tier is in-process, so ``_in_worker`` does not
    gate this site.
    """
    if kind not in _LSA_KINDS:
        return ("send", 0.0)
    if _fire("lsa.drop") is not None:
        return ("drop", 0.0)
    rule = _fire("lsa.delay")
    if rule is not None:
        return ("delay", rule.duration if rule.duration > 0 else 1.0)
    return ("send", 0.0)


def on_shm_create(name: str) -> None:
    """Any process, at shared-memory block creation."""
    if _fire("shm.alloc") is not None:
        raise OSError(f"injected shm allocation failure for {name}")


def on_shm_attach(name: str) -> None:
    """Any process, at shared-memory block attachment."""
    if _fire("shm.attach") is not None:
        raise OSError(f"injected shm attach failure for {name}")


def on_begin_row_write(rows) -> None:
    """Worker-side, once per write bracket, *after* the versions of its
    *rows* went odd: the torn-write crash.

    Firing here leaves every row of the bracket mid-write forever as far
    as readers can tell — exactly the state
    :meth:`SharedMatrix.repair_torn_rows
    <repro.parallel.shm.SharedMatrix.repair_torn_rows>` exists to mend.
    """
    if not _in_worker:
        return
    if _fire("write.crash") is not None:
        _crash(EXIT_WRITE_CRASH)
