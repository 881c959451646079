"""The AST-local reprolint rules (``RL002``–``RL007``, ``RL012``, ``RL013``).

Each rule encodes one protocol of the concurrency / reproducibility
layers; the docstring of each class states the invariant, why it matters,
and what a compliant site looks like.  Rules yield raw findings — the
engine handles ``# reprolint: disable=RLxxx`` suppressions.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .engine import FileContext, Finding, Rule, register

__all__ = [
    "RngDisciplineRule",
    "ShmLifecycleRule",
    "TuningConstantsRule",
    "WorkerTaskSafetyRule",
    "ExceptionHygieneRule",
    "TimingDisciplineRule",
    "FaultHookConfinementRule",
    "AsyncBlockingCallRule",
]


@register
class RngDisciplineRule(Rule):
    """RL002 — raw RNG construction is confined to :mod:`repro.rng`.

    Reproducibility of the experiment tables rests on every random stream
    being derived from an explicit seed through ``ensure_rng`` /
    ``derive_seed`` / ``spawn``.  A stray ``np.random.default_rng()`` or
    module-level ``random.shuffle`` silently forks an unseeded stream and
    the benchmark numbers stop being bit-reproducible.  Only
    ``src/repro/rng.py`` may touch the raw constructors.
    """

    code = "RL002"
    name = "rng-discipline"
    description = "raw np.random/random construction only inside repro/rng.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module("repro/rng.py"):
            return
        random_mods: "set[str]" = set()  # names bound to the `random` module
        numpy_mods: "set[str]" = set()  # names bound to `numpy`
        np_random_mods: "set[str]" = set()  # names bound to `numpy.random`
        direct: "set[str]" = set()  # names imported from random/numpy.random

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        random_mods.add(bound)
                    elif alias.name == "numpy":
                        numpy_mods.add(bound)
                    elif alias.name == "numpy.random":
                        if alias.asname is not None:
                            np_random_mods.add(alias.asname)
                        else:
                            numpy_mods.add("numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    direct.update(a.asname or a.name for a in node.names)
                elif node.module == "numpy.random":
                    direct.update(a.asname or a.name for a in node.names)
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            np_random_mods.add(alias.asname or alias.name)

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            hit: "str | None" = None
            if isinstance(func, ast.Name) and func.id in direct:
                hit = func.id
            elif isinstance(func, ast.Attribute):
                base = func.value
                if isinstance(base, ast.Name) and base.id in random_mods | np_random_mods:
                    hit = f"{base.id}.{func.attr}"
                elif (
                    isinstance(base, ast.Attribute)
                    and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in numpy_mods
                ):
                    hit = f"{base.value.id}.random.{func.attr}"
            if hit is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"raw RNG call {hit}(...) outside repro/rng.py — thread a seed "
                    "through repro.rng.ensure_rng/derive_seed/spawn instead",
                )


@register
class ShmLifecycleRule(Rule):
    """RL003 — shared-memory lifecycle stays inside the shm module.

    ``repro/parallel/shm.py`` owns the create/attach/close/unlink pairing
    (including the bpo-39959 resource-tracker workaround) and the ``_pin``
    protocol that keeps an attachment alive as long as numpy views into it
    exist.  A ``SharedMemory(...)`` constructed anywhere else bypasses that
    pairing and leaks segments (or unlinks ones still in use); poking
    ``_wrap_views``/``_pin`` from outside breaks the pinning contract.
    """

    code = "RL003"
    name = "shm-lifecycle"
    description = "SharedMemory construction and _pin/_wrap_views only in shm.py/csr.py"

    _SHM_MODULE = "repro/parallel/shm.py"
    _PIN_MODULES = ("repro/parallel/shm.py", "repro/graph/csr.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_shm = ctx.in_module(self._SHM_MODULE)
        in_pin = ctx.in_module(*self._PIN_MODULES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and not in_shm:
                func = node.func
                named_shm = (isinstance(func, ast.Name) and func.id == "SharedMemory") or (
                    isinstance(func, ast.Attribute) and func.attr == "SharedMemory"
                )
                if named_shm:
                    yield self.finding(
                        ctx,
                        node,
                        "direct SharedMemory(...) outside repro/parallel/shm.py — "
                        "use SharedCSR/SharedMatrix/attach_* so close/unlink pairing "
                        "and pinning are handled",
                    )
            if isinstance(node, ast.Attribute) and not in_pin:
                if node.attr in ("_wrap_views", "_pin"):
                    yield self.finding(
                        ctx,
                        node,
                        f"access to {node.attr} outside the shm/csr pinning "
                        "implementation — attachments must be pinned only via "
                        "attach_csr/attach_matrix",
                    )


@register
class TuningConstantsRule(Rule):
    """RL004 — dispatch thresholds live in :mod:`repro.tuning`, not inline.

    Backend/parallel/batch dispatch decisions (set-vs-CSR crossover, worker
    fan-out gate, batch chunk size) are hardware-dependent.  Inlining the
    threshold as a numeric literal in the dispatch module makes it
    untunable — no ``REPRO_*`` env var, no ``tuning.overridden`` in tests,
    no ``python -m repro tune`` recalibration.  The rule fires inside the
    dispatch modules on (a) module-level ALL-CAPS threshold constants and
    (b) comparisons of ``num_nodes``/``cpu_count`` against an int literal.
    """

    code = "RL004"
    name = "tuning-constants"
    description = "dispatch thresholds must come from repro.tuning, not literals"

    #: Modules that make backend/parallel/batch dispatch decisions.
    _DISPATCH_MODULES = (
        "repro/graph/traversal.py",
        "repro/graph/distances.py",
        "repro/routing/tables.py",
        "repro/parallel/pool.py",
        "repro/parallel/fanout.py",
    )

    _NAME_RE = re.compile(r"(CHUNK|MIN|MAX|BATCH|WORKERS|NODES|FRONTIER|THRESHOLD)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_module(*self._DISPATCH_MODULES):
            return
        # (a) module-level ALL-CAPS threshold constants.
        for stmt in ctx.tree.body:
            target: "ast.expr | None" = None
            value: "ast.expr | None" = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if (
                isinstance(target, ast.Name)
                and target.id.isupper()
                and self._NAME_RE.search(target.id)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)
                and value.value >= 2
            ):
                yield self.finding(
                    ctx,
                    stmt,
                    f"inlined dispatch constant {target.id} = {value.value} — move it "
                    "to a repro.tuning knob with a REPRO_* env var",
                )
        # (b) literal thresholds compared against num_nodes / cpu_count.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            literals = [
                s
                for s in sides
                if isinstance(s, ast.Constant)
                and isinstance(s.value, int)
                and not isinstance(s.value, bool)
                and s.value >= 2
            ]
            gated = any(
                not isinstance(s, ast.Constant)
                and re.search(r"num_nodes|cpu_count", ast.unparse(s))
                for s in sides
            )
            for lit in literals:
                if gated:
                    yield self.finding(
                        ctx,
                        lit,
                        f"dispatch gate compares num_nodes/cpu_count against inline "
                        f"literal {lit.value} — read the threshold from repro.tuning",
                    )


@register
class WorkerTaskSafetyRule(Rule):
    """RL005 — worker entry points must survive a ``spawn`` re-import.

    Under the ``spawn`` start method a worker process re-imports the module
    and looks the task function up *by qualified name*; lambdas, nested
    functions, and bound methods either fail to pickle or rebind to the
    wrong object.  Everything registered in ``TASKS`` and every
    ``Process(target=...)`` must therefore be a module-level function.
    """

    code = "RL005"
    name = "worker-task-safety"
    description = "TASKS entries and Process targets must be module-level functions"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_defs = {
            stmt.name
            for stmt in ctx.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        nested_defs = {
            node.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name not in module_defs
        }

        def vet(value: ast.expr, where: str) -> Iterator[Finding]:
            if isinstance(value, ast.Lambda):
                yield self.finding(
                    ctx, value, f"lambda used as {where} — not picklable under spawn"
                )
            elif isinstance(value, ast.Name):
                if value.id in nested_defs:
                    yield self.finding(
                        ctx,
                        value,
                        f"nested function {value.id!r} used as {where} — spawn "
                        "workers re-import by qualified name; hoist it to module "
                        "level",
                    )
            elif not isinstance(value, (ast.Constant, ast.Attribute)):
                # Attribute (e.g. module.func) resolves at import time and is
                # fine; anything structurally weirder is worth a look.
                yield self.finding(
                    ctx,
                    value,
                    f"{where} is not a plain module-level function reference",
                )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if (
                        isinstance(tgt, ast.Name)
                        and tgt.id == "TASKS"
                        and isinstance(node.value, ast.Dict)
                    ):
                        for v in node.value.values:
                            if v is not None:
                                yield from vet(v, "a TASKS entry")
                    elif (
                        isinstance(tgt, ast.Subscript)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "TASKS"
                    ):
                        yield from vet(node.value, "a TASKS entry")
            elif isinstance(node, ast.Call):
                func_name = ast.unparse(node.func)
                if func_name == "Process" or func_name.endswith(".Process"):
                    for kw in node.keywords:
                        if kw.arg == "target":
                            yield from vet(kw.value, "a Process target")


@register
class ExceptionHygieneRule(Rule):
    """RL006 — no silent broad ``except`` in the library and benchmarks.

    A swallowed exception in a worker loop turns a crash into a hang (the
    parent waits forever for a result); in a reader it turns a torn read
    into a wrong answer.  Broad handlers (bare ``except``, ``Exception``,
    ``BaseException``) are allowed only when they re-raise (including
    wrapping in ``WorkerError``/``TornReadError``) or inside ``__del__``
    (where exceptions during interpreter teardown must not escape).
    Anything else needs a narrowed exception type or a justified
    ``# reprolint: disable=RL006`` with a reason.
    """

    code = "RL006"
    name = "exception-hygiene"
    description = "no silent bare/broad except outside __del__ unless it re-raises"

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            func = ctx.enclosing_function(node)
            if func is not None and func.name == "__del__":
                continue  # GC safety net: nothing may escape a finalizer
            if any(isinstance(sub, ast.Raise) for stmt in node.body for sub in ast.walk(stmt)):
                continue  # re-raises (possibly wrapped in WorkerError & co.)
            label = "bare except" if node.type is None else f"except {ast.unparse(node.type)}"
            yield self.finding(
                ctx,
                node,
                f"{label} swallows errors silently — narrow the exception type, "
                "re-raise (optionally wrapped in WorkerError/TornReadError), or "
                "justify with an inline suppression",
            )

    def _is_broad(self, type_node: "ast.expr | None") -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        if isinstance(type_node, ast.Name):
            return type_node.id in self._BROAD
        if isinstance(type_node, ast.Attribute):
            return type_node.attr in self._BROAD
        return False


@register
class TimingDisciplineRule(Rule):
    """RL007 — bare ``perf_counter`` timing is confined to ``repro/obs/``.

    Scattered ``t0 = time.perf_counter()`` sites produce timings that die
    in local variables: they cannot be merged across worker processes,
    exported to a ``--metrics`` snapshot, or traced.  All wall-clock
    measurement goes through :mod:`repro.obs` — ``Stopwatch`` for elapsed
    regions, ``span(name)`` when the timing should reach the metrics tree
    and the tracer, ``time_best`` for calibration/benchmark minima.  Only
    the ``repro/obs/`` package itself (the primitives' home) may call
    ``time.perf_counter`` / ``perf_counter_ns`` directly; deadline
    arithmetic on ``time.monotonic`` is not timing and stays allowed.
    """

    code = "RL007"
    name = "timing-discipline"
    description = (
        "bare time.perf_counter() outside repro/obs/ "
        "(use obs.Stopwatch / obs.span / obs.time_best)"
    )

    _CLOCKS = ("perf_counter", "perf_counter_ns")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if "/repro/obs/" in f"/{ctx.posix_path}":
            return  # the primitives' home — the one place allowed to call it
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                called = func.attr
            elif isinstance(func, ast.Name):
                called = func.id
            else:
                continue
            if called in self._CLOCKS:
                yield self.finding(
                    ctx,
                    node,
                    f"bare {called}() timing outside repro/obs — use "
                    "obs.Stopwatch/span (metrics-tree timing) or "
                    "obs.time_best (benchmark minima)",
                )


@register
class FaultHookConfinementRule(Rule):
    """RL012 — fault-hook installation is confined to ``repro/faults/``.

    ``faults.install(plan)`` swaps the process-global hook state that
    every worker task start, result send, row write, and shm call routes
    through.  An ad-hoc install buried in library code would arm faults
    outside the documented protocol (``REPRO_FAULTS`` gate + plan spec),
    silently survive into child processes, and make a "quiet" run lie.
    Everyone outside the fault plane arms through the environment —
    ``arm_env`` + ``maybe_install_from_env`` (which respects an existing
    plan) — and disarms with ``uninstall``; those entry points, plus the
    read-only hooks (``on_*``, ``worker_reset``, ``fired``,
    ``current_plan``), stay allowed everywhere.
    """

    code = "RL012"
    name = "fault-hook-confinement"
    description = (
        "faults.install(...) or faults.active mutation outside repro/faults/ "
        "(arm via arm_env + maybe_install_from_env)"
    )

    _PACKAGE = "/repro/faults/"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if self._PACKAGE in f"/{ctx.posix_path}":
            return  # the fault plane's home owns its own state
        aliases = {"faults"}  # conventional name; refined by the imports below
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "repro" or (node.module or "").endswith(".faults"):
                    for alias in node.names:
                        if node.module == "repro" and alias.name != "faults":
                            continue
                        if node.module != "repro" and alias.name == "install":
                            yield self.finding(
                                ctx,
                                node,
                                "importing faults.install outside repro/faults/ — "
                                "arm through arm_env + maybe_install_from_env",
                            )
                            continue
                        if node.module != "repro":
                            continue
                        aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.faults":
                        aliases.add(alias.asname or "repro.faults")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "install"
                    and self._names_faults(func.value, aliases)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "faults.install(...) outside repro/faults/ — arm through "
                        "the environment (arm_env + maybe_install_from_env) so "
                        "fork and spawn workers agree on the plan",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "active"
                        and self._names_faults(target.value, aliases)
                    ):
                        yield self.finding(
                            ctx,
                            target,
                            "assignment to faults.active outside repro/faults/ — "
                            "hook state changes only through install/uninstall",
                        )

    @staticmethod
    def _names_faults(value: ast.AST, aliases: "set[str]") -> bool:
        if isinstance(value, ast.Name):
            return value.id in aliases
        if isinstance(value, ast.Attribute):  # repro.faults.install(...)
            parts = []
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name):
                parts.append(value.id)
                return ".".join(reversed(parts)) in aliases
        return False


@register
class AsyncBlockingCallRule(Rule):
    """RL013 — coroutines in ``repro/distributed/`` must not block the loop.

    The actor tier multiplexes every shard actor, the stream router, and
    the inbox pumps on *one* event loop.  A single blocking call inside a
    coroutine — ``time.sleep``, a sync ``queue.Queue.get``/``put``, a raw
    ``socket.recv`` — stalls all of them at once: HELLO beacons stop,
    neighbor timeouts fire spuriously, and the quiescence detector reads
    a frozen transport as converged.  Inside ``async def`` under
    ``repro/distributed/`` the rule therefore forbids:

    * ``time.sleep(...)`` (module-alias and ``from time import sleep``
      aware) — use ``await asyncio.sleep(...)``;
    * non-awaited ``.get(...)``/``.put(...)`` on a queue-named receiver
      (``queue`` substring, bare ``q``, or a ``*_q`` suffix) — use
      ``asyncio.Queue`` and await it, or the ``_nowait`` variants
      (``dict.get`` on ordinary names is untouched);
    * non-awaited ``.recv``/``.recvfrom``/``.recv_into`` — use asyncio
      streams (``StreamReader``/``StreamWriter``).

    Nested ``def`` bodies are exempt (they run off-loop, e.g. as executor
    targets), as is everything outside the package: the rest of the
    codebase is synchronous by design and RL013 has nothing to say there.
    """

    code = "RL013"
    name = "async-blocking-call"
    description = (
        "blocking call (time.sleep / sync queue get/put / socket recv) "
        "inside async def under repro/distributed/"
    )

    _PACKAGE = "/repro/distributed/"
    _QUEUE_OPS = frozenset({"get", "put"})
    _SOCKET_OPS = frozenset({"recv", "recvfrom", "recv_into"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if self._PACKAGE not in f"/{ctx.posix_path}":
            return  # only the actor tier runs an event loop worth guarding
        time_aliases = {"time"}
        sleep_names: "set[str]" = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        sleep_names.add(alias.asname or "sleep")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(ctx, node, time_aliases, sleep_names)

    def _check_coroutine(
        self,
        ctx: FileContext,
        coro: ast.AsyncFunctionDef,
        time_aliases: "set[str]",
        sleep_names: "set[str]",
    ) -> Iterator[Finding]:
        nodes = list(self._own_nodes(coro))
        awaited = {id(n.value) for n in nodes if isinstance(n, ast.Await)}
        for node in nodes:
            if not isinstance(node, ast.Call) or id(node) in awaited:
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in sleep_names:
                yield self.finding(
                    ctx,
                    node,
                    f"time.sleep() blocks the event loop inside async "
                    f"{coro.name}() — await asyncio.sleep() instead",
                )
            elif not isinstance(func, ast.Attribute):
                continue
            elif (
                func.attr == "sleep"
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"time.sleep() blocks the event loop inside async "
                    f"{coro.name}() — await asyncio.sleep() instead",
                )
            elif func.attr in self._QUEUE_OPS and self._queueish(func.value):
                yield self.finding(
                    ctx,
                    node,
                    f"sync queue .{func.attr}() inside async {coro.name}() — "
                    "use asyncio.Queue and await it (or the _nowait variant)",
                )
            elif func.attr in self._SOCKET_OPS:
                yield self.finding(
                    ctx,
                    node,
                    f"blocking socket .{func.attr}() inside async {coro.name}() "
                    "— use asyncio streams (StreamReader/StreamWriter)",
                )

    @staticmethod
    def _own_nodes(coro: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Nodes in *coro*'s own body, skipping nested function defs."""
        stack: "list[ast.AST]" = list(coro.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _queueish(value: ast.AST) -> bool:
        """Receiver names that mean a queue, so ``dict.get`` stays clean."""
        if isinstance(value, ast.Name):
            name = value.id
        elif isinstance(value, ast.Attribute):
            name = value.attr
        else:
            return False
        low = name.lower()
        return "queue" in low or low == "q" or low.endswith("_q")
