"""Per-function summaries: the facts the interprocedural rules combine.

A :class:`FunctionSummary` is a flow-insensitive digest of one function
body — which calls it makes (resolved through the call graph), which of
them can block, which loops are seqlock retry loops, which RNG streams
are rooted in a literal.  The deep rules never re-walk a callee body at
a call site; they consult the callee's summary, and :class:`Summaries`
closes the one transitive fact (can this function block?) with a
fixpoint worklist over the call graph.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from ..lint.engine import FileContext
from .callgraph import FunctionInfo, Project

__all__ = [
    "BlockingCall",
    "CallSite",
    "FunctionSummary",
    "RngCall",
    "Summaries",
]

#: Receivers whose ``.get(...)`` is a blocking queue read, not a dict
#: lookup: bare/suffixed ``q``/``qs`` names and anything called ``queue``.
_QUEUEISH_RE = re.compile(r"(^|\.|_)(task_|result_|out_|work_)?qs?$|queue", re.IGNORECASE)

#: repro.rng entry points a literal seed must never be fed from library code.
_RNG_FUNCS = frozenset({"ensure_rng", "derive_seed", "spawn"})


@dataclass
class CallSite:
    """One call expression, with its resolution and protocol context."""

    call: ast.Call
    callees: "list[FunctionInfo]"
    in_retry_loop: bool


@dataclass
class BlockingCall:
    """A call that can park the calling process (sleep, queue get, ...)."""

    node: ast.Call
    label: str


@dataclass
class RngCall:
    """A repro.rng construction whose seed argument is a literal."""

    node: ast.Call
    func: str
    seed: object  # the literal value (int or None)


@dataclass
class FunctionSummary:
    """Everything the deep rules need to know about one function."""

    fi: FunctionInfo
    params: "list[str]"
    calls: "list[CallSite]" = field(default_factory=list)
    retry_loops: "list[ast.stmt]" = field(default_factory=list)
    blocking: "list[BlockingCall]" = field(default_factory=list)
    rng_calls: "list[RngCall]" = field(default_factory=list)
    # Fixpoint result (filled by Summaries):
    blocks: "str | None" = None  # label chain when this function can block


def _rng_bindings(ctx: FileContext) -> "tuple[set[str], set[str]]":
    """Names bound to repro.rng functions / to the rng module in *ctx*."""
    direct: "set[str]" = set()
    modules: "set[str]" = {"rng", "repro.rng", "np.random", "numpy.random"}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            tail = (node.module or "").split(".")[-1]
            if tail == "rng":
                direct.update(
                    a.asname or a.name for a in node.names if a.name in _RNG_FUNCS
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.endswith(".rng") or alias.name == "rng":
                    modules.add(alias.asname or alias.name)
    return direct, modules


class _FunctionScanner:
    """Single walk of one function body filling its summary."""

    def __init__(self, fi: FunctionInfo, project: Project) -> None:
        self.fi = fi
        self.project = project
        self.ctx = fi.ctx
        self.summary = FunctionSummary(fi=fi, params=fi.params)
        self._rng_direct, self._rng_modules = _rng_bindings(fi.ctx)
        self._nested: "set[int]" = {
            id(sub)
            for child in ast.walk(fi.node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not fi.node
            for sub in ast.walk(child)
        }

    def _own(self, node: ast.AST) -> bool:
        """Is *node* in this function's own body (not a nested def's)?"""
        return id(node) not in self._nested

    def scan(self) -> FunctionSummary:
        s = self.summary
        s.retry_loops = [loop for loop in _retry_loops_in(self.fi) if self._own(loop)]
        retry_nodes = {
            id(sub) for loop in s.retry_loops for sub in ast.walk(loop)
        }
        for node in ast.walk(self.fi.node):
            if self._own(node) and isinstance(node, ast.Call):
                self._scan_call(node, in_retry_loop=id(node) in retry_nodes)
        return s

    # -- calls ---------------------------------------------------------- #

    def _scan_call(self, call: ast.Call, *, in_retry_loop: bool) -> None:
        s = self.summary
        s.calls.append(
            CallSite(
                call=call,
                callees=self.project.resolve(call, self.ctx),
                in_retry_loop=in_retry_loop,
            )
        )
        label = self._blocking_label(call)
        if label is not None:
            s.blocking.append(BlockingCall(call, label))
        self._scan_rng(call)

    def _blocking_label(self, call: ast.Call) -> "str | None":
        func = call.func
        if isinstance(func, ast.Attribute):
            recv = ast.unparse(func.value)
            if func.attr == "sleep" and recv == "time":
                return "time.sleep"
            if func.attr == "get" and _QUEUEISH_RE.search(recv):
                return f"queue get on {recv}"
            if func.attr == "acquire":
                return f"lock acquire on {recv}"
            if func.attr in ("recv", "accept"):
                return f"socket {func.attr} on {recv}"
            if func.attr == "run" and "pool" in recv.lower():
                return f"pool dispatch via {recv}.run"
        elif isinstance(func, ast.Name) and func.id == "sleep":
            return "sleep"
        return None

    def _scan_rng(self, call: ast.Call) -> None:
        func = call.func
        hit: "str | None" = None
        if isinstance(func, ast.Name) and func.id in self._rng_direct:
            hit = func.id
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _RNG_FUNCS
            and ast.unparse(func.value) in self._rng_modules
        ):
            hit = f"{ast.unparse(func.value)}.{func.attr}"
        if hit is None:
            return
        seed: "ast.expr | None" = call.args[0] if call.args else None
        for kw in call.keywords:
            if kw.arg == "seed":
                seed = kw.value
        if isinstance(seed, ast.Constant) and (
            seed.value is None or isinstance(seed.value, int)
        ):
            self.summary.rng_calls.append(RngCall(call, hit, seed.value))


def summarize_function(fi: FunctionInfo, project: Project) -> FunctionSummary:
    return _FunctionScanner(fi, project).scan()


class Summaries:
    """All function summaries + the fixpoint closure the rules consume."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.of: "dict[FunctionInfo, FunctionSummary]" = {
            fi: summarize_function(fi, project) for fi in project.functions
        }
        self._close_blocking()

    def _close_blocking(self) -> None:
        """Transitive "can this function block?" labels (RL011).

        ``_spin`` is the sanctioned retry ladder — its bounded sleeps are
        the protocol, so it never counts as blocking.
        """
        for fi, s in self.of.items():
            if fi.name == "_spin":
                continue
            if s.blocking:
                s.blocks = s.blocking[0].label
        changed = True
        while changed:
            changed = False
            for fi, s in self.of.items():
                if s.blocks is not None or fi.name == "_spin":
                    continue
                for cs in s.calls:
                    for callee in cs.callees:
                        if callee.name == "_spin":
                            continue
                        callee_blocks = self.of[callee].blocks
                        if callee_blocks is not None:
                            s.blocks = f"{callee.name} -> {callee_blocks}"
                            changed = True
                            break
                    if s.blocks is not None:
                        break


def _retry_loops_in(fi: FunctionInfo) -> Iterator[ast.stmt]:
    """Seqlock retry loops: ``for``/``while`` loops that back off via ``_spin``."""
    for node in ast.walk(fi.node):
        if isinstance(node, (ast.For, ast.While)) and any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "_spin"
            for sub in ast.walk(node)
        ):
            yield node
