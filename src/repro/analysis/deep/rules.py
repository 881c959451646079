"""Interprocedural rules RL009 and RL011 (``python -m repro lint --deep``).

Each rule consumes the :class:`~repro.analysis.deep.summaries.Summaries`
closure rather than re-walking callee bodies: RL009 pins RNG
construction to :mod:`repro.rng` seed flow, and RL011 forbids anything
that can park the process inside a seqlock read-retry loop.

The seqlock *write* side and shared-memory ownership need no rule here:
``row_write`` is the only way to write a versioned row (nested writes
raise, unbracketed ones hit a read-only view), and segment leaks are
reported at runtime by the sanitizer (:mod:`repro.analysis.sanitize`,
``shm.leak`` / ``shm.leak_at_pool_close``).  The corpus in
``tests/analysis/test_sanitizer.py`` asserts per injected violation
whether it is still caught, and by which layer, or can no longer be
written.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ...errors import ParameterError
from ..lint.engine import Finding
from .callgraph import FunctionInfo, Project
from .summaries import Summaries

__all__ = [
    "DEEP_REGISTRY",
    "DeepRule",
    "default_deep_rules",
    "register_deep",
]


class DeepRule:
    """One interprocedural invariant, checked over a whole project.

    Unlike the per-file :class:`~repro.analysis.lint.engine.Rule`,
    ``check`` receives the project and the summary closure; findings may
    land in any file.  Suppression filtering is still the engine's job.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, project: Project, summaries: Summaries) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, fi: FunctionInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=str(fi.ctx.path),
            line=getattr(node, "lineno", fi.node.lineno),
            col=getattr(node, "col_offset", fi.node.col_offset),
            rule=self.code,
            message=message,
        )


#: code -> deep rule class; populated by :func:`register_deep`.
DEEP_REGISTRY: "dict[str, type[DeepRule]]" = {}


def register_deep(cls: "type[DeepRule]") -> "type[DeepRule]":
    if not cls.code or not re.fullmatch(r"RL\d{3}", cls.code):
        raise ParameterError(f"deep rule {cls.__name__} needs a code matching RLxxx")
    if cls.code in DEEP_REGISTRY:
        raise ParameterError(f"duplicate deep rule code {cls.code}")
    DEEP_REGISTRY[cls.code] = cls
    return cls


def default_deep_rules() -> "list[DeepRule]":
    return [DEEP_REGISTRY[code]() for code in sorted(DEEP_REGISTRY)]


@register_deep
class RngTaintRule(DeepRule):
    """RL009 — library RNG streams must be rooted in caller-provided seeds.

    RL002 forbids raw ``np.random.default_rng`` / ``random.*``; this rule
    catches the subtler break: a helper deep in ``src/repro`` calling the
    *sanctioned* entry points (``ensure_rng``, ``derive_seed``,
    ``spawn``) with a literal, silently pinning every caller to one
    stream and detaching the result from the experiment seed.
    """

    code = "RL009"
    name = "deep-rng-taint"
    description = (
        "repro.rng entry points in library code must be fed seeds that flow "
        "from callers, never integer/None literals"
    )

    _SEED_PARAM_RE = re.compile(r"seed", re.IGNORECASE)

    def _in_scope(self, fi: FunctionInfo) -> bool:
        posix = f"/{fi.ctx.posix_path}"
        return "/repro/" in posix and not posix.endswith("repro/rng.py")

    def check(self, project: Project, summaries: Summaries) -> Iterator[Finding]:
        for fi, s in summaries.of.items():
            if not self._in_scope(fi):
                continue
            has_seed_param = any(
                self._SEED_PARAM_RE.search(p) for p in s.params
            )
            for rc in s.rng_calls:
                if rc.seed is None and not has_seed_param:
                    # ensure_rng(None) in a seed-less function is the
                    # documented "fresh entropy" escape hatch.
                    continue
                if rc.seed is None:
                    message = (
                        f"{rc.func}(None) ignores the seed parameter of "
                        f"{fi.name}() — thread the caller's seed through"
                    )
                else:
                    message = (
                        f"{rc.func}({rc.seed!r}) re-seeds from a literal in "
                        f"library code — derive the seed from the caller "
                        "(repro.rng.derive_seed) instead"
                    )
                yield self.finding(fi, rc.node, message)


@register_deep
class BlockingInRetryLoopRule(DeepRule):
    """RL011 — nothing that parks the process inside a seqlock retry loop.

    A seqlock reader loops until it observes an even, stable row version;
    blocking inside that loop (queue ``get``, ``time.sleep`` outside the
    ``_spin`` ladder, lock acquisition, pool dispatch) turns a bounded
    spin into a potential deadlock against the writer it is waiting out.
    Transitive: a call whose summary says the callee can block is flagged
    at the call site.
    """

    code = "RL011"
    name = "deep-seqlock-blocking"
    description = (
        "no blocking calls (queue get, sleep beyond the _spin ladder, pool "
        "dispatch) inside a seqlock read-retry loop, transitively"
    )

    def check(self, project: Project, summaries: Summaries) -> Iterator[Finding]:
        for fi, s in summaries.of.items():
            if not s.retry_loops:
                continue
            retry_nodes = {
                id(sub) for loop in s.retry_loops for sub in ast.walk(loop)
            }
            seen: "set[tuple[int, int]]" = set()
            for b in s.blocking:
                if id(b.node) not in retry_nodes:
                    continue
                key = (b.node.lineno, b.node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    fi,
                    b.node,
                    f"blocking call ({b.label}) inside a seqlock read-retry "
                    f"loop in {fi.name}()",
                )
            for cs in s.calls:
                if not cs.in_retry_loop:
                    continue
                for callee in cs.callees:
                    if callee.name == "_spin":
                        continue
                    chain = summaries.of[callee].blocks
                    if chain is None:
                        continue
                    key = (cs.call.lineno, cs.call.col_offset)
                    if key in seen:
                        break
                    seen.add(key)
                    yield self.finding(
                        fi,
                        cs.call,
                        f"call to {callee.name}() can block ({chain}) inside "
                        f"a seqlock read-retry loop in {fi.name}()",
                    )
                    break
