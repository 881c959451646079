"""Interprocedural (whole-program) reprolint pass — ``lint --deep``.

Layers on top of the per-file engine: :mod:`.callgraph` builds the
project model, :mod:`.summaries` digests every function once, and
:mod:`.rules` runs RL009 and RL011 over the closure.  The runtime twin of
the static passes lives in :mod:`repro.analysis.sanitize`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..lint.engine import Finding
from .callgraph import FunctionInfo, Project
from .rules import DEEP_REGISTRY, DeepRule, default_deep_rules, register_deep
from .summaries import FunctionSummary, Summaries, summarize_function

__all__ = [
    "DEEP_REGISTRY",
    "DeepRule",
    "FunctionInfo",
    "FunctionSummary",
    "Project",
    "Summaries",
    "deep_lint_paths",
    "deep_lint_project",
    "deep_lint_sources",
    "default_deep_rules",
    "register_deep",
    "summarize_function",
]


def deep_lint_project(
    project: Project,
    rules: "Iterable[DeepRule] | None" = None,
    *,
    keep_suppressed: bool = False,
) -> "list[Finding]":
    """Run the deep rules over an already-built project.

    Suppression comments work exactly as for the per-file rules — the
    finding's file context decides, so a ``# reprolint: disable=RL009``
    next to the flagged line silences it (and shows up ``suppressed``
    in the JSON output when *keep_suppressed* is set).
    """
    from dataclasses import replace

    active = default_deep_rules() if rules is None else list(rules)
    summaries = Summaries(project)
    findings: "list[Finding]" = []
    for rule in active:
        for f in rule.check(project, summaries):
            ctx = project.context_for(f.path)
            if ctx is not None and ctx.is_suppressed(f.rule, f.line):
                if keep_suppressed:
                    findings.append(replace(f, suppressed=True))
            else:
                findings.append(f)
    return sorted(findings)


def deep_lint_paths(
    paths: Iterable["Path | str"],
    rules: "Iterable[DeepRule] | None" = None,
    *,
    keep_suppressed: bool = False,
) -> "list[Finding]":
    """Build the project from *paths* and run the deep rules over it."""
    project = Project.from_paths(paths)
    return deep_lint_project(project, rules, keep_suppressed=keep_suppressed)


def deep_lint_sources(
    sources: Iterable["tuple[str, str]"],
    rules: "Iterable[DeepRule] | None" = None,
    *,
    keep_suppressed: bool = False,
) -> "list[Finding]":
    """Run the deep rules over ``(pretend_path, source)`` pairs (tests)."""
    project = Project.from_sources(sources)
    return deep_lint_project(project, rules, keep_suppressed=keep_suppressed)
