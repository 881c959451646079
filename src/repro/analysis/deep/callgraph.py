"""Project model + call graph for the interprocedural (``--deep``) pass.

The per-file rules see one :class:`~repro.analysis.lint.engine.FileContext`
at a time; the protocols they guard do not stop at function boundaries.
:class:`Project` parses every file once, indexes every function/method
definition (:class:`FunctionInfo`), and resolves call expressions to their
*possible* project-internal targets so the deep rules
(:mod:`repro.analysis.deep.rules`) can follow a seed or a blocking call
through the graph.

Resolution is deliberately name-based and over-approximate — Python has
no static types to narrow a receiver, and the protocols are cheap to keep
conservative:

* ``name(...)`` resolves to same-file definitions of ``name`` first (the
  overwhelmingly common case for the helpers these rules chase), falling
  back to every project function of that name;
* ``obj.attr(...)`` resolves to every project function or method named
  ``attr``;
* anything else (``numpy``, stdlib, comprehension targets) resolves to
  ``[]`` — external, opaque, assumed non-blocking.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from ..lint.engine import FileContext, iter_python_files

__all__ = ["FunctionInfo", "Project"]

FunctionNode = "ast.FunctionDef | ast.AsyncFunctionDef"


class FunctionInfo:
    """One function or method definition somewhere in the project."""

    __slots__ = ("node", "ctx", "cls", "qualname")

    def __init__(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        ctx: FileContext,
        cls: "str | None",
    ) -> None:
        self.node = node
        self.ctx = ctx
        self.cls = cls  # name of the enclosing class, or None for free functions
        scope = f"{cls}." if cls else ""
        self.qualname = f"{ctx.posix_path}::{scope}{node.name}"

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> "list[str]":
        """Positional parameter names (posonly + regular), in order."""
        a = self.node.args
        return [p.arg for p in (*a.posonlyargs, *a.args)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname})"


def _functions_in(ctx: FileContext) -> Iterator[FunctionInfo]:
    """Every function/method in *ctx*, tagged with its enclosing class."""

    def walk(node: ast.AST, cls: "str | None") -> Iterator[FunctionInfo]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield FunctionInfo(child, ctx, cls)
                yield from walk(child, cls)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            else:
                yield from walk(child, cls)

    yield from walk(ctx.tree, None)


class Project:
    """Every parsed file plus a by-name index of its functions."""

    def __init__(self, contexts: Iterable[FileContext]) -> None:
        self.contexts = list(contexts)
        self.by_path: "dict[str, FileContext]" = {str(c.path): c for c in self.contexts}
        self.functions: "list[FunctionInfo]" = []
        self.by_name: "dict[str, list[FunctionInfo]]" = {}
        for ctx in self.contexts:
            for fi in _functions_in(ctx):
                self.functions.append(fi)
                self.by_name.setdefault(fi.name, []).append(fi)

    @classmethod
    def from_paths(cls, paths: Iterable["Path | str"]) -> "Project":
        """Parse every Python file under *paths* (unparsable files are
        skipped here — the per-file pass already reports them as RL000)."""
        contexts = []
        for file_path in iter_python_files(paths):
            text = file_path.read_text(encoding="utf-8")
            try:
                contexts.append(FileContext(file_path, text))
            except SyntaxError:
                continue
        return cls(contexts)

    @classmethod
    def from_sources(cls, sources: Iterable["tuple[str, str]"]) -> "Project":
        """Build a project from ``(pretend_path, source)`` pairs (tests)."""
        return cls(FileContext(path, text) for path, text in sources)

    def resolve(self, call: ast.Call, ctx: FileContext) -> "list[FunctionInfo]":
        """Best-effort static targets of *call* made from file *ctx*.

        Same-file definitions shadow the global name pool for bare-name
        calls; attribute calls fan out to every same-named function.  An
        empty list means "external" — numpy, stdlib, builtins.
        """
        func = call.func
        if isinstance(func, ast.Name):
            candidates = self.by_name.get(func.id, [])
            local = [fi for fi in candidates if fi.ctx is ctx]
            return list(local or candidates)
        if isinstance(func, ast.Attribute):
            return list(self.by_name.get(func.attr, []))
        return []

    def context_for(self, path: str) -> "FileContext | None":
        return self.by_path.get(path)
