"""reprolint — the AST engine behind ``python -m repro lint``.

The concurrency and reproducibility layers of this repository rest on
hand-maintained *protocols* rather than language-enforced invariants:
pinned shared-memory attachments, seeds that flow through
:mod:`repro.rng`, worker tasks that must survive a ``spawn`` re-import.
(Where a protocol could be made structural it was: seqlock row writes go
through ``row_write`` and reads through the one ``_read_stable`` loop in
:mod:`repro.parallel.shm`, so neither needs a rule.)  Nothing in Python
stops a refactor from quietly violating them — and a violated protocol
does not fail a unit test, it deadlocks a reader three PRs later.
reprolint encodes each
protocol as a static-analysis rule over the AST, so the check gate
(``scripts/check.sh`` step [5/5]) fails the moment a violation is
*written*, not the day it is *scheduled*.

Architecture
------------
* :class:`Rule` — one invariant; subclasses implement ``check(ctx)`` and
  register themselves in :data:`REGISTRY` via the :func:`register`
  decorator (the codes ``RL002``, ``RL003``, ``RL005``–``RL007``,
  ``RL012`` and ``RL013`` live in :mod:`repro.analysis.lint.rules`).
  Every rule sees one file; a per-function fact such as "does this
  function take a seed?" comes from :meth:`FileContext.enclosing_function`.
* :class:`FileContext` — one parsed file: source, AST, a lazily built
  parent map (for ancestor queries like "which function encloses this
  handler?"), and the parsed suppression comments.
* :func:`lint_paths` / :func:`lint_file` — walk files, run every rule,
  drop suppressed findings, return a sorted :class:`Finding` list.

Suppressions
------------
A finding is silenced by a ``# reprolint: disable=RL006`` comment on the
same *logical* line (several codes may be comma-separated; a bare
``# reprolint: disable`` silences every rule on that line).  For a
statement wrapped over several physical lines the comment may sit on any
of them — including the closing paren — and applies to the whole span,
because findings anchor to the statement's first line while formatters
push trailing comments to the last.  A comment on its own line scopes to
that line only.  Suppressions are deliberately line-scoped — a protocol
exemption should be visible exactly where it applies, next to the
justification comment.  A suppression naming a code no rule registers
(a typo, or a retired rule) is itself an ``RL000`` finding at its line:
a dead exemption must not outlive the rule it once silenced.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

from ...errors import ParameterError

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "REGISTRY",
    "register",
    "default_rules",
    "parse_suppressions",
    "iter_python_files",
    "lint_file",
    "lint_paths",
]

#: Rule code reserved for the engine's own findings: files it cannot
#: parse at all, and suppressions naming a code no rule registers.
PARSE_ERROR_CODE = "RL000"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable(?:\s*=\s*(RL\d{3}(?:\s*,\s*RL\d{3})*))?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location (sortable by location).

    ``suppressed`` is ``False`` for every finding the default pass returns;
    the JSON output (``lint --format json`` → ``keep_suppressed=True``)
    also carries the findings an inline comment silenced, flagged.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = False

    def format(self) -> str:
        """The canonical one-line report: ``path:line:col: RLxxx message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: Token types that neither carry code nor terminate a logical line —
#: seeing one of these never starts or ends a suppression span.
_NEUTRAL_TOKENS = frozenset(
    {
        tokenize.NL,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
        tokenize.ENCODING,
    }
)


def parse_suppressions(source: str) -> "dict[int, frozenset[str] | None]":
    """Map physical line number → suppressed rule codes (``None`` = all).

    Comments are found with :mod:`tokenize`, so a ``# reprolint:`` inside a
    string literal never counts as a suppression.  A suppression trailing
    *any* physical line of a multi-line statement applies to the whole
    logical line (every physical line of the span) — so a disable on the
    closing paren of a wrapped call silences the finding reported at the
    call's first line.  A comment on a line of its own scopes to exactly
    that line.
    """
    return _scan_suppressions(source)[0]


def _scan_suppressions(
    source: str,
) -> "tuple[dict[int, frozenset[str] | None], list[tuple[int, int, frozenset[str]]]]":
    """:func:`parse_suppressions`' map, plus ``(line, col, codes)`` for each
    ``disable=`` comment that names codes, where it was written — what the
    stale-code check reports against."""
    out: "dict[int, frozenset[str] | None]" = {}
    comments: "list[tuple[int, int, frozenset[str]]]" = []

    def add(line: int, codes: "frozenset[str] | None") -> None:
        have = out.get(line, frozenset())
        out[line] = None if (codes is None or have is None) else have | codes

    pending: "list[frozenset[str] | None]" = []  # comments inside the current span
    logical_start: "int | None" = None  # first row of the open logical line
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                match = _SUPPRESS_RE.search(tok.string)
                if match is None:
                    continue
                codes = match.group(1)
                parsed = (
                    None
                    if codes is None
                    else frozenset(c.strip() for c in codes.split(","))
                )
                if parsed is not None:
                    comments.append((tok.start[0], tok.start[1], parsed))
                if logical_start is None:
                    add(tok.start[0], parsed)  # own-line comment: that line only
                else:
                    pending.append(parsed)  # defer until the span's extent is known
            elif tok.type == tokenize.NEWLINE:  # end of a logical line
                if logical_start is not None:
                    for parsed in pending:
                        for line in range(logical_start, tok.start[0] + 1):
                            add(line, parsed)
                pending.clear()
                logical_start = None
            elif tok.type not in _NEUTRAL_TOKENS:
                if logical_start is None:
                    logical_start = tok.start[0]
    except tokenize.TokenError:
        # A malformed tail (unterminated string) already surfaces as a
        # parse-error finding; suppressions seen so far still apply.
        pass
    return out, comments


class FileContext:
    """One file under analysis: source, AST, parents, suppressions."""

    def __init__(self, path: "Path | str", source: str) -> None:
        self.path = Path(path)
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions, self.suppression_comments = _scan_suppressions(source)
        self._parents: "dict[int, ast.AST] | None" = None

    @property
    def posix_path(self) -> str:
        """Forward-slash path used by rules for module scoping."""
        return self.path.as_posix()

    def in_module(self, *suffixes: str) -> bool:
        """True when this file is one of the named modules (path suffix match)."""
        return any(self.posix_path.endswith(suffix) for suffix in suffixes)

    @property
    def parent_map(self) -> "dict[int, ast.AST]":
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[id(child)] = parent
        return self._parents

    def parent(self, node: ast.AST) -> "ast.AST | None":
        return self.parent_map.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The chain of enclosing nodes, innermost first."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(self, node: ast.AST) -> "ast.FunctionDef | ast.AsyncFunctionDef | None":
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def is_suppressed(self, rule: str, line: int) -> bool:
        if line not in self.suppressions:
            return False
        codes = self.suppressions[line]
        return codes is None or rule in codes


class Rule:
    """Base class for one lint rule; subclasses set the class attributes.

    ``code`` is the stable ``RLxxx`` identifier used in reports and
    suppressions; ``name`` a short slug; ``description`` the one-line
    summary shown by ``python -m repro lint --list-rules``.  ``check``
    yields findings — suppression filtering is the engine's job, not the
    rule's.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
        )


#: code -> rule class; populated by the :func:`register` decorator.
REGISTRY: "dict[str, type[Rule]]" = {}


def register(cls: "type[Rule]") -> "type[Rule]":
    """Class decorator adding a rule to :data:`REGISTRY` (code must be unique)."""
    if not cls.code or not re.fullmatch(r"RL\d{3}", cls.code):
        raise ParameterError(f"rule {cls.__name__} needs a code matching RLxxx")
    if cls.code in REGISTRY:
        raise ParameterError(f"duplicate rule code {cls.code}")
    REGISTRY[cls.code] = cls
    return cls


def default_rules() -> "list[Rule]":
    """Fresh instances of every registered rule, sorted by code."""
    from . import rules as _rules  # noqa: F401  (import populates REGISTRY)

    return [REGISTRY[code]() for code in sorted(REGISTRY)]


def iter_python_files(paths: Iterable["Path | str"]) -> Iterator[Path]:
    """Yield ``.py`` files under *paths* (files or directories), sorted.

    Hidden directories and ``__pycache__`` are skipped; a missing path is a
    :class:`~repro.errors.ParameterError` — the check gate should never
    silently lint nothing.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                parts = sub.relative_to(path).parts
                if any(p.startswith(".") or p == "__pycache__" for p in parts):
                    continue
                yield sub
        else:
            raise ParameterError(f"lint path does not exist: {path}")


def lint_file(
    path: "Path | str",
    rules: "Iterable[Rule] | None" = None,
    *,
    source: "str | None" = None,
    keep_suppressed: bool = False,
) -> "list[Finding]":
    """Run *rules* (default: all registered) over one file.

    *source* overrides the file content — used by the fixture tests to lint
    a snippet *as if* it lived at *path* (several rules scope by module).
    With *keep_suppressed* the findings an inline comment silenced are
    returned too, marked ``suppressed=True`` (the JSON output wants them);
    by default they are dropped.
    """
    file_path = Path(path)
    text = file_path.read_text(encoding="utf-8") if source is None else source
    try:
        ctx = FileContext(file_path, text)
    except SyntaxError as exc:
        return [
            Finding(
                path=str(file_path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    active = default_rules() if rules is None else list(rules)
    findings: "list[Finding]" = []
    for rule in active:
        for f in rule.check(ctx):
            if not ctx.is_suppressed(f.rule, f.line):
                findings.append(f)
            elif keep_suppressed:
                findings.append(replace(f, suppressed=True))
    findings.extend(_stale_suppressions(ctx))
    return sorted(findings)


def _stale_suppressions(ctx: FileContext) -> Iterator[Finding]:
    """An ``RL000`` finding per suppressed code that no rule registers.

    Judged against every registered rule, not just the active ones: a
    run with a rule subset must not call a live code stale.
    """
    from . import rules as _rules  # noqa: F401  (import populates REGISTRY)

    for line, col, codes in ctx.suppression_comments:
        for code in sorted(codes - REGISTRY.keys()):
            yield Finding(
                path=str(ctx.path),
                line=line,
                col=col,
                rule=PARSE_ERROR_CODE,
                message=f"suppression names {code}, which no rule registers — delete it",
            )


def lint_paths(
    paths: Iterable["Path | str"],
    rules: "Iterable[Rule] | None" = None,
    *,
    keep_suppressed: bool = False,
) -> "list[Finding]":
    """Run the rules over every Python file under *paths*; sorted findings."""
    active = default_rules() if rules is None else list(rules)
    findings: "list[Finding]" = []
    for file_path in iter_python_files(paths):
        findings.extend(lint_file(file_path, active, keep_suppressed=keep_suppressed))
    return sorted(findings)
