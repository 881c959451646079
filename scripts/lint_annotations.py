#!/usr/bin/env python
"""Convert ``repro lint --format json`` output into problem-matcher lines.

CI runs the linter with ``--format json`` (the stable ``reprolint/1``
schema), keeps the artifact for inspection, and pipes it through this
script, which re-emits each finding as::

    path:line:col: RLxxx message

— exactly the shape ``.github/problem-matchers/reprolint.json`` turns
into inline PR annotations.  Suppressed findings (present in the JSON
because CI asks for them) are echoed as informational lines prefixed
``suppressed:`` so the matcher skips them; the exit status mirrors the
linter's: 1 when any *unsuppressed* finding exists, else 0.

Usage::

    python scripts/lint_annotations.py LINT.json
    python -m repro lint --format json src | python scripts/lint_annotations.py
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        with open(argv[1], encoding="utf-8") as fh:
            report = json.load(fh)
    else:
        report = json.load(sys.stdin)

    schema = report.get("schema")
    if schema != "reprolint/1":
        print(f"lint_annotations: unknown schema {schema!r}", file=sys.stderr)
        return 2

    live = 0
    for finding in report.get("findings", []):
        line = (
            f"{finding['path']}:{finding['line']}:{finding['col']}: "
            f"{finding['rule']} {finding['message']}"
        )
        if finding.get("suppressed"):
            print(f"suppressed: {line}")
        else:
            print(line)
            live += 1
    summary = report.get("summary", {})
    print(
        f"lint_annotations: {live} finding(s), "
        f"{summary.get('suppressed', 0)} suppressed",
        file=sys.stderr,
    )
    return 1 if live else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
