"""Correctness gate: served state against from-scratch references.

Runs at checkpoints and at the end of every run, outside the timed
region.  Each check returns a list of human-readable failures (empty when
the served state is right), so a corrupted table or journey shows up as a
non-empty list — the benchmark's own tests rely on exactly that.
"""

from __future__ import annotations

from repro.routing import route, routing_table


def check_tables(endpoint, h, g, sources) -> "list[str]":
    """``endpoint.table(u)`` must equal ``routing_table(h, g, u)``."""
    failures = []
    for u in sources:
        got = endpoint.table(u)
        want = routing_table(h, g, u)
        if got != want:
            wrong = sorted(v for v in set(got) | set(want) if got.get(v) != want.get(v))
            failures.append(f"table({u}) differs from routing_table at {len(wrong)} destinations")
    return failures


def check_journeys(journey, h, g, pairs) -> "list[str]":
    """``journey(s, t)`` must equal the per-hop-BFS ``route(h, g, s, t)``."""
    failures = []
    for s, t in pairs:
        got = journey(s, t)
        want = route(h, g, s, t)
        if (got.path, got.delivered, got.potentials) != (want.path, want.delivered, want.potentials):
            failures.append(f"journey {s}->{t}: served {got.path} != route() {want.path}")
    return failures
