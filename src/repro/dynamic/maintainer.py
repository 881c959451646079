"""Incremental remote-spanner maintenance over an event stream.

Every construction in the paper is a union of per-node trees, and every
tree ``T_u`` is a deterministic function of the edges incident to
``B_G(u, D)``, where D (:func:`locality_radius`) is the construction's
``info_radius`` in the one construction table of
:mod:`repro.core.remote_spanner`: Algorithm 3's flood radius, the
information footprint a node needs to build its own tree (1 for kcover,
the 2-hop MPR view).  So when the edge ``ab`` is inserted or deleted, only
roots with ``min(d(u,a), d(u,b)) ≤ D``, measured in the old *or* the new
graph (deletions grow distances, insertions shrink them), can see their
tree change.  That **dirty ball** is found with two bounded multi-source
BFS runs (one on the pre-event CSR snapshot, one on the post-event patched
snapshot), and only its trees are recomputed; everyone else's tree is
provably bit-identical, so the maintained spanner equals a from-scratch
build after every event (the property suite asserts exactly this,
tree-for-tree, and ``tests/dynamic/test_footprint.py`` checks that an edit
outside the D-ball leaves ``T_u`` alone).

Node churn rides the same machinery: a :class:`~repro.dynamic.events.\
NodeEvent` leave is the simultaneous deletion of every incident edge (the
ball is seeded with the node and its former neighbors), and a join adds an
isolated node whose only dirty root is itself.  :meth:`SpannerMaintainer.\
apply_batch` is the one write path: it coalesces a whole tick of events
into **one** dirty region — the net edge diff of the tick seeds one
old-snapshot and one new-snapshot bounded BFS, and each dirty root is
recomputed once, so events that cancel within the tick (a link flapping
down and back up) cost nothing.  :meth:`SpannerMaintainer.apply` is the
smallest tick: the dirty region of one event is that of a batch holding
only it.

The union is kept exact under recomputation with per-edge reference
counts: an edge leaves the spanner only when the last tree contributing it
does.  Every repair also reports the *net spanner delta* (``h_added`` /
``h_removed``) so layers stacked on top — the routing tables of
:mod:`repro.dynamic.serving` — can localize their own damage.  When churn
is global (the dirty region exceeds ``rebuild_fraction · n``) the
maintainer falls back to one full rebuild — the same escape hatch a router
implementation would take on a topology reset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .. import obs
from ..core.domtree_kcover import dom_tree_kcover
from ..core.remote_spanner import (
    RemoteSpanner,
    build_from_trees,
    resolve_construction,
)
from ..errors import ParameterError
from ..graph import Graph, canonical_edge, multi_source_distances
from .events import JOIN, EdgeEvent, NodeEvent, apply_event

__all__ = [
    "BatchReport",
    "SpannerMaintainer",
    "locality_radius",
]


def locality_radius(
    method: str = "kcover",
    *,
    k: "int | None" = None,
    epsilon: "float | None" = None,
    r: "int | None" = None,
) -> int:
    """The radius D such that ``T_u`` depends only on the edges incident to
    ``B_G(u, D)``: the construction's ``info_radius``."""
    return resolve_construction(method, k=k, epsilon=epsilon, r=r).info_radius


@dataclass(frozen=True)
class BatchReport:
    """What one :meth:`SpannerMaintainer.apply_batch` call did.

    The batch is summarized by its *net* effect: ``g_added``/``g_removed``
    are the topology edges whose presence differs between the tick's start
    and end (in-tick flaps cancel), ``nodes_joined`` the fresh ids, and
    ``h_added``/``h_removed`` the net spanner delta — everything a serving
    layer needs to localize its own recomputation.
    """

    events: int  # events submitted in the tick
    applied: int  # events that actually changed the graph
    g_added: "tuple[tuple[int, int], ...]" = ()
    g_removed: "tuple[tuple[int, int], ...]" = ()
    nodes_joined: "tuple[int, ...]" = ()
    dirty: int = 0
    rebuilt: bool = False
    changed: bool = False
    seconds: float = 0.0
    h_added: "tuple[tuple[int, int], ...]" = ()
    h_removed: "tuple[tuple[int, int], ...]" = ()


class SpannerMaintainer:
    """Hold a remote-spanner valid across an event stream.

    Parameters
    ----------
    g:
        Initial topology.  The maintainer owns a private copy — callers
        replay events through :meth:`apply` / :meth:`apply_batch`, never by
        mutating *g*.
    method, k, epsilon, r:
        Construction selection (see
        :func:`~repro.core.remote_spanner.resolve_construction`).
    rebuild_fraction:
        Dirty-region size (as a fraction of n) beyond which incremental
        repair is abandoned for one full rebuild.

    The live spanner is exposed as :attr:`spanner` (graph + trees +
    guarantee, same shape as the static builders return).
    """

    def __init__(
        self,
        g: Graph,
        method: str = "kcover",
        *,
        k: "int | None" = None,
        epsilon: "float | None" = None,
        r: "int | None" = None,
        rebuild_fraction: float = 0.25,
    ) -> None:
        if not (0.0 < rebuild_fraction <= 1.0):
            raise ParameterError(
                f"rebuild_fraction must be in (0, 1], got {rebuild_fraction}"
            )
        c = self._construction = resolve_construction(method, k=k, epsilon=epsilon, r=r)
        # kcover calls look `dom_tree_kcover` up here at call time: perfbench's
        # layer tracer times tree construction by patching this binding.
        kcover = c.name == "kcover"
        self._tree_fn = (lambda g, u: dom_tree_kcover(g, u, c.k)) if kcover else c.tree_fn
        self.graph = g.copy()
        self.rebuild_fraction = rebuild_fraction
        self.events_applied = 0
        self.batches_applied = 0
        self.incremental_repairs = 0
        self.full_rebuilds = 0
        self.trees_recomputed = 0
        self._rebuild()

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    @property
    def spanner(self) -> RemoteSpanner:
        """The maintained spanner (live objects — treat as read-only)."""
        return RemoteSpanner(
            graph=self._h,
            trees=self._trees,
            guarantee=self._construction.guarantee,
            method=self._construction.label,
        )

    @property
    def radius(self) -> int:
        """The dirty-ball radius D (``info_radius``) of the active construction."""
        return self._construction.info_radius

    def rebuilt_from_scratch(self) -> RemoteSpanner:
        """A fresh from-scratch build on the current graph (for checking)."""
        c = self._construction
        return build_from_trees(self.graph.copy(), self._tree_fn, c.guarantee, c.label)

    def _rebuild(self) -> None:
        c = self._construction
        rs = build_from_trees(self.graph, self._tree_fn, c.guarantee, c.label)
        self._trees = dict(rs.trees)
        self._h = rs.graph
        self._edge_refs = Counter()
        for tree in self._trees.values():
            self._edge_refs.update(tree.edges())

    # ------------------------------------------------------------------ #
    # event application
    # ------------------------------------------------------------------ #

    def apply(self, event: "EdgeEvent | NodeEvent") -> BatchReport:
        """Apply one event: a tick that holds only *event*."""
        return self.apply_batch((event,))

    def apply_batch(self, events: "Sequence[EdgeEvent | NodeEvent]") -> BatchReport:
        """Apply one tick's events with a single coalesced repair.

        The tick is replayed onto the graph first, tracking each touched
        edge's presence at tick start vs end; the *net* diff (flaps cancel)
        seeds one old-snapshot and one new-snapshot bounded BFS, and each
        dirty root is recomputed exactly once.  No-op events are tolerated
        (counted, reported ``changed=False`` when the whole tick is one); a
        join with a non-dense id or an out-of-range endpoint is an error.
        """
        sw = obs.Stopwatch()
        events = list(events)
        g = self.graph
        old_n, version = g.num_nodes, g.version
        old_csr = g.freeze() if events else None
        touched: "dict[tuple[int, int], bool]" = {}
        joined: list[int] = []
        applied = 0
        try:
            for ev in events:
                if isinstance(ev, NodeEvent):
                    if ev.kind == JOIN:
                        apply_event(g, ev)  # validates the dense-id contract
                        joined.append(ev.node)
                        applied += 1
                    else:
                        former = list(g.neighbors(ev.node))
                        for w in former:
                            touched.setdefault(canonical_edge(ev.node, w), True)
                        if g.remove_node(ev.node):
                            applied += 1
                else:
                    if ev.edge not in touched:
                        touched[ev.edge] = g.has_edge(*ev.edge)
                    if apply_event(g, ev, strict=False):
                        applied += 1
        except Exception:
            # A malformed event (non-dense join id, out-of-range endpoint)
            # after a valid prefix leaves the graph mutated: restore the
            # spanner == from-scratch invariant over whatever got applied,
            # then let the caller see the error.  An untouched graph needs
            # nothing restored.
            if g.version != version:
                obs.inc("maintainer.full_rebuilds")
                self._rebuild()
                self.full_rebuilds += 1
            raise
        self.events_applied += len(events)
        self.batches_applied += 1
        for _ in joined:
            self._h.add_node()
        g_added = tuple(sorted(e for e, was in touched.items() if not was and g.has_edge(*e)))
        g_removed = tuple(sorted(e for e, was in touched.items() if was and not g.has_edge(*e)))
        if not g_added and not g_removed and not joined:
            return BatchReport(
                events=len(events),
                applied=applied,
                seconds=sw.elapsed(),
            )
        seeds_new = {x for e in (*g_added, *g_removed) for x in e}
        seeds_old = {x for x in seeds_new if x < old_n}
        dirty = self._ball(old_csr, seeds_old) if seeds_old else set()
        if seeds_new:
            dirty |= self._ball(g.freeze(), seeds_new)
        dirty |= set(joined)
        rebuilt, h_added, h_removed = self._repair(dirty)
        return BatchReport(
            events=len(events),
            applied=applied,
            g_added=g_added,
            g_removed=g_removed,
            nodes_joined=tuple(joined),
            dirty=g.num_nodes if rebuilt else len(dirty),
            rebuilt=rebuilt,
            changed=True,
            seconds=sw.elapsed(),
            h_added=h_added,
            h_removed=h_removed,
        )

    def apply_stream(
        self, events: "Sequence[EdgeEvent | NodeEvent] | Iterable[EdgeEvent | NodeEvent]"
    ) -> "list[BatchReport]":
        """Apply a whole stream as one-event ticks; returns their reports."""
        return [self.apply(ev) for ev in events]

    # ------------------------------------------------------------------ #
    # repair machinery
    # ------------------------------------------------------------------ #

    def _ball(self, snapshot, seeds: Iterable[int]) -> set[int]:
        """``{u : d(u, seeds) ≤ D}`` on a (frozen) snapshot."""
        with obs.span("maintainer.ball"):
            dist = multi_source_distances(snapshot, seeds, cutoff=self._construction.info_radius)
            return {u for u, d in enumerate(dist) if d >= 0}

    def _repair(
        self, dirty: set[int]
    ) -> "tuple[bool, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]":
        """Recompute the dirty roots' trees; returns (rebuilt, ΔH⁺, ΔH⁻).

        The spanner delta is *net* over the whole repair: an edge dropped
        by one root's old tree and re-contributed by another's new tree in
        the same repair cancels out.
        """
        g = self.graph
        obs.observe("maintainer.dirty_ball", len(dirty), obs.COUNT_BOUNDS)
        if len(dirty) > self.rebuild_fraction * g.num_nodes:
            obs.inc("maintainer.full_rebuilds")
            old_edges = self._h.edge_set()
            self._rebuild()
            new_edges = self._h.edge_set()
            self.full_rebuilds += 1
            self.trees_recomputed += g.num_nodes
            return (
                True,
                tuple(sorted(new_edges - old_edges)),
                tuple(sorted(old_edges - new_edges)),
            )
        tree_fn = self._tree_fn
        refs = self._edge_refs
        h = self._h
        h_added: set[tuple[int, int]] = set()
        h_removed: set[tuple[int, int]] = set()
        for u in sorted(dirty):
            old_tree = self._trees.get(u)  # a joined node has no old tree
            new_tree = tree_fn(g, u)
            self._trees[u] = new_tree
            if old_tree is not None:
                for e in old_tree.edges():
                    refs[e] -= 1
                    if refs[e] == 0:
                        del refs[e]
                        h.remove_edge(*e)
                        if e in h_added:
                            h_added.discard(e)
                        else:
                            h_removed.add(e)
            for e in new_tree.edges():
                refs[e] += 1
                if refs[e] == 1:
                    h.add_edge(*e)
                    if e in h_removed:
                        h_removed.discard(e)
                    else:
                        h_added.add(e)
        obs.inc("maintainer.incremental_repairs")
        self.incremental_repairs += 1
        self.trees_recomputed += len(dirty)
        return False, tuple(sorted(h_added)), tuple(sorted(h_removed))

