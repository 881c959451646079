"""Periodic link-state operation and the T + 2F stabilization bound.

§2.3 closes with: "Algorithm RemSpan can be run as in practical link state
routing protocols by regularly performing its four operations ... every
period of time T ... If a topology change occurs, the computed spanner
will stabilize after a time period of T + 2F where F is the time duration
of a flooding up to distance r − 1 + β."

This module simulates that regime:

* time advances in discrete steps;
* HELLOs are implicit — each node always knows its *current* neighbors
  (HELLO period ≪ T, as in OSPF/OLSR deployments);
* every node (re-)floods its neighbor list every T steps (per-node phase
  offsets supported — real routers are not synchronized);
* a flood covers one hop per step up to radius ``D = r − 1 + β``, so a
  flood takes ``F = D`` steps to complete;
* each node **recomputes its dominating tree whenever its link-state
  database changes** and immediately floods the new tree (computation is
  free; adverts are the cost).

The simulation applies a topology change (edge insertions/removals) at a
chosen step and reports when the *computed spanner* — the union of the
trees each node currently advertises — becomes and stays equal to the
converged spanner of the new topology.  The accompanying test asserts the
stabilization time never exceeds T + 2F.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ...core.domtree import DomTree
from ...core.remote_spanner import build_from_trees, resolve_construction
from ...errors import ParameterError, ProtocolError
from ...graph import Graph

__all__ = ["PeriodicLinkState", "StabilizationReport"]


@dataclass
class _Flood:
    """An in-flight scoped flood: payload + wavefront bookkeeping."""

    origin: int
    payload: object  # frozenset of neighbors, or frozenset of tree edges
    kind: str  # "nbr" | "tree"
    stamp: int
    frontier: set = field(default_factory=set)
    hops_left: int = 0


@dataclass
class StabilizationReport:
    """Outcome of a topology-change experiment."""

    change_step: int
    stabilized_step: "int | None"
    bound_step: int  # change_step + T + 2F
    spanner: Graph

    @property
    def within_bound(self) -> bool:
        return self.stabilized_step is not None and self.stabilized_step <= self.bound_step


class PeriodicLinkState:
    """Steady-state RemSpan over a mutable topology.

    Parameters
    ----------
    g:
        Initial topology (mutated in place by :meth:`apply_change`).
    kind, r, beta, k:
        Tree construction selector, as :func:`~.remspan.run_remspan`.
    period:
        The advertisement period T (steps).
    phases:
        Optional per-node phase offsets in ``[0, period)``; default is the
        node id modulo T, i.e. maximally de-synchronized.
    """

    def __init__(
        self,
        g: Graph,
        kind: str = "greedy",
        r: int = 2,
        beta: int = 0,
        k: int = 1,
        period: int = 8,
        phases: "Sequence[int] | None" = None,
    ) -> None:
        if period < 1:
            raise ParameterError(f"period must be ≥ 1, got {period}")
        self.graph = g
        c = resolve_construction(kind, r=r, beta=beta, k=k)
        self.algo, self.radius, self.guarantee = c.tree_fn, c.info_radius, c.guarantee
        self.period = period
        self.flood_time = max(1, self.radius)
        if phases is None:
            self.phases = [u % period for u in g.nodes()]
        else:
            if len(phases) != g.num_nodes:
                raise ProtocolError("need one phase per node")
            self.phases = [p % period for p in phases]
        self.step_count = 0
        # Per-node link-state database: origin -> (stamp, frozenset neighbors)
        self.db: list[dict] = [dict() for _ in g.nodes()]
        self.trees: list["DomTree | None"] = [None] * g.num_nodes
        self._floods: list[_Flood] = []

    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Advance one time step: propagate floods, originate, recompute."""
        t = self.step_count
        # 1. Propagate in-flight floods one hop (deliveries update DBs).
        still_flying: list[_Flood] = []
        dirty: set[int] = set()
        for fl in self._floods:
            new_frontier: set[int] = set()
            for v in fl.frontier:
                for w in self.graph.neighbors(v):
                    if self._deliver(fl, w):
                        new_frontier.add(w)
            dirty.update(new_frontier)
            fl.frontier = new_frontier
            fl.hops_left -= 1
            if fl.hops_left > 0 and fl.frontier:
                still_flying.append(fl)
        self._floods = still_flying
        # 2. Periodic origination: nodes at their phase flood fresh N(u).
        for u in self.graph.nodes():
            if t % self.period == self.phases[u]:
                payload = frozenset(self.graph.neighbors(u))
                self._ingest(u, u, t, payload)
                dirty.add(u)
                self._floods.append(
                    _Flood(
                        origin=u,
                        payload=payload,
                        kind="nbr",
                        stamp=t,
                        frontier={u},
                        hops_left=self.flood_time,
                    )
                )
        # 3. Recompute trees at nodes whose database changed.
        for u in sorted(dirty):
            self._recompute(u, t)
        self.step_count += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    # ------------------------------------------------------------------ #

    def _deliver(self, fl: _Flood, w: int) -> bool:
        """Deliver flood *fl* to node *w*; True when the copy is fresh."""
        if fl.kind == "tree":
            return True  # tree adverts inform routing, not the spanner DB
        entry = self.db[w].get(fl.origin)
        if entry is not None and entry[0] >= fl.stamp:
            return False
        self.db[w][fl.origin] = (fl.stamp, fl.payload)
        return True

    def _ingest(self, node: int, origin: int, stamp: int, payload: frozenset) -> None:
        entry = self.db[node].get(origin)
        if entry is None or entry[0] < stamp:
            self.db[node][origin] = (stamp, payload)

    def _recompute(self, u: int, t: int) -> None:
        """Rebuild T_u from u's database; flood it if it changed.

        Two safeguards real link-state protocols use are applied while
        assembling the local topology (without them a severed adjacency
        lingers forever, because the severed neighbor's fresh floods can no
        longer reach this node):

        * **two-way connectivity check** — when *both* endpoints' adverts
          are in the database, an edge counts only if both list it; a
          one-sided claim is trusted only for edges crossing the
          information horizon (the far endpoint never advertised here);
        * **LSA aging** — entries not refreshed for 2·(T + F) are purged
          (periodic floods refresh every relevant entry each period, so
          only out-of-horizon leftovers ever expire).
        """
        # Always refresh own adjacency (HELLOs are instantaneous).
        self._ingest(u, u, t, frozenset(self.graph.neighbors(u)))
        max_age = 2 * (self.period + self.flood_time)
        self.db[u] = {
            origin: entry
            for origin, entry in self.db[u].items()
            if t - entry[0] <= max_age or origin == u
        }
        mentioned = {u}
        for origin, (_stamp, nbrs) in self.db[u].items():
            mentioned.add(origin)
            mentioned.update(nbrs)
        local = Graph(max(mentioned) + 1)
        for origin, (_stamp, nbrs) in self.db[u].items():
            for v in nbrs:
                if v >= local.num_nodes:
                    continue
                if v in self.db[u] and origin not in self.db[u][v][1]:
                    continue  # two-way check failed: one side retracted
                local.add_edge(origin, v)
        new_tree = self.algo(local, u)
        old = self.trees[u]
        if old is None or set(old.edges()) != set(new_tree.edges()):
            self.trees[u] = new_tree
            self._floods.append(
                _Flood(
                    origin=u,
                    payload=frozenset(new_tree.edges()),
                    kind="tree",
                    stamp=t,
                    frontier={u},
                    hops_left=self.flood_time,
                )
            )

    # ------------------------------------------------------------------ #

    def current_spanner(self) -> Graph:
        """Union of the trees currently computed at each node."""
        h = Graph(self.graph.num_nodes)
        for tree in self.trees:
            if tree is None:
                continue
            for a, b in tree.edges():
                if self.graph.has_edge(a, b):  # stale tree edges may be gone
                    h.add_edge(a, b)
        return h

    def converged_spanner(self, g: "Graph | None" = None) -> Graph:
        """The centralized union-of-trees for the (current) topology."""
        g = g if g is not None else self.graph
        return build_from_trees(g, self.algo, self.guarantee, "converged").graph

    # ------------------------------------------------------------------ #

    def stabilization_experiment(
        self,
        warmup: int,
        change: "Callable[[Graph], None]",
        horizon: "int | None" = None,
    ) -> StabilizationReport:
        """Run to steady state, apply *change*, report stabilization time.

        *change* mutates ``self.graph`` in place (add/remove edges).  The
        experiment then steps until the computed spanner equals the new
        converged spanner, or until *horizon* steps past the change
        (default: 2·(T + 2F) for slack in the failure report).
        """
        self.run(warmup)
        change(self.graph)
        change_step = self.step_count
        target = self.converged_spanner()
        bound = change_step + self.period + 2 * self.flood_time
        if horizon is None:
            horizon = 2 * (self.period + 2 * self.flood_time)
        stabilized: "int | None" = None
        for _ in range(horizon):
            self.step()
            if self.current_spanner() == target:
                stabilized = self.step_count
                break
        return StabilizationReport(
            change_step=change_step,
            stabilized_step=stabilized,
            bound_step=bound,
            spanner=self.current_spanner(),
        )
