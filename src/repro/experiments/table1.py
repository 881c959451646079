"""Table 1 — remote-spanners versus regular spanners, regenerated.

The paper's Table 1 compares nine (input model, spanner type) combinations
by edge count and computation time.  This harness re-creates each row on
concrete instances:

====  =======================  =================================================
row   paper entry              what we run
====  =======================  =================================================
1     (k, k−1)-spanner [2]     greedy (2k−1)-spanner + Baswana–Sen (stretch
                               certified, edges measured)
2     (k, 0)-remote-spanner    the additive (1, 2)-spanner — a (2, 1)-spanner,
      via [2]                  hence a (2, 0)-remote-spanner (§1.2's
                               translation); remote stretch verified directly
3     (1, 0)-spanner           full topology (m edges, the trivial bound)
4     k-conn. (1,0)-rem.-span. Algorithm 4 union (Th. 2); edges vs the exact
                               lower bound; O(1) rounds measured distributedly
5     rand. UDG (1,0)-rem.     same construction on a Poisson UDG (edge count
                               vs the n^{4/3} log n shape; see scaling bench)
6     UBG known-dist spanner   EXTERNAL ([9]; needs metric distances as input
                               — out of the paper's own setting; row reported
                               as citation only, per DESIGN.md substitutions)
7     (1+ε, 1−2ε)-rem.-span.   Theorem 1 construction on a UDG; edges/n and
                               O(ε^{-1}) rounds measured
8     k-fault-tol. geometric   EXTERNAL ([8]; sequential, needs ℝ^d input —
                               citation row)
9     2-conn. (2,−1)-rem.      Theorem 3 construction; edges/n, O(1) rounds
====  =======================  =================================================

Every measured row re-verifies its stretch promise with the independent
checkers before reporting, so the table can't silently drift from the
definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines import additive_two_spanner, baswana_sen_spanner, greedy_spanner
from ..core import (
    build_biconnecting_spanner,
    build_k_connecting_spanner,
    build_remote_spanner,
    is_k_connecting_remote_spanner,
    is_remote_spanner,
    k_connecting_spanner_lower_bound,
    resolve_construction,
)
from ..distributed import run_remspan
from ..graph import sample_pairs
from ..graph.generators import random_connected_gnp
from ..rng import derive_seed
from .runner import largest_component, scaled_udg

__all__ = ["Table1Row", "build_table1", "TABLE1_HEADERS"]

TABLE1_HEADERS = [
    "row",
    "input",
    "spanner",
    "edges",
    "edges/n",
    "rounds",
    "stretch ok",
    "note",
]


@dataclass
class Table1Row:
    row: int
    input_model: str
    spanner_type: str
    edges: "int | str"
    edges_per_n: "float | str"
    rounds: "int | str"
    stretch_ok: "bool | str"
    note: str = ""

    def as_list(self) -> list:
        return [
            self.row,
            self.input_model,
            self.spanner_type,
            self.edges,
            self.edges_per_n,
            self.rounds,
            self.stretch_ok,
            self.note,
        ]


def build_table1(
    n_any: int = 60,
    n_udg: int = 250,
    k: int = 2,
    epsilon: float = 0.5,
    seed: int = 2009,
    verify_pairs: int = 40,
) -> list[Table1Row]:
    """Regenerate Table 1 on a G(n, p) "any graph" and a UDG instance."""
    rows: list[Table1Row] = []

    g_any = random_connected_gnp(n_any, 2.5 / n_any, seed=derive_seed(seed, "any"))
    udg_full, _pts = scaled_udg(n_udg, target_degree=12.0, seed=seed)
    g_udg, _ids = largest_component(udg_full)

    # Row 1 — regular multiplicative spanners on "any graph".
    t = 2 * k - 1
    h_greedy = greedy_spanner(g_any, t)
    h_bs = baswana_sen_spanner(g_any, k, seed=derive_seed(seed, "bs"))
    ok1 = is_remote_spanner(h_greedy, g_any, float(t), 0.0) and is_remote_spanner(
        h_bs, g_any, float(t), 0.0
    )
    rows.append(
        Table1Row(
            1,
            "any graph",
            f"({t},0)-spanner",
            h_greedy.num_edges,
            round(h_greedy.num_edges / g_any.num_nodes, 2),
            "-",
            ok1,
            f"greedy; Baswana-Sen: {h_bs.num_edges} edges",
        )
    )

    # Row 2 — (k, 0)-remote-spanner via a (k, k−1)-spanner ([2] translation).
    h_add = additive_two_spanner(g_any)
    ok2 = is_remote_spanner(h_add, g_any, 2.0, 0.0)
    rows.append(
        Table1Row(
            2,
            "any graph",
            "(2,0)-rem.-span. via (1,2)-spanner",
            h_add.num_edges,
            round(h_add.num_edges / g_any.num_nodes, 2),
            "-",
            ok2,
            "additive spanner is (2,1)-spanner => (2,0)-remote-spanner",
        )
    )

    # Row 3 — the trivial (1, 0)-spanner keeps everything.
    rows.append(
        Table1Row(
            3,
            "any graph",
            "(1,0)-spanner",
            g_any.num_edges,
            round(g_any.num_edges / g_any.num_nodes, 2),
            "-",
            True,
            "all edges by definition",
        )
    )

    # Row 4 — Theorem 2 on "any graph": k-connecting (1, 0)-remote-spanner.
    rs_k = build_k_connecting_spanner(g_any, k=k)
    dist_run = run_remspan(g_any, "kcover", k=k)
    pairs = sample_pairs(g_any, verify_pairs, seed=derive_seed(seed, "pairs4"))
    ok4 = is_k_connecting_remote_spanner(rs_k.graph, g_any, k, 1.0, 0.0, pairs=pairs)
    lb = k_connecting_spanner_lower_bound(g_any, k)
    rows.append(
        Table1Row(
            4,
            "any graph",
            f"{k}-conn. (1,0)-rem.-span.",
            rs_k.num_edges,
            round(rs_k.num_edges / g_any.num_nodes, 2),
            dist_run.communication_rounds,
            ok4,
            f"opt lower bound {lb}; ratio {rs_k.num_edges / lb:.2f}",
        )
    )

    # Row 5 — same construction, random UDG input (the sparsity headline).
    rs_udg = build_k_connecting_spanner(g_udg, k=1)
    ok5 = is_remote_spanner(rs_udg.graph, g_udg, 1.0, 0.0)
    rows.append(
        Table1Row(
            5,
            f"rand. UDG (n={g_udg.num_nodes})",
            "(1,0)-rem.-span.",
            rs_udg.num_edges,
            round(rs_udg.num_edges / g_udg.num_nodes, 2),
            3,  # 2r−1+2β with r=2, β=0; asserted by the distributed tests
            ok5,
            f"full topology: {g_udg.num_edges} edges",
        )
    )

    # Row 6 — external: [9] needs the underlying metric distances.
    rows.append(
        Table1Row(
            6,
            "UBG known dist.",
            "(1+eps,0)-spanner [9]",
            "-",
            "-",
            "-",
            "-",
            "external baseline: requires metric distances, O(log* n) time",
        )
    )

    # Row 7 — Theorem 1 on the UDG.
    rs_eps = build_remote_spanner(g_udg, epsilon=epsilon, method="mis")
    ok7 = is_remote_spanner(
        rs_eps.graph, g_udg, rs_eps.guarantee.alpha, rs_eps.guarantee.beta
    )
    rows.append(
        Table1Row(
            7,
            f"UBG unknown dist. (n={g_udg.num_nodes})",
            f"(1+{epsilon:g}, {1-2*epsilon:g})-rem.-span.",
            rs_eps.num_edges,
            round(rs_eps.num_edges / g_udg.num_nodes, 2),
            1 + 2 * resolve_construction("mis", epsilon=epsilon).info_radius,
            ok7,
            "Th. 1: O(n) edges on doubling UBG",
        )
    )

    # Row 8 — external: fault-tolerant geometric spanners.
    rows.append(
        Table1Row(
            8,
            "points in R^d",
            "k-fault-tol. (1+eps,0)-span. [8]",
            "-",
            "-",
            "-",
            "-",
            "external baseline: sequential, needs coordinates",
        )
    )

    # Row 9 — Theorem 3 on the UDG.
    rs_2c = build_biconnecting_spanner(g_udg)
    pairs9 = sample_pairs(g_udg, verify_pairs, seed=derive_seed(seed, "pairs9"))
    ok9 = is_k_connecting_remote_spanner(rs_2c.graph, g_udg, 2, 2.0, -1.0, pairs=pairs9)
    rows.append(
        Table1Row(
            9,
            f"UBG unknown dist. (n={g_udg.num_nodes})",
            "2-conn. (2,-1)-rem.-span.",
            rs_2c.num_edges,
            round(rs_2c.num_edges / g_udg.num_nodes, 2),
            1 + 2 * resolve_construction("kmis").info_radius,
            ok9,
            "Th. 3: O(n) edges on doubling UBG",
        )
    )
    return rows
