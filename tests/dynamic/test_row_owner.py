"""The row-owner core, split across owners of one matrix, against scratch.

:class:`~repro.dynamic.serving.RowOwner` is the one implementation of
row repair, table damage and projection that the serial service, the pool
workers and the shard actors share.  The property suite builds a random
(G, H ⊆ G) with its exact distance matrix D and next-hop tables T, then a
random net change — G edges toggled, H edges dropped and added, ids
joined — and splits the rows across W ∈ {1, 2, 3} owners of the same
matrices the way the pool splits them (``u % W``).  Each owner updates its
rows, computes the damage of its own tables and projects them; afterwards
every row must equal ``batched_bfs`` on the new H and every table a
from-scratch ``routing_table``.  The rows include the awkward ones: rows
passed as *fresh* that hold stale garbage (diagonal 0, so they look
repairable), and rows a crashed writer reset to −1.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.dynamic.serving import (
    DenseRows,
    RowChanges,
    RowDelta,
    RowOwner,
    dirty_rows,
    resized,
)
from repro.graph import Graph, batched_bfs
from repro.graph.generators import grid_graph
from repro.routing.tables import routing_table


def bfs_matrix(h: Graph, n: int) -> np.ndarray:
    out = np.full((n, n), -1, dtype=np.int32)
    for s, dist in batched_bfs(h, range(h.num_nodes), arrays=True):
        out[s, : h.num_nodes] = dist
    return out


def table_matrix(h: Graph, g: Graph, n: int) -> np.ndarray:
    out = np.full((n, n), -1, dtype=np.int32)
    for u in range(g.num_nodes):
        for v, hop in routing_table(h, g, u).items():
            out[u, v] = hop
    return out


@st.composite
def churned(draw, max_nodes: int = 11):
    """``(g0, h0, g1, h1, fresh, torn, workers, garbage seed)``."""
    n0 = draw(st.integers(2, max_nodes))
    pairs = [(u, v) for u in range(n0) for v in range(u + 1, n0)]
    in_g = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g0 = Graph(n0, (e for e, k in zip(pairs, in_g) if k))
    edges = sorted(g0.edges())
    in_h = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    h0 = Graph(n0, (e for e, k in zip(edges, in_h) if k))
    n = n0 + draw(st.integers(0, 2))
    g1, h1 = Graph(n, g0.edges()), Graph(n, h0.edges())
    node = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=8)):
        if u == v:
            continue
        if g1.has_edge(u, v):
            g1.remove_edge(u, v)
            h1.remove_edge(u, v)
        else:
            g1.add_edge(u, v)
    for u, v in draw(st.lists(st.sampled_from(sorted(g1.edges()) or [(0, 1)]), max_size=6)):
        if not g1.has_edge(u, v):
            continue
        if h1.has_edge(u, v):
            h1.remove_edge(u, v)
        else:
            h1.add_edge(u, v)
    old = st.integers(0, n0 - 1)
    fresh = draw(st.sets(old, max_size=3))
    torn = draw(st.sets(old, max_size=2)) - fresh
    workers = draw(st.integers(1, 3))
    return g0, h0, g1, h1, sorted(fresh), sorted(torn), workers, draw(st.integers(0, 2**31))


def serve(g0, h0, g1, h1, fresh, torn, workers, seed):
    """One tick through W owners; returns (D, T, damage per owner)."""
    n0, n = g0.num_nodes, g1.num_nodes
    dist = resized(bfs_matrix(h0, n0), n)
    tables = resized(table_matrix(h0, g0, n0), n)
    h_added = sorted(h1.edge_set() - h0.edge_set())
    h_removed = sorted(h0.edge_set() - h1.edge_set())
    dirty = dirty_rows(dist, h1, h_added, h_removed) | set(range(n0, n)) | set(torn)
    rng = np.random.default_rng(seed)
    for s in fresh:  # stale garbage that still looks like a BFS row
        dist[s] = rng.integers(-1, n, size=n)
        dist[s, s] = 0
    for s in torn:  # what the pool supervisor leaves of a torn row
        dist[s] = -1
    rows = sorted(dirty - set(fresh))
    star = {x for e in g0.edge_set() ^ g1.edge_set() for x in e}
    whole = sorted(star | set(range(n0, n)))
    h, g = h1.freeze(), g1.freeze()
    owners = [RowOwner(DenseRows(dist), DenseRows(tables)) for _ in range(workers)]
    delta = RowDelta(tuple(h_added), tuple(h_removed), n0)
    parts = []
    for k, owner in enumerate(owners):
        mine = [s for s in rows if s % workers == k]
        parts.append(owner.update_rows(h, mine, delta, [s for s in fresh if s % workers == k]))
    parts.append(RowChanges.everywhere(torn))  # a crash damages every column
    changed = RowChanges.concat(parts)
    damages = []
    for k, owner in enumerate(owners):
        damage = owner.damage(g, changed, whole, owns=np.arange(n) % workers == k)
        owner.project(g, damage)
        damages.append(damage)
    return dist, tables, damages


@settings(max_examples=250, deadline=None)
@given(churned())
def test_owners_split_across_one_matrix_equal_scratch(case):
    g0, h0, g1, h1, fresh, torn, workers, seed = case
    n = g1.num_nodes
    dist, tables, damages = serve(*case)
    assert np.array_equal(dist, bfs_matrix(h1, n))
    assert np.array_equal(tables, table_matrix(h1, g1, n))
    for k, damage in enumerate(damages):
        ids = damage.table_ids()
        assert np.all(ids % workers == k), "an owner projects only its tables"
        assert len(damage) == ids.size
        assert np.all(np.diff(damage.whole) > 0)
        keys = damage.us.astype(np.int64) * n + damage.cs
        assert np.all(np.diff(keys) > 0), "cells unique and sorted by (table, column)"
        assert not np.isin(damage.us, damage.whole).any()


def test_fresh_rows_count_as_changed_everywhere():
    h0 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    dist = bfs_matrix(h0, 4)
    dist[3] = [2, 1, 1, 0]  # stale, but repairable-looking
    owner = RowOwner(DenseRows(dist))
    rows, counts, cols = owner.update_rows(h0.freeze(), [], RowDelta((), (), 4), fresh=[3])
    assert (rows.tolist(), counts.tolist(), cols.tolist()) == ([3], [-1], [])
    assert dist[3].tolist() == [3, 2, 1, 0]


def test_refresh_reports_nothing_but_writes_every_row():
    h = Graph(3, [(0, 1), (1, 2)])
    dist = np.full((3, 3), -1, dtype=np.int32)
    moved = RowOwner(DenseRows(dist)).update_rows(h.freeze(), range(3), None)
    assert all(a.size == 0 for a in moved)
    assert np.array_equal(dist, bfs_matrix(h, 3))


def test_counters_split_rows_into_repaired_and_bfsed():
    h0 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    h1 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    dist = resized(bfs_matrix(h0, 5), 6)
    before = obs.snapshot()
    changed = RowOwner(DenseRows(dist), prefix="actors").update_rows(
        Graph(6, h1.edges()).freeze(), [0, 4, 5], RowDelta(((0, 4),), (), 5), fresh=[2]
    )
    counters = obs.diff_snapshots(before, obs.snapshot())["counters"]
    assert counters["actors.rows_repaired"] == 2  # rows 0 and 4
    assert counters["actors.rows_bfs"] == 2  # joined id 5, fresh row 2
    assert counters["actors.rows_recomputed"] == 4
    assert changed.rows.tolist() == [0, 4, 5, 2]
    assert changed.counts.tolist() == [2, 2, 1, -1]  # fresh row 2: every column
    assert changed.cols.tolist() == [3, 4, 0, 1, 5]


def test_damage_memory_scales_with_cells_not_n_squared():
    # A 60 x 50 grid (n = 3000) loses one H edge in grid row 30.  Only
    # rows of sources on that grid row move: any other pair has an
    # equally short path crossing the cut on another grid row.
    rows, cols = 60, 50
    g = grid_graph(rows, cols)
    cut = 30 * cols + 24
    h = Graph(g.num_nodes, g.edges())
    h.remove_edge(cut, cut + 1)
    line = range(30 * cols, 31 * cols)
    parts = []
    for (s, old), (_s, new) in zip(
        batched_bfs(g.freeze(), line, arrays=True), batched_bfs(h.freeze(), line, arrays=True)
    ):
        cols = np.flatnonzero(old != new)
        parts.append(RowChanges.of_entries(np.full(cols.size, s), cols))
    changed = RowChanges.concat(parts)
    frozen = g.freeze()
    frozen.numpy_arrays()
    n = g.num_nodes
    tracemalloc.start()
    try:
        damage = RowOwner.damage(frozen, changed, [cut])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert damage.whole.tolist() == [cut]
    assert damage.us.size > 0
    assert peak < n * n / 8, f"damage peaked at {peak} bytes"
