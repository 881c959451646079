"""Incremental BFS-row repair, cross-checked against a fresh batched BFS.

:func:`~repro.graph.traversal.repair_rows` takes exact BFS rows of the
graph *before* a net edge delta and returns only the entries that move.
The suite builds random graphs and random net deltas — removals and
insertions in one delta, a node isolated by a leave, joins that grow the
id space with −1-padded columns, flaps that cancel, disconnected
components — applies the returned entries, and asserts every row equals
``batched_bfs`` on the new graph.  Repairing an already-repaired row must
change nothing (the crash-retry path of the shard workers relies on it).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.graph import Graph, batched_bfs, repair_rows
from repro.graph.generators import path_graph, random_connected_gnp
from repro.graph.traversal import orphaned_far_ends, repairable_rows, row_changes


def bfs_matrix(g: Graph, rows, n: int) -> np.ndarray:
    out = np.full((len(rows), n), -1, dtype=np.int32)
    for i, (_s, dist) in enumerate(batched_bfs(g.freeze(), rows, arrays=True)):
        out[i, : g.num_nodes] = dist
    return out


def net_delta(before: Graph, after: Graph):
    old, new = before.edge_set(), after.edge_set()
    return sorted(new - old), sorted(old - new)


def padded(before: Graph, n: int, capacity: int = 0) -> np.ndarray:
    """Old rows at the new size n (joined ids read −1), optionally as a
    view into a larger buffer — the shape shared matrices have."""
    size = max(n, capacity)
    buf = np.full((size, size), -1, dtype=np.int32)
    buf[: before.num_nodes, : before.num_nodes] = bfs_matrix(
        before, range(before.num_nodes), before.num_nodes
    )
    return buf[:n, :n]


def check(before: Graph, after: Graph, rows=None, capacity: int = 0):
    """Repair *rows* across before → after; returns the repaired matrix."""
    n = after.num_nodes
    rows = list(range(before.num_nodes)) if rows is None else list(rows)
    h_added, h_removed = net_delta(before, after)
    d = padded(before, n, capacity)
    r, c, v = repair_rows(after, d, rows, h_added, h_removed)
    assert np.isin(r, rows).all()
    assert (v != d[r, c]).all(), "only moved entries are returned"
    d = d.copy()
    d[r, c] = v
    assert np.array_equal(d[rows], bfs_matrix(after, rows, n))
    again = repair_rows(after, d, rows, h_added, h_removed)
    assert again[0].size == 0, "repairing exact rows again must change nothing"
    return d


@st.composite
def churned(draw, max_nodes: int = 11):
    """``(before, after)``: a random graph and the same graph after a
    random net delta, possibly with joined ids, a leave and a flap."""
    n0 = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n0) for v in range(u + 1, n0)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    before = Graph(n0, (e for e, k in zip(pairs, keep) if k))
    n = n0 + draw(st.integers(0, 3))
    after = Graph(n, before.edges())
    node = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=10)):
        if u == v:
            continue
        if after.has_edge(u, v):
            after.remove_edge(u, v)
        else:
            after.add_edge(u, v)
    edges = sorted(after.edges())
    if edges and draw(st.booleans()):  # a flap: gone and back within the delta
        x, y = edges[draw(st.integers(0, len(edges) - 1))]
        after.remove_edge(x, y)
        after.add_edge(x, y)
    if draw(st.booleans()):  # a leave: isolate one old node
        x = draw(st.integers(0, n0 - 1))
        for z in list(after.neighbors(x)):
            after.remove_edge(x, z)
    return before, after


class TestMatchesBfs:
    @settings(max_examples=300, deadline=None)
    @given(churned())
    def test_every_row(self, case):
        check(*case)

    @settings(max_examples=100, deadline=None)
    @given(churned(), st.data())
    def test_row_subset(self, case, data):
        before, _after = case
        rows = data.draw(st.sets(st.integers(0, before.num_nodes - 1)))
        check(*case, rows=sorted(rows))

    @settings(max_examples=100, deadline=None)
    @given(churned())
    def test_row_strided_view(self, case):
        # Shared matrices are views into a buffer with capacity headroom.
        check(*case, capacity=case[1].num_nodes + 5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 30))
    def test_larger_graphs(self, seed, removals, insertions):
        rng = np.random.default_rng(seed)
        before = random_connected_gnp(90, 0.04, seed=seed)
        after = before.copy()
        edges = sorted(after.edges())
        for i in rng.choice(len(edges), size=min(removals, len(edges)), replace=False):
            after.remove_edge(*edges[i])
        for _ in range(insertions):
            u, v = (int(x) for x in rng.choice(90, size=2, replace=False))
            after.add_edge(u, v)
        check(before, after)


class TestCases:
    def test_leave_isolates_a_node(self):
        before = random_connected_gnp(30, 0.1, seed=3)
        after = before.copy()
        for z in list(after.neighbors(7)):
            after.remove_edge(7, z)
        d = check(before, after)
        others = [w for w in range(30) if w != 7]
        assert (d[others, 7] == -1).all()
        assert (d[7, others] == -1).all() and d[7, 7] == 0

    def test_join_grows_the_id_space(self):
        before = path_graph(5)
        after = Graph(7, before.edges())
        after.add_edge(4, 5)
        after.add_edge(5, 6)
        d = check(before, after)
        assert d[0].tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_bridge_removal_disconnects(self):
        before = path_graph(6)
        after = before.copy()
        after.remove_edge(2, 3)
        d = check(before, after)
        assert d[0].tolist() == [0, 1, 2, -1, -1, -1]

    def test_detour_is_longer(self):
        # Removing a chord forces the long way round a cycle: the affected
        # entries are relabelled from their unaffected boundary.
        before = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        after = before.copy()
        after.remove_edge(0, 3)
        d = check(before, after)
        assert d[0].tolist() == [0, 1, 2, 3, 2, 1]

    def test_inserted_edge_is_not_a_surviving_parent(self):
        # From 0, 2 hangs off 1 and 3 off 0.  Removing 1-2 and 0-3 while
        # inserting 3-2 makes 3-2 look like a tight parent edge of 2 on the
        # old distances (d(3) + 1 == d(2)) — but 3 itself moves away, so 2
        # must still be seeded as orphaned: it ends at 4, not 2.
        before = Graph(6, [(0, 1), (1, 2), (0, 3), (1, 5), (5, 3)])
        after = Graph(6, [(0, 1), (1, 5), (5, 3), (3, 2)])
        d = check(before, after)
        assert d[0].tolist() == [0, 1, 4, 3, -1, 2]

    def test_empty_delta_and_rows(self):
        g = path_graph(4)
        d = padded(g, 4)
        for args in ((g, d, [0, 1], (), ()), (g, d, [], [(0, 3)], [])):
            r, c, v = repair_rows(*args)
            assert r.size == c.size == v.size == 0

    def test_column_count_must_match(self):
        g = path_graph(4)
        with pytest.raises(ParameterError, match="columns"):
            repair_rows(g, np.zeros((4, 3), dtype=np.int32), [0], [], [(0, 1)])

    def test_rows_must_be_contiguous(self):
        g = path_graph(4)
        with pytest.raises(ParameterError, match="contiguous"):
            repair_rows(g, padded(g, 4).T, [0], [], [(0, 1)])

    def test_inserted_edge_must_be_in_the_graph(self):
        g = path_graph(4)
        with pytest.raises(ParameterError, match="not in the graph"):
            repair_rows(g, padded(g, 4), [0], [(0, 3)], [(1, 2)])


class TestHelpers:
    def test_repairable_rows_sends_joined_and_torn_rows_to_bfs(self):
        d = padded(path_graph(4), 6)
        d = d.copy()
        d[2] = -1  # a row a crashed writer left reset
        repair, bfs = repairable_rows(d, [0, 1, 2, 3, 4, 5], old_n=4)
        assert repair == [0, 1, 3]
        assert bfs == [2, 4, 5]

    def test_row_changes_groups_by_row(self):
        rows = np.array([1, 1, 4])
        cols = np.array([0, 2, 3])
        vals = np.array([5, 6, 7])
        out = [(r, c.tolist(), v.tolist()) for r, c, v in row_changes(rows, cols, vals)]
        assert out == [(1, [0, 2], [5, 6]), (4, [3], [7])]
        assert list(row_changes(rows[:0], cols[:0], vals[:0])) == []

    def test_orphaned_far_ends_honours_exclude(self):
        # 0-1-2 and 0-3-2: removing 1-2 leaves 3 as 2's surviving parent,
        # unless 3-2 is excluded (it is an inserted edge).
        before = Graph(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        d = padded(before, 4)
        after = before.copy()
        after.remove_edge(1, 2)
        assert list(orphaned_far_ends(d, after, [(1, 2)], [0])) == []
        found = list(orphaned_far_ends(d, after, [(1, 2)], [0], exclude={(2, 3)}))
        assert [(far, mask.tolist()) for far, mask in found] == [(2, [True])]
