"""The batched cell kernel against the whole-row kernel, cell by cell.

:func:`~repro.routing.tables.project_table_cells` re-argmins scattered
``(table, column)`` cells in padded chunks; every cell must equal what
:func:`~repro.routing.tables.project_table_row` writes at that column of
a freshly projected row — including degree-0 tables, columns no neighbor
reaches, distance ties (smallest neighbor id wins), the diagonal
``c == u`` and chunks that mix degrees or split one table's cells.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.routing import tables
from repro.routing.tables import project_table_cells, project_table_row


def reference(dist: np.ndarray, g: Graph, us, cs) -> np.ndarray:
    indptr, indices = g.freeze().numpy_arrays()
    out = []
    for u, c in zip(us, cs):
        row = np.zeros(g.num_nodes, dtype=np.int32)  # every entry gets written
        project_table_row(dist, row, indices[indptr[u] : indptr[u + 1]].tolist(), u, None)
        out.append(row[c])
    return np.asarray(out, dtype=np.int32)


def batched(dist: np.ndarray, g: Graph, us, cs, chunk: int) -> np.ndarray:
    indptr, indices = g.freeze().numpy_arrays()
    with mock.patch.object(tables, "_CELL_CHUNK", chunk):
        return project_table_cells(
            dist, indptr, indices, np.asarray(us, dtype=np.int32), np.asarray(cs, dtype=np.int32)
        )


@st.composite
def cases(draw, max_nodes: int = 9):
    """``(g, dist, us, cs)``: a graph with isolated ids, a tie-heavy D with
    dead columns, and arbitrary (repeats, diagonal) cells."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n + draw(st.integers(0, 2)), (e for e, k in zip(pairs, keep) if k))
    m = g.num_nodes
    values = draw(st.lists(st.integers(-1, 3), min_size=m * m, max_size=m * m))
    dist = np.asarray(values, dtype=np.int32).reshape(m, m)
    dist[:, sorted(draw(st.sets(st.integers(0, m - 1), max_size=2)))] = -1
    node = st.integers(0, m - 1)
    cells = draw(st.lists(st.tuples(node, node), min_size=1, max_size=24))
    us, cs = zip(*cells)
    return g, dist, list(us), list(cs)


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from([1, 3, 4096]))
def test_cells_equal_whole_row_projection(case, chunk):
    g, dist, us, cs = case
    assert np.array_equal(batched(dist, g, us, cs, chunk), reference(dist, g, us, cs))


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_named_corners(chunk):
    # 0 is isolated; 1 has neighbors {2, 3}; 4 has neighbors {2, 3, 5}.
    g = Graph(6, [(1, 2), (1, 3), (4, 2), (4, 3), (4, 5)])
    dist = np.full((6, 6), -1, dtype=np.int32)
    dist[2] = [-1, 1, 0, 2, 1, 2]
    dist[3] = [-1, 1, 2, 0, 1, 2]  # ties with row 2 at columns 1 and 4
    dist[5] = [-1, 2, 2, 2, 1, 0]
    us = [0, 0, 1, 1, 1, 1, 4, 4, 4, 4]
    cs = [0, 3, 0, 1, 3, 4, 4, 1, 5, 2]
    # degree 0 (x2), dead column, c == u, 3 is closer, tie -> 2, c == u,
    # tie -> 2, 5 is closer, 2 is the column itself
    want = [-1, -1, -1, -1, 3, 2, -1, 2, 5, 2]
    assert batched(dist, g, us, cs, chunk).tolist() == want
    assert want == reference(dist, g, us, cs).tolist()


def test_no_cells_and_no_edges():
    g = Graph(3)
    dist = np.zeros((3, 3), dtype=np.int32)
    assert batched(dist, g, [], [], 4096).size == 0
    assert batched(dist, g, [0, 2], [1, 1], 3).tolist() == [-1, -1]
