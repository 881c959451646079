"""Per-node routing tables computed from the augmented view :math:`H_u`.

The paper's routing scheme (§1): a node *u* knows the advertised sub-graph
H plus its own neighbor set, i.e. it routes on :math:`H_u`.  For a
destination *v* it "forwards packets ... to a closest neighbor u′ to v in
H_u".  A routing table is therefore, per destination, the minimizing
neighbor.

Two kernels compute it:

* :func:`routing_table` — ``deg_G(u)`` *neighbor-sourced* BFS runs on the
  frozen CSR of :math:`H_u` (one :func:`~repro.graph.traversal.batched_bfs`
  call over :meth:`AugmentedView.freeze <repro.graph.views.AugmentedView.\
freeze>`), then one vectorized argmin per destination whose
  first-occurrence semantics reproduce the smallest-neighbor-id tie-break
  exactly.  Per-node cost ``O(deg_G(u) · m_H)``.
* :func:`routing_table_scan` — the definition transcribed: one BFS per
  destination, ``O(n · m_H)`` per node.  Kept as the reference the
  property suite checks the fast kernel (and the incremental tables of
  :mod:`repro.dynamic.serving`) against.

Both return identical tables — entries, omissions and tie-breaks
(property-tested in ``tests/routing``).

The serving layer keeps tables current with two projection kernels over
a maintained distance matrix: :func:`project_table_row` re-argmins one
whole table row, and :func:`project_table_cells` re-argmins a tick's
scattered ``(table, column)`` cells in one padded gather.  They agree
cell for cell (property-tested in ``tests/routing/test_cells.py``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..graph import AugmentedView, Graph, batched_bfs

__all__ = [
    "next_hop",
    "routing_table",
    "routing_table_scan",
    "project_table_cells",
    "project_table_row",
]

#: Stand-in for "unreachable" in the vectorized argmins here and in the
#: serving layer (:mod:`repro.dynamic.serving`).  Any value larger than
#: every finite hop distance works (n is a strict upper bound); halving
#: int32 max keeps ``_FAR + 1`` overflow-safe even in int32 arithmetic.
_FAR = np.iinfo(np.int32).max // 2

#: Cells per gather in :func:`project_table_cells`.  Bounds the padded
#: ``cells × max degree`` scratch of one chunk, however many cells a tick
#: damages.  A memory bound, not a dispatch choice: every input takes the
#: same path.
_CELL_CHUNK = 1024


def _argmin_hops(block: "np.ndarray", nbrs: "list[int]") -> "np.ndarray":
    """Column-wise greedy hop choice over a ``deg × k`` distance block.

    ``block[i, j]`` is the distance from neighbor ``nbrs[i]`` (sorted
    ascending) to the j-th destination, ``-1`` for unreachable.  Returns
    the int32 next hop per destination (``-1`` when no neighbor reaches
    it); ``np.argmin``'s first-occurrence rule realizes the smallest-
    neighbor-id tie-break.  Shared by :func:`routing_table` and the
    incremental tables of :mod:`repro.dynamic.serving`, whose bit-for-bit
    agreement the property suite pins.
    """
    far = np.where(block < 0, _FAR, block)
    slot = np.argmin(far, axis=0)
    best = np.take_along_axis(far, slot[None, :], axis=0)[0]
    hops = np.asarray(nbrs, dtype=np.int32)[slot]
    hops[best >= _FAR] = -1
    return hops


def project_table_row(
    dist: "np.ndarray", row: "np.ndarray", nbrs: "list[int]", u: int, cols: "np.ndarray | None"
) -> int:
    """Re-argmin *u*'s next-hop *row* in place; returns how many entries changed.

    The whole-table projection kernel of the serving layer: every backend's
    :class:`~repro.dynamic.serving.RowOwner` runs it for tables whose
    G-star changed, new ids and readers of a row that changed everywhere
    (scattered cells go through :func:`project_table_cells` instead, which
    must agree with this kernel cell for cell).  ``dist`` is the ``d_H``
    matrix, ``row`` the writable table row of *u* (``tables[u]``, or the
    row a shared matrix's ``row_write`` yields), ``nbrs`` the sorted
    G-neighbors of *u*, ``cols`` the destinations to refresh (``None`` =
    all).
    """
    if cols is None:
        old = row.copy()
        if not nbrs:
            row[:] = -1
            return int((old != row).sum())
        hops = _argmin_hops(dist[nbrs], nbrs)
        row[:] = hops
        row[u] = -1
        return int((old != row).sum())
    old = row[cols].copy()
    if not nbrs:
        row[cols] = -1
        return int((old != row[cols]).sum())
    hops = _argmin_hops(dist[np.ix_(nbrs, cols)], nbrs)
    row[cols] = hops
    row[u] = -1
    return int((old != row[cols]).sum())


def project_table_cells(
    dist: "np.ndarray",
    indptr: "np.ndarray",
    indices: "np.ndarray",
    us: "np.ndarray",
    cs: "np.ndarray",
) -> "np.ndarray":
    """The next hop of table ``us[i]`` toward ``cs[i]``, for every cell *i*.

    ``(indptr, indices)`` is the CSR of G with sorted rows, ``dist`` the
    int32 ``d_H`` matrix (−1 = unreachable).  Cells are taken
    :data:`_CELL_CHUNK` at a time.  Each chunk pads its tables' sorted
    G-neighbors to the chunk's largest degree by repeating each table's
    last neighbor, gathers ``dist[nbr, c]`` for every cell in one go and
    takes one ``argmin`` per cell over the distances read as unsigned, so
    −1 (unreachable) sorts after every real distance.  A repeated
    neighbor never wins over its own first slot, so first occurrence over
    the sorted neighbors is the smallest-id tie-break of
    :func:`project_table_row`.  A cell gets −1 when its table has no
    neighbor, when no neighbor reaches its column, or on the diagonal
    ``c == u``.  Returns int32 hops aligned with the cells; writes nothing.
    """
    hops = np.empty(us.size, dtype=np.int32)
    for lo in range(0, us.size, _CELL_CHUNK):
        u = us[lo : lo + _CELL_CHUNK]
        c = cs[lo : lo + _CELL_CHUNK]
        tables, cell_table = np.unique(u, return_inverse=True)
        start, end = indptr[tables], indptr[tables + 1]
        width = int((end - start).max())
        if width == 0:
            hops[lo : lo + u.size] = -1
            continue
        slots = np.minimum(start[:, None] + np.arange(width), end[:, None] - 1)
        nbr = indices[slots][cell_table]
        far = dist[nbr, c[:, None]]
        best = far.view(np.uint32).argmin(axis=1)
        pick = np.arange(u.size)
        hop = nbr[pick, best]
        hop[(far[pick, best] < 0) | (c == u) | (end == start)[cell_table]] = -1
        hops[lo : lo + u.size] = hop
    return hops


def next_hop(h: Graph, g: Graph, u: int, v: int) -> "int | None":
    """The neighbor of *u* (in G) closest to *v* in :math:`H_u`.

    Returns ``None`` when no neighbor reaches *v* in :math:`H_u` (the pair
    is then unroutable from *u* on this advertised sub-graph).  Ties break
    on smallest neighbor id, so forwarding is deterministic.  ``u == v``
    raises :class:`~repro.errors.ParameterError` (a node does not forward
    to itself), consistent with :func:`~repro.routing.greedy_routing.route`.
    """
    if u == v:
        raise ParameterError("source equals target")
    view = AugmentedView(h, g, u)
    dist_to_v = view.distances_from(v)
    best: "int | None" = None
    best_d = -1
    for w in sorted(g.neighbors(u)):
        dw = dist_to_v[w]
        if dw < 0:
            continue
        if best is None or dw < best_d:
            best, best_d = w, dw
    return best


def routing_table(h: Graph, g: Graph, u: int) -> dict:
    """Full next-hop table for *u*: destination -> closest neighbor.

    Runs ``deg_G(u)`` neighbor-sourced batched BFS runs on the frozen CSR
    of :math:`H_u` — ``O(deg_G(u) · m_H)`` total instead of the
    ``O(n · m_H)`` of one BFS per destination — then one vectorized argmin
    across the ``deg × n`` distance block.  Sources are fed in ascending
    neighbor order, so ``np.argmin``'s first-occurrence rule *is* the
    smallest-neighbor-id tie-break of :func:`next_hop`.  Destinations
    unreachable from every neighbor (and *u* itself) are omitted.
    """
    view = AugmentedView(h, g, u)
    nbrs = sorted(g.neighbors(u))
    if not nbrs:
        return {}
    csr = view.freeze()
    block = np.array([row for _s, row in batched_bfs(csr, nbrs, arrays=True)])
    hops = _argmin_hops(block, nbrs)
    table: dict[int, int] = {}
    for v in range(g.num_nodes):
        if v != u and hops[v] >= 0:
            table[v] = int(hops[v])
    return table


def routing_table_scan(h: Graph, g: Graph, u: int) -> dict:
    """Reference kernel: one BFS per destination in :math:`H_u`.

    ``O(n·(m_H + deg u))`` per node — the transcription of the paper's
    definition that :func:`routing_table` is property-tested against.
    """
    view = AugmentedView(h, g, u)
    table: dict[int, "int | None"] = {}
    nbrs = sorted(g.neighbors(u))
    for v in g.nodes():
        if v == u:
            continue
        dist_to_v = view.distances_from(v)
        best: "int | None" = None
        best_d = -1
        for w in nbrs:
            dw = dist_to_v[w]
            if dw < 0:
                continue
            if best is None or dw < best_d:
                best, best_d = w, dw
        if best is not None:
            table[v] = best
    return table
