"""CSR path: exact agreement with the set loops, round-trips, caching.

The CSR engines (vectorized frontier expansion, batched multi-source BFS,
preallocated-queue parent forests) share no code with the set loops, so
"both paths agree exactly on every primitive" is a meaningful differential
test, run over the ``small_graphs`` strategy and over deterministic
mid-size graphs large enough to exercise the vectorized path.  Each path is
reached by input type: ``g.freeze()`` runs CSR, a never-frozen ``Graph``
(``g.copy()``) runs the set loops.
"""

import inspect


import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import NodeNotFound, ParameterError
from repro.graph import traversal
from repro.graph import (
    CSRGraph,
    Graph,
    ball,
    batched_bfs,
    bfs_distances,
    bfs_layers,
    bfs_parents,
    bounded_distance,
    multi_source_distances,
    ring,
)
from repro.graph.generators import (
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_connected_gnp,
)

from ..conftest import small_graphs


def mid_size_graphs() -> list[Graph]:
    """Graphs past the size threshold: the vectorized path, both shallow
    (gnp) and deep (path/grid) BFS regimes, plus a disconnected one."""
    disconnected = gnp_random_graph(90, 0.02, seed=5)
    return [
        random_connected_gnp(80, 0.08, seed=1),
        grid_graph(8, 12),
        path_graph(70),
        disconnected,
    ]


# --------------------------------------------------------------------- #
# structural round-trips
# --------------------------------------------------------------------- #


class TestRoundTrip:
    @given(small_graphs())
    def test_edge_set_survives_freeze_thaw(self, g):
        c = g.freeze()
        assert c.edge_set() == g.edge_set()
        assert c.to_graph() == g

    @given(small_graphs())
    def test_protocol_matches_graph(self, g):
        c = CSRGraph.from_graph(g)
        assert c.num_nodes == g.num_nodes
        assert c.num_edges == g.num_edges
        assert c.max_degree() == g.max_degree()
        for u in g.nodes():
            assert c.degree(u) == g.degree(u)
            assert c.neighbors(u) == g.neighbors(u)
            assert list(c.neighbors_csr(u)) == sorted(g.neighbors(u))
            for v in g.nodes():
                assert c.has_edge(u, v) == g.has_edge(u, v)

    def test_freeze_is_cached_until_mutation(self):
        g = path_graph(5)
        c = g.freeze()
        assert g.freeze() is c
        v0 = g.version
        g.add_edge(0, 4)
        assert g.version == v0 + 1
        c2 = g.freeze()
        assert c2 is not c
        assert c2.has_edge(0, 4) and not c.has_edge(0, 4)

    def test_noop_mutation_keeps_snapshot(self):
        g = path_graph(4)
        c = g.freeze()
        assert not g.add_edge(0, 1)  # already present
        assert not g.remove_edge(0, 2)  # never present
        assert g.freeze() is c

    def test_node_bounds_checked(self):
        c = path_graph(3).freeze()
        with pytest.raises(NodeNotFound):
            c.neighbors(3)
        with pytest.raises(NodeNotFound):
            c.has_edge(0, -1)


# --------------------------------------------------------------------- #
# path agreement on every traversal primitive
# --------------------------------------------------------------------- #


def assert_paths_agree(g: Graph, cutoffs=(None, 0, 1, 2, 3)) -> None:
    plain, csr = g.copy(), g.freeze()
    assert traversal._csr_of(plain) is None and traversal._csr_of(csr) is csr
    for u in g.nodes():
        for cut in cutoffs:
            want = bfs_distances(plain, u, cutoff=cut)
            assert bfs_distances(csr, u, cutoff=cut) == want
            assert bfs_distances(g, u, cutoff=cut) == want
            got_layers = bfs_layers(csr, u, cutoff=cut)
            want_layers = bfs_layers(plain, u, cutoff=cut)
            assert [sorted(la) for la in got_layers] == [sorted(la) for la in want_layers]
        assert bfs_parents(csr, u) == bfs_parents(plain, u)
        assert bfs_parents(csr, u, cutoff=2) == bfs_parents(plain, u, cutoff=2)
        for r in range(4):
            assert ball(csr, u, r) == ball(plain, u, r)
            assert ring(csr, u, r) == ring(plain, u, r)


class TestBackendAgreement:
    @settings(max_examples=40)
    @given(small_graphs())
    def test_small_graphs(self, g):
        assert_paths_agree(g, cutoffs=(None, 0, 2))

    @pytest.mark.parametrize("idx", range(4))
    def test_mid_size_graphs(self, idx):
        assert_paths_agree(mid_size_graphs()[idx])

    @pytest.mark.parametrize("g", mid_size_graphs()[:2], ids=["gnp80", "grid8x12"])
    def test_multi_source(self, g):
        plain, csr = g.copy(), g.freeze()
        n = g.num_nodes
        for srcs in ([], [0], [0, n - 1, n // 2], list(range(0, n, 7))):
            for cut in (None, 1, 3):
                assert multi_source_distances(csr, srcs, cutoff=cut) == multi_source_distances(
                    plain, srcs, cutoff=cut
                )

    @pytest.mark.parametrize("idx", range(4))
    def test_set_loops_keep_discovery_order(self, idx):
        # The one set-path level loop serves bfs_layers and
        # multi_source_distances alike; within a layer, nodes come in the
        # order a frontier scan of g.neighbors(u) first reaches them.
        g = mid_size_graphs()[idx].copy()
        for u in range(0, g.num_nodes, 5):
            dist = [-1] * g.num_nodes
            dist[u] = 0
            want, frontier = [[u]], [u]
            while frontier:
                nxt = []
                for x in frontier:
                    for v in g.neighbors(x):
                        if dist[v] < 0:
                            dist[v] = dist[x] + 1
                            nxt.append(v)
                if nxt:
                    want.append(nxt)
                frontier = nxt
            assert bfs_layers(g, u) == want
            assert bfs_layers(g, u, cutoff=2) == want[:3]
            assert multi_source_distances(g, [u]) == dist

    def test_auto_uses_fresh_snapshot_only(self):
        g = random_connected_gnp(80, 0.05, seed=2)
        before = bfs_distances(g, 0)  # sets (nothing frozen yet)
        assert traversal._csr_of(g) is None
        csr = g.freeze()
        assert traversal._csr_of(g) is csr
        assert bfs_distances(g, 0) == before  # csr (fresh snapshot)
        g.add_edge(0, next(v for v in range(1, 80) if not g.has_edge(0, v)))
        assert traversal._csr_of(g) is None  # stale snapshot dropped
        assert bfs_distances(g, 0) == bfs_distances(g.copy(), 0)

    def test_no_primitive_takes_a_backend_keyword(self):
        for fn in (
            bfs_distances,
            bfs_parents,
            bfs_layers,
            ball,
            ring,
            multi_source_distances,
            batched_bfs,
        ):
            assert "backend" not in inspect.signature(fn).parameters, fn.__name__
        with pytest.raises(TypeError):
            bfs_distances(path_graph(3), 0, backend="csr")

    def test_graph_like_objects_run_the_set_loops(self):
        class Fake:
            num_nodes = 3

            def _check(self, u):
                pass

            def neighbors(self, u):
                return {0: {1}, 1: {0, 2}, 2: {1}}[u]

        assert traversal._csr_of(Fake()) is None
        assert bfs_distances(Fake(), 0) == [0, 1, 2]
        assert bfs_layers(Fake(), 2) == [[2], [1], [0]]


# --------------------------------------------------------------------- #
# batched engine
# --------------------------------------------------------------------- #


class TestBatchedBfs:
    @pytest.mark.parametrize("idx", range(4))
    def test_agrees_with_single_source(self, idx):
        g = mid_size_graphs()[idx]
        for cut in (None, 2):
            for chunk in (1, 7, 32):
                got = dict(batched_bfs(g.freeze(), cutoff=cut, chunk=chunk))
                for u in g.nodes():
                    assert got[u] == bfs_distances(g.copy(), u, cutoff=cut)

    @given(small_graphs())
    def test_small_graph_fallback_agrees(self, g):
        for s, dist in batched_bfs(g):
            assert dist == bfs_distances(g, s)

    def test_source_subset_order_and_repeats(self):
        g = random_connected_gnp(80, 0.06, seed=4)
        srcs = [5, 3, 3, 79, 0]
        plain = g.copy()
        out = list(batched_bfs(g.freeze(), srcs))
        assert [s for s, _d in out] == srcs
        for s, dist in out:
            assert dist == bfs_distances(plain, s)

    def test_freezes_only_from_the_size_threshold(self):
        small = random_connected_gnp(40, 0.1, seed=8)
        big = random_connected_gnp(80, 0.06, seed=8)
        for g in (small, big):
            plain = g.copy()
            out = dict(batched_bfs(g, [0, 20]))
            for s, dist in out.items():
                assert dist == bfs_distances(plain, s)
        assert small._csr is None  # per-source set BFS, no snapshot built
        assert big._csr is not None

    def test_invalid_source_and_chunk_rejected(self):
        g = path_graph(5)
        with pytest.raises(NodeNotFound):
            list(batched_bfs(g, [0, 9]))
        with pytest.raises(ParameterError):
            list(batched_bfs(g, [0], chunk=0))

    def test_empty_graph_and_empty_sources(self):
        assert list(batched_bfs(Graph(0))) == []
        assert list(batched_bfs(path_graph(3), [])) == []

    def test_arrays_option_matches_lists_on_both_paths(self):
        import numpy as np

        # Engine path (CSR) and small-graph sets fallback must both yield
        # int32 ndarray rows identical to the list form.
        for g in (random_connected_gnp(80, 0.06, seed=4), path_graph(9)):
            for (s, dist), (s2, row) in zip(
                batched_bfs(g, cutoff=3), batched_bfs(g, cutoff=3, arrays=True)
            ):
                assert s == s2
                assert isinstance(row, np.ndarray) and row.dtype == np.int32
                assert row.tolist() == dist


# --------------------------------------------------------------------- #
# bounded_distance
# --------------------------------------------------------------------- #


class TestBoundedDistance:
    @given(small_graphs())
    def test_matches_bfs_up_to_cap(self, g):
        for cap in (0, 1, 3):
            for s in g.nodes():
                dist = bfs_distances(g, s)
                for t in g.nodes():
                    want = dist[t] if 0 <= dist[t] <= cap else cap + 1
                    assert bounded_distance(g, s, t, cap) == want

    def test_rejects_negative_cap(self):
        with pytest.raises(ParameterError):
            bounded_distance(path_graph(3), 0, 2, -1)


# --------------------------------------------------------------------- #
# AugmentedView fast path
# --------------------------------------------------------------------- #


class TestAugmentedViewCsr:
    def test_frozen_h_agrees_with_set_path(self):
        from repro.graph import AugmentedView

        g = random_connected_gnp(80, 0.06, seed=11)
        h = g.spanning_subgraph(sorted(g.edges())[::2])
        for u in range(0, 80, 13):
            slow = AugmentedView(h.copy(), g, u).distances_from(u)  # unfrozen copy
            h.freeze()
            fast = AugmentedView(h, g, u).distances_from(u)
            assert fast == slow
            for cut in (0, 1, 2):
                assert AugmentedView(h, g, u).distances_from(u, cutoff=cut) == (
                    AugmentedView(h.copy(), g, u).distances_from(u, cutoff=cut)
                )

    def test_batched_numpy_rows_are_plain_ints(self):
        g = random_connected_gnp(80, 0.06, seed=12)
        for _s, dist in batched_bfs(g.freeze(), [0]):
            assert all(type(d) is int for d in dist)
        assert all(type(d) is int for d in bfs_distances(g.freeze(), 0))
        assert not isinstance(bfs_distances(g.freeze(), 0)[0], np.integer)
