"""CSR backend: exact agreement with the set backend, round-trips, caching.

The CSR engines (vectorized frontier expansion, batched multi-source BFS,
preallocated-queue parent forests) share no code with the set-backend
loops, so "both backends agree exactly on every primitive" is a meaningful
differential test, run over the ``small_graphs`` / ``connected_graphs``
strategies and over deterministic mid-size graphs large enough to exercise
the vectorized path (the auto threshold keeps toy graphs on sets).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import NodeNotFound, ParameterError
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
    """Graphs past the auto threshold: the vectorized path, both shallow
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
# backend agreement on every traversal primitive
# --------------------------------------------------------------------- #


def assert_backends_agree(g: Graph, cutoffs=(None, 0, 1, 2, 3)) -> None:
    csr = g.freeze()
    for u in g.nodes():
        for cut in cutoffs:
            want = bfs_distances(g, u, cutoff=cut, backend="sets")
            assert bfs_distances(g, u, cutoff=cut, backend="csr") == want
            assert bfs_distances(csr, u, cutoff=cut) == want
            got_layers = bfs_layers(g, u, cutoff=cut, backend="csr")
            want_layers = bfs_layers(g, u, cutoff=cut, backend="sets")
            assert [sorted(la) for la in got_layers] == [sorted(la) for la in want_layers]
        assert bfs_parents(g, u, backend="csr") == bfs_parents(g, u, backend="sets")
        assert bfs_parents(g, u, cutoff=2, backend="csr") == bfs_parents(
            g, u, cutoff=2, backend="sets"
        )
        for r in range(4):
            assert ball(g, u, r, backend="csr") == ball(g, u, r, backend="sets")
            assert ring(g, u, r, backend="csr") == ring(g, u, r, backend="sets")


class TestBackendAgreement:
    @settings(max_examples=40)
    @given(small_graphs())
    def test_small_graphs(self, g):
        assert_backends_agree(g, cutoffs=(None, 0, 2))

    @pytest.mark.parametrize("idx", range(4))
    def test_mid_size_graphs(self, idx):
        assert_backends_agree(mid_size_graphs()[idx])

    @pytest.mark.parametrize("g", mid_size_graphs()[:2], ids=["gnp80", "grid8x12"])
    def test_multi_source(self, g):
        n = g.num_nodes
        for srcs in ([], [0], [0, n - 1, n // 2], list(range(0, n, 7))):
            for cut in (None, 1, 3):
                assert multi_source_distances(
                    g, srcs, cutoff=cut, backend="csr"
                ) == multi_source_distances(g, srcs, cutoff=cut, backend="sets")

    def test_auto_uses_fresh_snapshot_only(self):
        g = random_connected_gnp(80, 0.05, seed=2)
        before = bfs_distances(g, 0)  # sets (nothing frozen yet)
        g.freeze()
        assert bfs_distances(g, 0) == before  # csr (fresh snapshot)
        g.add_edge(0, next(v for v in range(1, 80) if not g.has_edge(0, v)))
        after = bfs_distances(g, 0)  # sets again (stale snapshot dropped)
        assert after == bfs_distances(g, 0, backend="sets")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            bfs_distances(path_graph(3), 0, backend="numpy")

    def test_csr_backend_needs_freezable_graph(self):
        class Fake:
            num_nodes = 2

            def _check(self, u):
                pass

        with pytest.raises(ParameterError):
            bfs_distances(Fake(), 0, backend="csr")


# --------------------------------------------------------------------- #
# batched engine
# --------------------------------------------------------------------- #


class TestBatchedBfs:
    @pytest.mark.parametrize("idx", range(4))
    def test_agrees_with_single_source(self, idx):
        g = mid_size_graphs()[idx]
        for cut in (None, 2):
            for chunk in (1, 7, 32):
                got = dict(batched_bfs(g, cutoff=cut, chunk=chunk, backend="csr"))
                for u in g.nodes():
                    assert got[u] == bfs_distances(g, u, cutoff=cut, backend="sets")

    @given(small_graphs())
    def test_small_graph_fallback_agrees(self, g):
        for s, dist in batched_bfs(g):
            assert dist == bfs_distances(g, s, backend="sets")

    def test_source_subset_order_and_repeats(self):
        g = random_connected_gnp(80, 0.06, seed=4)
        srcs = [5, 3, 3, 79, 0]
        out = list(batched_bfs(g, srcs, backend="csr"))
        assert [s for s, _d in out] == srcs
        for s, dist in out:
            assert dist == bfs_distances(g, s, backend="sets")

    def test_backend_sets_is_honored_without_freezing(self):
        g = random_connected_gnp(80, 0.06, seed=8)
        out = dict(batched_bfs(g, [0, 40], backend="sets"))
        assert g._csr is None  # no CSR snapshot was built
        for s, dist in out.items():
            assert dist == bfs_distances(g, s, backend="sets")

    def test_invalid_source_chunk_and_backend_rejected(self):
        g = path_graph(5)
        with pytest.raises(NodeNotFound):
            list(batched_bfs(g, [0, 9]))
        with pytest.raises(ParameterError):
            list(batched_bfs(g, [0], chunk=0))
        with pytest.raises(ParameterError):
            list(batched_bfs(g, [0], backend="bogus"))
        with pytest.raises(ParameterError):
            bfs_distances(g.freeze(), 0, backend="bogus")

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
                dist = bfs_distances(g, s, backend="sets")
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
        for _s, dist in batched_bfs(g, [0], backend="csr"):
            assert all(type(d) is int for d in dist)
        assert all(type(d) is int for d in bfs_distances(g.freeze(), 0))
        assert not isinstance(bfs_distances(g.freeze(), 0)[0], np.integer)
