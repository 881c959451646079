"""``dom_tree_kcover`` (bitmask greedy) equals the set-based reference.

Equality is of the per-root ``parent`` map *in pick order*: the same
relays, chosen in the same sequence, which pins the paper's gain rule
``|N(x) ∩ S|`` and its smallest-id tie-break, not just the relay set.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dom_tree_kcover
from repro.experiments import scaled_udg
from repro.graph import Graph
from repro.graph.generators import complete_graph, gnp_random_graph, star_graph

from ..conftest import small_graphs
from .kcover_reference import reference_kcover

KS = (1, 2, 3)


def assert_same_trees(g, roots=None) -> None:
    for u in g.nodes() if roots is None else roots:
        for k in KS:
            got = dom_tree_kcover(g, u, k)
            want = reference_kcover(g, u, k)
            assert list(got.parent.items()) == list(want.parent.items()), (u, k)


@st.composite
def gnp_graphs(draw, max_nodes: int = 40):
    """G(n, p) from sparse (tree-like 2-rings) to dense (many ties)."""
    n = draw(st.integers(1, max_nodes))
    p = draw(st.sampled_from((0.05, 0.1, 0.2, 0.4, 0.7, 0.95)))
    return gnp_random_graph(n, p, seed=draw(st.integers(0, 2**32 - 1)))


@given(gnp_graphs())
@settings(max_examples=60, deadline=None)
def test_gnp_graphs_match_reference(g):
    assert_same_trees(g)


@given(small_graphs(min_nodes=1, max_nodes=10))
@settings(max_examples=60, deadline=None)
def test_small_graphs_match_reference(g):
    assert_same_trees(g)


@given(st.integers(20, 120), st.sampled_from((4.0, 8.0, 14.0)), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_unit_disk_graphs_match_reference(n, degree, seed):
    g, _pts = scaled_udg(n, target_degree=degree, seed=seed)
    assert_same_trees(g)


@given(gnp_graphs(max_nodes=90))
@settings(max_examples=20, deadline=None)
def test_csr_input_matches_reference(g):
    csr = g.freeze()
    for u in g.nodes():
        for k in KS:
            got = dom_tree_kcover(csr, u, k)
            assert list(got.parent.items()) == list(reference_kcover(g, u, k).parent.items())


@pytest.mark.parametrize(
    "g, u",
    [
        (complete_graph(6), 2),  # N(u) is everything: empty 2-ring
        (star_graph(7), 0),  # the centre of a star: empty 2-ring
        (Graph(5, [(1, 2), (2, 3)]), 0),  # isolated root
        (Graph(1), 0),  # a one-node graph
    ],
)
def test_no_two_ring_gives_the_bare_root(g, u):
    for k in KS:
        assert dom_tree_kcover(g, u, k).parent == {u: u} == reference_kcover(g, u, k).parent
        assert dom_tree_kcover(g.freeze(), u, k).parent == {u: u}


def test_ties_break_on_the_smallest_id():
    # Candidates 1, 2 and 3 each reach the same two 2-ring nodes: k=1 needs
    # one relay, and it must be the smallest id.
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5)])
    assert dom_tree_kcover(g, 0, 1).parent == {0: 0, 1: 0}
    assert list(dom_tree_kcover(g, 0, 2).parent) == [0, 1, 2]
