"""The information footprint of every construction row, against its trees.

Algorithm 3 builds ``T_u`` from the edges incident to ``B_G(u, D)``, with
D = r − 1 + β the row's ``info_radius``; the maintainer's dirty ball runs
at exactly that radius.  The oracle here checks the claim tree by tree:
an edge insert, edge delete or node leave whose endpoints all lie farther
than D from u, in the old graph and in the new one, leaves u's parent map
unchanged.  The tightness test shows the radius cannot shrink: at D − 1
some far edit changes some tree, for every row.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import resolve_construction
from repro.graph import Graph
from repro.graph.generators import random_connected_gnp
from repro.graph.traversal import ball

#: One entry per construction row (and the parameters that move its D).
ROWS = [
    ("kcover", {"k": 1}),
    ("kcover", {"k": 2}),
    ("kmis", {}),
    ("mis", {"r": 2}),
    ("mis", {"r": 3}),
    ("greedy", {"r": 3, "beta": 0}),
    ("greedy", {"r": 3, "beta": 1}),
]
ROW_IDS = ["-".join([name, *(f"{k}={v}" for k, v in params.items())]) for name, params in ROWS]


def edits(g: Graph):
    """Every single edit of *g*: ``(kind, endpoints, apply)``, *apply*
    making the edit on a copy of *g*."""
    n = g.num_nodes
    for a in range(n):
        for b in range(a + 1, n):
            if g.has_edge(a, b):
                yield "delete", (a, b), lambda h, a=a, b=b: h.remove_edge(a, b)
            else:
                yield "insert", (a, b), lambda h, a=a, b=b: h.add_edge(a, b)
    for x in range(n):
        if g.degree(x):
            yield "leave", (x, *g.neighbors(x)), lambda h, x=x: h.remove_node(x)


def far_edits(g: Graph, u: int, radius: int):
    """``(kind, edited graph)`` for each edit of *g* whose endpoints all lie
    farther than *radius* from *u* before and after it."""
    near = ball(g, u, radius)
    for kind, ends, apply in edits(g):
        if near.intersection(ends):
            continue
        g2 = g.copy()
        apply(g2)
        if not ball(g2, u, radius).intersection(ends):
            yield kind, g2


@st.composite
def rooted_graphs(draw):
    """A sparse connected graph (long distances) and a root."""
    n = draw(st.integers(8, 18))
    g = random_connected_gnp(n, draw(st.floats(0.0, 0.3)), seed=draw(st.integers(0, 2**32 - 1)))
    return g, draw(st.integers(0, n - 1))


@pytest.mark.parametrize("name,params", ROWS, ids=ROW_IDS)
@settings(max_examples=150, deadline=None)
@given(case=rooted_graphs(), data=st.data())
def test_edit_outside_the_footprint_keeps_the_tree(name, params, case, data):
    g, u = case
    c = resolve_construction(name, **params)
    far = list(far_edits(g, u, c.info_radius))
    assume(far)
    kind, g2 = data.draw(st.sampled_from(far), label="edit")
    before, after = c.tree_fn(g, u), c.tree_fn(g2, u)
    assert after.parent == before.parent, f"a far {kind} changed T_{u} of {c.label}"


@pytest.mark.parametrize("name,params", ROWS, ids=ROW_IDS)
def test_footprint_is_tight(name, params):
    c = resolve_construction(name, **params)
    for seed in range(200):
        g = random_connected_gnp(12, 0.15, seed=seed)
        for u in g.nodes():
            before = c.tree_fn(g, u).parent
            for _kind, g2 in far_edits(g, u, c.info_radius - 1):
                if c.tree_fn(g2, u).parent != before:
                    return
    pytest.fail(f"no edit outside the (D − 1)-ball changed a tree of {c.label}")
