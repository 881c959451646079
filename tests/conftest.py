"""Shared fixtures and hypothesis strategies for the test suite.

The strategies produce small random graphs (and sub-graph pairs) — the
regime where brute-force oracles (path enumeration, exhaustive set cover,
networkx cross-checks) stay instant, which is what lets the property tests
assert *exact* agreement rather than loose sanity.

Every test also runs under a shared-memory leak check: a block the test
process created and left unlinked fails the test.  Blocks of other
processes (a concurrent benchmark or test session) are not its business.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.graph import Graph
from repro.parallel.shm import BLOCK_PREFIX
from repro.rng import derive_seed, ensure_rng
from repro.graph.generators import (
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_connected_gnp,
)


# --------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------- #


@st.composite
def small_graphs(draw, min_nodes: int = 2, max_nodes: int = 10) -> Graph:
    """An arbitrary small graph via a random edge subset."""
    n = draw(st.integers(min_nodes, max_nodes))
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(all_edges), max_size=len(all_edges)))
    return Graph(n, (e for e, keep in zip(all_edges, mask) if keep))


@st.composite
def connected_graphs(draw, min_nodes: int = 2, max_nodes: int = 10) -> Graph:
    """A connected small graph: random tree + random extra edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.floats(0.0, 0.5))
    return random_connected_gnp(n, p, seed=seed)


@st.composite
def graph_with_subgraph(draw, min_nodes: int = 2, max_nodes: int = 9):
    """A (G, H) pair with H a spanning sub-graph of G."""
    g = draw(connected_graphs(min_nodes, max_nodes))
    edges = sorted(g.edges())
    mask = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    h = g.spanning_subgraph(e for e, keep in zip(edges, mask) if keep)
    return g, h


# --------------------------------------------------------------------- #
# pytest fixtures: a small zoo of deterministic graphs
# --------------------------------------------------------------------- #


@pytest.fixture
def petersen() -> Graph:
    """The Petersen graph: 3-regular, girth 5, vertex-transitive."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


@pytest.fixture
def zoo() -> dict:
    """Named structured graphs exercising different regimes."""
    return {
        "path": path_graph(8),
        "cycle": cycle_graph(9),
        "grid": grid_graph(4, 5),
        "gnp": gnp_random_graph(16, 0.3, seed=7),
        "connected_gnp": random_connected_gnp(14, 0.15, seed=8),
    }


#: Root seed for the fixture below — all test randomness derives from it
#: through :mod:`repro.rng`, never the global :mod:`random` state.
TEST_SEED = 12345


@pytest.fixture
def rng(request) -> np.random.Generator:
    """A deterministic per-test generator (stream keyed by the test id),
    routed through ``repro.rng``."""
    return ensure_rng(derive_seed(TEST_SEED, request.node.nodeid))


# --------------------------------------------------------------------- #
# one validator: the construction parameter grid
# --------------------------------------------------------------------- #

#: ``(name, params, valid)``: every entry point that builds trees must
#: accept or reject each set alike, as ``resolve_construction`` does.
CONSTRUCTION_GRID = [
    ("kcover", {}, True),
    ("kcover", {"k": 3}, True),
    ("kcover", {"k": 0}, False),
    ("kmis", {}, True),
    ("kmis", {"k": 1}, True),
    ("kmis", {"k": 3}, True),
    ("kmis", {"k": 0}, False),
    ("mis", {"r": 3}, True),
    ("mis", {"epsilon": 0.5}, True),
    ("mis", {"r": 1}, False),
    ("mis", {"epsilon": 1.5}, False),
    ("greedy", {}, True),
    ("greedy", {"r": 3, "beta": 1}, True),
    ("greedy", {"r": 4, "beta": 0}, True),
    ("greedy", {"r": 1}, False),
    ("greedy", {"r": 3, "beta": -1}, False),
    ("greedy", {"r": 3, "beta": 2}, False),
    ("voronoi", {}, False),
]
CONSTRUCTION_GRID_IDS = ["-".join([name, *(f"{k}={v}" for k, v in params.items())])
                         for name, params, _valid in CONSTRUCTION_GRID]


def _via_builders(g, name, params):
    from repro.core import (
        build_biconnecting_spanner,
        build_k_connecting_spanner,
        build_remote_spanner,
    )

    if name == "kcover" and set(params) <= {"k"}:
        return lambda: build_k_connecting_spanner(g, **params)
    if name == "kmis" and params in ({}, {"k": 2}):
        return lambda: build_biconnecting_spanner(g)
    if name not in ("kcover", "kmis") and set(params) <= {"epsilon"}:
        return lambda: build_remote_spanner(g, params.get("epsilon", 0.5), method=name)
    return None


def _via_maintainer(g, name, params):
    from repro.dynamic import SpannerMaintainer

    if params.get("beta", 1) != 1:  # the maintainer keeps greedy's default β = 1
        return None
    kwargs = {key: v for key, v in params.items() if key != "beta"}
    return lambda: SpannerMaintainer(g, name, **kwargs)


def _via_remspan(g, name, params):
    from repro.distributed import run_remspan

    return None if "epsilon" in params else lambda: run_remspan(g, name, **params)


def _via_link_state(g, name, params):
    from repro.distributed import PeriodicLinkState

    if "epsilon" in params:
        return None
    return lambda: PeriodicLinkState(g.copy(), name, **params)


ENTRY_POINTS = {
    "builders": _via_builders,
    "maintainer": _via_maintainer,
    "remspan": _via_remspan,
    "link_state": _via_link_state,
}


def assert_validates_like_the_table(name, params, valid, entry_points):
    """Each of *entry_points* that can express *params* accepts them iff
    *valid*, and so does ``resolve_construction`` itself."""
    from repro.core import resolve_construction
    from repro.errors import ParameterError

    g = cycle_graph(6)
    calls = {"resolve_construction": lambda: resolve_construction(name, **params)}
    for entry in entry_points:
        call = ENTRY_POINTS[entry](g, name, params)
        if call is not None:
            calls[entry] = call
    for entry, call in calls.items():
        try:
            call()
        except ParameterError:
            assert not valid, f"{entry} rejected a valid set"
        else:
            assert valid, f"{entry} accepted an invalid set"


# --------------------------------------------------------------------- #
# shared-memory leak check, after every test
# --------------------------------------------------------------------- #

_SHM_DIR = Path("/dev/shm")


def shm_segments() -> "set[str]":
    """Names of the package's shared-memory blocks this process created
    that exist right now (empty where ``/dev/shm`` does not exist).  Every
    block owner of the suite is constructed in the test process."""
    if not _SHM_DIR.is_dir():
        return set()
    return {path.name for path in _SHM_DIR.glob(f"{BLOCK_PREFIX}{os.getpid()}-*")}


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Fail the test if it leaves a block behind that was not there before."""
    before = shm_segments()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"shared-memory segments leaked: {sorted(leaked)}"
