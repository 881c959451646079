"""Tests for package-level plumbing: version, errors, rng discipline.

The layering checks live in ``tests/test_layering.py``.
"""

import numpy as np

import repro
from repro.errors import (
    GraphError,
    InfeasibleError,
    NodeNotFound,
    NotASubgraphError,
    ParameterError,
    ProtocolError,
    ReproError,
)
from repro.rng import derive_seed, ensure_rng, spawn


class TestVersionAndExports:
    def test_version_present(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.distributed
        import repro.experiments
        import repro.geometry
        import repro.graph
        import repro.paths
        import repro.routing
        import repro.setcover

        for pkg in (
            repro.analysis,
            repro.baselines,
            repro.core,
            repro.distributed,
            repro.experiments,
            repro.geometry,
            repro.graph,
            repro.paths,
            repro.routing,
            repro.setcover,
        ):
            for name in pkg.__all__:
                assert hasattr(pkg, name), f"{pkg.__name__}.{name}"


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            GraphError,
            NodeNotFound,
            NotASubgraphError,
            ParameterError,
            InfeasibleError,
            ProtocolError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(NodeNotFound, GraphError)

    def test_node_not_found_message(self):
        err = NodeNotFound(7, 5)
        assert "7" in str(err) and "5" in str(err)
        assert err.node == 7 and err.n == 5


class TestRng:
    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_seeded_deterministic(self):
        a = ensure_rng(5).integers(0, 10**9)
        b = ensure_rng(5).integers(0, 10**9)
        assert a == b

    def test_derive_seed_tags_matter(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_spawn_streams_independent(self):
        streams = list(spawn(3, 4))
        draws = [g.integers(0, 10**9) for g in streams]
        assert len(set(draws)) == len(draws)  # overwhelmingly likely
