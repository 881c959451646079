"""repro.tuning (the ``obs`` switch) and the engines' dispatch constants."""

import pytest

from repro import tuning
from repro.errors import ParameterError
from repro.graph import batched_bfs, traversal
from repro.graph.generators import path_graph
from repro.parallel import pool


@pytest.fixture(autouse=True)
def _clean_tuning():
    tuning.reset()
    yield
    tuning.reset()


class TestOverrides:
    def test_defaults(self):
        assert tuning.get().obs == tuning.DEFAULT_OBS == 1

    def test_obs_may_be_zero_but_not_negative(self):
        with tuning.overridden(obs=0) as t:
            assert t.obs == 0 and tuning.get().obs == 0
        with pytest.raises(ParameterError):
            tuning.Tuning(obs=-1)

    def test_obs_env_words(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "off")
        tuning.reset()
        assert tuning.get().obs == 0
        monkeypatch.setenv("REPRO_OBS", "on")
        tuning.reset()
        assert tuning.get().obs == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        tuning.reset()
        assert tuning.get().obs == 0
        monkeypatch.setenv("REPRO_OBS", "2")  # any non-zero int records
        tuning.reset()
        assert tuning.get().obs == 2

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "lots")
        tuning.reset()
        with pytest.raises(ParameterError):
            tuning.get()

    def test_reset_rereads_the_environment(self, monkeypatch):
        assert tuning.get().obs == 1
        monkeypatch.setenv("REPRO_OBS", "0")
        assert tuning.get().obs == 1  # read once, at first use
        tuning.reset()
        assert tuning.get().obs == 0

    def test_overridden_rejects_unknown_and_invalid(self):
        before = tuning.get()
        with pytest.raises(TypeError):
            with tuning.overridden(batch_chunk=8):
                pass
        with pytest.raises(ParameterError):
            with tuning.overridden(obs=-1):
                pass
        assert tuning.get() == before

    def test_overridden_context_restores_on_error(self):
        before = tuning.get()
        with pytest.raises(RuntimeError):
            with tuning.overridden(obs=0):
                assert tuning.get().obs == 0
                raise RuntimeError("boom")
        assert tuning.get() == before


class TestKnobsSteerTheEngines:
    def test_auto_min_nodes_flips_backend(self, monkeypatch):
        # With the threshold above n, a frozen Graph stays on the set
        # loops; below n it rides the cached snapshot.  Results agree
        # (that's the paths' property); here we check the dispatch
        # constant actually moves by probing the internal selector.
        g = path_graph(30)
        csr = g.freeze()
        monkeypatch.setattr(traversal, "_AUTO_MIN_NODES", 100)
        assert traversal._csr_of(g) is None
        assert traversal._csr_of(csr) is csr  # a snapshot is always CSR
        monkeypatch.setattr(traversal, "_AUTO_MIN_NODES", 10)
        assert traversal._csr_of(g) is csr

    def test_chunk_never_changes_results(self, monkeypatch):
        g = path_graph(40)
        monkeypatch.setattr(traversal, "_AUTO_MIN_NODES", 1)
        a = list(batched_bfs(g, chunk=3))
        b = list(batched_bfs(g))
        assert a == b  # chunking never changes results

    def test_auto_max_workers_caps_auto_resolution(self, monkeypatch):
        assert pool._AUTO_MAX_WORKERS == 4
        assert pool.resolve_workers("auto", cpu_count=64) == 4
        monkeypatch.setattr(pool, "_AUTO_MAX_WORKERS", 2)
        assert pool.resolve_workers("auto", cpu_count=64) == 2
        monkeypatch.setattr(pool, "_AUTO_MAX_WORKERS", 9)
        assert pool.resolve_workers("auto", cpu_count=64) == 9
        assert pool.resolve_workers("auto", cpu_count=3) == 3  # still cpu-bound

    def test_small_frontier_extremes_agree(self, monkeypatch):
        # Force the pure-Python path (huge threshold) and the vectorized
        # path (threshold 1) over the same deep skinny graph; distances
        # must match exactly — the constant only moves the crossover.
        g = path_graph(60)
        csr = g.freeze()
        monkeypatch.setattr(traversal, "_SMALL_FRONTIER", 1000)
        a = traversal.bfs_distances(csr, 0)
        monkeypatch.setattr(traversal, "_SMALL_FRONTIER", 1)
        b = traversal.bfs_distances(csr, 0)
        assert a == b == list(range(60))
