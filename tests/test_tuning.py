"""repro.tuning: env/programmatic overrides and the calibration harness."""

import pytest

from repro import tuning
from repro.errors import ParameterError
from repro.graph import batched_bfs
from repro.graph.generators import path_graph


@pytest.fixture(autouse=True)
def _clean_tuning():
    tuning.reset()
    yield
    tuning.reset()


class TestOverrides:
    def test_defaults(self):
        t = tuning.get()
        assert t.batch_chunk == tuning.DEFAULT_BATCH_CHUNK
        assert t.auto_min_nodes == tuning.DEFAULT_AUTO_MIN_NODES
        assert t.parallel_min_nodes == tuning.DEFAULT_PARALLEL_MIN_NODES
        assert t.auto_max_workers == tuning.DEFAULT_AUTO_MAX_WORKERS
        assert t.small_frontier == tuning.DEFAULT_SMALL_FRONTIER
        assert t.obs == tuning.DEFAULT_OBS
        assert t.faults == tuning.DEFAULT_FAULTS == 0  # injection is opt-in
        assert t.read_retries == tuning.DEFAULT_READ_RETRIES

    def test_obs_may_be_zero_but_not_negative(self):
        assert tuning.configure(obs=0).obs == 0
        with pytest.raises(ParameterError):
            tuning.configure(obs=-1)
        with pytest.raises(ParameterError):
            tuning.configure(batch_chunk=0)  # every other knob keeps floor 1

    def test_faults_gate_may_be_zero(self):
        assert tuning.configure(faults=0).faults == 0
        assert tuning.configure(faults=1).faults == 1
        with pytest.raises(ParameterError):
            tuning.configure(faults=-1)

    def test_read_retries_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_READ_RETRIES", "512")
        tuning.reset()
        assert tuning.get().read_retries == 512
        with pytest.raises(ParameterError):
            tuning.configure(read_retries=0)

    def test_obs_env_words(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "off")
        tuning.reset()
        assert tuning.get().obs == 0
        monkeypatch.setenv("REPRO_OBS", "on")
        tuning.reset()
        assert tuning.get().obs == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "17")
        monkeypatch.setenv("REPRO_AUTO_MIN_NODES", "5")
        monkeypatch.setenv("REPRO_AUTO_MAX_WORKERS", "2")
        monkeypatch.setenv("REPRO_SMALL_FRONTIER", "3")
        tuning.reset()
        t = tuning.get()
        assert t.batch_chunk == 17 and t.auto_min_nodes == 5
        assert t.auto_max_workers == 2 and t.small_frontier == 3

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "lots")
        tuning.reset()
        with pytest.raises(ParameterError):
            tuning.get()

    def test_configure_and_reset(self):
        tuning.configure(batch_chunk=8)
        assert tuning.get().batch_chunk == 8
        tuning.reset()
        assert tuning.get().batch_chunk == tuning.DEFAULT_BATCH_CHUNK

    def test_configure_rejects_unknown_and_invalid(self):
        with pytest.raises(ParameterError):
            tuning.configure(warp_factor=9)
        with pytest.raises(ParameterError):
            tuning.configure(batch_chunk=0)

    def test_overridden_context_restores_on_error(self):
        before = tuning.get()
        with pytest.raises(RuntimeError):
            with tuning.overridden(auto_min_nodes=2):
                assert tuning.get().auto_min_nodes == 2
                raise RuntimeError("boom")
        assert tuning.get() == before


class TestKnobsSteerTheEngines:
    def test_auto_min_nodes_flips_backend(self):
        # With the threshold above n, `auto` picks sets even on a frozen
        # graph; below n it rides the cached snapshot.  Results agree
        # (that's the backends' property); here we check the dispatch knob
        # actually moves by probing the internal selector.
        from repro.graph.traversal import _csr_of

        g = path_graph(30)
        g.freeze()
        with tuning.overridden(auto_min_nodes=100):
            assert _csr_of(g, "auto") is None
        with tuning.overridden(auto_min_nodes=10):
            assert _csr_of(g, "auto") is g.freeze()

    def test_batch_chunk_default_comes_from_tuning(self):
        g = path_graph(40)
        with tuning.overridden(batch_chunk=3, auto_min_nodes=1):
            a = list(batched_bfs(g))
        b = list(batched_bfs(g))
        assert a == b  # chunking never changes results

    def test_auto_max_workers_caps_auto_resolution(self):
        from repro.parallel import resolve_workers

        assert resolve_workers("auto", cpu_count=64) == tuning.DEFAULT_AUTO_MAX_WORKERS
        with tuning.overridden(auto_max_workers=2):
            assert resolve_workers("auto", cpu_count=64) == 2
        with tuning.overridden(auto_max_workers=9):
            assert resolve_workers("auto", cpu_count=64) == 9
            assert resolve_workers("auto", cpu_count=3) == 3  # still cpu-bound

    def test_small_frontier_extremes_agree(self):
        # Force the pure-Python path (huge threshold) and the vectorized
        # path (threshold 1) over the same deep skinny graph; distances
        # must match exactly — the knob only moves the crossover.
        from repro.graph import bfs_distances

        g = path_graph(60)
        csr = g.freeze()
        with tuning.overridden(small_frontier=1000):
            a = bfs_distances(csr, 0)
        with tuning.overridden(small_frontier=1):
            b = bfs_distances(csr, 0)
        assert a == b == list(range(60))


class TestCalibrate:
    def test_calibrate_quick_shape(self):
        result = tuning.calibrate(n=256, seed=7, quick=True)
        assert result["auto_min_nodes"]["recommended"] >= 1
        assert result["batch_chunk"]["recommended"] in (16, 32, 64, 128, 256)
        assert len(result["auto_min_nodes"]["rows"]) == 5
        assert all(r["apsp_s"] > 0 for r in result["batch_chunk"]["rows"])

    def test_tune_cli_prints_recommendations(self, capsys):
        from repro.cli import main

        assert main(["tune", "--quick", "--n", "256"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_AUTO_MIN_NODES" in out and "REPRO_BATCH_CHUNK" in out
        assert "recommended:" in out
