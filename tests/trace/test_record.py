"""Tests for whole-stream record/replay and the disk trace cache."""

from array import array

import pytest

from repro.core.config import SystemConfig
from repro.simulation import run_simulation
from repro.trace.events import TaskDequeue, TaskEnqueue
from repro.trace.record import (ReplayApplication, StreamRecorder,
                                TraceCache, default_trace_cache)
from repro.workloads.base import TracedApplication
from repro.workloads.barnes_hut import BarnesHut


def fingerprint(result):
    stats = result.stats
    total = stats.total_scc
    return (stats.execution_time, result.events_processed, total.reads,
            total.writes, total.read_misses, total.write_misses,
            stats.total_invalidations)


def p1_config(scc_size=2048):
    return SystemConfig(clusters=1, processors_per_cluster=1,
                        scc_size=scc_size)


class TestStreamRecorder:
    def test_recording_is_transparent(self):
        """A recorded run produces exactly the stats of a direct run."""
        config = p1_config()
        direct = run_simulation(config, BarnesHut(n_bodies=32, steps=1))
        recorder = StreamRecorder(BarnesHut(n_bodies=32, steps=1))
        recorded = run_simulation(config, recorder)
        assert fingerprint(recorded) == fingerprint(direct)
        assert recorder.streams is not None
        assert sum(len(s) for s in recorder.streams.values()) > 0

    def test_replay_matches_direct_on_other_configs(self):
        """The point of the trace cache: a stream recorded at one SCC
        size replays bit-identically at another."""
        recorder = StreamRecorder(BarnesHut(n_bodies=32, steps=1))
        run_simulation(p1_config(1024), recorder)
        for scc in (2048, 8192):
            direct = run_simulation(p1_config(scc),
                                    BarnesHut(n_bodies=32, steps=1))
            replay = run_simulation(
                p1_config(scc), ReplayApplication(recorder.streams))
            assert fingerprint(replay) == fingerprint(direct)

    def test_unencodable_stream_fails_soft(self):
        """A workload enqueueing non-int items cannot be taped, but the
        simulation itself must still run to completion."""

        class OpaqueItems(TracedApplication):
            name = "opaque"

            def processes(self, config):
                def proc():
                    yield TaskEnqueue(0, "opaque-object")
                    assert (yield TaskDequeue(0)) == "opaque-object"
                return {0: proc()}

        recorder = StreamRecorder(OpaqueItems())
        result = run_simulation(p1_config(), recorder)
        assert result.events_processed == 2
        assert recorder.failed
        assert recorder.streams is None

    def test_replay_rejects_wrong_processor_count(self):
        recorder = StreamRecorder(BarnesHut(n_bodies=32, steps=1))
        run_simulation(p1_config(), recorder)
        replay = ReplayApplication(recorder.streams)
        two_procs = SystemConfig(clusters=1, processors_per_cluster=2)
        with pytest.raises(ValueError):
            replay.processes(two_procs)


class TestTraceCache:
    def test_round_trip(self, tmp_path):
        cache = TraceCache(tmp_path)
        streams = {0: array("q", [1, 100, 3, 25]),
                   1: array("q", [2, 200])}
        assert cache.get("sig") is None
        cache.put("sig", streams)
        back = cache.get("sig")
        assert back is not None
        assert {p: list(s) for p, s in back.items()} == {
            0: [1, 100, 3, 25], 1: [2, 200]}

    def test_signature_mismatch_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("sig-a", {0: array("q", [3, 10])})
        assert cache.get("sig-b") is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("sig", {0: array("q", [3, 10])})
        for path in tmp_path.glob("*.trace"):
            path.write_bytes(b"garbage")
        assert cache.get("sig") is None

    def test_empty_stream_round_trips(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("sig", {0: array("q")})
        assert {p: list(s) for p, s in cache.get("sig").items()} == {0: []}

    def test_default_directory_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        cache = default_trace_cache()
        assert cache.directory == tmp_path / "traces"
        assert cache.directory.is_dir()

    def test_trace_capture_example_replays_bit_for_bit(self, capsys):
        """``examples/trace_capture.py`` stores two captured streams in
        the trace cache and replays them from disk exactly."""
        import runpy
        from pathlib import Path
        example = (Path(__file__).resolve().parents[2] / "examples"
                   / "trace_capture.py")
        assert runpy.run_path(str(example))["main"]() is True
        assert "bit-for-bit identical: True" in capsys.readouterr().out


class TestSignatures:
    def test_signature_covers_parameters_and_layout(self):
        config = p1_config()
        a = BarnesHut(n_bodies=32, steps=1).trace_signature(config)
        b = BarnesHut(n_bodies=64, steps=1).trace_signature(config)
        assert a is not None and b is not None and a != b
        wider = SystemConfig(clusters=1, processors_per_cluster=2)
        c = BarnesHut(n_bodies=32, steps=1).trace_signature(wider)
        assert c != a

    def test_default_repr_refuses_to_sign(self):
        class Anonymous(TracedApplication):
            def processes(self, config):   # pragma: no cover
                return {}

        assert Anonymous().trace_signature(p1_config()) is None
