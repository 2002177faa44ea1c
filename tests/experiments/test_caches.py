"""Cache-robustness and worker-pool tests for the sweep runner.

Covers the failure modes a long-lived on-disk cache actually meets:
corrupt or truncated entries (killed writers, disk trouble), digest
collisions, and concurrent ``--jobs`` writers racing on one directory.
"""

import logging
from array import array

import pytest

from repro.experiments import SweepSpec, run_sweep, runner
from repro.experiments.runner import (ExperimentProfile, ResultCache,
                                      RunStats, _worker_pool)
from repro.trace.packed import OP_COMPUTE, OP_READ
from repro.trace.record import TraceCache


@pytest.fixture
def tiny_profile():
    return ExperimentProfile(
        name="tiny", ladder_scale=8,
        barnes_bodies=32, barnes_steps=1,
        mp3d_particles=60, mp3d_steps=1,
        cholesky_n=64,
        multiprog_instructions=2000, multiprog_quantum=500)


def make_stats(**overrides):
    base = dict(execution_time=123, read_miss_rate=0.25, miss_rate=0.125,
                invalidations=0, reads=80, writes=20, events=100,
                instrument=None)
    base.update(overrides)
    return RunStats(**base)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = make_stats(instrument={"bus_peak": 0.5})
        cache.put("key", stats)
        assert cache.get("key") == stats
        assert cache.get("other") is None

    def test_corrupt_entry_is_deleted_and_warned_once(self, tmp_path,
                                                      caplog):
        cache = ResultCache(tmp_path)
        for key in ("a", "b"):
            cache.put(key, make_stats())
            cache._path(key).write_text("{not json")
        with caplog.at_level(logging.WARNING, logger=runner.__name__):
            assert cache.get("a") is None
            assert cache.get("b") is None
        assert not cache._path("a").exists()
        assert not cache._path("b").exists()
        warnings = [rec for rec in caplog.records
                    if "corrupt" in rec.getMessage()]
        assert len(warnings) == 1
        # A healthy rewrite heals the entry.
        cache.put("a", make_stats())
        assert cache.get("a") == make_stats()

    def test_wrong_shape_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", make_stats())
        cache._path("a").write_text('{"unexpected": 1}')
        assert cache.get("a") is None
        assert not cache._path("a").exists()

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", make_stats())
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []


class TestTraceCache:
    def tape(self):
        return {0: array("q", [OP_READ, 64, OP_COMPUTE, 3])}

    def test_round_trip(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("sig", self.tape())
        streams = cache.get("sig")
        assert streams is not None
        assert dict(streams)[0].tolist() == self.tape()[0].tolist()
        assert cache.get("other-sig") is None

    def test_garbage_file_is_deleted_and_warned(self, tmp_path, caplog):
        cache = TraceCache(tmp_path)
        cache.put("sig", self.tape())
        path = cache._path("sig")
        path.write_bytes(b"not a trace at all")
        with caplog.at_level(logging.WARNING,
                             logger="repro.trace.record"):
            assert cache.get("sig") is None
        assert not path.exists()
        assert any("corrupt" in rec.getMessage()
                   for rec in caplog.records)

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda raw: raw[:-8], id="truncated"),
        pytest.param(lambda raw: raw + bytes(8), id="trailing-bytes"),
        pytest.param(lambda raw: raw[:4] + bytes([raw[4] + 1]) + raw[5:],
                     id="wrong-version"),
    ])
    def test_truncated_payload_is_deleted(self, tmp_path, caplog, damage):
        """Whole int64s chopped off or appended, or a foreign format
        version, leave a file whose header still parses but whose
        contents no longer match it -- it must be discarded (logged
        once), not replayed."""
        cache = TraceCache(tmp_path)
        cache.put("sig", self.tape())
        path = cache._path("sig")
        path.write_bytes(damage(path.read_bytes()))
        with caplog.at_level(logging.WARNING,
                             logger="repro.trace.record"):
            assert cache.get("sig") is None
        assert not path.exists()
        assert len(caplog.records) == 1

    def test_signature_collision_is_a_plain_miss(self, tmp_path,
                                                 monkeypatch):
        """A well-formed file recorded under another signature is a
        digest collision, not damage: report a miss but keep the file."""
        cache = TraceCache(tmp_path)
        fixed = tmp_path / "fixed.trace"
        monkeypatch.setattr(TraceCache, "_path",
                            lambda self, signature: fixed)
        cache.put("sig-a", self.tape())
        assert cache.get("sig-b") is None
        assert fixed.exists()
        assert cache.get("sig-a") is not None


class TestWorkerPool:
    def test_pool_is_reused_across_calls(self):
        pool = _worker_pool(2)
        try:
            assert _worker_pool(2) is pool
            # Changing the job count rebuilds the pool.
            assert _worker_pool(1) is not pool
        finally:
            runner._shutdown_pool()

    def test_parallel_grid_matches_serial(self, tmp_path, tiny_profile):
        kwargs = dict(ladder=(32768, 65536), procs=(1, 2),
                      instrument=False, max_attempts=1)
        serial = run_sweep(
            SweepSpec.multiprogramming(tiny_profile, jobs=1, **kwargs),
            cache=ResultCache(tmp_path / "serial"))
        try:
            parallel = run_sweep(
                SweepSpec.multiprogramming(tiny_profile, jobs=2, **kwargs),
                cache=ResultCache(tmp_path / "parallel"))
        finally:
            runner._shutdown_pool()
        assert parallel == serial
