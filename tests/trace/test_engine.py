"""Unit tests for the replay-engine registry.

The cross-backend *timing* equivalence lives in ``tests/equivalence``
and the fuzz corpus; this module covers the selection machinery
(:mod:`repro.trace.engine`) and pins native-vs-python parity on
multi-processor tapes whose processors drift apart in time.
"""

import random
from array import array

import pytest

from repro.trace.engine import (BACKEND_CHOICES, available_backends,
                                backend_info, native_available,
                                resolve_backend)
from repro.trace.packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE,
                                OP_ENQUEUE, OP_IFETCH, OP_LOCK_ACQ,
                                OP_LOCK_REL, OP_READ, OP_READ_SPAN,
                                OP_WRITE, OP_WRITE_SPAN)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

class TestResolveBackend:
    def test_rejects_unknown_names(self):
        for name in ("fortran", "numpy"):
            with pytest.raises(ValueError, match="unknown replay backend"):
                resolve_backend(name)

    def test_env_var_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert resolve_backend() == "python"
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError):
            resolve_backend()

    def test_explicit_request_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        assert resolve_backend("python") == "python"

    def test_auto_resolves_to_an_available_backend(self):
        assert resolve_backend("auto") in available_backends()

    def test_requests_degrade_down_the_ladder(self, monkeypatch):
        import repro.trace.engine as engine
        monkeypatch.setattr(engine, "native_available", lambda: False)
        monkeypatch.setattr(engine, "native_unavailable_reason",
                            lambda: "no compiler")
        assert engine.resolve_backend("native") == "python"
        assert engine.available_backends() == ["python"]
        with pytest.raises(RuntimeError, match="no compiler"):
            engine.resolve_backend("native", strict=True)

    def test_auto_never_picks_numpy(self, monkeypatch):
        """``auto`` probes native -> python; ``numpy`` is not a backend
        name."""
        import repro.trace.engine as engine
        assert "numpy" not in BACKEND_CHOICES
        monkeypatch.setattr(engine, "native_available", lambda: False)
        monkeypatch.setattr(engine, "native_unavailable_reason",
                            lambda: "no compiler")
        assert engine.resolve_backend("auto") == "python"
        assert engine.resolve_backend("native") == "python"
        assert engine.engine_degradation("auto") == (
            "native tier unavailable (no compiler); "
            "running on the python tier")
        assert engine.engine_degradation("python") is None
        monkeypatch.setattr(engine, "native_available", lambda: True)
        assert engine.resolve_backend("auto") == "native"
        assert engine.engine_degradation("auto") is None

    def test_python_is_always_available(self):
        assert available_backends()[-1] == "python"
        assert set(available_backends()) <= set(BACKEND_CHOICES)

    def test_backend_info_shape(self):
        info = backend_info()
        assert info["resolved"] in info["available"]
        if native_available():
            assert "native_version" in info
        else:
            assert info["native_error"]


def test_differ_registry_covers_available_backends():
    from repro.verify.differ import engine_registry
    registry = engine_registry()
    assert {"oracle", "fast", "fused"} <= set(registry)
    for name in available_backends():
        if name != "python":
            assert name in registry, (
                f"backend {name} is importable but never diffed")


# ----------------------------------------------------------------------
# Multi-processor tapes (native vs the python loop)
# ----------------------------------------------------------------------

def random_stream(rng, n_ops, valid=True):
    """A syntactically valid packed stream with every opcode family."""
    buf = array("q")
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.45:
            buf.extend((rng.choice((OP_READ, OP_WRITE)),
                        rng.randrange(1 << 20)))
        elif roll < 0.55:
            buf.extend((OP_COMPUTE, rng.randrange(50)))
        elif roll < 0.70:
            buf.extend((OP_IFETCH, rng.randrange(1 << 16),
                        rng.randrange(1, 16)))
        elif roll < 0.80:
            buf.extend((rng.choice((OP_READ_SPAN, OP_WRITE_SPAN)),
                        rng.randrange(1 << 16),
                        rng.randrange(0, 400),
                        rng.randrange(1, 64)))
        elif roll < 0.90:
            buf.extend((rng.choice((OP_LOCK_ACQ, OP_LOCK_REL,
                                    OP_DEQUEUE)),
                        rng.randrange(8)))
        elif roll < 0.95:
            buf.extend((OP_BARRIER, rng.randrange(4), rng.randrange(1, 5)))
        else:
            buf.extend((OP_ENQUEUE, rng.randrange(4), rng.randrange(100)))
    return buf


def _mp_run(streams, backend, procs_per_cluster=None, clusters=1,
            max_cycles=10_000_000):
    """Replay ``streams`` on a multi-processor machine through one
    backend; returns ``(outcome, events, stats)`` where ``outcome`` is
    the finish time or the raised ``(type name, message)``."""
    from repro.core.config import SystemConfig
    from repro.core.system import MultiprocessorSystem
    from repro.trace.interleave import TimingInterleaver
    from repro.trace.packed import PackedChunk
    if procs_per_cluster is None:
        procs_per_cluster = len(streams) // clusters
    config = SystemConfig(clusters=clusters,
                          processors_per_cluster=procs_per_cluster,
                          scc_size=2048)
    system = MultiprocessorSystem(config)
    interleaver = TimingInterleaver(system, backend=backend)
    for pid, data in sorted(streams.items()):
        interleaver.add_process(pid,
                                iter([PackedChunk(array("q", data))]))
    try:
        finish = interleaver.run(max_cycles=max_cycles)
    except Exception as exc:
        return ((type(exc).__name__, str(exc)),
                interleaver.events_processed, None)
    return (finish, interleaver.events_processed,
            system.stats(finish).as_dict())


@pytest.mark.skipif(not native_available(), reason="native unavailable")
class TestMultiProcessorWindows:
    """Native-vs-python parity on multi-processor tapes: scheduling
    windows bounded by the other processors' clocks, spans cut mid-way
    by a process switch, and error parity at the failing event."""

    def drifting_streams(self):
        """Proc 1 computes in large steps, giving proc 0 real horizon
        headroom; proc 0 replays spans long enough that scheduling
        windows end *mid-span* (the resume-position boundary)."""
        warm = array("q")
        for line_no in range(32):
            warm.extend((OP_READ, line_no * 64))
        spans = array("q", warm)
        for _ in range(120):
            spans.extend((OP_READ_SPAN, 0, 2048, 64))
            spans.extend((OP_WRITE_SPAN, 0, 2048, 64))
        pacer = array("q")
        for _ in range(400):
            pacer.extend((OP_COMPUTE, 37))
        return {0: spans, 1: pacer}

    def test_two_cluster_drift_matches_python_loop(self):
        streams = self.drifting_streams()
        assert (_mp_run(streams, "native", clusters=2,
                        procs_per_cluster=1)
                == _mp_run(streams, "python", clusters=2,
                           procs_per_cluster=1))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_multiproc_tapes_match(self, seed):
        rng = random.Random(seed)
        streams = {0: random_stream(rng, 300),
                   1: random_stream(rng, 300)}
        assert _mp_run(streams, "native") == _mp_run(streams, "python")

    def test_bad_span_stride_raises_proactively(self):
        """A non-positive span stride is a loud ValueError on every
        tier, at the same event, even when the bad span sits mid-tape
        on one processor of a multi-proc machine (the python loop used
        to spin to ``max_cycles``)."""
        streams = self.drifting_streams()
        bad = array("q", streams[0])
        bad.extend((OP_READ_SPAN, 0, 64, -4))
        bad.extend([OP_COMPUTE, 1] * 8)
        streams = {0: bad, 1: streams[1]}
        native_run = _mp_run(streams, "native")
        outcome, _, stats = native_run
        assert stats is None
        assert outcome[0] == "ValueError"
        assert "non-positive span stride" in outcome[1]
        assert _mp_run(streams, "python", max_cycles=200_000) == native_run

    def test_unknown_opcode_error_parity(self):
        streams = self.drifting_streams()
        bad = array("q", streams[0])
        bad.extend((99, 0))
        streams = {0: bad, 1: streams[1]}
        outcome, _, stats = _mp_run(streams, "native")
        assert stats is None
        assert outcome == _mp_run(streams, "python")[0]
        assert outcome[0] == "ValueError"
