"""Unit tests for the replay-engine registry and the batch decoder.

The cross-backend *timing* equivalence lives in ``tests/equivalence``
and the fuzz corpus; this module covers the selection machinery
(:mod:`repro.trace.engine`) and the vectorized chunk decoder
(:mod:`repro.trace.engine.flatten`) -- the two pieces with behavior of
their own beyond "same numbers as the python loop".
"""

import random
from array import array

import pytest

import repro.trace.engine.flatten as flatten
from repro.trace.engine import (BACKEND_CHOICES, available_backends,
                                backend_info, native_available,
                                numpy_available, resolve_backend)
from repro.trace.engine.flatten import decode_chunk
from repro.trace.packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE,
                                OP_ENQUEUE, OP_IFETCH, OP_LOCK_ACQ,
                                OP_LOCK_REL, OP_READ, OP_READ_SPAN,
                                OP_WRITE, OP_WRITE_SPAN)

GEOM = dict(line_shift=5, idx_mask=0x3F, tag_shift=6, nbanks=4,
            icache_mode=1, iline_shift=5)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

class TestResolveBackend:
    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown replay backend"):
            resolve_backend("fortran")

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
        monkeypatch.setattr(engine, "numpy_available", lambda: False)
        assert engine.resolve_backend("native") == "python"
        assert engine.resolve_backend("numpy") == "python"
        with pytest.raises(RuntimeError):
            engine.resolve_backend("numpy", strict=True)

    def test_auto_never_picks_numpy(self, monkeypatch):
        import repro.trace.engine as engine
        monkeypatch.setattr(engine, "numpy_available", lambda: True)
        monkeypatch.setattr(engine, "native_available", lambda: False)
        monkeypatch.setattr(engine, "native_unavailable_reason",
                            lambda: "no compiler")
        assert engine.resolve_backend("auto") == "python"
        assert engine.resolve_backend("native") == "python"
        assert engine.resolve_backend("numpy") == "numpy"
        assert engine.engine_degradation("auto") == (
            "native tier unavailable (no compiler); "
            "running on the python tier")
        assert engine.engine_degradation("numpy") is None
        monkeypatch.setattr(engine, "native_available", lambda: True)
        assert engine.resolve_backend("auto") == "native"
        assert engine.engine_degradation("auto") is None

    def test_python_is_always_available(self):
        assert "python" in available_backends()
        assert set(available_backends()) <= set(BACKEND_CHOICES)

    def test_backend_info_shape(self):
        info = backend_info()
        assert info["resolved"] in info["available"]
        if numpy_available():
            assert "numpy_version" in info
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
# Batch decoder
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


def columns(dec):
    return (dec.n, dec.kind, dec.a, dec.b, dec.after_i, dec.after_sub,
            dec.bad_pos)


def scalar_reference(data):
    """Decode through the scalar fallback path regardless of size."""
    out = flatten.DecodedChunk()
    flatten._scalar_columns(out, list(data))
    out.n = len(out.kind)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_vector_decode_matches_scalar(seed):
    rng = random.Random(seed)
    data = random_stream(rng, 400)
    assert len(data) >= flatten._VECTOR_MIN_INTS
    dec = decode_chunk(data, **GEOM)
    ref = scalar_reference(data)
    assert columns(dec)[:-1] == (ref.n, ref.kind, ref.a, ref.b,
                                 ref.after_i, ref.after_sub)
    assert dec.bad_pos is None


def test_unknown_opcode_sets_bad_pos():
    data = array("q", [OP_READ, 32, 99, 7, OP_READ, 64])
    data.extend([OP_COMPUTE, 1] * 200)     # force the vector decoder
    dec = decode_chunk(data, **GEOM)
    assert dec.bad_pos == 2
    assert dec.n == 1                      # only the event before it
    assert columns(dec) == columns(scalar_reference(data))


def test_bad_span_stride_sets_bad_pos():
    data = array("q", [OP_READ, 32, OP_READ_SPAN, 0, 64, 0])
    data.extend([OP_COMPUTE, 1] * 200)
    dec = decode_chunk(data, **GEOM)
    assert dec.bad_pos == 2
    assert columns(dec) == columns(scalar_reference(data))


def test_truncated_stream_raises_index_error():
    data = array("q", [OP_COMPUTE, 1] * 200 + [OP_IFETCH, 4])
    with pytest.raises(IndexError):
        decode_chunk(data, **GEOM)
    with pytest.raises(IndexError):
        scalar_reference(data)


def test_span_expansion_and_resume_positions():
    data = array("q", [OP_READ_SPAN, 100, 10, 4])
    data.extend([OP_COMPUTE, 1] * 200)
    dec = decode_chunk(data, **GEOM)
    assert dec.a[:3] == [100, 104, 108]
    assert dec.kind[:3] == [OP_READ] * 3
    # Mid-span resume positions point back into the span opcode.
    assert dec.after_i[:3] == [0, 0, 4]
    assert dec.after_sub[:3] == [4, 8, 0]
    assert dec.cursor_for(0, 4) == 1
    assert dec.cursor_for(0, 8) == 2
    assert dec.cursor_for(4, 0) == 3


# ----------------------------------------------------------------------
# Multi-processor vector windows (numpy backend)
# ----------------------------------------------------------------------

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


@pytest.mark.skipif(not numpy_available(), reason="numpy unavailable")
class TestMultiProcessorWindows:
    """Scalar parity for the shapes PR 7 delegated at entry: the numpy
    tier now replays multi-processor unit-bank-cycle tapes itself,
    vector windows bounded by the scheduler horizon."""

    def drifting_streams(self):
        """Proc 1 computes in large steps, giving proc 0 real horizon
        headroom; proc 0 replays spans long enough that windows
        truncate *mid-span* (the resume-position boundary the PR 7
        bad-span-stride bug lived on)."""
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

    def test_windows_engage_and_match_python_loop(self):
        import repro.trace.engine.numpy_backend as nb
        streams = self.drifting_streams()
        reference = _mp_run(streams, "python")
        nb.DEBUG = {}
        try:
            vectorized = _mp_run(streams, "numpy")
            debug = dict(nb.DEBUG)
        finally:
            nb.DEBUG = None
        assert vectorized == reference
        # The parity above must actually exercise the window path --
        # a silent fall-back to scalar would make it vacuous.
        assert debug.get("vec_events", 0) > 0

    def test_two_cluster_drift_matches_python_loop(self):
        streams = self.drifting_streams()
        assert (_mp_run(streams, "numpy", clusters=2,
                        procs_per_cluster=1)
                == _mp_run(streams, "python", clusters=2,
                           procs_per_cluster=1))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_multiproc_tapes_match(self, seed):
        rng = random.Random(seed)
        streams = {0: random_stream(rng, 300),
                   1: random_stream(rng, 300)}
        assert _mp_run(streams, "numpy") == _mp_run(streams, "python")

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
        numpy_run = _mp_run(streams, "numpy")
        outcome, _, stats = numpy_run
        assert stats is None
        assert outcome[0] == "ValueError"
        assert "non-positive span stride" in outcome[1]
        assert _mp_run(streams, "python", max_cycles=200_000) == numpy_run

    def test_unknown_opcode_error_parity(self):
        streams = self.drifting_streams()
        bad = array("q", streams[0])
        bad.extend((99, 0))
        streams = {0: bad, 1: streams[1]}
        outcome, _, stats = _mp_run(streams, "numpy")
        assert stats is None
        assert outcome == _mp_run(streams, "python")[0]
        assert outcome[0] == "ValueError"

    def test_lockstep_bailout_matches_python_loop(self, monkeypatch):
        """Tied processors never open windows; the backend hands the
        remainder to the python loop mid-run.  Force the bail-out early
        and pin that the hand-off is seamless."""
        import repro.trace.engine.numpy_backend as nb
        monkeypatch.setattr(nb, "_BAIL_EVENTS", 64)
        lockstep = array("q")
        for line_no in range(2000):
            lockstep.extend((OP_READ, (line_no % 32) * 64))
        streams = {0: lockstep, 1: array("q", lockstep)}
        nb.DEBUG = {}
        try:
            vectorized = _mp_run(streams, "numpy")
            debug = dict(nb.DEBUG)
        finally:
            nb.DEBUG = None
        assert vectorized == _mp_run(streams, "python")
        assert debug.get("bailed")


class TestDecodeCache:
    def test_same_array_same_geometry_hits(self):
        data = random_stream(random.Random(1), 400)
        first = decode_chunk(data, **GEOM)
        assert decode_chunk(data, **GEOM) is first

    def test_geometry_change_recomputes(self):
        data = random_stream(random.Random(2), 400)
        first = decode_chunk(data, **GEOM)
        other = decode_chunk(data, **{**GEOM, "idx_mask": 0x1F})
        assert other is not first

    def test_lists_are_not_cached(self):
        data = list(random_stream(random.Random(3), 400))
        assert decode_chunk(data, **GEOM) is not decode_chunk(data, **GEOM)

    def test_entries_die_with_their_stream(self):
        data = random_stream(random.Random(4), 400)
        decode_chunk(data, **GEOM)
        key = id(data)
        assert key in flatten._DECODE_CACHE
        del data
        assert key not in flatten._DECODE_CACHE
