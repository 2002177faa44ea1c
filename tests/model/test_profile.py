"""Tests for the tape profiler (repro.model.profile)."""

import json
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import PROFILES, SweepSpec, run_simulation
from repro.core.config import SystemConfig
from repro.experiments.session import SweepSession
from repro.experiments.spec import ExperimentProfile
from repro.model.profile import (MODEL_VERSION, ProfileCache, RowProfile,
                                 bucket_floor, build_row_profile,
                                 coherence_ladder, extract_process,
                                 merge_refs)
from repro.trace.engine import native, native_available
from repro.trace.packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE,
                                OP_ENQUEUE, OP_IFETCH, OP_LOCK_ACQ,
                                OP_LOCK_REL, OP_READ, OP_READ_SPAN,
                                OP_WRITE, OP_WRITE_SPAN, encode_events)
from repro.trace.events import Read, Write
from repro.trace.record import StreamRecorder, TraceCache
from repro.verify.tapes import generate_contended_tape


class TestBucketFloor:
    def test_exact_below_threshold(self):
        for distance in (0, 1, 17, 127):
            assert bucket_floor(distance) == distance

    @given(st.integers(0, 1 << 40))
    @settings(max_examples=200, deadline=None)
    def test_floor_properties(self, distance):
        floor = bucket_floor(distance)
        assert floor <= distance
        assert bucket_floor(floor) == floor          # idempotent
        if distance >= 128:
            # Relative bucket error is bounded by one sub-bucket step.
            octave = distance.bit_length() - 1
            assert distance - floor < max(1, (1 << octave) // 8)

    @given(st.integers(0, 1 << 20), st.integers(0, 1 << 20))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, a, b):
        if a <= b:
            assert bucket_floor(a) <= bucket_floor(b)


class TestExtractProcess:
    def test_refs_and_summary(self):
        data = array("q", [
            OP_READ, 0,
            OP_WRITE, 16,
            OP_READ_SPAN, 32, 32, 16,     # lines 2, 3
            OP_WRITE_SPAN, 0, 16, 16,     # line 0
            OP_COMPUTE, 7,
            OP_IFETCH, 0, 4,
            OP_LOCK_ACQ, 1,
            OP_BARRIER, 0, 1,
        ])
        refs, summary = extract_process(data, line_shift=4)
        assert refs == [(0, 0), (1, 1), (0, 2), (0, 3), (1, 0)]
        assert summary["reads"] == 3
        assert summary["writes"] == 2
        assert summary["compute_cycles"] == 7
        assert summary["instructions"] == 4
        assert summary["lock_ops"] == 1
        assert summary["barriers"] == 1
        assert summary["icache_misses"] == 0      # no icache config

    def test_icache_misses_match_instruction_cache(self):
        """The profiler's inline icache model must agree with the
        simulator's InstructionCache on the same fetch sequence."""
        from repro.core.icache import InstructionCache
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=1024, model_icache=True,
                              icache_size=512, icache_line_size=32)
        fetches = [(0, 4), (64, 8), (0, 4), (600, 16), (64, 8), (0, 2)]
        data = array("q")
        for addr, count in fetches:
            data.extend([OP_IFETCH, addr, count])
        reference = InstructionCache(config)
        for addr, count in fetches:
            reference.fetch(addr, count)
        _, summary = extract_process(data, config.line_offset_bits,
                                     icache_config=config)
        assert summary["icache_misses"] == reference.misses

    def test_rejects_unknown_opcode(self):
        with pytest.raises(ValueError):
            extract_process(array("q", [77]), 4)


class TestMergeRefs:
    def test_single_sequence_is_identity(self):
        refs = [(0, 1), (1, 2)]
        assert merge_refs([refs]) == refs

    @given(st.lists(st.lists(st.integers(0, 9), max_size=30),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_merge_preserves_each_input_as_subsequence(self, sequences):
        tagged = [[(index, item) for item in seq]
                  for index, seq in enumerate(sequences)]
        merged = merge_refs(tagged)
        assert len(merged) == sum(len(seq) for seq in sequences)
        for index, seq in enumerate(tagged):
            filtered = [item for item in merged if item[0] == index]
            assert filtered == seq

    def test_fair_interleave(self):
        # Equal-length streams alternate rather than concatenate.
        merged = merge_refs([["a1", "a2"], ["b1", "b2"]])
        assert merged.index("b1") < merged.index("a2")


def brute_force_ladder(refs, clusters, procs_per_cluster, line_counts):
    """Reference model: independent direct-mapped caches per (cluster,
    size) with cross-cluster write-invalidate, no inclusion shortcuts."""
    tags = {(c, lc): {} for c in range(clusters) for lc in line_counts}
    out = [{"read_misses": 0, "write_misses": 0, "invalidations": 0}
           for _ in line_counts]
    for proc, is_write, line in refs:
        cluster = proc // procs_per_cluster
        for rung, lines in enumerate(line_counts):
            slots = tags[(cluster, lines)]
            index = line % lines
            if slots.get(index) != line:
                slots[index] = line
                key = "write_misses" if is_write else "read_misses"
                out[rung][key] += 1
        if is_write:
            for other in range(clusters):
                if other == cluster:
                    continue
                for rung, lines in enumerate(line_counts):
                    slots = tags[(other, lines)]
                    index = line % lines
                    if slots.get(index) == line:
                        del slots[index]
                        out[rung]["invalidations"] += 1
    return out


class TestCoherenceLadder:
    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                              st.integers(0, 63)),
                    min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, raw):
        refs = [(proc, int(is_write), line)
                for proc, is_write, line in raw]
        line_counts = (4, 8, 16)
        ladder = coherence_ladder(refs, clusters=2, procs_per_cluster=2,
                                  line_counts=line_counts)
        expected = brute_force_ladder(refs, 2, 2, line_counts)
        for entry, reference in zip(ladder, expected):
            assert entry["read_misses"] == reference["read_misses"]
            assert entry["write_misses"] == reference["write_misses"]
            assert entry["invalidations"] == reference["invalidations"]

    def test_per_process_counts_sum_to_totals(self):
        refs = [(proc, proc % 2, line)
                for proc in range(4) for line in range(10)]
        ladder = coherence_ladder(refs, clusters=4, procs_per_cluster=1,
                                  line_counts=(4, 16))
        for entry in ladder:
            assert (sum(entry["proc_read_misses"].values())
                    == entry["read_misses"])
            assert (sum(entry["proc_write_misses"].values())
                    == entry["write_misses"])

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            coherence_ladder([], 1, 1, (3,))
        with pytest.raises(ValueError):
            coherence_ladder([], 1, 1, (8, 4))


class TestRowProfile:
    def _profile(self):
        config = SystemConfig(clusters=2, processors_per_cluster=1,
                              scc_size=256, line_size=16)
        streams = {
            0: encode_events([Read(0), Read(16), Write(0), Read(32)]),
            1: encode_events([Read(0), Write(16), Read(48)]),
        }
        return build_row_profile(streams, config, (4, 16))

    def test_roundtrips_through_json_dict(self):
        profile = self._profile()
        clone = RowProfile.from_dict(profile.as_dict())
        assert clone.as_dict() == profile.as_dict()
        assert clone.tracked_line_counts == (4, 16)
        assert clone.reads == 5 and clone.writes == 2

    def test_rejects_other_model_versions(self):
        payload = dict(self._profile().as_dict())
        payload["model_version"] = MODEL_VERSION + 1
        with pytest.raises(ValueError):
            RowProfile.from_dict(payload)

    def test_sharing_summary_sees_cross_cluster_writes(self):
        sharing = self._profile().sharing
        # Lines 0 and 16 are touched by both clusters.
        assert sharing["shared_lines"] == 2
        assert sharing["interprocess_reuses"] > 0
        assert set(sharing["exposure"]) == {"0", "1"}

    def test_cache_roundtrip_and_corruption(self, tmp_path):
        cache = ProfileCache(tmp_path)
        profile = self._profile()
        assert cache.get("row") is None
        cache.put("row", profile)
        assert cache.get("row").as_dict() == profile.as_dict()
        # Torn writes and valid JSON of the wrong shape alike are
        # discarded (deleted, then rebuilt by the caller), not raised.
        for text in ("{not json", "[]", "null", "3", '"x"',
                     json.dumps({"model_version": MODEL_VERSION})):
            cache.put("row", profile)
            for path in tmp_path.glob("*.json"):
                path.write_text(text)
            assert cache.get("row") is None, text
            assert not list(tmp_path.glob("*.json")), text


# ----------------------------------------------------------------------
# Native kernels against the python reference
# ----------------------------------------------------------------------

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native extension unavailable: {native.LOAD_ERROR}")


def _outcome(streams, config, tracked, backend):
    """The profile JSON a builder produces, or the type it raises."""
    try:
        profile = build_row_profile(streams, config, tracked,
                                    backend=backend)
    except Exception as exc:     # compared by type across builders
        return type(exc)
    assert profile.engine == backend
    return json.dumps(profile.as_dict(), sort_keys=True)


def assert_builders_agree(streams, config, tracked):
    python = _outcome(streams, config, tracked, "python")
    compiled = _outcome(streams, config, tracked, "native")
    assert compiled == python
    return python


_ADDRESSES = st.integers(-64, 2047)
_OPS = st.one_of(
    st.tuples(st.sampled_from([OP_READ, OP_WRITE]), _ADDRESSES),
    st.tuples(st.sampled_from([OP_READ_SPAN, OP_WRITE_SPAN]), _ADDRESSES,
              st.integers(-48, 96), st.integers(1, 40)),
    # A negative stride over a non-positive size still expands like
    # range(0, size, stride) in the reference.
    st.tuples(st.sampled_from([OP_READ_SPAN, OP_WRITE_SPAN]), _ADDRESSES,
              st.integers(-48, 0), st.integers(-16, -1)),
    st.tuples(st.just(OP_IFETCH), st.integers(-64, 4096),
              st.integers(0, 40)),
    st.tuples(st.just(OP_COMPUTE), st.integers(0, 50)),
    st.tuples(st.sampled_from([OP_LOCK_ACQ, OP_LOCK_REL, OP_DEQUEUE]),
              st.integers(0, 3)),
    st.tuples(st.sampled_from([OP_BARRIER, OP_ENQUEUE]),
              st.integers(0, 3), st.integers(0, 3)),
)


@st.composite
def row_tapes(draw):
    clusters = draw(st.integers(1, 4))
    procs_per_cluster = draw(st.integers(1, 4))
    icache = draw(st.booleans())
    config = SystemConfig(clusters=clusters,
                          processors_per_cluster=procs_per_cluster,
                          scc_size=1024, line_size=16,
                          model_icache=icache, icache_size=256,
                          icache_line_size=32)
    streams = {}
    for proc in range(clusters * procs_per_cluster):
        ops = draw(st.lists(_OPS, max_size=40))
        streams[proc] = array("q", [word for op in ops for word in op])
    rungs = draw(st.lists(st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
                          min_size=1, max_size=4, unique=True))
    return streams, config, sorted(rungs)


@needs_native
class TestNativeMatchesPython:
    """``build_row_profile(backend="native")`` must serialize to the
    same bytes as the python reference."""

    @given(row_tapes())
    @settings(max_examples=300, deadline=None)
    def test_generated_tapes(self, tape):
        streams, config, tracked = tape
        assert_builders_agree(streams, config, tracked)

    def test_contended_tapes(self):
        for seed in range(50):
            tape = generate_contended_tape(seed)
            config = tape.config()
            tracked = (4, config.scc_lines, 4 * config.scc_lines)
            outcome = assert_builders_agree(tape.streams, config, tracked)
            assert isinstance(outcome, str), (seed, outcome)

    @pytest.mark.parametrize("procs", [1, 4])
    @pytest.mark.parametrize("workload", ["barnes-hut", "mp3d",
                                          "cholesky", "multiprogramming"])
    def test_recorded_quick_rows(self, workload, procs):
        profile = PROFILES["quick"]
        if workload == "multiprogramming":
            spec = SweepSpec.multiprogramming(profile=profile,
                                              procs=(procs,))
        else:
            spec = SweepSpec.parallel(workload, profile=profile,
                                      procs=(procs,))
        configs = spec.configs()
        config0 = configs[(procs, min(spec.ladder))]
        tracked = sorted({configs[(procs, paper_bytes)].scc_lines
                          for paper_bytes in spec.ladder})
        recorder = StreamRecorder(profile.workload(workload))
        run_simulation(config0, recorder)
        outcome = assert_builders_agree(recorder.streams, config0,
                                        tracked)
        assert isinstance(outcome, str)

    def test_unknown_opcode_is_a_value_error_on_both(self):
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=1024)
        streams = {0: array("q", [OP_READ, 0, 77, 1])}
        assert assert_builders_agree(streams, config, (4,)) is ValueError

    @pytest.mark.parametrize("opcode,words", [
        (OP_READ, 1), (OP_WRITE, 1), (OP_COMPUTE, 1), (OP_IFETCH, 2),
        (OP_READ_SPAN, 3), (OP_WRITE_SPAN, 2)])
    def test_truncated_opcode_is_an_index_error_on_both(self, opcode,
                                                        words):
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=1024, model_icache=True)
        whole = [OP_READ, 0, opcode, 64, 16, 16]
        streams = {0: array("q", whole[:2 + words])}
        assert assert_builders_agree(streams, config, (4,)) is IndexError
        # The kernel must stop at the buffer's end, not read the
        # operands that happen to follow it in memory.
        backing = array("q", whole)
        view = memoryview(backing)[:2 + words]
        plan = ((view,), array("q", [0]), array("q", [4, 1, 0, 32]),
                array("q", [4]))
        with pytest.raises(IndexError):
            native.load().profile_row(plan)

    @pytest.mark.parametrize("opcode", [OP_LOCK_ACQ, OP_LOCK_REL,
                                        OP_BARRIER])
    def test_truncated_sync_opcodes_are_counted_on_both(self, opcode):
        # The reference never reads a sync opcode's operands.
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=1024)
        streams = {0: array("q", [OP_READ, 0, opcode])}
        assert isinstance(assert_builders_agree(streams, config, (4,)),
                          str)

    def test_bad_tracked_counts_raise_alike(self):
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=1024)
        streams = {0: array("q", [OP_READ, 0])}
        assert assert_builders_agree(streams, config, (3,)) is ValueError
        assert assert_builders_agree(streams, config, ()) is IndexError


@needs_native
def test_disabled_extension_builds_identical_session_profiles(
        tmp_path, monkeypatch):
    """With ``REPRO_NATIVE=0`` an analytical session falls back to the
    python builder and caches byte-identical profiles."""
    profile = ExperimentProfile(
        name="tiny", ladder_scale=8, barnes_bodies=32, barnes_steps=1,
        mp3d_particles=60, mp3d_steps=1, cholesky_n=64,
        multiprog_instructions=2000, multiprog_quantum=500)
    spec = SweepSpec.multiprogramming(profile=profile, procs=(1, 2),
                                      ladder=(2048, 4096),
                                      instrument=False,
                                      fidelity="analytical")

    def session_profiles(name):
        traces = TraceCache(tmp_path / name)
        session = SweepSession(spec, cache=None, trace_cache=traces)
        session.run()
        files = sorted((tmp_path / name / "profiles").glob("*.json"))
        return (session.registry.counter_group("session.profiles"),
                {path.name: path.read_text() for path in files})

    compiled_counts, compiled = session_profiles("native")
    monkeypatch.setenv("REPRO_NATIVE", "0")
    try:
        assert native.load(rebuild=True) is None
        python_counts, python = session_profiles("python")
    finally:
        monkeypatch.undo()
        native.load(rebuild=True)
    assert compiled_counts == {"native": 2}
    assert python_counts == {"python": 2}
    assert len(compiled) == 2 and compiled == python
