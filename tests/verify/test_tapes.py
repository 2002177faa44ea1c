"""Tests for the seeded adversarial tape generator."""

import pytest

from repro.trace.events import Barrier, LockAcquire, LockRelease
from repro.trace.packed import OP_WIDTH, PackedChunk, decode_events
from repro.verify import (Tape, TapeApplication, generate_contended_tape,
                          generate_tape, tape_from_json, tape_to_json)

SEEDS = [f"tapes:{i}" for i in range(25)]


class TestGeneration:
    def test_generation_is_deterministic(self):
        first = generate_tape("determinism")
        second = generate_tape("determinism")
        assert first.config_kwargs == second.config_kwargs
        assert first.streams == second.streams

    def test_distinct_seeds_give_distinct_tapes(self):
        tapes = [generate_tape(f"distinct:{i}") for i in range(8)]
        fingerprints = {(tuple(sorted(t.config_kwargs.items())),
                         tuple((p, tuple(s))
                               for p, s in sorted(t.streams.items())))
                        for t in tapes}
        assert len(fingerprints) == len(tapes)

    def test_seed_is_stringified(self):
        assert generate_tape(42).seed == "42"
        assert generate_tape(42).streams == generate_tape("42").streams

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_tapes_are_well_formed(self, seed):
        tape = generate_tape(seed)
        config = tape.config()  # raises if the sampled geometry is bad
        assert set(tape.streams) == set(range(config.total_processors))
        assert tape.total_events() > 0
        for stream in tape.streams.values():
            assert stream  # no empty streams
            list(decode_events(stream))  # every opcode decodes

    @pytest.mark.parametrize("seed", SEEDS)
    def test_locks_are_balanced_within_each_stream(self, seed):
        tape = generate_tape(seed)
        for stream in tape.streams.values():
            held = set()
            for event in decode_events(stream):
                if isinstance(event, LockAcquire):
                    assert event.lock_id not in held
                    held.add(event.lock_id)
                elif isinstance(event, LockRelease):
                    assert event.lock_id in held
                    held.remove(event.lock_id)
            assert not held

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_barriers_are_global_and_matched(self, seed):
        """Every stream arrives at the same barrier episodes with the
        full processor count, so generated tapes cannot deadlock."""
        tape = generate_tape(seed)
        procs = tape.config().total_processors
        episodes = []
        for _pid, stream in sorted(tape.streams.items()):
            barriers = [(e.barrier_id, e.count)
                        for e in decode_events(stream)
                        if isinstance(e, Barrier)]
            assert all(count == procs for _, count in barriers)
            episodes.append(barriers)
        assert all(eps == episodes[0] for eps in episodes)

    def test_generator_reaches_the_whole_envelope(self):
        """Across a modest seed range the sampler hits multiprocessor,
        set-associative, icache-modelling, and MESI machines."""
        configs = [generate_tape(f"envelope:{i}").config()
                   for i in range(60)]
        assert any(c.total_processors > 1 for c in configs)
        assert any(c.total_processors == 1 for c in configs)
        assert any(c.associativity == 2 for c in configs)
        assert any(c.model_icache for c in configs)
        assert any(c.protocol == "mesi" for c in configs)
        assert any(c.protocol == "msi" for c in configs)


class TestTapeContainer:
    def test_replaced_keeps_machine_and_seed(self):
        tape = generate_tape("replace")
        slim = tape.replaced({0: list(tape.streams[0])})
        assert slim.seed == tape.seed
        assert slim.config_kwargs == tape.config_kwargs
        assert set(slim.streams) == {0}

    def test_application_yields_packed_chunks(self):
        tape = generate_tape("application")
        processes = TapeApplication(tape).processes(tape.config())
        assert set(processes) == set(tape.streams)
        for pid, iterator in processes.items():
            chunks = list(iterator)
            assert len(chunks) == 1
            assert isinstance(chunks[0], PackedChunk)
            assert list(chunks[0].data) == list(tape.streams[pid])


class TestPersistence:
    def test_json_roundtrip(self):
        tape = generate_tape("roundtrip")
        restored = tape_from_json(tape_to_json(tape))
        assert restored.seed == tape.seed
        assert restored.config_kwargs == tape.config_kwargs
        assert restored.streams == tape.streams

    def test_unsupported_version_rejected(self):
        text = tape_to_json(generate_tape("versioned"))
        with pytest.raises(ValueError):
            tape_from_json(text.replace('"version": 1', '"version": 99'))

    def test_hand_built_tape_roundtrips(self):
        tape = Tape(seed="hand", config_kwargs={"clusters": 1,
                                                "scc_size": 512},
                    streams={0: [1, 0, 2, 16]})
        assert tape_from_json(tape_to_json(tape)).streams == tape.streams


class TestContendedFamily:
    """The many-processor x small-SCC family."""

    def test_envelope(self):
        tapes = [generate_contended_tape(i) for i in range(60)]
        configs = [tape.config() for tape in tapes]
        assert all(4 <= c.total_processors <= 8 for c in configs)
        assert all(2 <= c.clusters <= 4 for c in configs)
        assert all(c.scc_lines in (16, 32) for c in configs)
        assert all(c.associativity == 1 for c in configs)
        for flag in (lambda c: c.protocol == "mesi",
                     lambda c: c.stall_on_writes,
                     lambda c: c.model_icache):
            assert 0 < sum(map(flag, configs)) < len(configs)
        assert all(tape.chunk_ops > 1 for tape in tapes)

    def test_write_heavy(self):
        writes = reads = 0
        for i in range(20):
            tape = generate_contended_tape(i)
            for stream in tape.streams.values():
                for event in decode_events(stream):
                    writes += type(event).__name__ == "Write"
                    reads += type(event).__name__ == "Read"
        assert writes > reads

    def test_deterministic_and_distinct(self):
        assert (generate_contended_tape(5).streams
                == generate_contended_tape(5).streams)
        assert (generate_contended_tape(5).streams
                != generate_contended_tape(6).streams)

    @pytest.mark.parametrize("seed", range(10))
    def test_chunks_split_streams_at_opcode_boundaries(self, seed):
        tape = generate_contended_tape(seed)
        processes = TapeApplication(tape).processes(tape.config())
        split = 0
        for pid, iterator in processes.items():
            chunks = list(iterator)
            split += len(chunks) > 1
            joined = [value for chunk in chunks for value in chunk.data]
            assert joined == list(tape.streams[pid])
            for chunk in chunks:
                ops = i = 0
                while i < len(chunk.data):
                    i += OP_WIDTH[chunk.data[i]]
                    ops += 1
                assert i == len(chunk.data)
                assert 0 < ops <= tape.chunk_ops
        assert split

    def test_json_roundtrip_keeps_chunking(self):
        tape = generate_contended_tape(3)
        restored = tape_from_json(tape_to_json(tape))
        assert restored.chunk_ops == tape.chunk_ops
        assert restored.streams == tape.streams
        assert restored.replaced(restored.streams).chunk_ops == tape.chunk_ops
