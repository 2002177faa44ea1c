"""Seeded adversarial tape generation.

A *tape* is a machine configuration plus one packed event stream per
processor -- the exact input shape the packed fast path and the fused
ladder consume.  The generator is deliberately hostile: it aliases a
handful of cache indexes across several tags (so fills, evictions, and
invalidations constantly collide), mixes every packed opcode including
lock-, barrier- and task-queue synchronization, and samples machine
geometries across the whole supported envelope (1-8 processors over 1-4
clusters, MSI and MESI, direct-mapped and 2-way arrays, write buffering
on and off, optional instruction-cache modelling).

:func:`generate_contended_tape` is a second family aimed at the
multi-processor machinery: 4-8 processors over 2-4 clusters sharing
16-32-line SCCs, a write-heavy shared pool, and every stream split into
several chunks so schedulers resume processes across chunk boundaries.

Generation is a pure function of the seed, so a tape never needs to be
stored to be reproduced -- but tapes also round-trip through JSON
(:func:`tape_to_json`) for the shrunk repros committed as regression
tests.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List

from ..core.config import SystemConfig
from ..trace.packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE,
                            OP_ENQUEUE, OP_IFETCH, OP_LOCK_ACQ,
                            OP_LOCK_REL, OP_READ, OP_READ_SPAN, OP_WRITE,
                            OP_WIDTH, OP_WRITE_SPAN, PackedChunk,
                            event_count)

__all__ = ["TAPE_FORMAT_VERSION", "Tape", "TapeApplication",
           "generate_contended_tape", "generate_tape", "tape_to_json",
           "tape_from_json"]

TAPE_FORMAT_VERSION = 1


@dataclass
class Tape:
    """One differential-test input: a machine and its event streams."""

    seed: str
    """Provenance only; replaying a tape never re-derives from it."""

    config_kwargs: Dict[str, object]
    streams: Dict[int, List[int]]
    """Packed ints per machine-global processor id."""

    chunk_ops: int = 0
    """Opcodes per :class:`PackedChunk` when replayed (0: each stream is
    one chunk)."""

    def config(self) -> SystemConfig:
        return SystemConfig(**self.config_kwargs)

    def total_events(self) -> int:
        """Events across all streams (spans counted element-wise)."""
        return sum(event_count(s) for s in self.streams.values())

    def replaced(self, streams: Dict[int, List[int]]) -> "Tape":
        """The same machine driven by different streams (shrinking)."""
        return Tape(seed=self.seed, config_kwargs=dict(self.config_kwargs),
                    streams=streams, chunk_ops=self.chunk_ops)

    def chunks(self, pid: int) -> List[PackedChunk]:
        """Processor ``pid``'s stream as the chunks a replay yields, split
        at opcode boundaries every ``chunk_ops`` opcodes."""
        stream = self.streams[pid]
        if not self.chunk_ops:
            return [PackedChunk(array("q", stream))]
        chunks = []
        start = i = ops = 0
        while i < len(stream):
            i += OP_WIDTH[stream[i]]
            ops += 1
            if ops == self.chunk_ops:
                chunks.append(PackedChunk(array("q", stream[start:i])))
                start, ops = i, 0
        if start < len(stream):
            chunks.append(PackedChunk(array("q", stream[start:])))
        return chunks


class TapeApplication:
    """Adapter presenting a tape as a traced application: each stream is
    yielded as the tape's :meth:`Tape.chunks`, identically to every
    execution path."""

    def __init__(self, tape: Tape):
        self.tape = tape

    def processes(self, config: SystemConfig) -> Dict[int, Iterator]:
        return {pid: iter(self.tape.chunks(pid))
                for pid in sorted(self.tape.streams)}


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------

def _sample_config(rng: random.Random) -> Dict[str, object]:
    clusters = rng.choice((1, 1, 2, 3, 4))
    ppc = rng.choice((1, 1, 2))
    if clusters * ppc > 8:
        ppc = 1
    associativity = 1 if rng.random() < 0.8 else 2
    # Small arrays on purpose: 16-128 lines keeps every tag/index in
    # play, so a few dozen events already exercise eviction and
    # aliasing.  num_banks = 4*ppc <= 8 <= lines always holds.
    lines = rng.choice((16, 32, 64, 128))
    kwargs: Dict[str, object] = dict(
        clusters=clusters,
        processors_per_cluster=ppc,
        scc_size=lines * 16,
        associativity=associativity,
        protocol=rng.choice(("msi", "mesi")),
        line_size=16,
        memory_latency=rng.randrange(20, 121),
        bus_occupancy=rng.randrange(1, 9),
        upgrade_bus_occupancy=rng.randrange(1, 5),
        write_buffer_depth=rng.choice((1, 2, 4, 8)),
        stall_on_writes=rng.random() < 0.1,
        bank_cycle_time=1 if rng.random() < 0.8 else 2,
        lock_overhead=rng.randrange(1, 17),
        barrier_overhead=rng.randrange(1, 33),
    )
    if rng.random() < 0.2:
        kwargs.update(model_icache=True, icache_size=256,
                      icache_line_size=32,
                      icache_miss_latency=rng.randrange(20, 101))
    return kwargs


def _address_pools(rng: random.Random,
                   config: SystemConfig) -> Dict[int, List[int]]:
    """Shared (pool key -1) and per-processor private byte addresses.

    Addresses are built as ``line = tag * num_sets + index`` over a few
    indexes and tags, so distinct lines deliberately collide on the same
    array slot -- the aliasing that flushes out stale fill tracking and
    victim-handling bugs.
    """
    num_sets = config.scc_lines // config.associativity
    indexes = rng.sample(range(num_sets), k=min(4, num_sets))
    line_size = config.line_size
    shared = [(tag * num_sets + index) * line_size + offset
              for tag in range(4)
              for index in indexes
              for offset in (0, 8)]
    pools = {-1: shared}
    for proc in range(config.total_processors):
        pools[proc] = [((8 + proc) * num_sets + index) * line_size
                       for index in indexes]
    return pools


#: Cumulative thresholds of the body opcode mix: read, write, compute,
#: span, ifetch, critical section (the rest are task-queue ops).
_MIX = (0.30, 0.55, 0.63, 0.71, 0.78, 0.90)
_WRITE_HEAVY_MIX = (0.20, 0.60, 0.64, 0.72, 0.80, 0.93)


def _emit_body(rng: random.Random, buf: List[int], proc: int,
               pools: Dict[int, List[int]], config: SystemConfig,
               mix=_MIX, shared: float = 0.75) -> None:
    def pick_addr() -> int:
        pool = pools[-1] if rng.random() < shared else pools[proc]
        return rng.choice(pool)

    read, write, compute, span, ifetch, locked = mix
    for _ in range(rng.randrange(5, 31)):
        r = rng.random()
        if r < read:
            buf.extend((OP_READ, pick_addr()))
        elif r < write:
            buf.extend((OP_WRITE, pick_addr()))
        elif r < compute:
            buf.extend((OP_COMPUTE, rng.randrange(0, 40)))
        elif r < span:
            op = OP_READ_SPAN if rng.random() < 0.5 else OP_WRITE_SPAN
            base = pick_addr() & ~(config.line_size - 1)
            buf.extend((op, base, rng.randrange(2, 7) * config.line_size,
                        config.line_size))
        elif r < ifetch and config.model_icache:
            buf.extend((OP_IFETCH,
                        rng.randrange(16) * config.icache_line_size,
                        rng.randrange(1, 8)))
        elif r < locked:
            # A lock-scoped critical section; locks never span a body,
            # so generated tapes cannot deadlock.
            lock_id = rng.randrange(3)
            buf.extend((OP_LOCK_ACQ, lock_id))
            for _ in range(rng.randrange(1, 4)):
                op = OP_WRITE if rng.random() < 0.5 else OP_READ
                buf.extend((op, rng.choice(pools[-1])))
            buf.extend((OP_LOCK_REL, lock_id))
        else:
            queue_id = rng.randrange(2)
            if rng.random() < 0.5:
                buf.extend((OP_ENQUEUE, queue_id, rng.randrange(100)))
            else:
                buf.extend((OP_DEQUEUE, queue_id))


def _emit_rounds(rng: random.Random, config: SystemConfig,
                 pools: Dict[int, List[int]], **body) -> Dict[int, List[int]]:
    procs = config.total_processors
    streams: Dict[int, List[int]] = {proc: [] for proc in range(procs)}
    for barrier_id in range(rng.randrange(1, 4)):
        for proc in range(procs):
            _emit_body(rng, streams[proc], proc, pools, config, **body)
        # Every round ends at a global barrier: all processors arrive,
        # so multi-processor tapes stay deadlock-free by construction.
        for proc in range(procs):
            streams[proc].extend((OP_BARRIER, barrier_id, procs))
    return streams


def generate_tape(seed) -> Tape:
    """The tape for ``seed`` (any value with a stable ``str``)."""
    rng = random.Random(str(seed))
    config_kwargs = _sample_config(rng)
    config = SystemConfig(**config_kwargs)
    pools = _address_pools(rng, config)
    return Tape(seed=str(seed), config_kwargs=config_kwargs,
                streams=_emit_rounds(rng, config, pools))


def generate_contended_tape(seed) -> Tape:
    """A many-processor, small-SCC tape for ``seed``.

    4-8 processors over 2-4 clusters share 16- or 32-line direct-mapped
    SCCs and mostly write a common pool, so nearly every access is a
    bus transaction: upgrades, remote invalidations, interventions and
    dirty write-backs all collide.  MSI and MESI, ``stall_on_writes``
    and the instruction cache are each on about half the time, and
    every stream replays as chunks of a few opcodes.
    """
    rng = random.Random(f"contended:{seed}")
    clusters = rng.choice((2, 3, 4))
    ppc = rng.choice({2: (2, 3, 4), 3: (2,), 4: (1, 2)}[clusters])
    lines = rng.choice((16, 32))
    config_kwargs: Dict[str, object] = dict(
        clusters=clusters,
        processors_per_cluster=ppc,
        scc_size=lines * 16,
        protocol=rng.choice(("msi", "mesi")),
        line_size=16,
        memory_latency=rng.randrange(20, 121),
        bus_occupancy=rng.randrange(1, 9),
        upgrade_bus_occupancy=rng.randrange(0, 5),
        write_buffer_depth=rng.choice((1, 2, 4)),
        stall_on_writes=rng.random() < 0.5,
        bank_cycle_time=rng.choice((1, 2)),
        lock_overhead=rng.randrange(1, 17),
        barrier_overhead=rng.randrange(1, 33),
    )
    if rng.random() < 0.5:
        config_kwargs.update(model_icache=True, icache_size=256,
                             icache_line_size=32,
                             icache_miss_latency=rng.randrange(20, 101))
    config = SystemConfig(**config_kwargs)
    pools = _address_pools(rng, config)
    streams = _emit_rounds(rng, config, pools, mix=_WRITE_HEAVY_MIX,
                           shared=0.9)
    return Tape(seed=f"contended:{seed}", config_kwargs=config_kwargs,
                streams=streams, chunk_ops=rng.randrange(2, 9))


# ----------------------------------------------------------------------
# Persistence (shrunk repros)
# ----------------------------------------------------------------------

def tape_to_json(tape: Tape) -> str:
    payload = {
        "version": TAPE_FORMAT_VERSION,
        "seed": tape.seed,
        "config": tape.config_kwargs,
        "streams": {str(proc): list(stream)
                    for proc, stream in sorted(tape.streams.items())},
    }
    if tape.chunk_ops:
        payload["chunk_ops"] = tape.chunk_ops
    return json.dumps(payload, sort_keys=True, indent=1)


def tape_from_json(text: str) -> Tape:
    payload = json.loads(text)
    if payload.get("version") != TAPE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported tape format {payload.get('version')!r}")
    return Tape(seed=str(payload["seed"]),
                config_kwargs=dict(payload["config"]),
                streams={int(proc): list(stream)
                         for proc, stream in payload["streams"].items()},
                chunk_ops=int(payload.get("chunk_ops", 0)))
