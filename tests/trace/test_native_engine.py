"""The native engine owns the scheduler and the snoopy miss path.

``_native.c`` runs the whole packed fast path: process switches, the
chunk drain and the coherence miss path.  These tests pin what that
promises beyond "same fingerprint as the python loop":

* a recorded multi-processor replay never enters the python miss path,
  and returns to python only at lock/barrier opcodes, generator resumes
  and the end of the run;
* errors are raised at the same event, with the same partially
  accumulated statistics, as on the python tier;
* whenever control is in python (a sync handler or an ``ifetch``
  callback) the python-visible state equals what ``_run_fast`` holds at
  the same point;
* the loader refuses an extension built for another ABI.
"""

import dataclasses
import sys
import types
from array import array

import pytest

from repro.api import PROFILES, SweepSpec, run_simulation
from repro.core.coherence import CoherenceController
from repro.core.config import SystemConfig
from repro.core.system import MultiprocessorSystem
from repro.trace.engine import native, native_available
from repro.trace.interleave import (DeadlockError, SyncProtocolError,
                                    TimingInterleaver)
from repro.trace.packed import (OP_BARRIER, OP_COMPUTE, OP_LOCK_ACQ,
                                OP_LOCK_REL, OP_READ, OP_WIDTH, OP_WRITE,
                                PackedChunk)
from repro.trace.record import ReplayApplication, StreamRecorder
from repro.verify.tapes import generate_contended_tape
from repro.workloads import BarnesHut

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native replay backend unavailable: "
           f"{native.LOAD_ERROR}")


@pytest.fixture(scope="module")
def barnes_tape():
    """A small Barnes-Hut recording: 4 processors per cluster, 4 KB."""
    spec = SweepSpec.parallel("barnes-hut", profile=PROFILES["quick"],
                              ladder=(4096,), procs=(4,))
    config = spec.configs()[(4, 4096)]
    recorder = StreamRecorder(BarnesHut(n_bodies=48, steps=1, seed=3))
    run_simulation(config, recorder)
    return config, recorder.streams


def _sync_ops(stream) -> int:
    count = i = 0
    while i < len(stream):
        op = stream[i]
        count += op in (OP_LOCK_ACQ, OP_LOCK_REL, OP_BARRIER)
        i += OP_WIDTH[op]
    return count


@needs_native
def test_replay_never_enters_the_python_miss_path(barnes_tape,
                                                  monkeypatch):
    config, streams = barnes_tape
    assert config.processors_per_cluster == 4 and config.clusters > 1
    reference = run_simulation(config, ReplayApplication(streams),
                               backend="python")

    def python_miss_path(*args, **kwargs):
        raise AssertionError("native replay called the python miss path")

    monkeypatch.setattr(CoherenceController, "read_miss", python_miss_path)
    monkeypatch.setattr(CoherenceController, "write_line",
                        python_miss_path)
    module = native.load()
    real_drain = module.drain
    calls = []

    def counting_drain(ctx):
        calls.append(None)
        return real_drain(ctx)

    monkeypatch.setattr(module, "drain", counting_drain)
    result = run_simulation(config, ReplayApplication(streams),
                            backend="native")
    assert result.stats == reference.stats
    assert result.events_processed == reference.events_processed
    assert reference.stats.total_invalidations > 0
    chunks = sum(1 for stream in streams.values() if len(stream))
    bound = (sum(_sync_ops(s) for s in streams.values()) + chunks
             + config.total_processors)
    assert 0 < len(calls) <= bound


# ----------------------------------------------------------------------
# Error parity
# ----------------------------------------------------------------------

MACHINE = dict(clusters=2, processors_per_cluster=2, scc_size=256,
               line_size=16, protocol="mesi", memory_latency=40,
               bus_occupancy=4, write_buffer_depth=2)


def _busy_stream(pid: int, n: int = 12):
    out = []
    for k in range(n):
        addr = ((k * 7 + pid) % 24) * 16
        out += [OP_WRITE if (k + pid) % 3 == 0 else OP_READ, addr,
                OP_COMPUTE, 1 + (k + pid) % 5]
    return out


def _run(streams, backend, max_cycles=None):
    """Replay ``streams``; returns everything the run left behind."""
    system = MultiprocessorSystem(SystemConfig(**MACHINE))
    interleaver = TimingInterleaver(system, backend=backend)
    for pid, stream in sorted(streams.items()):
        interleaver.add_process(pid, iter([PackedChunk(array("q",
                                                             stream))]))
    try:
        interleaver.run(max_cycles=max_cycles)
        error = None
    except Exception as exc:
        error = (type(exc), str(exc))
    assert interleaver.engine_used == backend
    bus = system.coherence.bus
    return {
        "error": error,
        "events": interleaver.events_processed,
        "stats": system.stats().as_dict(),
        "bus": (bus.busy_until, bus.transactions, bus.busy_cycles),
        "times": {pid: p.time
                  for pid, p in interleaver._processes.items()},
    }


def _deadlock():
    streams = {pid: _busy_stream(pid) for pid in range(4)}
    streams[0] = [OP_LOCK_ACQ, 1] + streams[0]
    streams[3] = streams[3] + [OP_LOCK_ACQ, 1] + _busy_stream(3, 2)
    return streams


def _unknown_opcode():
    streams = {pid: _busy_stream(pid) for pid in range(4)}
    streams[2] = streams[2][:20] + [99, 0] + streams[2][20:]
    return streams


def _bad_release():
    streams = {pid: _busy_stream(pid) for pid in range(4)}
    streams[1] = streams[1][:12] + [OP_LOCK_REL, 5] + streams[1][12:]
    return streams


ERROR_CASES = {
    "deadlock": (_deadlock, None, DeadlockError),
    "max_cycles": (lambda: {pid: _busy_stream(pid, 40)
                            for pid in range(4)}, 300, RuntimeError),
    "unknown_opcode": (_unknown_opcode, None, ValueError),
    "sync_protocol": (_bad_release, None, SyncProtocolError),
}


@needs_native
@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_parity(case):
    make, max_cycles, expected = ERROR_CASES[case]
    python = _run(make(), "python", max_cycles)
    compiled = _run(make(), "native", max_cycles)
    assert python["error"] is not None
    assert python["error"][0] is expected
    assert compiled == python


# ----------------------------------------------------------------------
# State at every python crossing
# ----------------------------------------------------------------------

def _snapshot(interleaver, system, where):
    clusters = []
    for cluster in system.clusters:
        scc = cluster.scc
        icn = scc.interconnect
        clusters.append((
            scc.array._states.tobytes(), scc.array._tags.tobytes(),
            dict(scc._inflight), set(scc._lost_lines),
            [list(buf) for buf in icn._write_buffers],
            icn.write_stall_cycles, dataclasses.asdict(scc.stats)))
    bus = system.coherence.bus
    return (
        where,
        list(interleaver._heap), interleaver._seq,
        {pid: (p.time, p.chunk_pos, p.chunk_sub, p.in_heap, p.blocked)
         for pid, p in sorted(interleaver._processes.items())},
        clusters,
        (bus.busy_until, bus.transactions, bus.busy_cycles),
        [(dataclasses.asdict(proc.stats), proc.finish_time)
         for proc in system._procs],
    )


def _crossings(tape, backend, monkeypatch):
    """Replay ``tape`` recording a snapshot at every lock/barrier
    handler and every ``ifetch`` callback."""
    system = MultiprocessorSystem(tape.config())
    interleaver = TimingInterleaver(system, backend=backend)
    for pid in sorted(tape.streams):
        interleaver.add_process(pid, iter(tape.chunks(pid)))
    seen = []

    def watch(owner, name):
        real = getattr(owner, name)

        def hook(*args):
            seen.append(_snapshot(interleaver, system, name))
            return real(*args)
        monkeypatch.setattr(owner, name, hook)

    for name in ("_lock_acquire", "_lock_release", "_barrier"):
        watch(interleaver, name)
    watch(system, "ifetch")
    interleaver.run()
    assert interleaver.engine_used == backend
    seen.append(_snapshot(interleaver, system, "end"))
    return seen


@needs_native
@pytest.mark.parametrize("seed", range(6))
def test_state_matches_python_at_every_crossing(seed, monkeypatch):
    # Seeds 3 and 4 model the instruction cache (ifetch crossings);
    # MSI/MESI and stall_on_writes both vary across the six.
    tape = generate_contended_tape(seed)
    python = _crossings(tape, "python", monkeypatch)
    compiled = _crossings(tape, "native", monkeypatch)
    assert len(python) > 2
    for index, (want, got) in enumerate(zip(python, compiled)):
        assert got == want, f"crossing {index} ({want[0]}) differs"
    assert len(compiled) == len(python)


# ----------------------------------------------------------------------
# Loader ABI guard
# ----------------------------------------------------------------------

@pytest.fixture
def fresh_loader(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    yield
    monkeypatch.undo()
    native.load(rebuild=True)


def _install(monkeypatch, module):
    """Make ``from . import _native`` in the loader yield ``module``
    (``None``: the import fails)."""
    import repro.trace.engine as package
    monkeypatch.setitem(sys.modules, "repro.trace.engine._native", module)
    if module is None:
        monkeypatch.delattr(package, "_native", raising=False)
    else:
        monkeypatch.setattr(package, "_native", module, raising=False)


@pytest.mark.parametrize("abi", [None, "2"])
def test_loader_refuses_a_stale_extension(abi, fresh_loader, monkeypatch):
    stub = types.ModuleType("repro.trace.engine._native")
    if abi is not None:
        stub.ABI_VERSION = abi
    _install(monkeypatch, stub)
    monkeypatch.setattr(native, "_compile_on_demand", lambda: None)
    assert native.load(rebuild=True) is None
    assert "stale extension" in native.LOAD_ERROR
    assert repr(abi) in native.LOAD_ERROR
    assert not native.ladder_available()


@needs_native
def test_loader_falls_through_to_the_on_demand_build(fresh_loader,
                                                     monkeypatch):
    built = native.load()
    stub = types.ModuleType("repro.trace.engine._native")
    stub.ABI_VERSION = "2"
    _install(monkeypatch, stub)
    monkeypatch.setattr(native, "_compile_on_demand", lambda: built)
    assert native.load(rebuild=True) is built
    assert "stale extension" in native.LOAD_ERROR
    assert native.ladder_available()


def test_loader_refuses_an_on_demand_build_with_another_abi(fresh_loader,
                                                            monkeypatch):
    stub = types.ModuleType("repro.trace.engine._native")
    stub.ABI_VERSION = "999"
    _install(monkeypatch, None)
    monkeypatch.setattr(native, "_compile_on_demand", lambda: stub)
    assert native.load(rebuild=True) is None
    assert "'999'" in native.LOAD_ERROR
