"""Metamorphic and end-to-end properties of the trace pipeline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import KB, SystemConfig
from repro.core.system import MultiprocessorSystem
from repro.trace.events import Compute, Read, Write
from repro.trace.interleave import TimingInterleaver
from repro.trace.packed import decode_events, encode_events
from repro.trace.record import TraceCache
from repro.trace.stream import coalesce_compute

EVENTS = st.lists(st.one_of(
    st.builds(Compute, st.integers(0, 50)),
    st.builds(Read, st.integers(0, 4000).map(lambda x: x * 8)),
    st.builds(Write, st.integers(0, 4000).map(lambda x: x * 8))),
    min_size=1, max_size=150)


def run_streams(streams, scc_size=1 * KB):
    config = SystemConfig(clusters=2, processors_per_cluster=2,
                          scc_size=scc_size)
    system = MultiprocessorSystem(config)
    interleaver = TimingInterleaver(system)
    for proc, events in enumerate(streams):
        interleaver.add_process(proc, iter(events))
    time = interleaver.run()
    return time, system.stats(time)


COMPUTE_ONLY = st.lists(st.builds(Compute, st.integers(0, 50)),
                        min_size=1, max_size=100)


class TestCoalescingIsTimingNeutral:
    @given(EVENTS, COMPUTE_ONLY)
    @settings(max_examples=60, deadline=None)
    def test_merging_compute_events_changes_nothing(self, a, b):
        """Coalescing adjacent Compute events is a pure trace
        compression: execution time and every cache counter agree.

        The property is stated with a single memory-using process: two
        processes whose misses reach the bus in the *same cycle* may
        legitimately be granted in either order (arbitration ties), and
        event boundaries are a valid tie-breaker, so multi-process
        streams are only equal modulo tie order.
        """
        plain_time, plain_stats = run_streams(
            [a, b, [Compute(1)], [Compute(1)]])
        squeezed_time, squeezed_stats = run_streams(
            [list(coalesce_compute(a)), list(coalesce_compute(b)),
             [Compute(1)], [Compute(1)]])
        assert squeezed_time == plain_time
        assert (squeezed_stats.total_scc.as_dict()
                == plain_stats.total_scc.as_dict())


class TestTraceFileRoundtripPreservesSimulation:
    @given(EVENTS, EVENTS)
    @settings(max_examples=30, deadline=None)
    def test_saved_and_reloaded_traces_simulate_identically(self, a, b):
        """An RPTC round trip (encode, store, load, decode) replays
        exactly like the original event objects."""
        import tempfile
        with tempfile.TemporaryDirectory() as directory:
            cache = TraceCache(directory)
            cache.put("sig", {0: encode_events(a), 1: encode_events(b)})
            loaded = cache.get("sig")
            direct_time, direct_stats = run_streams(
                [a, b, [Compute(1)], [Compute(1)]])
            replay_time, replay_stats = run_streams(
                [list(decode_events(loaded[0])),
                 list(decode_events(loaded[1])),
                 [Compute(1)], [Compute(1)]])
        assert replay_time == direct_time
        assert (replay_stats.total_scc.as_dict()
                == direct_stats.total_scc.as_dict())


class TestComputeOnlyWorkloadsAreExact:
    @given(st.lists(st.lists(st.integers(0, 100), min_size=1,
                             max_size=20),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_execution_time_is_the_longest_chain(self, chains):
        streams = [[Compute(c) for c in chain] for chain in chains]
        time, stats = run_streams(streams + [[Compute(0)]] *
                                  (4 - len(streams)))
        assert time == max(sum(chain) for chain in chains)
        assert stats.total_scc.accesses == 0
