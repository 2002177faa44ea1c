#!/usr/bin/env python3
"""Capture a reference trace, inspect it, and replay it bit-for-bit.

Shows the trace tooling end to end: materialize a static reference
stream, pack it and store it in the on-disk trace cache, characterize it
(event mix, working set, miss-ratio curve), and replay the stored
recording through the simulator, verifying the replay reproduces the
original run exactly.

Usage:  python examples/trace_capture.py
"""

import tempfile
from pathlib import Path

from repro.api import KB, SystemConfig
from repro.core import MultiprocessorSystem
from repro.trace import (TimingInterleaver, TraceCache, decode_events,
                         encode_events, event_histogram, miss_ratio_curve,
                         reference_count, working_set_lines)
from repro.workloads import spec92_workload

SIGNATURE = "trace-capture|spec92|2 processes"


def simulate(streams, config):
    system = MultiprocessorSystem(config)
    interleaver = TimingInterleaver(system)
    for proc, events in enumerate(streams):
        interleaver.add_process(proc, iter(events))
    time = interleaver.run()
    return time, system.stats(time)


def main():
    config = SystemConfig(clusters=1, processors_per_cluster=2,
                          scc_size=4 * KB)
    # Two SPEC-like processes, one quantum each, as the capture source.
    apps = spec92_workload(scale=8)
    streams = [list(apps[0].burst(20_000)), list(apps[1].burst(20_000))]

    with tempfile.TemporaryDirectory() as directory:
        cache = TraceCache(Path(directory))
        packed = {proc: encode_events(events)
                  for proc, events in enumerate(streams)}
        cache.put(SIGNATURE, packed)
        for proc, events in enumerate(streams):
            size = 8 * len(packed[proc])
            print(f"captured proc {proc}: {len(events):,} events -> "
                  f"{size:,} bytes ({size / len(events):.1f} B/event)")
        on_disk = sum(path.stat().st_size
                      for path in Path(directory).iterdir())
        print(f"trace file: {on_disk:,} bytes")

        print("\ntrace characterization (proc 0):")
        histogram = event_histogram(streams[0])
        for kind, count in sorted(histogram.items(),
                                  key=lambda item: -item[1]):
            print(f"  {kind.__name__:<10} {count:>7,}")
        print(f"  data refs : {reference_count(streams[0]):,}")
        print(f"  90% WS    : "
              f"{working_set_lines(streams[0]) * 16 / 1024:.1f} KB")
        curve = miss_ratio_curve(streams[0], (1024, 4096, 16384))
        for size, ratio in curve.items():
            print(f"  LRU {size // 1024:>2} KB : {100 * ratio:.1f}% miss")

        print("\nreplaying from disk...")
        direct_time, direct_stats = simulate(streams, config)
        recording = cache.get(SIGNATURE)
        reloaded = [list(decode_events(recording[proc]))
                    for proc in sorted(recording)]
        replay_time, replay_stats = simulate(reloaded, config)

        print(f"  direct run : {direct_time:,} cycles, "
              f"{direct_stats.total_scc.read_misses:,} read misses")
        print(f"  replay run : {replay_time:,} cycles, "
              f"{replay_stats.total_scc.read_misses:,} read misses")
        identical = (direct_time == replay_time
                     and direct_stats.total_scc.as_dict()
                     == replay_stats.total_scc.as_dict())
        print(f"  bit-for-bit identical: {identical}")
    return identical


if __name__ == "__main__":
    main()
