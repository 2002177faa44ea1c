"""Table 6: single-chip cluster comparison (1 proc/64 KB vs 2 procs/32 KB).

Paper shape: the two-processor chip with half the cache wins on every
benchmark -- by a lot for the parallel codes, narrowly for Cholesky --
and, being only 37% larger, also wins on cost/performance (paper: +24%).
"""

from repro.core.config import KB
from repro.cost.costperf import (cost_performance_gain, single_chip_table)
from repro.experiments import render_table6, surfaces_from_sweeps

from conftest import paper_grid, run_once


def test_table6_single_chip(benchmark, profile, cache, barnes_sweep,
                            mp3d_sweep, cholesky_sweep, multiprog_sweep,
                            save_report):
    def build():
        return {
            name: paper_grid(name, profile, cache)
            for name in ("barnes-hut", "mp3d", "cholesky",
                         "multiprogramming")
        }

    sweeps = run_once(benchmark, build)
    save_report("table6_single_chip", render_table6(sweeps))

    table = single_chip_table(surfaces_from_sweeps(sweeps))
    for benchmark_name in table.benchmarks:
        one_proc, two_procs = table.row(benchmark_name)
        # The two-processor cluster wins on every benchmark.
        assert two_procs.normalized_time < one_proc.normalized_time
    # Average speedup is well above the 37% area premium, so
    # cost/performance improves (paper: 70% faster, +24% cost/perf).
    speedup = table.mean_speedup(slower=(1, 64 * KB),
                                 faster=(2, 32 * KB))
    assert speedup > 1.37
    assert cost_performance_gain(speedup) > 0.0
