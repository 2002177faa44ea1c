"""Table 3: Barnes-Hut speedups relative to one processor per cluster.

Paper shape: speedups grow with cluster width at every SCC size; at
medium-to-large SCCs sharing is *better than linear* for two processors
per cluster (paper: 2.8-3.2 at 32 KB and up), because cluster-mates
prefetch for each other.
"""

from repro.core.config import KB
from repro.experiments import (PAPER_TABLE3, render_speedups,
                               speedup_table)

from conftest import paper_grid, run_once


def test_table3_barnes_speedups(benchmark, profile, cache, barnes_sweep,
                                save_report):
    sweep = run_once(benchmark, lambda: paper_grid(
        "barnes-hut", profile, cache))
    save_report("table3_barnes_speedups",
                render_speedups("barnes-hut", sweep, PAPER_TABLE3))

    table = speedup_table(sweep)
    for size, speedups in table.items():
        # Monotone in cluster width at every size.
        assert speedups[0] == 1.0
        assert speedups[1] > 1.5
        assert speedups[3] > speedups[1]
    # Greater-than-linear speedup for 2 procs/cluster somewhere in the
    # medium-to-large range -- the paper's prefetching headline.
    superlinear = [size for size in (32 * KB, 64 * KB, 128 * KB)
                   if table[size][1] > 2.0]
    assert superlinear, "no superlinear 2-proc speedup at medium SCCs"
    # Eight processors per cluster reach a large speedup at the top end.
    assert table[512 * KB][3] > 5.0
