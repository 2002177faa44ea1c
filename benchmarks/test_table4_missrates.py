"""Table 4: Barnes-Hut read miss rates (prefetching vs interference).

Paper shape: at medium-to-large SCCs the read miss rate falls sharply as
processors are added to a cluster (prefetching); at the small end it
*rises* with cluster width (destructive interference); and invalidations
do not grow with processors per cluster.
"""

from repro.core.config import KB
from repro.experiments import (PAPER_TABLE4, invalidation_series,
                               read_miss_rate_table, render_miss_rates)

from conftest import paper_grid, run_once


def test_table4_read_miss_rates(benchmark, profile, cache, barnes_sweep,
                                save_report):
    sweep = run_once(benchmark, lambda: paper_grid(
        "barnes-hut", profile, cache))
    save_report("table4_barnes_missrates",
                render_miss_rates("barnes-hut", sweep, PAPER_TABLE4))

    rates = read_miss_rate_table(sweep, sizes=(4 * KB, 64 * KB, 256 * KB))
    # Medium/large SCC: sharing reduces the read miss rate markedly.
    for size in (64 * KB, 256 * KB):
        one_proc, two_procs, four_procs, eight_procs = rates[size]
        assert two_procs < one_proc
        assert four_procs < one_proc * 0.8
    # Small SCC: destructive interference keeps rates high for wide
    # clusters (no large improvement at 4 KB).
    small = rates[4 * KB]
    assert small[3] > small[0] * 0.5

    # Invalidations do not grow with processors per cluster (Sec 3.1.1).
    for size in (64 * KB, 256 * KB):
        series = invalidation_series(sweep, size)
        assert max(series) < min(series) * 1.5 + 50
