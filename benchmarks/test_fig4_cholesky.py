"""Figure 4: Cholesky performance characteristics.

Paper shape: Cholesky barely speeds up regardless of cache size --
BCSSTK14's limited concurrency, load imbalance and synchronization
overhead cap the 8-proc self-relative speedup at 3.0 (4 KB) to 3.5
(512 KB); invalidations stay flat with cluster width; and the 32 KB read
miss rate falls roughly 25% from one to eight processors per cluster.
"""

from repro.core.config import KB
from repro.experiments import (PAPER_CHOLESKY_SPEEDUPS, invalidation_series,
                               read_miss_rate_table, render_figure,
                               self_relative_speedup)

from conftest import paper_grid, run_once


def test_figure4_cholesky(benchmark, profile, cache, cholesky_sweep,
                          save_report, save_figure):
    sweep = run_once(benchmark, lambda: paper_grid(
        "cholesky", profile, cache))
    report = render_figure("cholesky", sweep)
    small = self_relative_speedup(sweep, 4 * KB)
    large = self_relative_speedup(sweep, 512 * KB)
    rates32 = read_miss_rate_table(sweep, sizes=(32 * KB,))[32 * KB]
    rates_top = read_miss_rate_table(sweep, sizes=(256 * KB,))[256 * KB]
    report += (f"\n8-proc self-relative speedup: {small:.1f} @ 4 KB "
               f"(paper {PAPER_CHOLESKY_SPEEDUPS[4 * KB]}), {large:.1f} @ "
               f"512 KB (paper {PAPER_CHOLESKY_SPEEDUPS[512 * KB]})"
               f"\n32 KB read miss rate 1->8 procs: {rates32[0]:.1f}% -> "
               f"{rates32[3]:.1f}% (paper reports -25% here; in our "
               f"scaled geometry the sharing win appears from ~128 KB up)"
               f"\n256 KB read miss rate 1->8 procs: {rates_top[0]:.1f}% "
               f"-> {rates_top[3]:.1f}%")
    save_report("figure4_cholesky", report)
    from test_fig2_barnes import _save_curve_svg
    from repro.experiments import normalized_execution_times
    _save_curve_svg(save_figure, "figure4_cholesky", "Figure 4: Cholesky",
                    normalized_execution_times(sweep))

    # The defining Cholesky result: poor speedups at every size, only
    # slightly better with large caches.
    assert 1.2 < small < 5.0
    assert 1.2 < large < 5.5
    assert large >= small * 0.9
    # Sharing lowers the miss rate at large SCCs (the paper sees this at
    # 32 KB; our /8-scaled 32 KB has only 256 lines, which 32 processors'
    # active blocks thrash, so the crossover sits higher on our ladder).
    assert rates_top[3] < rates_top[0]
    # Invalidations stay flat with cluster width.
    series = invalidation_series(sweep, 64 * KB)
    assert max(series) < min(series) * 1.6 + 50
