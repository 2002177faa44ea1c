"""Figure 3: MP3D performance characteristics.

Paper shape: MP3D scales worst of the three parallel applications --
destructive interference caps the small-SCC speedup (paper: 3.8
self-relative at 4 KB) while large SCCs approach linear (paper: 7.2 at
512 KB); invalidation traffic is flat in processors per cluster because
cluster-mates coalesce their updates in the shared SCC.
"""

from repro.core.config import KB
from repro.experiments import (PAPER_MP3D_SPEEDUPS, invalidation_series,
                               render_figure, self_relative_speedup)

from conftest import paper_grid, run_once


def test_figure3_mp3d(benchmark, profile, cache, mp3d_sweep, save_report, save_figure):
    sweep = run_once(benchmark, lambda: paper_grid(
        "mp3d", profile, cache))
    report = render_figure("mp3d", sweep)
    small = self_relative_speedup(sweep, 4 * KB)
    large = self_relative_speedup(sweep, 512 * KB)
    report += (f"\n8-proc self-relative speedup: {small:.1f} @ 4 KB "
               f"(paper {PAPER_MP3D_SPEEDUPS[4 * KB]}), {large:.1f} @ "
               f"512 KB (paper {PAPER_MP3D_SPEEDUPS[512 * KB]})")
    save_report("figure3_mp3d", report)
    from test_fig2_barnes import _save_curve_svg
    from repro.experiments import normalized_execution_times
    _save_curve_svg(save_figure, "figure3_mp3d", "Figure 3: MP3D",
                    normalized_execution_times(sweep))

    # Large SCCs scale much better than small ones.
    assert large > small * 1.25
    assert small > 1.5
    assert large > 3.5
    # Invalidations stay flat as processors are added to each cluster.
    for size in (4 * KB, 64 * KB, 512 * KB):
        series = invalidation_series(sweep, size)
        assert max(series) < min(series) * 1.5 + 50
