"""Figure 5: multiprogramming performance on a single cluster.

Paper shape: execution time improves substantially with SCC size for
every cluster width; the improvement is largest for wide clusters
(paper: a factor of 4.1 for eight processors from 4 KB to 512 KB,
against a smaller factor for one processor).
"""

from repro.core.config import KB
from repro.experiments import (figure5_curves, render_figure5,
                               smallest_to_largest_improvement)

from conftest import paper_grid, run_once


def test_figure5_multiprogramming(benchmark, profile, cache,
                                  multiprog_sweep, save_report, save_figure):
    sweep = run_once(benchmark, lambda: paper_grid(
        "multiprogramming", profile, cache))
    improvement8 = smallest_to_largest_improvement(sweep, procs=8)
    improvement1 = smallest_to_largest_improvement(sweep, procs=1)
    report = render_figure5(sweep)
    report += (f"\n8-proc execution time improves {improvement8:.1f}x "
               f"from 4 KB to 512 KB (paper: 4.1x); "
               f"1-proc improves {improvement1:.1f}x")
    save_report("figure5_multiprogramming", report)
    from test_fig2_barnes import _save_curve_svg
    _save_curve_svg(save_figure, "figure5_multiprogramming",
                    "Figure 5: Multiprogramming", figure5_curves(sweep))

    curves = figure5_curves(sweep)
    for procs, series in curves.items():
        times = dict(series)
        assert times[4 * KB] > times[512 * KB]
    # Wide clusters benefit more from cache than narrow ones.
    assert improvement8 > improvement1
    assert improvement8 > 2.0
