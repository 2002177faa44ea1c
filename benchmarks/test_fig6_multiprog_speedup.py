"""Figure 6: multiprogramming self-relative speedups.

Paper shape: normalized to the one-processor case per SCC size, the
degradation from ideal speedup is due to interference conflicts alone;
increasing the SCC size reduces the degradation.
"""

from repro.core.config import KB
from repro.experiments import (degradation_factor, figure6_speedups,
                               render_figure6)

from conftest import paper_grid, run_once


def test_figure6_multiprogramming_speedups(benchmark, profile, cache,
                                           multiprog_sweep, save_report,
                                           save_figure):
    sweep = run_once(benchmark, lambda: paper_grid(
        "multiprogramming", profile, cache))
    report = render_figure6(sweep)
    deg_small = degradation_factor(sweep, 8 * KB)
    deg_large = degradation_factor(sweep, 512 * KB)
    report += (f"\n8-proc degradation from ideal: {deg_small:.2f}x @ 8 KB"
               f" vs {deg_large:.2f}x @ 512 KB (interference shrinks "
               f"with SCC size)")
    save_report("figure6_multiprogramming_speedups", report)
    from repro.experiments import PROCS_SWEPT, format_size
    table6 = figure6_speedups(sweep)
    series = {format_size(size): list(enumerate(values))
              for size, values in table6.items()
              if size in (4096, 32768, 131072, 524288)}
    save_figure("figure6_multiprogramming_speedups",
                "Figure 6: Multiprogramming self-relative speedups",
                series, [str(p) for p in PROCS_SWEPT],
                y_label="speedup", log_y=False)

    table = figure6_speedups(sweep)
    for size, speedups in table.items():
        # Speedups grow with cluster width but stay below ideal.
        assert speedups[0] == 1.0
        assert 1.0 < speedups[1] <= 2.05
        assert speedups[3] < 8.0
    # Larger SCCs are less degraded (paper's Figure 6 trend), comparing
    # the mid-ladder point against the top.
    assert degradation_factor(sweep, 512 * KB) < \
        degradation_factor(sweep, 8 * KB)
