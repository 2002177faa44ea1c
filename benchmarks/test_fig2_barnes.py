"""Figure 2: Barnes-Hut normalized execution time vs SCC size.

Paper shape: execution time falls steeply with SCC size for every
cluster width; more processors per cluster are always faster at the same
SCC size; and medium-to-large SCCs gain the most from sharing.
"""

from repro.core.config import KB
from repro.experiments import normalized_execution_times, render_figure

from conftest import paper_grid, run_once


def test_figure2_barnes_hut(benchmark, profile, cache, barnes_sweep,
                            save_report, save_figure):
    sweep = run_once(benchmark, lambda: paper_grid(
        "barnes-hut", profile, cache))
    save_report("figure2_barnes_hut", render_figure("barnes-hut", sweep))

    curves = normalized_execution_times(sweep)
    _save_curve_svg(save_figure, "figure2_barnes_hut",
                    "Figure 2: Barnes-Hut", curves)
    for procs, series in curves.items():
        times = dict(series)
        # Bigger caches help every cluster width (4 KB -> 512 KB).
        assert times[4 * KB] > times[512 * KB]
        # The fall is substantial (the paper's curves span ~an order
        # of magnitude).
        assert times[4 * KB] / times[512 * KB] > 3.0
    # At every size, wider clusters are faster.
    for size in (4 * KB, 64 * KB, 512 * KB):
        assert (sweep[(1, size)].execution_time
                > sweep[(2, size)].execution_time
                > sweep[(8, size)].execution_time)


def _save_curve_svg(save_figure, name, title, curves):
    from repro.experiments import PAPER_LADDER, format_size
    positions = {size: i for i, size in enumerate(PAPER_LADDER)}
    series = {f"{procs} procs/cluster":
              [(positions[size], value) for size, value in points]
              for procs, points in curves.items()}
    labels = [format_size(size).replace(" ", "") for size in PAPER_LADDER]
    save_figure(name, title, series, labels,
                y_label="normalized execution time")
