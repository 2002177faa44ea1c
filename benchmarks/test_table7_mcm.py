"""Table 7: MCM cluster comparison (4 procs/64 KB vs 8 procs/128 KB).

Paper shape: the parallel applications roughly double their performance
from the 16- to the 32-processor machine despite the four-cycle loads
(Cholesky excepted), showing the two-processor chip scales as a building
block.
"""

from repro.core.config import KB
from repro.cost.costperf import mcm_table
from repro.experiments import render_table7, surfaces_from_sweeps

from conftest import paper_grid, run_once


def test_table7_mcm(benchmark, profile, cache, barnes_sweep, mp3d_sweep,
                    cholesky_sweep, multiprog_sweep, save_report):
    def build():
        return {
            name: paper_grid(name, profile, cache)
            for name in ("barnes-hut", "mp3d", "cholesky",
                         "multiprogramming")
        }

    sweeps = run_once(benchmark, build)
    save_report("table7_mcm", render_table7(sweeps))

    table = mcm_table(surfaces_from_sweeps(sweeps))
    for name in table.benchmarks:
        four_procs, eight_procs = table.row(name)
        # Eight processors per cluster never lose to four.
        assert eight_procs.normalized_time <= four_procs.normalized_time
        if name in ("barnes-hut", "mp3d"):
            # Near-linear scaling 16 -> 32 processors for the scalable
            # parallel codes (paper: ~2x; we accept >=1.3x).
            ratio = four_procs.normalized_time / eight_procs.normalized_time
            assert ratio > 1.3
        if name == "cholesky":
            # Cholesky is the exception: little gain.
            ratio = four_procs.normalized_time / eight_procs.normalized_time
            assert ratio < 1.8
