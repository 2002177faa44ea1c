"""Tests for the cost/performance combination (Tables 6-7 machinery)."""

import pytest

from repro.cost.costperf import (compare_configurations,
                                 cost_performance_gain, mcm_table,
                                 single_chip_table)

KB = 1024


def synthetic_surface(times):
    """Surface with the normalization point plus given configs."""
    surface = {(8, 512 * KB): 100.0}
    surface.update(times)
    return surface


class TestCompareConfigurations:
    def test_latency_correction_applied(self):
        surfaces = {"barnes-hut": synthetic_surface({
            (1, 64 * KB): 1000.0, (2, 32 * KB): 500.0})}
        table = single_chip_table(surfaces)
        one, two = table.row("barnes-hut")
        # 1 proc: 2-cycle loads -> factor 1.00; 2 procs: 3-cycle -> 1.06.
        assert one.normalized_time == pytest.approx(10.0)
        assert two.normalized_time == pytest.approx(5.0 * 1.06)
        assert one.load_latency == 2
        assert two.load_latency == 3

    def test_mcm_table_uses_four_cycle_loads(self):
        surfaces = {"mp3d": synthetic_surface({
            (4, 64 * KB): 300.0, (8, 128 * KB): 150.0})}
        table = mcm_table(surfaces)
        four, eight = table.row("mp3d")
        assert four.load_latency == 4
        assert eight.load_latency == 4
        assert four.normalized_time == pytest.approx(3.0 * 1.14)

    def test_mean_speedup(self):
        surfaces = {
            "barnes-hut": synthetic_surface({(1, 64 * KB): 1000.0,
                                             (2, 32 * KB): 500.0}),
        }
        table = single_chip_table(surfaces)
        speedup = table.mean_speedup(slower=(1, 64 * KB),
                                     faster=(2, 32 * KB))
        assert speedup == pytest.approx(2.0 / 1.06, rel=1e-6)

    def test_benchmarks_listed_in_order(self):
        surfaces = {
            "mp3d": synthetic_surface({(1, 64 * KB): 1.0,
                                       (2, 32 * KB): 1.0}),
            "barnes-hut": synthetic_surface({(1, 64 * KB): 1.0,
                                             (2, 32 * KB): 1.0}),
        }
        table = single_chip_table(surfaces)
        assert table.benchmarks == ["mp3d", "barnes-hut"]


class TestCostPerformance:
    def test_papers_arithmetic(self):
        """70% faster on a 37% bigger chip -> ~24% better cost/perf."""
        assert cost_performance_gain(1.70) == pytest.approx(0.243, abs=0.01)

    def test_break_even(self):
        area_ratio = 279.0 / 204.0
        assert cost_performance_gain(area_ratio) == pytest.approx(0.0)

    def test_slower_design_loses(self):
        assert cost_performance_gain(1.0) < 0.0


class TestMissingSurfacePointError:
    def surfaces(self):
        return {"mp3d": synthetic_surface({(2, 32 * KB): 50.0})}

    def test_missing_normalization_point_named(self):
        from repro.cost.costperf import MissingSurfacePointError
        with pytest.raises(MissingSurfacePointError) as info:
            compare_configurations({"mp3d": {(2, 32 * KB): 50.0}},
                                   configurations=((2, 32 * KB),))
        assert info.value.benchmark == "mp3d"
        assert info.value.point == (8, 512 * KB)
        assert "normalization configuration" in str(info.value)
        assert "512 KB" in str(info.value)

    def test_missing_requested_point_named(self):
        from repro.cost.costperf import MissingSurfacePointError
        with pytest.raises(MissingSurfacePointError) as info:
            compare_configurations(self.surfaces(),
                                   configurations=((4, 64 * KB),))
        assert info.value.point == (4, 64 * KB)
        assert "requested configuration" in str(info.value)

    def test_mean_speedup_names_missing_config(self):
        from repro.cost.costperf import MissingSurfacePointError
        table = compare_configurations(self.surfaces(),
                                       configurations=((2, 32 * KB),))
        with pytest.raises(MissingSurfacePointError,
                           match="speedup configuration"):
            table.mean_speedup(slower=(1, 64 * KB), faster=(2, 32 * KB))

    def test_row_names_missing_config(self):
        from repro.cost.costperf import MissingSurfacePointError
        table = compare_configurations(self.surfaces(),
                                       configurations=((2, 32 * KB),))
        broken = table.__class__(configurations=((1, 64 * KB),),
                                 cells=table.cells)
        with pytest.raises(MissingSurfacePointError,
                           match="table configuration"):
            broken.row("mp3d")

    def test_subclasses_keyerror(self):
        from repro.cost.costperf import MissingSurfacePointError
        with pytest.raises(KeyError):
            compare_configurations({"mp3d": {}},
                                   configurations=((2, 32 * KB),))


class TestSurfaceFromResults:
    def test_adapts_runstats_and_raw_cycles(self):
        from repro.cost.costperf import surface_from_results

        class FakeStats:
            execution_time = 123

        surface = surface_from_results({(1, 64 * KB): FakeStats(),
                                        (2, 32 * KB): 456})
        assert surface == {(1, 64 * KB): 123.0, (2, 32 * KB): 456.0}


class TestRecordedQuickSurfaces:
    """Section 5 pinned against recorded quick-profile sweep results
    (tests/cost/data/quick_surfaces.json, regenerate with run_sweep
    on REPRO_PROFILE=quick)."""

    @pytest.fixture
    def surfaces(self):
        import json
        import pathlib
        path = pathlib.Path(__file__).parent / "data" / \
            "quick_surfaces.json"
        payload = json.loads(path.read_text())
        out = {}
        for benchmark in ("mp3d", "barnes-hut"):
            out[benchmark] = {
                tuple(int(part) for part in key.split(",")): float(time)
                for key, time in payload[benchmark].items()}
        return out

    def test_single_chip_two_processors_win(self, surfaces):
        """Section 5.1: the two-processor cluster beats the
        uniprocessor by more than its area premium, so its
        cost/performance gain is positive (the paper quotes 24% at a
        1.70x speedup on the full-size workloads)."""
        table = single_chip_table(surfaces)
        speedup = table.mean_speedup(slower=(1, 64 * KB),
                                     faster=(2, 32 * KB))
        assert speedup > 279.0 / 204.0  # faster than it is bigger
        assert cost_performance_gain(speedup) > 0
        # The paper's own arithmetic at its quoted speedup.
        assert cost_performance_gain(1.70) == pytest.approx(
            1.70 / (279.0 / 204.0) - 1.0)

    def test_mcm_entries_sit_above_the_reference(self, surfaces):
        """Table 7 reads slightly above 1: the recommended MCM designs
        trail the (uncorrected) 8-processor/512 KB reference once their
        smaller SCCs and 4-cycle loads are charged."""
        table = mcm_table(surfaces)
        for benchmark in ("mp3d", "barnes-hut"):
            for cell in table.row(benchmark):
                assert cell.normalized_time > 1.0
                assert cell.load_latency == 4

    def test_eight_procs_dominate_raw_time(self, surfaces):
        """Within each benchmark the recorded grid is monotone: more
        processors at the recommended sizes run faster raw."""
        for surface in surfaces.values():
            assert surface[(8, 128 * KB)] < surface[(4, 64 * KB)] \
                < surface[(2, 32 * KB)] < surface[(1, 64 * KB)]
