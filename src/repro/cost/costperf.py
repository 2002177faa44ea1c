"""Cost/performance combination (Section 5, Tables 6 and 7).

Section 5 compares the cluster implementations by combining three
ingredients this module brings together:

1. the **performance surface** of each benchmark from the Section 3
   sweeps: execution time as a function of (processors per cluster,
   SCC size) -- produced here by :mod:`repro.experiments`;
2. the **load-latency correction** of Table 5
   (:mod:`repro.cost.latency`), because the two-processor chip has
   3-cycle loads and the MCM designs 4-cycle loads, which the Section 3
   simulations deliberately ignore;
3. the **area costs** of Section 4 (:mod:`repro.cost.floorplan`) for the
   cost/performance verdicts.

A performance surface is a mapping ``(processors_per_cluster,
scc_bytes) -> execution_time`` in simulated cycles, with SCC sizes in
*paper* bytes (the scale factor between paper and simulated cache sizes
is applied by the caller that built the surface).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from .floorplan import implementation_for
from .latency import latency_factor

__all__ = ["ComparisonCell", "ComparisonTable", "MissingSurfacePointError",
           "NORMALIZATION_CONFIG", "compare_configurations",
           "surface_from_results", "single_chip_table", "mcm_table",
           "cost_performance_gain"]

KB = 1024

Surface = Mapping[Tuple[int, int], float]
"""(processors per cluster, paper SCC bytes) -> simulated cycles."""

NORMALIZATION_CONFIG = (8, 512 * KB)
"""Every comparison is expressed relative to the best Section 3
configuration (eight processors per cluster, 512 KB SCC, uncorrected),
which reads on the paper's tables: its Table 7 entries sit a little
above 1."""

_NORMALIZATION_CONFIG = NORMALIZATION_CONFIG  # pre-optimizer spelling


class MissingSurfacePointError(KeyError):
    """A performance surface lacks a configuration a comparison needs.

    Surfaces used to be built only by the full-grid table pipelines, so
    a bare ``KeyError`` on a raw tuple was survivable; the design-space
    optimizer builds them programmatically from arbitrary candidate
    sets, where "which benchmark, which point, what *is* there" is the
    whole diagnosis.  Subclasses :class:`KeyError` so pre-existing
    ``except KeyError`` callers keep working.
    """

    def __init__(self, benchmark: str, point: Tuple[int, int],
                 role: str = "requested configuration"):
        super().__init__((benchmark, point))
        self.benchmark = benchmark
        self.point = point
        self.role = role

    def __str__(self) -> str:
        procs, scc_bytes = self.point
        return (f"surface for benchmark {self.benchmark!r} has no entry "
                f"for the {self.role} (procs_per_cluster={procs}, "
                f"scc={scc_bytes // KB} KB paper bytes)")


def _surface_time(surface: Surface, benchmark: str,
                  point: Tuple[int, int], role: str) -> float:
    try:
        return surface[point]
    except KeyError:
        raise MissingSurfacePointError(benchmark, point, role) from None


def surface_from_results(results: Mapping[Tuple[int, int], object]
                         ) -> Dict[Tuple[int, int], float]:
    """Execution-time surface from sweep results.

    ``results`` is a ``{(procs_per_cluster, paper_scc_bytes): RunStats}``
    mapping as returned by ``run_sweep``/``SweepClient.result`` (plain
    cycle counts also pass through) -- the adapter the optimizer uses to
    feed candidate evaluations straight into this module.
    """
    return {point: float(getattr(stats, "execution_time", stats))
            for point, stats in results.items()}


@dataclass(frozen=True)
class ComparisonCell:
    """One benchmark x configuration entry of a comparison table."""

    benchmark: str
    processors_per_cluster: int
    scc_paper_bytes: int
    load_latency: int
    raw_time: float
    latency_factor: float
    normalized_time: float
    """Latency-corrected time relative to the normalization config."""


@dataclass(frozen=True)
class ComparisonTable:
    """A Table 6 / Table 7 style comparison."""

    configurations: Tuple[Tuple[int, int], ...]
    cells: Tuple[ComparisonCell, ...]

    def row(self, benchmark: str) -> List[ComparisonCell]:
        """The cells of one benchmark, in configuration order."""
        by_config = {(c.processors_per_cluster, c.scc_paper_bytes): c
                     for c in self.cells if c.benchmark == benchmark}
        missing = [config for config in self.configurations
                   if config not in by_config]
        if missing:
            raise MissingSurfacePointError(benchmark, missing[0],
                                           role="table configuration")
        return [by_config[config] for config in self.configurations]

    @property
    def benchmarks(self) -> List[str]:
        """Benchmarks in first-appearance order."""
        seen: List[str] = []
        for cell in self.cells:
            if cell.benchmark not in seen:
                seen.append(cell.benchmark)
        return seen

    def mean_speedup(self, slower: Tuple[int, int],
                     faster: Tuple[int, int]) -> float:
        """Average (over benchmarks) of time(slower) / time(faster)."""
        ratios = []
        for benchmark in self.benchmarks:
            cells = {(c.processors_per_cluster, c.scc_paper_bytes): c
                     for c in self.cells if c.benchmark == benchmark}
            for config in (slower, faster):
                if config not in cells:
                    raise MissingSurfacePointError(
                        benchmark, config, role="speedup configuration")
            ratios.append(cells[slower].normalized_time
                          / cells[faster].normalized_time)
        return sum(ratios) / len(ratios)


def compare_configurations(
        surfaces: Mapping[str, Surface],
        configurations: Tuple[Tuple[int, int], ...],
        normalization: Tuple[int, int] = NORMALIZATION_CONFIG
        ) -> ComparisonTable:
    """Build a latency-corrected comparison over ``configurations``.

    ``surfaces`` maps benchmark name to its performance surface; each
    configuration is ``(processors_per_cluster, paper SCC bytes)``.
    Every surface must contain ``normalization`` (by default the paper's
    8-processor/512 KB reference) and every requested configuration;
    anything absent raises :class:`MissingSurfacePointError` naming the
    benchmark and point.
    """
    cells: List[ComparisonCell] = []
    for benchmark, surface in surfaces.items():
        base = _surface_time(surface, benchmark, normalization,
                             role="normalization configuration")
        for procs, scc_bytes in configurations:
            implementation = implementation_for(procs)
            factor = latency_factor(benchmark, implementation.load_latency)
            raw = _surface_time(surface, benchmark, (procs, scc_bytes),
                                role="requested configuration")
            cells.append(ComparisonCell(
                benchmark=benchmark,
                processors_per_cluster=procs,
                scc_paper_bytes=scc_bytes,
                load_latency=implementation.load_latency,
                raw_time=raw,
                latency_factor=factor,
                normalized_time=raw * factor / base,
            ))
    return ComparisonTable(configurations=configurations,
                           cells=tuple(cells))


def single_chip_table(surfaces: Mapping[str, Surface]) -> ComparisonTable:
    """Table 6: one processor + 64 KB cache vs two processors + 32 KB SCC
    (both single-chip cluster implementations)."""
    return compare_configurations(
        surfaces, configurations=((1, 64 * KB), (2, 32 * KB)))


def mcm_table(surfaces: Mapping[str, Surface]) -> ComparisonTable:
    """Table 7: the MCM clusters -- four processors + 64 KB SCC and eight
    processors + 128 KB SCC (both with four-cycle loads)."""
    return compare_configurations(
        surfaces, configurations=((4, 64 * KB), (8, 128 * KB)))


def cost_performance_gain(speedup: float, slower_procs: int = 1,
                          faster_procs: int = 2) -> float:
    """Cost/performance improvement of the faster design.

    The paper's Section 5.1 arithmetic: the two-processor chip is 70%
    faster and 37% larger, so cost/performance improves by
    1.70 / 1.37 - 1 = 24%.
    """
    slower_area = implementation_for(slower_procs).chip_area_mm2
    faster_area = implementation_for(faster_procs).chip_area_mm2
    return speedup / (faster_area / slower_area) - 1.0
