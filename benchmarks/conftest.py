"""Shared fixtures for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper: it runs (or
loads from the on-disk cache) the sweep behind that experiment, prints
the paper-vs-measured report, saves it under ``results/``, and asserts
the qualitative shape the paper claims.  Run with::

    pytest benchmarks/ --benchmark-only -s

Select workload sizing with ``REPRO_PROFILE`` (``paper`` default,
``quick`` for a fast smoke pass).  The first run simulates everything
(minutes at the paper profile); later runs hit the cache.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import (ResultCache, SweepSpec, active_profile,
                               default_cache, run_sweep)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def profile():
    """The active experiment profile (REPRO_PROFILE)."""
    return active_profile()


@pytest.fixture(scope="session")
def cache() -> ResultCache:
    """Shared on-disk result cache."""
    return default_cache()


@pytest.fixture(scope="session")
def save_report():
    """Persist a rendered experiment report under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, report: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(report + "\n")
        print()
        print(report)

    return _save


@pytest.fixture(scope="session")
def save_figure():
    """Persist an SVG figure under results/."""
    from repro.experiments.svgfig import save_svg_chart
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, title: str, series, x_labels, **kwargs):
        return save_svg_chart(RESULTS_DIR / f"{name}.svg", title,
                              series, x_labels, **kwargs)

    return _save


def paper_grid(benchmark_name: str, profile, cache):
    """One paper grid, resolved through the SweepSpec API."""
    spec = (SweepSpec.multiprogramming(profile=profile)
            if benchmark_name == "multiprogramming"
            else SweepSpec.parallel(benchmark_name, profile=profile))
    return run_sweep(spec, cache=cache)


@pytest.fixture(scope="session")
def barnes_sweep(profile, cache):
    return paper_grid("barnes-hut", profile, cache)


@pytest.fixture(scope="session")
def mp3d_sweep(profile, cache):
    return paper_grid("mp3d", profile, cache)


@pytest.fixture(scope="session")
def cholesky_sweep(profile, cache):
    return paper_grid("cholesky", profile, cache)


@pytest.fixture(scope="session")
def multiprog_sweep(profile, cache):
    return paper_grid("multiprogramming", profile, cache)


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark's timer.

    Simulation sweeps are deterministic and minutes-scale; repeating
    them for statistics would only re-read the cache.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
