"""Result cache, point simulation and worker pool for the experiments.

Every figure and table in the paper is a view over one of two sweeps:

* the **parallel sweep** (Section 3.1): a benchmark on four clusters,
  processors per cluster in {1, 2, 4, 8} x the SCC ladder 4 KB..512 KB;
* the **multiprogramming sweep** (Section 3.2): the SPEC92 mix on a
  single cluster over the same grid.

Simulations are minutes-scale, so results are cached on disk keyed by
the experiment's full parameterisation; delete the cache directory (or
bump :data:`CACHE_VERSION`) after changing the simulator.

Two profiles control workload sizes: ``quick`` for smoke-testing the
pipelines, ``paper`` (the default for benchmarks) for the properly
scaled runs recorded in EXPERIMENTS.md.  Select with the
``REPRO_PROFILE`` environment variable.

Sweeps are *described* by a :class:`~repro.experiments.spec.SweepSpec`
and *driven* by :func:`~repro.experiments.session.run_sweep` (which
adds journaled resume, retries, and quarantine on top of the machinery
here).
"""

from __future__ import annotations

import atexit
import hashlib
import json
import logging
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..core.config import SystemConfig
from ..instrument import InstrumentationProbe
from ..simulation import run_simulation
from .spec import (CACHE_VERSION, PAPER_LADDER, PROCS_SWEPT, PROFILES,
                   ExperimentProfile, active_profile)

__all__ = ["RunStats", "ExperimentProfile", "PROFILES", "active_profile",
           "ResultCache", "default_cache", "PAPER_LADDER", "PROCS_SWEPT",
           "CACHE_VERSION"]

_LOG = logging.getLogger(__name__)

INSTRUMENT_BIN_WIDTH = 4096
"""Timeline resolution for the summary-only instrumentation every sweep
point runs with (coarse: sweeps want digests, not traces)."""


@dataclass(frozen=True)
class RunStats:
    """The per-configuration quantities the paper's tables need."""

    execution_time: int
    read_miss_rate: float
    miss_rate: float
    invalidations: int
    reads: int
    writes: int
    events: int
    instrument: Optional[Dict[str, float]] = field(default=None,
                                                   compare=False)
    """Flat observability digest from the run's
    :class:`~repro.instrument.InstrumentationProbe` (peak/mean bus
    utilization, conflict cycles, write-buffer high-water); ``None``
    only for payloads predating cache v4."""

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "RunStats":
        return cls(**data)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------

class ResultCache:
    """Tiny JSON-file-per-result cache.

    Writes go through a per-process temporary file and an atomic rename,
    so concurrent ``--jobs`` sweeps (or several sweep processes sharing a
    cache directory) can race on the same key without ever exposing a
    half-written file.  A corrupt or truncated entry (killed writer from
    an older version, disk trouble) is logged once, deleted, and treated
    as a miss so the next run rewrites it instead of missing forever.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._warned_corrupt = False

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(
            f"v{CACHE_VERSION}:{key}".encode()).hexdigest()[:24]
        return self.directory / f"{digest}.json"

    def get(self, key: str) -> Optional[RunStats]:
        path = self._path(key)
        try:
            raw = path.read_text()
        except (FileNotFoundError, OSError):
            return None
        try:
            return RunStats.from_dict(json.loads(raw))
        except (json.JSONDecodeError, TypeError) as exc:
            self._discard_corrupt(path, exc)
            return None

    def put(self, key: str, stats: RunStats) -> None:
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(stats.as_dict()))
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def _discard_corrupt(self, path: Path, exc: Exception) -> None:
        if not self._warned_corrupt:
            self._warned_corrupt = True
            _LOG.warning(
                "discarding corrupt result-cache entry %s (%s); "
                "it will be recomputed", path, exc)
        try:
            path.unlink()
        except OSError:
            pass


def default_cache() -> ResultCache:
    """Cache under the working tree (override with ``REPRO_CACHE_DIR``)."""
    directory = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return ResultCache(Path(directory))


# ----------------------------------------------------------------------
# Point simulation
# ----------------------------------------------------------------------

def _stats_from_result(result, probe=None) -> RunStats:
    """Reduce a :class:`~repro.simulation.SimulationResult` to RunStats."""
    total = result.stats.total_scc
    return RunStats(
        execution_time=result.stats.execution_time,
        read_miss_rate=result.stats.read_miss_rate,
        miss_rate=total.miss_rate,
        invalidations=result.stats.total_invalidations,
        reads=total.reads,
        writes=total.writes,
        events=result.events_processed,
        instrument=probe.summary() if probe is not None else None,
    )


def _simulate(application, config: SystemConfig, instrument: bool,
              backend: Optional[str] = None) -> RunStats:
    """One simulation of any workload object, reduced to RunStats.

    With ``instrument`` the run carries summary-only instrumentation
    and its observability digest rides along in the cached payload.
    ``instrument=False`` drops the digest and keeps the simulation on
    the interleaver's packed fast path (an attached probe forces the
    event-at-a-time path), which is what the benchmark harness
    measures.
    """
    probe = (InstrumentationProbe(bin_width=INSTRUMENT_BIN_WIDTH,
                                  record_events=False)
             if instrument else None)
    result = run_simulation(config, application, instrumentation=probe,
                            backend=backend)
    return _stats_from_result(result, probe)


# ----------------------------------------------------------------------
# Persistent worker pool (``--jobs N``)
# ----------------------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_JOBS = 0

_WORKER_WORKLOADS: Dict[Tuple[str, ExperimentProfile], object] = {}
"""Worker-process-side cache of constructed workload objects.

Every workload builds its run state (bodies, particles, RNG) freshly per
``processes()`` call, so the application object itself is reusable across
simulations; constructing it once per worker instead of once per point
removes the per-point workload setup from parallel sweeps.
"""


def _compute_point_pooled(benchmark: str, profile: ExperimentProfile,
                          config: SystemConfig,
                          instrument: bool = True,
                          backend: Optional[str] = None) -> RunStats:
    """Simulate one configuration (no cache involved) with a warm
    per-process workload object.

    Module-level (not nested) so ``ProcessPoolExecutor`` can pickle it
    for ``--jobs`` parallel sweeps.
    """
    key = (benchmark, profile)
    workload = _WORKER_WORKLOADS.get(key)
    if workload is None:
        workload = profile.workload(benchmark)
        _WORKER_WORKLOADS[key] = workload
    return _simulate(workload, config, instrument, backend)


def _pool_worker_init() -> None:
    """Reset each worker's signal dispositions to sane defaults.

    Workers fork after the parent has installed its signal-chaining
    handlers -- and possibly while executor locks are held -- so an
    inherited handler could deadlock the worker inside its own copy of
    ``pool.shutdown()`` instead of letting it die.  Workers must die on
    SIGTERM/SIGHUP (that is how ``_shutdown_pool(kill=True)`` stops
    them) and ignore SIGINT (a terminal Ctrl-C reaches the whole
    foreground group; teardown is the parent's call).
    """
    for signum in _TERMINATION_SIGNALS:
        try:
            signal.signal(signum, signal.SIG_IGN
                          if signum == getattr(signal, "SIGINT", None)
                          else signal.SIG_DFL)
        except (ValueError, OSError):
            pass


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The process-wide sweep pool, rebuilt only when ``jobs`` changes.

    Keeping the pool (and the workload objects its workers cache) alive
    across sweep calls means a multi-benchmark session pays worker
    startup and workload construction once, not once per sweep.  The
    first pool also installs the exit hooks that keep a dying parent
    from orphaning its workers.
    """
    global _POOL, _POOL_JOBS
    if _POOL is not None and _POOL_JOBS != jobs:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        _install_exit_hooks()
        _POOL = ProcessPoolExecutor(max_workers=jobs,
                                    initializer=_pool_worker_init)
        _POOL_JOBS = jobs
    return _POOL


def _shutdown_pool(kill: bool = False) -> None:
    """Drop the pool; ``kill=True`` SIGKILLs the worker processes first
    (the only way to stop a worker stuck inside a simulation -- a
    catchable signal could be absorbed by whatever state the worker
    inherited or got itself into)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is None:
        return
    if kill:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
    pool.shutdown(wait=False)


_TERMINATION_SIGNALS = tuple(
    getattr(signal, name) for name in ("SIGINT", "SIGTERM", "SIGHUP")
    if hasattr(signal, name))

_EXIT_HOOKS_INSTALLED = False


def _handle_termination(signum, frame, previous) -> None:
    """Kill the pool's workers, then let the signal take its course.

    ``atexit`` never runs when the process dies from a signal, so
    without this a Ctrl-C'd or ``kill``-ed ``--jobs`` sweep leaves its
    worker processes orphaned mid-simulation.
    """
    _shutdown_pool(kill=True)
    if callable(previous):
        previous(signum, frame)
        return
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_exit_hooks() -> None:
    """Register atexit + signal-chaining shutdown, once, main thread
    only (``signal.signal`` is unavailable elsewhere)."""
    global _EXIT_HOOKS_INSTALLED
    if _EXIT_HOOKS_INSTALLED:
        return
    _EXIT_HOOKS_INSTALLED = True
    atexit.register(_shutdown_pool)
    if threading.current_thread() is not threading.main_thread():
        return
    for signum in _TERMINATION_SIGNALS:
        try:
            previous = signal.getsignal(signum)
            if previous is signal.SIG_IGN:
                continue

            def handler(received, frame, _previous=previous):
                _handle_termination(received, frame, _previous)

            signal.signal(signum, handler)
        except (ValueError, OSError):  # non-main thread or exotic signum
            pass


Sweep = Dict[Tuple[int, int], RunStats]
"""(processors per cluster, paper SCC bytes) -> stats."""

