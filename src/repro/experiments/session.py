"""Checkpointed, fault-tolerant sweep orchestration.

:func:`run_sweep` is the one entry point every sweep goes through: it
takes a declarative :class:`~repro.experiments.spec.SweepSpec` and
resolves the grid through (in order) the session journal, the result
cache, the trace/fused replay engines, and finally real simulation --
serially or on the persistent worker pool.

:class:`SweepSession` is the stateful half.  It persists a *journal*
(one JSON file per spec signature, written atomically like the result
and trace caches) recording each point's status and result, so a sweep
that crashes or is killed resumes from the last completed point instead
of restarting from zero.  Per-point execution is supervised: a point
that raises is retried with backoff up to ``spec.max_attempts`` times,
a point that exceeds ``spec.point_timeout`` has its worker killed and
is retried the same way, and a point that exhausts its attempts is
*quarantined* -- reported in the result instead of sinking the rest of
the grid.  Progress (done/cached/replayed/retried/quarantined counts)
is accounted in a :class:`~repro.instrument.registry.MetricsRegistry`
so CLIs and dashboards read live state through the same observability
surface as everything else.

Fault injection for tests and drills: set ``REPRO_FAULT_INJECT`` to
``"<procs>:<paper_bytes>:<mode>"`` (mode ``raise`` or ``hang``) and the
matching grid point misbehaves accordingly in whichever process
computes it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..instrument.registry import MetricsRegistry
from ..trace.multiconfig import fused_ladder_results, fused_ladder_supported
from ..trace.record import ReplayApplication, StreamRecorder, TraceCache
from .runner import (ResultCache, RunStats, Sweep, _compute_point_pooled,
                     _shutdown_pool, _simulate, _stats_from_result,
                     _worker_pool, default_cache)
from .spec import GridPoint, SweepSpec, point_cache_key

__all__ = ["SweepSession", "SessionResult", "SessionJournal",
           "run_sweep", "QuarantinedPointError",
           "default_session_dir", "prune_stale_journals",
           "FAULT_INJECT_ENV"]

_LOG = logging.getLogger(__name__)

JOURNAL_VERSION = 1

FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

_DEFAULT_CACHE = object()
"""Sentinel: 'use :func:`~repro.experiments.runner.default_cache`'
(pass ``cache=None`` explicitly to disable result caching)."""


def default_session_dir() -> Path:
    """Journal directory (override with ``REPRO_SESSION_DIR``)."""
    return Path(os.environ.get(
        "REPRO_SESSION_DIR", os.path.join(".repro_cache", "sessions")))


STALE_TMP_AGE_S = 3600.0
"""Orphaned per-PID ``*.tmp`` journal temporaries older than this are
debris from a killed writer, not a write in progress."""


def prune_stale_journals(directory: Optional[Path],
                         keep_signature: Optional[str] = None,
                         tmp_age: float = STALE_TMP_AGE_S) -> List[Path]:
    """Garbage-collect the session directory; returns the paths removed.

    Two kinds of debris accumulate without this: per-PID
    ``<sig>.json.<pid>.tmp`` temporaries orphaned by a writer killed
    between ``write_text`` and ``os.replace`` (removed once older than
    ``tmp_age`` seconds), and journals of *finished* sweeps -- every
    grid point recorded ``done`` -- which no live run will ever resume.
    In-progress and quarantine-bearing journals are kept (they are
    exactly what ``--resume`` needs), as is the journal matching
    ``keep_signature`` (the opening session's own), and corrupt files
    are left for :meth:`SessionJournal.load` to report.
    """
    if directory is None:
        return []
    directory = Path(directory)
    if not directory.is_dir():
        return []
    removed: List[Path] = []
    now = time.time()
    for tmp in directory.glob("*.json.*.tmp"):
        try:
            if now - tmp.stat().st_mtime >= tmp_age:
                tmp.unlink()
                removed.append(tmp)
        except OSError:
            continue
    for path in directory.glob("*.json"):
        if keep_signature is not None and path.stem == keep_signature:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            continue
        points = payload.get("points")
        spec_desc = payload.get("spec")
        if (payload.get("version") != JOURNAL_VERSION
                or not isinstance(points, dict)
                or not isinstance(spec_desc, dict)):
            continue
        try:
            grid_size = (len(spec_desc["ladder"])
                         * len(spec_desc["procs"]))
        except (KeyError, TypeError):
            continue
        finished = (len(points) >= grid_size
                    and all(isinstance(entry, dict)
                            and entry.get("status") == "done"
                            for entry in points.values()))
        if finished:
            try:
                path.unlink()
                removed.append(path)
            except OSError:
                continue
    if removed:
        _LOG.info("pruned %d stale session file(s) from %s",
                  len(removed), directory)
    return removed


class QuarantinedPointError(RuntimeError):
    """Raised by :func:`run_sweep` after the grid has been resolved as
    far as possible but one or more points were quarantined."""

    def __init__(self, quarantined: Dict[GridPoint, str]):
        self.quarantined = dict(quarantined)
        detail = "; ".join(
            f"procs={procs} scc={paper_bytes}B: {reason}"
            for (procs, paper_bytes), reason in sorted(quarantined.items()))
        super().__init__(
            f"{len(quarantined)} sweep point(s) quarantined: {detail}")


def _stats_digest(stats: RunStats) -> str:
    """Content digest journaled next to each result (cheap tamper/skew
    check when healing the result cache on resume)."""
    payload = json.dumps(stats.as_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _point_label(point: GridPoint) -> str:
    return f"{point[0]}/{point[1]}"


def _maybe_inject_fault(point: GridPoint) -> None:
    """Honour ``REPRO_FAULT_INJECT`` for the matching grid point."""
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec:
        return
    try:
        procs_text, bytes_text, mode = spec.split(":")
        target = (int(procs_text), int(bytes_text))
    except ValueError:
        raise ValueError(
            f"{FAULT_INJECT_ENV}={spec!r}; expected "
            f"'<procs>:<paper_bytes>:<raise|hang>'") from None
    if point != target:
        return
    if mode == "raise":
        raise RuntimeError(
            f"injected fault at point procs={point[0]} scc={point[1]}B")
    if mode == "hang":
        time.sleep(3600)
        return
    raise ValueError(f"{FAULT_INJECT_ENV} mode must be 'raise' or "
                     f"'hang', not {mode!r}")


def _point_task(benchmark, profile, config, instrument,
                point: GridPoint, backend=None) -> RunStats:
    """One supervised point simulation (module-level so the worker pool
    can pickle it; fault injection reads the inherited environment)."""
    _maybe_inject_fault(point)
    return _compute_point_pooled(benchmark, profile, config, instrument,
                                 backend)


class SessionJournal:
    """Crash-safe per-sweep record of point outcomes.

    One JSON file per spec signature.  Every update rewrites the file
    through a per-PID temporary and ``os.replace`` -- the same atomic
    discipline as :class:`~repro.experiments.runner.ResultCache` -- so
    a SIGKILL at any instant leaves either the previous or the next
    consistent journal, never a torn one.  Each ``done`` entry carries
    the full :class:`RunStats` payload, making resume independent of
    the result cache surviving the crash.
    """

    def __init__(self, spec: SweepSpec,
                 directory: Optional[Path] = None):
        self.spec = spec
        self.directory = Path(directory) if directory is not None else None
        self.points: Dict[str, dict] = {}

    @property
    def path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{self.spec.signature()}.json"

    def load(self) -> bool:
        """Adopt the on-disk state; ``True`` if a usable journal for
        this spec existed (corrupt or mismatched files start fresh)."""
        path = self.path
        if path is None:
            return False
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise ValueError("not a JSON object")
            points = payload.get("points")
            if isinstance(points, dict) and not all(
                    isinstance(entry, dict) for entry in points.values()):
                raise ValueError("a point entry is not a JSON object")
        except OSError:
            return False
        except ValueError as exc:   # json.JSONDecodeError included
            _LOG.warning("discarding corrupt sweep journal %s (%s)",
                         path, exc)
            self._unlink()
            return False
        if (payload.get("version") != JOURNAL_VERSION
                or payload.get("signature") != self.spec.signature()
                or not isinstance(payload.get("points"), dict)):
            _LOG.warning("sweep journal %s does not match this spec; "
                         "starting fresh", path)
            return False
        self.points = payload["points"]
        return True

    def reset(self) -> None:
        self.points = {}
        self._unlink()

    def record(self, point: GridPoint, status: str, *,
               stats: Optional[RunStats] = None,
               attempts: int = 1, reason: Optional[str] = None) -> None:
        entry: Dict[str, object] = {"status": status,
                                    "attempts": attempts}
        if stats is not None:
            entry["stats"] = stats.as_dict()
            entry["digest"] = _stats_digest(stats)
        if reason is not None:
            entry["reason"] = reason
        self.points[_point_label(point)] = entry
        self._flush()

    def entry(self, point: GridPoint) -> Optional[dict]:
        return self.points.get(_point_label(point))

    def _flush(self) -> None:
        path = self.path
        if path is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": JOURNAL_VERSION,
            "signature": self.spec.signature(),
            "spec": self.spec.describe(),
            "points": self.points,
        }
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def _unlink(self) -> None:
        path = self.path
        if path is None:
            return
        try:
            path.unlink()
        except (FileNotFoundError, OSError):
            pass


@dataclass
class SessionResult:
    """Everything a :class:`SweepSession` run produced."""

    spec: SweepSpec
    sweep: Sweep
    quarantined: Dict[GridPoint, str] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.quarantined

    def summary(self) -> str:
        """One-line progress digest (the CLI's closing line), reporting
        how many points each resolution tier settled."""
        get = self.counters.get
        return (f"points: {int(get('total', 0))} total -- "
                f"{int(get('computed', 0))} computed, "
                f"{int(get('replayed', 0))} replayed, "
                f"{int(get('analytical', 0))} analytical, "
                f"{int(get('cached', 0))} cached, "
                f"{int(get('journaled', 0))} journaled, "
                f"{int(get('retried', 0))} retries, "
                f"{int(get('quarantined', 0))} quarantined")


class SweepSession:
    """Drive one :class:`SweepSpec` to completion, fault-tolerantly.

    Resolution order per point: journal (on resume) -> result cache ->
    analytical surrogate (``fidelity="analytical"``) -> trace/fused
    replay (skipped by ``fidelity="full"``) -> supervised simulation.
    Every completion is
    journaled immediately, so killing the process at any moment loses
    at most the points currently in flight.
    """

    def __init__(self, spec: SweepSpec,
                 cache=_DEFAULT_CACHE,
                 trace_cache: Optional[TraceCache] = None,
                 session_dir: Optional[Path] = None,
                 resume: bool = False,
                 progress: Optional[Callable] = None,
                 compute: Optional[Callable] = None):
        self.spec = spec
        self.cache: Optional[ResultCache] = (
            default_cache() if cache is _DEFAULT_CACHE else cache)
        self.trace_cache = trace_cache
        self.journal = SessionJournal(spec, session_dir)
        self.resume = resume
        self.progress = progress
        self.registry = MetricsRegistry()
        self._compute = compute or _point_task
        self._configs = spec.configs()
        self._total = len(self._configs)
        self._done = 0

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: float = 1) -> None:
        self.registry.count(f"session.points.{name}", amount)

    @property
    def counters(self) -> Dict[str, float]:
        return self.registry.counter_group("session.points")

    def _settle(self, point: GridPoint, status: str,
                stats: Optional[RunStats], attempts: int = 1,
                reason: Optional[str] = None) -> None:
        """Journal one point outcome and surface it as progress."""
        self._done += 1
        self._count(status)
        if status == "quarantined":
            self.journal.record(point, "quarantined", attempts=attempts,
                                reason=reason)
        else:
            # Journal every success as "done"; `status` keeps the finer
            # how-it-was-resolved split for counters and progress.
            self.journal.record(point, "done", stats=stats,
                                attempts=attempts)
        if self.progress is not None:
            self.progress(point, status, self._done, self._total,
                          self.counters)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> SessionResult:
        spec = self.spec
        self._count("total", self._total)
        sweep: Sweep = {}
        quarantined: Dict[GridPoint, str] = {}

        if self.resume:
            self.journal.load()
        else:
            self.journal.reset()
        prune_stale_journals(self.journal.directory,
                             keep_signature=spec.signature())

        # Stage 0: the journal (resumed sessions only).  Quarantined
        # entries are given a fresh chance -- the operator explicitly
        # asked to resume, so transient poison gets re-tried.
        pending: List[GridPoint] = []
        for point in self._configs:
            entry = self.journal.entry(point)
            if (entry is not None and entry.get("status") == "done"
                    and isinstance(entry.get("stats"), dict)):
                try:
                    stats = RunStats.from_dict(entry["stats"])
                except TypeError:
                    pending.append(point)
                    continue
                sweep[point] = stats
                self._heal_cache(point, stats)
                self._settle(point, "journaled", stats,
                             attempts=int(entry.get("attempts", 1)))
            else:
                pending.append(point)

        # Stage 1: the per-point result cache.
        missing: List[GridPoint] = []
        for point in pending:
            cached = (self.cache.get(spec.point_key(self._configs[point]))
                      if self.cache is not None else None)
            if cached is not None:
                sweep[point] = cached
                self._settle(point, "cached", cached)
            else:
                missing.append(point)

        # Stage 1.5: the analytical surrogate (fidelity="analytical"):
        # one row profile prices every rung; rows the model cannot
        # profile fall through to the exact tiers below.
        if missing and spec.fidelity == "analytical":
            missing = self._resolve_analytically(missing, sweep)

        # Stage 2: record-once/replay-everywhere and the fused ladder
        # (fidelity="full" insists on per-point simulation instead).
        if missing and spec.fidelity != "full":
            before = set(sweep)
            missing = self._resolve_via_traces(missing, sweep)
            for point in sorted(set(sweep) - before):
                self._settle(point, "replayed", sweep[point])

        # Stage 3: supervised simulation of whatever is left.
        if missing:
            computed, quarantined = self._run_points(missing)
            for point, stats in computed.items():
                if self.cache is not None:
                    self.cache.put(spec.point_key(self._configs[point]),
                                   stats)
                sweep[point] = stats

        return SessionResult(spec=spec, sweep=sweep,
                             quarantined=quarantined,
                             counters=self.counters)

    def _resolve_analytically(self, missing: List[GridPoint],
                              sweep) -> List[GridPoint]:
        """Stage 1.5: price whole rows from one recorded tape each.

        Per row (processor count): find or build the
        :class:`~repro.model.profile.RowProfile` -- the profile cache
        first (a warm sweep never touches the tape, let alone the
        simulator), then the trace cache, then one recording simulation
        of the row's smallest rung -- and predict every missing point
        from it with :func:`~repro.model.predictor.predict_point`.
        Rows without a recordable packed stream are returned for the
        exact tiers.  Predictions are cached and journaled like any
        other resolution, but under the spec's analytical point keys,
        so they can never be served for a full-fidelity request.
        """
        from ..model.predictor import predict_point
        from ..model.profile import ProfileCache, build_row_profile
        spec = self.spec
        by_row: Dict[int, List[GridPoint]] = {}
        for point in missing:
            by_row.setdefault(point[0], []).append(point)
        trace_dir = getattr(self.trace_cache, "directory", None)
        profile_cache = (ProfileCache(Path(trace_dir) / "profiles")
                         if trace_dir is not None else None)
        remainder: List[GridPoint] = []
        for procs, row_points in sorted(by_row.items()):
            row_points = sorted(row_points)
            config0 = self._configs[(procs, min(spec.ladder))]
            tracked = tuple(sorted({
                self._configs[(procs, paper_bytes)].scc_lines
                for paper_bytes in spec.ladder}))
            workload = spec.profile.workload(spec.benchmark)
            signature = workload.trace_signature(config0)
            if signature is None:
                remainder.extend(row_points)
                continue
            if workload.stream_is_deterministic(config0):
                # Same tape a fused/full sweep records: share its key.
                tape_key = signature
            else:
                # Interleave depends on the machine; the tape is still
                # deterministic *given* the recording configuration.
                tape_key = f"model|scc={config0.scc_size}|{signature}"
            profile_key = (
                f"{tape_key}|line={config0.line_size}"
                f"|clusters={config0.clusters}"
                f"|procs={config0.processors_per_cluster}"
                f"|icache={config0.icache_size}"
                f"/{config0.icache_line_size}"
                f"|model_icache={config0.model_icache}"
                f"|tracked={','.join(str(count) for count in tracked)}")
            row_profile = (profile_cache.get(profile_key)
                           if profile_cache is not None else None)
            if row_profile is None:
                streams = (self.trace_cache.get(tape_key)
                           if self.trace_cache is not None else None)
                if streams is None:
                    recorder = StreamRecorder(workload)
                    stats0 = _simulate(recorder, config0, False,
                                       spec.backend)
                    streams = recorder.streams
                    if streams is None:
                        remainder.extend(row_points)
                        continue
                    if self.trace_cache is not None:
                        self.trace_cache.put(tape_key, streams)
                    if self.cache is not None:
                        # The recording pass was a real simulation of
                        # the smallest rung; bank it under its
                        # *full-fidelity* key (it is exact, not a
                        # prediction; the analytical entry for that
                        # rung is still the model's own output).
                        self.cache.put(
                            point_cache_key(spec.benchmark, spec.profile,
                                            config0, False),
                            stats0)
                row_profile = build_row_profile(streams, config0, tracked,
                                                backend=spec.backend)
                if profile_cache is not None:
                    profile_cache.put(profile_key, row_profile)
                profile_source = row_profile.engine
            else:
                profile_source = "cached"
            self.registry.count(f"session.profiles.{profile_source}")
            for point in row_points:
                stats = predict_point(row_profile, self._configs[point],
                                      benchmark=spec.benchmark)
                if self.cache is not None:
                    self.cache.put(spec.point_key(self._configs[point]),
                                   stats)
                sweep[point] = stats
                self._settle(point, "analytical", stats)
        return remainder

    def _resolve_via_traces(self, missing: List[GridPoint],
                            sweep: Sweep) -> List[GridPoint]:
        """Stage 2: record once, replay everywhere, for the rows that
        allow it.

        A row is all missing points with the same processor count (the
        ladder rungs); its per-process streams are identical across the
        row exactly when :meth:`~repro.workloads.base.TracedApplication
        .stream_is_deterministic` holds there, and the recording is
        keyed by :meth:`~repro.workloads.base.TracedApplication
        .trace_signature`.  Rows that fail either guard are returned
        for normal simulation.

        When a row's remaining rungs form a fused-replayable ladder
        (uninstrumented single-process row whose configurations differ
        only in SCC size --
        :func:`~repro.trace.multiconfig.fused_ladder_supported`), the
        whole row is resolved by *one* pass of the multi-configuration
        engine instead of one replay per rung; the results are
        bit-identical by construction (pinned by ``tests/equivalence``).
        Multi-process rows never qualify and keep the per-rung replay.
        """
        spec = self.spec
        by_row: Dict[int, List[GridPoint]] = {}
        for point in missing:
            by_row.setdefault(point[0], []).append(point)
        remainder: List[GridPoint] = []
        resolved: Dict[GridPoint, RunStats] = {}
        for row_points in by_row.values():
            row_points = sorted(row_points)
            probe_workload = spec.profile.workload(spec.benchmark)
            config0 = self._configs[row_points[0]]
            signature = probe_workload.trace_signature(config0)
            if (signature is None
                    or not probe_workload.stream_is_deterministic(config0)):
                remainder.extend(row_points)
                continue
            trace_cache = (self.trace_cache if self.trace_cache is not None
                           else TraceCache())
            streams = trace_cache.get(signature)
            if streams is None:
                # Record the row's stream while computing its first point.
                point = row_points.pop(0)
                recorder = StreamRecorder(
                    spec.profile.workload(spec.benchmark))
                resolved[point] = _simulate(recorder, self._configs[point],
                                            spec.instrument, spec.backend)
                streams = recorder.streams
                if streams is not None:
                    trace_cache.put(signature, streams)
            if streams is None:
                remainder.extend(row_points)
                continue
            if (not spec.instrument and len(row_points) > 1
                    and set(streams) == {0}):
                row_configs = [self._configs[point] for point in row_points]
                if fused_ladder_supported(row_configs):
                    for point, result in zip(
                            row_points,
                            fused_ladder_results(row_configs, streams,
                                                 backend=spec.backend)):
                        resolved[point] = _stats_from_result(result)
                    continue
            for point in row_points:
                replay = ReplayApplication(streams, name=spec.benchmark)
                resolved[point] = _simulate(replay, self._configs[point],
                                            spec.instrument, spec.backend)
        for point, stats in resolved.items():
            if self.cache is not None:
                # Replays are exact, so even an analytical spec banks
                # them under the exact key.
                self.cache.put(point_cache_key(spec.benchmark, spec.profile,
                                               self._configs[point],
                                               spec.instrument),
                               stats)
            sweep[point] = stats
        return remainder

    def _heal_cache(self, point: GridPoint, stats: RunStats) -> None:
        """Re-seed the result cache from the journal if the crash took
        the cache entry with it (or the cache lives elsewhere now)."""
        if self.cache is None:
            return
        key = self.spec.point_key(self._configs[point])
        if self.cache.get(key) is None:
            self.cache.put(key, stats)

    # ------------------------------------------------------------------
    # Supervised execution
    # ------------------------------------------------------------------

    def _run_points(self, points: List[GridPoint]):
        spec = self.spec
        use_pool = ((spec.jobs or 1) > 1
                    or spec.point_timeout is not None)
        if use_pool:
            return self._run_pooled(points, max(1, spec.jobs or 1))
        return self._run_serial(points)

    def _record_failure(self, point: GridPoint, attempts: int,
                        exc: BaseException,
                        quarantined: Dict[GridPoint, str]) -> bool:
        """Account one failed attempt; ``True`` if the point may retry."""
        if attempts < self.spec.max_attempts:
            self._count("retried")
            _LOG.warning("sweep point procs=%d scc=%dB failed "
                         "(attempt %d/%d): %s; retrying",
                         point[0], point[1], attempts,
                         self.spec.max_attempts, exc)
            return True
        reason = (f"{type(exc).__name__}: {exc} "
                  f"(after {attempts} attempts)")
        quarantined[point] = reason
        _LOG.error("quarantining sweep point procs=%d scc=%dB: %s",
                   point[0], point[1], reason)
        self._settle(point, "quarantined", None, attempts=attempts,
                     reason=reason)
        return False

    def _run_serial(self, points: List[GridPoint]):
        spec = self.spec
        computed: Dict[GridPoint, RunStats] = {}
        quarantined: Dict[GridPoint, str] = {}
        for point in points:
            attempts = 0
            while True:
                attempts += 1
                try:
                    stats = self._compute(spec.benchmark, spec.profile,
                                          self._configs[point],
                                          spec.instrument, point,
                                          spec.backend)
                except Exception as exc:
                    if self._record_failure(point, attempts, exc,
                                            quarantined):
                        time.sleep(spec.retry_backoff * attempts)
                        continue
                    break
                computed[point] = stats
                self._settle(point, "computed", stats, attempts=attempts)
                break
        return computed, quarantined

    def _run_pooled(self, points: List[GridPoint], jobs: int):
        """Submit each point as its own future so hung or crashed
        workers only cost their own point.  A timeout kills the whole
        pool (a hung worker cannot be cancelled), charges the expired
        points an attempt, and resubmits the innocent in-flight points
        without penalty."""
        spec = self.spec
        computed: Dict[GridPoint, RunStats] = {}
        quarantined: Dict[GridPoint, str] = {}
        attempts: Dict[GridPoint, int] = {p: 0 for p in points}
        ready_at: Dict[GridPoint, float] = {p: 0.0 for p in points}
        queue = deque(points)
        inflight: Dict[object, GridPoint] = {}
        deadlines: Dict[object, float] = {}
        pool = _worker_pool(jobs)

        def submit_ready() -> None:
            now = time.monotonic()
            for _ in range(len(queue)):
                point = queue.popleft()
                if ready_at[point] > now:
                    queue.append(point)
                    continue
                attempts[point] += 1
                future = pool.submit(
                    self._compute, spec.benchmark, spec.profile,
                    self._configs[point], spec.instrument, point,
                    spec.backend)
                inflight[future] = point
                if spec.point_timeout is not None:
                    deadlines[future] = now + spec.point_timeout

        def handle_failure(point: GridPoint, exc: BaseException) -> None:
            if self._record_failure(point, attempts[point], exc,
                                    quarantined):
                ready_at[point] = (time.monotonic()
                                   + spec.retry_backoff * attempts[point])
                queue.append(point)

        while queue or inflight:
            submit_ready()
            if not inflight:
                # Everything runnable is backing off; sleep it out.
                wake = min(ready_at[point] for point in queue)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue
            timeout = 0.05 if queue else None
            if deadlines:
                next_deadline = min(deadlines.values())
                budget = max(0.0, next_deadline - time.monotonic())
                timeout = budget if timeout is None else min(timeout,
                                                             budget)
            done, _ = futures_wait(set(inflight), timeout=timeout,
                                   return_when=FIRST_COMPLETED)
            for future in done:
                point = inflight.pop(future)
                deadlines.pop(future, None)
                exc = future.exception()
                if exc is None:
                    computed[point] = future.result()
                    self._settle(point, "computed", computed[point],
                                 attempts=attempts[point])
                else:
                    handle_failure(point, exc)
            now = time.monotonic()
            expired = [future for future, deadline in deadlines.items()
                       if deadline <= now]
            if expired:
                # Kill the pool: a worker stuck inside a simulation can
                # only be stopped by terminating its process.
                for future in list(inflight):
                    point = inflight.pop(future)
                    deadlines.pop(future, None)
                    if future in expired:
                        handle_failure(point, FutureTimeoutError(
                            f"no result within {spec.point_timeout}s"))
                    else:
                        # Collateral damage of the pool kill: resubmit
                        # without charging an attempt.
                        attempts[point] -= 1
                        queue.append(point)
                _shutdown_pool(kill=True)
                pool = _worker_pool(jobs)
        return computed, quarantined


def run_sweep(spec: SweepSpec,
              cache=_DEFAULT_CACHE,
              trace_cache: Optional[TraceCache] = None,
              session_dir: Optional[Path] = None,
              resume: bool = False,
              progress: Optional[Callable] = None):
    """Resolve one :class:`SweepSpec` locally:
    ``{(procs, paper_bytes): RunStats}``.

    The same mapping a :class:`~repro.fabric.client.SweepClient`
    submission returns, so ``run_sweep(spec) ==
    client.result(client.submit(spec))`` point for point.  Pass a
    ``session_dir`` to journal progress for crash-safe ``resume``;
    without one the session is ephemeral.  If any point is quarantined
    the rest of the grid is still resolved (and journaled) before
    :class:`QuarantinedPointError` is raised; callers that want the
    partial grid instead should drive :class:`SweepSession` directly.
    """
    session = SweepSession(spec, cache=cache, trace_cache=trace_cache,
                           session_dir=session_dir, resume=resume,
                           progress=progress)
    result = session.run()
    if result.quarantined:
        raise QuarantinedPointError(result.quarantined)
    return result.sweep

