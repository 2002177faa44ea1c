"""One benchmark process: set-up, timed passes and output checks.

``run.py`` starts this script in a fresh interpreter, so each set-up
pays the import and native-extension load a user pays.  Roles:

* ``warm``    -- load the package (compiling the native extension into
  ``$REPRO_NATIVE_CACHE`` if it is cold) and print provenance as JSON;
* ``measure`` -- set up, print ``ready``, then run passes of the
  workload in a closed loop (one caller, ``jobs=1``) until the next pass
  would overrun ``--seconds``, check every output, and write the
  result to ``--out``.  With ``--trace 1`` the passes run untraced and
  one extra pass runs traced (set-up is traced as well).

A *pass* has a cold part (the workload's requests from empty result,
session and profile caches) and a warm part (the same requests again,
served by whatever the cold part left behind).

Only ``repro.api`` and the public entry points named in README.md are
used, so the benchmark survives refactors inside the package.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402

PERF = time.perf_counter
KIB = 1024
BENCHMARKS = ("barnes-hut", "mp3d", "cholesky", "multiprogramming")
REPRODUCE_LADDER = (8 * KIB, 512 * KIB)
"""A thrashing and a resident rung (paper bytes)."""
REPLAY_POINTS = (("multiprogramming", 1, 16), ("multiprogramming", 4, 16),
                 ("mp3d", 1, 64), ("mp3d", 4, 64),
                 ("cholesky", 1, 64), ("cholesky", 4, 64),
                 ("barnes-hut", 8, 8), ("barnes-hut", 2, 64))
"""(benchmark, processors per cluster, paper KB) of the eight tapes."""
REFERENCE = HERE / "reference.json"


def grid_profile():
    """The quick profile with smaller inputs: the benchmark's time
    budget (about 45 s a run) allows about ten seconds per cold pass,
    and the quick grids take about fifty (see README.md)."""
    from repro.api import PROFILES
    return dataclasses.replace(
        PROFILES["quick"], name="perfbench", barnes_bodies=64,
        mp3d_particles=200, cholesky_n=128,
        multiprog_instructions=10_000, multiprog_quantum=3_333)


def grid_spec(benchmark: str, profile, **knobs):
    from repro.api import SweepSpec
    if benchmark == "multiprogramming":
        return SweepSpec.multiprogramming(profile=profile, **knobs)
    return SweepSpec.parallel(benchmark, profile=profile, **knobs)


def stats_digest(stats) -> str:
    """Digest of every field of a RunStats, observability digest too."""
    payload = json.dumps(stats.as_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def result_fields(result) -> tuple:
    """A SimulationResult's RunStats fields (the instrument digest
    aside), for comparing simulations against sweep results."""
    stats = result.stats
    total = stats.total_scc
    return (stats.execution_time, stats.read_miss_rate, total.miss_rate,
            stats.total_invalidations, total.reads, total.writes,
            result.events_processed)


def runstats_fields(stats) -> tuple:
    return (stats.execution_time, stats.read_miss_rate, stats.miss_rate,
            stats.invalidations, stats.reads, stats.writes, stats.events)


def label(point) -> str:
    return f"{point[0]}/{point[1]}"


class Pass:
    """What one pass measured (host-speed corrected seconds, see
    clock.py) and checked."""

    def __init__(self) -> None:
        self.cold = 0.0
        self.warm = 0.0
        self.events = 0
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def time_cold(self, body):
        """Run ``body(tick)`` and add its time to the cold part;
        ``tick`` marks a point where the clock may recalibrate.
        Returns what ``body`` does."""
        timer = clock.SteadyClock()
        timer.start()
        result = body(lambda *_: timer.tick())
        self.cold += timer.stop()
        return result

    def time_warm(self, repeats: int, body, written: Path = None):
        """Run ``body()`` ``repeats`` times and add the best repeat,
        corrected by the host speed over all of them, to the warm part.
        Returns each repeat's result.

        The warm path is mostly file renames and opens, whose cost on a
        shared disk swings with pending writeback: the median repeat
        varied by a fifth between runs.  So everything under ``written``
        (what the cold run wrote) is flushed first, untimed, and the
        best repeat is taken; together these read within a few percent
        from run to run."""
        if written is not None and written.is_dir():
            for path in written.rglob("*"):
                if path.is_file():
                    fd = os.open(path, os.O_RDONLY)
                    try:
                        os.fsync(fd)
                    finally:
                        os.close(fd)
        timer = clock.SteadyClock()
        timer.start()
        raw, results = [], []
        for _ in range(repeats):
            start = PERF()
            results.append(body())
            raw.append(PERF() - start)
            timer.tick()
        timer.stop()
        self.warm += min(raw) * timer.corrected / timer.raw
        return results


def resolve(spec, directory: Path, run: Pass, progress=None):
    """Resolve one spec the way ``repro sweep`` does, with this pass's
    own result, trace and session directories; quarantined points count
    as failed.  ``progress`` is the session's per-point callback."""
    from repro.api import ResultCache, SweepSession
    from repro.trace.record import TraceCache
    session = SweepSession(spec, cache=ResultCache(directory / "results"),
                           trace_cache=TraceCache(directory / "traces"),
                           session_dir=directory / "sessions",
                           progress=progress)
    result = session.run()
    for point, reason in sorted(result.quarantined.items()):
        run.check(False, f"{spec.benchmark} {label(point)} "
                         f"quarantined: {reason}")
    return result


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """What every workload may override; the defaults do nothing."""

    warm_repeats = 1
    model_error: Dict[str, float] = {}
    """Miss-ratio MAE of the model's predictions by row kind (``uni``:
    one processor per cluster; ``parallel``: several), if any."""

    def setup(self, workdir: Path, tick) -> None:
        """Prepare inputs once per process (timed as set-up); call
        ``tick()`` between steps so the clock can recalibrate."""

    def prepare(self, directory: Path) -> None:
        """Untimed preparation of one pass's directory."""

    def final_check(self, run: Pass) -> None:
        """Checks made once per run, after the passes."""


class Reproduce(Workload):
    """The paper's figure grids as users run them: default SweepSpec
    (instrumented, fused fidelity), every processor row at a thrashing
    and a resident rung, from empty caches, then again warm."""

    warm_repeats = 30

    def __init__(self, seed: int):
        self.profile = grid_profile()
        self.specs = [grid_spec(name, self.profile,
                                ladder=REPRODUCE_LADDER)
                      for name in BENCHMARKS]
        self.reference = json.loads(REFERENCE.read_text())["reproduce"]

    def run_pass(self, directory: Path, run: Pass,
                 warm_repeats: int) -> None:
        # Each grid is re-resolved warm right after its cold run, so the
        # warm samples spread over the whole pass.
        for spec in self.specs:
            cold = run.time_cold(
                lambda tick: resolve(spec, directory, run, tick))
            self._check(spec, cold.sweep, run, "cold")
            run.events += sum(stats.events for stats in cold.sweep.values())
            for warm in run.time_warm(
                    warm_repeats, lambda: resolve(spec, directory, run),
                    directory):
                self._check(spec, warm.sweep, run, "warm")

    def _check(self, spec, sweep, run: Pass, part: str) -> None:
        expected = self.reference[spec.benchmark]
        for key, digest in sorted(expected.items()):
            procs, paper_bytes = (int(x) for x in key.split("/"))
            stats = sweep.get((procs, paper_bytes))
            run.check(stats is not None and stats_digest(stats) == digest,
                      f"reproduce {part} {spec.benchmark} {key} differs "
                      f"from the reference digest")


class Replay(Workload):
    """Uninstrumented replay of the eight ROADMAP tapes on the default
    engine; the tapes are recorded in set-up from seeded applications."""

    def __init__(self, seed: int):
        from repro.api import PROFILES
        self.seed = seed
        self.profile = PROFILES["quick"]
        self.tapes: List[tuple] = []

    def application(self, benchmark: str):
        from repro.workloads import (BarnesHut, Cholesky, MP3D,
                                     MultiprogrammingWorkload)
        p, seed = self.profile, self.seed
        if benchmark == "barnes-hut":
            return BarnesHut(n_bodies=p.barnes_bodies,
                             steps=p.barnes_steps, seed=seed)
        if benchmark == "mp3d":
            return MP3D(n_particles=p.mp3d_particles, steps=p.mp3d_steps,
                        seed=seed)
        if benchmark == "cholesky":
            return Cholesky(n=p.cholesky_n, seed=seed)
        return MultiprogrammingWorkload(
            instructions_per_app=p.multiprog_instructions,
            quantum_instructions=p.multiprog_quantum,
            scale=p.ladder_scale, seed=seed)

    def setup(self, workdir: Path, tick) -> None:
        from repro.api import run_simulation
        from repro.trace.record import StreamRecorder
        for benchmark, procs, kb in REPLAY_POINTS:
            point = (procs, kb * KIB)
            config = grid_spec(benchmark, self.profile, ladder=(point[1],),
                               procs=(procs,)).configs()[point]
            recorder = StreamRecorder(self.application(benchmark))
            recorded = run_simulation(config, recorder)
            self.tapes.append((f"{benchmark} {label(point)}", config,
                               recorder.streams, recorded))
            tick()

    def run_pass(self, directory: Path, run: Pass,
                 warm_repeats: int) -> None:
        from repro.api import run_simulation
        from repro.trace.record import ReplayApplication
        for name, config, streams, recorded in self.tapes:
            def replay(tick=None):
                return run_simulation(config, ReplayApplication(streams))
            results = [run.time_cold(replay)]
            results += run.time_warm(warm_repeats, replay)
            for result in results:
                run.events += result.events_processed
                run.check(result.stats == recorded.stats
                          and result.events_processed
                          == recorded.events_processed,
                          f"replay of {name} differs from its recording "
                          f"run")


class Triage(Workload):
    """The optimizer funnel's cheap tiers: all four grids at
    ``fidelity="analytical"``, then the multiprogramming 1-processor row
    over the full ladder at ``fidelity="fused"``, from tapes recorded in
    set-up and empty result and profile caches."""

    warm_repeats = 30

    def __init__(self, seed: int):
        self.profile = grid_profile()
        self.analytical = [grid_spec(name, self.profile, instrument=False,
                                     fidelity="analytical")
                           for name in BENCHMARKS]
        self.fused = grid_spec("multiprogramming", self.profile,
                               procs=(1,), instrument=False)
        self.exact = json.loads(REFERENCE.read_text())["exact_miss_rate"]
        self.tapes: Dict[str, Dict] = {}
        self.fused_tape = None
        self.last_fused = None

    def setup(self, workdir: Path, tick) -> None:
        """Record every row's tape under the key the analytical tier
        looks it up by (a machine-dependent interleave is keyed by the
        row's recording SCC size as well)."""
        from repro.api import run_simulation
        from repro.trace.record import StreamRecorder, TraceCache
        cache = TraceCache(workdir / "setup-traces")
        for spec in self.analytical:
            configs = spec.configs()
            for procs in spec.procs:
                config0 = configs[(procs, min(spec.ladder))]
                workload = self.profile.workload(spec.benchmark)
                signature = workload.trace_signature(config0)
                if workload.stream_is_deterministic(config0):
                    key = signature
                else:
                    key = f"model|scc={config0.scc_size}|{signature}"
                recorder = StreamRecorder(workload)
                run_simulation(config0, recorder)
                cache.put(key, recorder.streams)
                self.tapes[key] = recorder.streams
                if spec.benchmark == "multiprogramming" and procs == 1:
                    self.fused_tape = recorder.streams
                tick()

    def prepare(self, directory: Path) -> None:
        """A fresh trace directory holding only the set-up tapes, so the
        profile cache beside them starts empty."""
        from repro.trace.record import TraceCache
        cache = TraceCache(directory / "traces")
        for key, streams in self.tapes.items():
            cache.put(key, streams)

    def run_pass(self, directory: Path, run: Pass,
                 warm_repeats: int) -> None:
        cold_sweeps = []
        for spec in self.analytical + [self.fused]:
            cold = run.time_cold(
                lambda tick: resolve(spec, directory, run, tick)).sweep
            run.check(len(cold) == len(spec.configs()),
                      f"triage {spec.benchmark} resolved {len(cold)} of "
                      f"{len(spec.configs())}")
            for warm in run.time_warm(
                    warm_repeats, lambda: resolve(spec, directory, run),
                    directory):
                for point, stats in cold.items():
                    again = warm.sweep.get(point)
                    run.check(again is not None and runstats_fields(again)
                              == runstats_fields(stats),
                              f"triage warm {spec.benchmark} "
                              f"{label(point)} differs from cold")
            cold_sweeps.append(cold)
        self.last_fused = cold_sweeps[-1]
        run.events += sum(stats.events for stats in self.last_fused.values())
        self._mae(cold_sweeps[:-1])

    def _mae(self, sweeps) -> None:
        errors: Dict[str, List[float]] = {"uni": [], "parallel": []}
        for spec, sweep in zip(self.analytical, sweeps):
            exact = self.exact[spec.benchmark]
            for point, stats in sweep.items():
                if label(point) in exact:
                    errors["uni" if point[0] == 1 else "parallel"].append(
                        abs(stats.miss_rate - exact[label(point)]))
        self.model_error = {kind: statistics.fmean(values)
                            for kind, values in errors.items() if values}

    def final_check(self, run: Pass) -> None:
        """The fused row must equal per-point replay of its tape."""
        from repro.api import run_simulation
        from repro.trace.record import ReplayApplication
        for point, config in sorted(self.fused.configs().items()):
            stats = (self.last_fused or {}).get(point)
            result = run_simulation(config,
                                    ReplayApplication(self.fused_tape))
            run.check(stats is not None and runstats_fields(stats)
                      == result_fields(result),
                      f"triage fused {label(point)} differs from "
                      f"per-point replay")


WORKLOADS = {"reproduce": Reproduce, "replay": Replay, "triage": Triage}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def provenance() -> Dict[str, object]:
    import numpy
    from repro.trace.engine import backend_info
    return {"nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "backend_info": backend_info()}


def pass_metrics(run: Pass) -> Dict[str, float]:
    """End-to-end metrics of one pass."""
    total = run.cold + run.warm
    return {"grid_cold_s": run.cold, "grid_warm_s": run.warm,
            "triage_s": total, "events_per_s": run.events / total}


def measure(workload, args, workdir: Path, tracer) -> Dict[str, object]:
    totals = Pass()
    passes: List[Dict[str, float]] = []
    start = PERF()
    index = 0
    while True:
        run = Pass()
        directory = workdir / f"pass{index}"
        try:
            workload.prepare(directory)
            workload.run_pass(directory, run, workload.warm_repeats)
        except Exception:
            traceback.print_exc()
            run.check(False, f"pass {index} raised")
        else:
            passes.append(pass_metrics(run))
        shutil.rmtree(directory, ignore_errors=True)
        totals.attempted += run.attempted
        totals.failed += run.failed
        index += 1
        elapsed = PERF() - start
        if elapsed + elapsed / index > args.seconds:
            break
    if not passes:
        raise SystemExit("perfbench: every pass failed")
    out: Dict[str, object] = {"passes": passes}
    if tracer is not None:
        run = Pass()
        directory = workdir / "traced"
        workload.prepare(directory)
        tracer.install(exclude=[(clock, "kernel_seconds")])
        tracer.start_phase("pass")
        try:
            workload.run_pass(directory, run, 1)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        shutil.rmtree(directory, ignore_errors=True)
        totals.attempted += run.attempted
        totals.failed += run.failed
        if "model" in tracer.wrapped:
            for kind in ("uni", "parallel"):
                layers[f"model.mae_{kind}"] = (
                    workload.model_error.get(kind, 0.0), "ratio")
        out["layers"] = layers
        out["traced_metrics"] = pass_metrics(run)
    final = Pass()
    workload.final_check(final)
    totals.attempted += final.attempted
    totals.failed += final.failed
    out["attempted"] = totals.attempted
    out["failed"] = totals.failed
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("warm", "measure"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    if args.role == "warm":
        print(json.dumps(provenance()), flush=True)
        return
    setup_clock = clock.SteadyClock()
    setup_clock.start()
    import repro.api  # noqa: F401  (the import is part of set-up)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(exclude=[(clock, "kernel_seconds")])
    from repro.trace.engine import backend_info
    backend_info()                      # loads the native extension
    workload = WORKLOADS[args.workload](args.seed)
    args.workdir.mkdir(parents=True, exist_ok=True)
    setup_clock.tick()
    workload.setup(args.workdir, setup_clock.tick)
    if tracer is not None:
        tracer.uninstall()
        tracer.start_phase("untraced")
    setup_clock.stop()
    print(f"ready {setup_clock.corrected} {setup_clock.raw} "
          f"{setup_clock.spent}", flush=True)

    out = measure(workload, args, args.workdir, tracer)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and args.trace_out is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.trace_out, {"workload": args.workload,
                                      "seed": args.seed,
                                      "provenance": provenance()})
    args.out.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
