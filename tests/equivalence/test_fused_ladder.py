"""Golden-grade equivalence for the fused multi-configuration ladder.

Two layers of pinning:

* engine level -- the fused pass must reproduce the per-size replay's
  golden-style fingerprint on every configuration variant the gate
  admits (the same fingerprint the ``golden_stats.json`` suite uses);
* session level -- a sweep resolved through the fused path must return
  RunStats equal to the same sweep simulated point by point
  (``fidelity="full"``), and rows the engine cannot cover
  (multi-process, instrumented) must route to the per-size replay
  automatically.
"""

import pytest

from repro.core.config import SystemConfig
from repro.experiments import SweepSpec, run_sweep, session
from repro.experiments.runner import ExperimentProfile, ResultCache
from repro.simulation import run_simulation
from repro.trace import multiconfig
from repro.trace.engine import (available_backends, native_available,
                                native_unavailable_reason,
                                resolve_backend)
from repro.trace.engine.native import ladder_available
from repro.trace.multiconfig import (fused_ladder_results,
                                     fused_ladder_supported)
from repro.trace.record import ReplayApplication, StreamRecorder, TraceCache
from repro.workloads.multiprog import MultiprogrammingWorkload

from .test_golden_stats import fingerprint

COMPILED = [name for name in available_backends() if name != "python"]

SIZES = (512, 1024, 2048, 4096, 8192)

# The golden VARIANTS the fused gate admits (associativity, private
# organization, directory protocol, and stall-on-writes fall back).
FUSED_VARIANTS = {
    "base": {},
    "mesi": dict(protocol="mesi"),
    "line32": dict(line_size=32),
}

TINY = ExperimentProfile(
    name="tiny", ladder_scale=8,
    barnes_bodies=32, barnes_steps=1,
    mp3d_particles=60, mp3d_steps=1,
    cholesky_n=64,
    multiprog_instructions=3000, multiprog_quantum=1200)


def golden_workload():
    """The exact multiprogramming sizing the golden suite pins."""
    return MultiprogrammingWorkload(
        instructions_per_app=4000, quantum_instructions=1500, scale=8)


def golden_ladder(**extra):
    return [SystemConfig(clusters=1, processors_per_cluster=1,
                         scc_size=size, model_icache=True, **extra)
            for size in SIZES]


@pytest.mark.parametrize("variant", sorted(FUSED_VARIANTS))
def test_fused_fingerprints_match_per_size_replay(variant):
    configs = golden_ladder(**FUSED_VARIANTS[variant])
    assert fused_ladder_supported(configs)
    recorder = StreamRecorder(golden_workload())
    run_simulation(configs[0], recorder)
    streams = recorder.streams
    assert streams is not None
    for config, fused in zip(configs, fused_ladder_results(configs,
                                                           streams)):
        per_size = run_simulation(config,
                                  ReplayApplication(streams, name="mp"))
        assert fingerprint(fused) == fingerprint(per_size)


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("variant", sorted(FUSED_VARIANTS))
def test_fused_fingerprints_on_every_backend(variant, backend,
                                             monkeypatch):
    """The fingerprint grid above re-run with each compiled backend
    forced through ``$REPRO_ENGINE``, resolution asserted (mirrors
    ``test_backends.py``); a ``native`` request must genuinely engage
    the compiled ladder."""
    monkeypatch.setenv("REPRO_ENGINE", backend)
    assert resolve_backend() == backend
    if backend == "native" and not ladder_available():
        pytest.skip("native extension loaded but predates the ladder "
                    "ABI; python ladder covers it")
    configs = golden_ladder(**FUSED_VARIANTS[variant])
    recorder = StreamRecorder(golden_workload())
    run_simulation(configs[0], recorder)
    streams = recorder.streams
    for config, fused in zip(configs, fused_ladder_results(configs,
                                                           streams)):
        per_size = run_simulation(config,
                                  ReplayApplication(streams, name="mp"))
        assert fingerprint(fused) == fingerprint(per_size)
        assert fused.engine == backend


def test_native_ladder_present_or_reason():
    """The compiled ladder either engages for real or this machine
    reports *why* not -- a visible skip instead of one silently
    uncovered engine (mirrors ``test_backends
    .test_native_tier_present_or_reason``)."""
    if not native_available():
        reason = native_unavailable_reason()
        assert reason, "unavailable native tier must carry a reason"
        pytest.skip(f"native replay backend unavailable: {reason}")
    if not ladder_available():
        pytest.skip("native extension loaded but predates the ladder "
                    "ABI")
    configs = golden_ladder()
    recorder = StreamRecorder(golden_workload())
    run_simulation(configs[0], recorder)
    results = fused_ladder_results(configs, recorder.streams,
                                   backend="native")
    assert {result.engine for result in results} == {"native"}


def test_ladder_backend_knob_degrades_gracefully(monkeypatch):
    """An unavailable native ladder falls back to the python ladder
    with identical results -- never an error, never a wrong answer."""
    import repro.trace.engine as engine_mod
    configs = golden_ladder()
    recorder = StreamRecorder(golden_workload())
    run_simulation(configs[0], recorder)
    streams = recorder.streams
    reference = [fingerprint(r)
                 for r in fused_ladder_results(configs, streams,
                                               backend="python")]
    monkeypatch.setattr(multiconfig, "resolve_backend",
                        lambda request=None, strict=False: "python")
    results = fused_ladder_results(configs, streams, backend="native")
    assert [fingerprint(r) for r in results] == reference
    assert {result.engine for result in results} == {"python"}


def test_sweep_results_identical_with_and_without_fusion(tmp_path,
                                                         monkeypatch):
    """The fused tier against per-point simulation of every rung, the
    strongest reference a sweep can name."""
    calls = []
    real = session.fused_ladder_results

    def spy(configs, streams, *args, **kwargs):
        calls.append(len(configs))
        return real(configs, streams, *args, **kwargs)

    monkeypatch.setattr(session, "fused_ladder_results", spy)
    trace_cache = TraceCache(tmp_path / "traces")
    sweeps = {}
    for fidelity in ("full", "fused"):
        sweeps[fidelity] = run_sweep(
            SweepSpec.multiprogramming(
                TINY, ladder=(32768, 65536, 131072, 262144), procs=(1,),
                instrument=False, fidelity=fidelity, max_attempts=1),
            cache=ResultCache(tmp_path / f"results-{fidelity}"),
            trace_cache=trace_cache)
    assert sweeps["fused"] == sweeps["full"]
    assert len(sweeps["fused"]) == 4
    # The full sweep recorded no tape; the fused one recorded the row
    # at its first rung and fused the other three.
    assert calls == [3]


def test_uniprocessor_row_uses_fused_engine(tmp_path, monkeypatch):
    calls = []
    real = session.fused_ladder_results

    def spy(configs, streams, *args, **kwargs):
        calls.append(len(configs))
        return real(configs, streams, *args, **kwargs)

    monkeypatch.setattr(session, "fused_ladder_results", spy)
    run_sweep(
        SweepSpec.multiprogramming(
            TINY, ladder=(32768, 65536, 131072), procs=(1,),
            instrument=False, max_attempts=1),
        cache=ResultCache(tmp_path / "results"),
        trace_cache=TraceCache(tmp_path / "traces"))
    # One fused pass covering the rungs left after the recording run.
    assert calls == [2]


def test_multiprocess_row_routes_to_per_size_replay(tmp_path, monkeypatch):
    """A deterministic-stream parallel row replays through the trace
    cache but must never enter the fused engine (interleave order and
    coherence are processor-count-dependent)."""

    def forbidden(*args, **kwargs):
        raise AssertionError("fused engine used on a parallel row")

    monkeypatch.setattr(session, "fused_ladder_results", forbidden)

    class DeterministicMultiprog(MultiprogrammingWorkload):
        deterministic_stream = True

    profile = TINY
    monkeypatch.setattr(
        ExperimentProfile, "multiprogramming",
        lambda self: DeterministicMultiprog(
            instructions_per_app=profile.multiprog_instructions,
            quantum_instructions=profile.multiprog_quantum,
            scale=profile.ladder_scale))
    replays = []
    real_replay = session.ReplayApplication

    class SpyReplay(real_replay):
        def __init__(self, streams, name="replay"):
            replays.append(name)
            super().__init__(streams, name=name)

    monkeypatch.setattr(session, "ReplayApplication", SpyReplay)
    sweep = run_sweep(
        SweepSpec.multiprogramming(
            profile, ladder=(32768, 65536, 131072), procs=(2,),
            instrument=False, max_attempts=1),
        cache=ResultCache(tmp_path / "results"),
        trace_cache=TraceCache(tmp_path / "traces"))
    assert len(sweep) == 3
    # Two rungs after the recording run, each via per-size replay.
    assert len(replays) == 2


def test_instrumented_row_routes_to_per_size_replay(tmp_path, monkeypatch):
    """Instrumented sweeps need the probe attached, which the fused
    engine cannot provide -- they must keep the per-size path."""

    def forbidden(*args, **kwargs):
        raise AssertionError("fused engine used on an instrumented row")

    monkeypatch.setattr(session, "fused_ladder_results", forbidden)
    sweep = run_sweep(
        SweepSpec.multiprogramming(
            TINY, ladder=(32768, 65536), procs=(1,), instrument=True,
            max_attempts=1),
        cache=ResultCache(tmp_path / "results"),
        trace_cache=TraceCache(tmp_path / "traces"))
    assert len(sweep) == 2
    assert all(stats.instrument is not None for stats in sweep.values())
