"""Differential execution of one tape across every timing engine.

The generic per-event loop is the semantic baseline.  Each other engine
runs the same tape and must agree with it on everything the engine
exposes:

* **oracle** -- the generic loop observed by the functional model
  (:class:`~repro.verify.oracle.FunctionalOracle`); agreement covers
  the full fingerprint *and* the model's own invariants.
* **fast** -- the allocation-free ``_run_fast`` packed loop (engaged
  automatically whenever the machine qualifies); compared on cycle
  counts, per-cluster statistics, bus counters, and final tag/state
  arrays.
* **native** -- the compiled replay backend from
  :mod:`repro.trace.engine`, run through the same packed fast path with
  ``backend=`` forced; compared on the full fingerprint.  Backends are
  discovered through :func:`engine_registry`, so a new backend is diffed
  automatically once it reports itself available.
* **fused** -- the multi-configuration ladder engine, run as a
  two-rung ladder and compared on its bottom rung (final arrays are
  internal to the fused engine, so the diff covers statistics and
  event counts).
* **fused-native** -- the same two-rung ladder forced through the
  compiled ladder (``backend="native"``); registered only when the
  extension actually exposes the ladder entry points, and asserted to
  have engaged (a silent degradation to the python ladder would make
  the comparison trivially green).

Two paths that fail with the *same* exception type are in agreement --
error parity is part of the contract (the golden suites already pin
it); anything else is a :class:`TapeDivergence`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.system import MultiprocessorSystem
from ..trace.engine import available_backends
from ..trace.interleave import TimingInterleaver, fused_replay_ok
from ..trace.multiconfig import (fused_ladder_results, fused_ladder_supported,
                                 ladder_engine)
from .oracle import FunctionalOracle
from .tapes import Tape

__all__ = ["DEFAULT_MAX_CYCLES", "EngineSpec", "PathResult",
           "TapeDivergence", "diff_tape", "engine_registry",
           "fused_eligible", "run_tape"]

DEFAULT_MAX_CYCLES = 10_000_000
"""Simulated-cycle bound per path; a runaway engine shows up as a
RuntimeError on one side of the diff instead of hanging the campaign."""


@dataclass
class PathResult:
    """What one engine produced for one tape."""

    name: str
    error: Optional[Tuple[str, str]] = None
    """``(exception type name, message)`` if the run raised."""

    fingerprint: Optional[Dict[str, object]] = None
    fast_engaged: Optional[bool] = None
    """For packed-path engines: whether the fast path actually ran (the
    interleaver falls back to the generic loop for e.g. set-associative
    arrays, making the comparison trivially green)."""

    engine_used: Optional[str] = None
    """The interleaver's resolved backend, for diagnosing silent
    fallbacks (a ``native`` run that degraded to ``python`` would
    otherwise pass trivially)."""


@dataclass
class TapeDivergence:
    """Two engines disagreed on one tape."""

    tape: Tape
    kind: str
    """Name of the diverging path (``"oracle"``/``"fast"``/``"fused"``)."""

    base: PathResult
    other: PathResult
    detail: List[str] = field(default_factory=list)

    def summary(self) -> str:
        head = (self.detail[0] if self.detail
                else "(no field-level detail)")
        return (f"{self.kind} diverges from {self.base.name} on tape "
                f"seed={self.tape.seed!r} "
                f"({self.tape.total_events()} events): {head}")


def _chunk_processes(interleaver: TimingInterleaver, tape: Tape) -> None:
    for pid in sorted(tape.streams):
        interleaver.add_process(pid, iter(tape.chunks(pid)))


@dataclass(frozen=True)
class EngineSpec:
    """One engine the differ compares against the generic baseline."""

    name: str
    sections: Tuple[str, ...]
    applies: "Callable[[Tape], bool]"


def _always(tape: Tape) -> bool:
    return True


_FULL = ("events", "stats", "bus", "arrays")

#: Packed-path replay backends, keyed by differ mode name.  ``fast`` is
#: the python reference loop; the rest come from repro.trace.engine.
_BACKEND_MODES = {"fast": "python", "native": "native"}


def engine_registry() -> Dict[str, EngineSpec]:
    """Engines to diff against the generic loop, in comparison order.

    Replay backends register themselves by being available: a freshly
    built native extension is picked up here without any differ change,
    which is what keeps "every backend is diffed" a structural property
    rather than a checklist item.
    """
    registry: Dict[str, EngineSpec] = {
        "oracle": EngineSpec("oracle", _FULL, _always),
        "fast": EngineSpec("fast", _FULL, _always),
    }
    for backend in available_backends():
        if backend != "python":
            registry[backend] = EngineSpec(backend, _FULL, _always)
    registry["fused"] = EngineSpec("fused", ("events", "stats"),
                                   fused_eligible)
    if _native_ladder_available():
        registry["fused-native"] = EngineSpec("fused-native",
                                              ("events", "stats"),
                                              fused_eligible)
    return registry


def run_tape(tape: Tape, mode: str,
             max_cycles: int = DEFAULT_MAX_CYCLES) -> PathResult:
    """Execute ``tape`` through one engine; never raises for engine
    errors (they become the result's ``error`` so the diff can assert
    error *parity* across engines)."""
    config = tape.config()
    if mode == "fused":
        return _run_fused(tape, config)
    if mode == "fused-native":
        return _run_fused(tape, config, backend="native")
    if mode not in ("generic", "oracle") and mode not in _BACKEND_MODES:
        raise ValueError(f"unknown differ mode {mode!r}")
    system = MultiprocessorSystem(config)
    oracle = FunctionalOracle(system) if mode == "oracle" else None
    interleaver = TimingInterleaver(system, observer=oracle,
                                    force_generic=(mode == "generic"),
                                    backend=_BACKEND_MODES.get(mode))
    _chunk_processes(interleaver, tape)
    result = PathResult(name=mode)
    if mode in _BACKEND_MODES:
        result.fast_engaged = interleaver._fast_ok
    try:
        execution_time = interleaver.run(max_cycles=max_cycles)
        if oracle is not None:
            oracle.verify_final()
        system.check_invariants()
    except Exception as exc:  # diffed, not propagated
        result.error = (type(exc).__name__, str(exc))
        result.engine_used = interleaver.engine_used
        return result
    result.engine_used = interleaver.engine_used
    stats = system.stats(execution_time)
    bus = system.coherence.bus
    result.fingerprint = {
        "events": interleaver.events_processed,
        "stats": stats.as_dict(),
        "bus": {"transactions": bus.transactions,
                "busy_cycles": bus.busy_cycles},
        "arrays": {cluster_id:
                   sorted(cluster.scc.array.resident_lines())
                   for cluster_id, cluster
                   in enumerate(system.clusters)},
    }
    return result


def fused_eligible(tape: Tape) -> bool:
    """Whether the fused engine applies: a one-processor tape on a
    machine the two-rung ladder ``[scc, 2*scc]`` supports."""
    config = tape.config()
    if config.total_processors != 1 or not fused_replay_ok(config):
        return False
    ladder = [config, config.with_updates(scc_size=config.scc_size * 2)]
    return fused_ladder_supported(ladder)


def _native_ladder_available() -> bool:
    """Whether the compiled fused ladder can actually run here."""
    if "native" not in available_backends():
        return False
    from ..trace.engine import native
    return native.ladder_available()


def _run_fused(tape: Tape, config,
               backend: Optional[str] = None) -> PathResult:
    result = PathResult(name="fused" if backend is None
                        else f"fused-{backend}")
    ladder = [config, config.with_updates(scc_size=config.scc_size * 2)]
    streams = {0: array("q", tape.streams[0])}
    try:
        bottom = fused_ladder_results(ladder, streams,
                                      backend=backend)[0]
    except Exception as exc:
        result.error = (type(exc).__name__, str(exc))
        result.engine_used = ladder_engine(backend)
        return result
    result.engine_used = bottom.engine
    if backend is not None and result.engine_used != backend:
        # A silently degraded ladder would agree with the baseline by
        # construction; make the degradation a loud divergence instead.
        result.error = ("EngineDegraded",
                        f"requested {backend} ladder, "
                        f"ran {result.engine_used}")
        return result
    result.fingerprint = {
        "events": bottom.events_processed,
        "stats": bottom.stats.as_dict(),
    }
    return result


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------

def _diff_values(path: str, base, other, out: List[str]) -> None:
    if isinstance(base, dict) and isinstance(other, dict):
        for key in sorted(set(base) | set(other), key=str):
            _diff_values(f"{path}.{key}" if path else str(key),
                         base.get(key), other.get(key), out)
        return
    if (isinstance(base, (list, tuple)) and isinstance(other,
                                                       (list, tuple))):
        if list(base) != list(other):
            out.append(f"{path}: {base!r} != {other!r}")
        return
    if base != other:
        out.append(f"{path}: {base!r} != {other!r}")


def _compare(tape: Tape, base: PathResult, other: PathResult,
             sections: Tuple[str, ...]) -> Optional[TapeDivergence]:
    if base.error is not None or other.error is not None:
        base_type = base.error[0] if base.error else None
        other_type = other.error[0] if other.error else None
        if base_type == other_type:
            return None
        return TapeDivergence(
            tape=tape, kind=other.name, base=base, other=other,
            detail=[f"error: {base.name}={base.error!r} "
                    f"{other.name}={other.error!r}"])
    detail: List[str] = []
    for section in sections:
        _diff_values(section, base.fingerprint.get(section),
                     other.fingerprint.get(section), detail)
    if not detail:
        return None
    return TapeDivergence(tape=tape, kind=other.name, base=base,
                          other=other, detail=detail)


def diff_tape(tape: Tape,
              max_cycles: int = DEFAULT_MAX_CYCLES
              ) -> Optional[TapeDivergence]:
    """Run every applicable engine over ``tape``; the first divergence
    found, or ``None`` when all engines agree."""
    generic = run_tape(tape, "generic", max_cycles)
    for spec in engine_registry().values():
        if not spec.applies(tape):
            continue
        divergence = _compare(tape, generic,
                              run_tape(tape, spec.name, max_cycles),
                              spec.sections)
        if divergence is not None:
            return divergence
    return None
