"""One-call simulation driver: a workload on a machine configuration.

This is the top of the public API.  Anything with a
``processes(config) -> mapping of processor id to event generator`` method
(see :class:`repro.workloads.base.TracedApplication`) can be simulated on
any :class:`repro.core.SystemConfig`:

>>> from repro import SystemConfig, run_simulation
>>> from repro.workloads import BarnesHut
>>> config = SystemConfig.paper_parallel(processors_per_cluster=2,
...                                      scc_size=8 * 1024)
>>> result = run_simulation(config, BarnesHut(n_bodies=64, steps=1))
>>> result.stats.execution_time > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core.config import SystemConfig
from .core.private import PrivateClusterSystem
from .core.stats import SystemStats
from .core.system import MultiprocessorSystem
from .trace.interleave import TimingInterleaver

__all__ = ["SimulationResult", "build_system", "run_simulation"]


def build_system(config: SystemConfig, instrumentation=None):
    """The memory system for a configuration's cluster organization.

    ``instrumentation`` (an
    :class:`~repro.instrument.InstrumentationProbe` or ``None``) is
    threaded into every contended component so probed runs see bank,
    bus, and processor events as they happen.
    """
    if config.cluster_organization == "private":
        return PrivateClusterSystem(config, instrumentation=instrumentation)
    return MultiprocessorSystem(config, instrumentation=instrumentation)


@dataclass(frozen=True)
class SimulationResult:
    """Everything a finished simulation reports."""

    config: SystemConfig
    stats: SystemStats
    events_processed: int
    """Trace events consumed by the interleaver."""

    instrumentation: Optional[object] = None
    """The :class:`~repro.instrument.InstrumentationProbe` the run was
    started with (``None`` for uninstrumented runs); its ``registry``
    holds the binned timelines and its ``summary()`` the flat digest."""

    engine: Optional[str] = field(default=None, compare=False)
    """Engine that produced the result: the interleaver's
    (``generic``/``python``/``native``) or the fused ladder's
    (``python``/``native``).  Diagnostic only -- every engine is
    bit-identical, so it never enters equality, digests or cache keys."""

    @property
    def execution_time(self) -> int:
        """Simulated cycles until the last process finished."""
        return self.stats.execution_time

    def summary(self) -> str:
        """Multi-line human-readable digest of the run."""
        stats = self.stats
        total = stats.total_scc
        config = self.config
        lines = [
            f"{config.clusters} clusters x "
            f"{config.processors_per_cluster} processors, "
            f"{config.scc_size:,} B SCC "
            f"({config.cluster_organization}, {config.inter_cluster}, "
            f"{config.protocol})",
            f"execution time : {stats.execution_time:,} cycles",
            f"data references: {total.accesses:,} "
            f"(read miss {100 * total.read_miss_rate:.2f}%, "
            f"write miss {100 * total.write_miss_rate:.2f}%)",
            f"invalidations  : {stats.total_invalidations:,}",
            f"trace events   : {self.events_processed:,}",
        ]
        return "\n".join(lines)


def run_simulation(config: SystemConfig, application,
                   max_cycles: Optional[int] = None,
                   check_invariants: bool = True,
                   instrumentation=None,
                   backend: Optional[str] = None) -> SimulationResult:
    """Simulate ``application`` on the machine described by ``config``.

    ``application.processes(config)`` must return a mapping from
    machine-global processor id to a trace-event generator; ids must be
    valid for the configuration.  ``max_cycles`` aborts runaway simulations
    (simulated time bound).  ``check_invariants`` verifies coherence
    exclusivity after the run (cheap relative to the run itself).

    ``instrumentation`` enables cycle-level observability: pass an
    :class:`~repro.instrument.InstrumentationProbe` and every bus grant,
    bank conflict, write-buffer event, and processor stall lands in its
    timelines; the same object is finalized with the run's horizon and
    returned on the result.  The default ``None`` costs the hot paths
    one pointer comparison per event.

    ``backend`` picks the packed-replay engine (``auto``/``python``/
    ``native``; see :mod:`repro.trace.engine`).  It is an execution
    knob, not part of the machine: every backend produces identical
    statistics, so results and caches never depend on it; the engine
    that actually ran is reported as the result's ``engine``.  ``None``
    defers to ``$REPRO_ENGINE``.
    """
    system = build_system(config, instrumentation=instrumentation)
    interleaver = TimingInterleaver(system, backend=backend)
    process_map = application.processes(config)
    for proc_id, generator in process_map.items():
        interleaver.add_process(proc_id, generator)
    execution_time = interleaver.run(max_cycles=max_cycles)
    if check_invariants:
        system.check_invariants()
    if instrumentation is not None:
        instrumentation.finalize(execution_time)
    return SimulationResult(config=config,
                            stats=system.stats(execution_time),
                            events_processed=interleaver.events_processed,
                            instrumentation=instrumentation,
                            engine=interleaver.engine_used)
