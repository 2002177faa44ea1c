"""Outside-in tracing of the reproduction's layers.

Every span is recorded by wrapping a public entry point from here, not
by code inside the package.  Two kinds of wrapped call exist:

* *spans* -- coarse calls (a sweep session, a cache lookup, one
  interleaver run, a profile build).  Each keeps its name, start, end,
  parent span and grid point in memory and is written out at the end
  as Trace Event Format JSON, the format ``repro.instrument.chrometrace``
  emits, so it opens in Perfetto.
* *hot calls* -- calls made up to once per simulated event (coherence
  callbacks, probe hooks, native ``drain`` round-trips, workload
  generator resumes).  Recording each as a span would hold millions of
  objects, so they are aggregated per name into a count, total time and
  self time; their time still counts as child time of the enclosing
  span, so span self times stay exact.

A wrap target that does not exist leaves its layer metrics absent: the
tracer never fails a run because the package dropped a function.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

PERF = time.perf_counter


def _config_point(config) -> str:
    """Grid-point label of a machine configuration."""
    try:
        return (f"{config.clusters}x{config.processors_per_cluster}p/"
                f"{config.scc_size}B")
    except AttributeError:
        return ""


def _lookup(module_name: str, attr: str):
    """``module.attr``, or ``None`` if either no longer exists."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        """(name, start, end, parent id, point, self seconds, phase, id)"""
        self._next_id = 0
        self.hot: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        """name -> [calls, total seconds, self seconds] (current phase)"""
        self.counts: Dict[str, float] = defaultdict(float)
        """Counters gathered at the wrapped boundaries (current phase)."""
        self.phase = "setup"
        self.phase_counts: Dict[str, Dict[str, float]] = {}
        self.epoch = PERF()
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self.wrapped: set = set()
        """Layers whose wrap target was found (their metrics exist)."""
        self.active = False
        """Wrappers pass straight through while this is false (a module
        imported while they were installed may still hold one)."""

    # -- frames ---------------------------------------------------------

    def _enter(self, name: str, span: bool = False) -> list:
        """Open a frame: [name, start, child seconds, span id or None]."""
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, PERF(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, point: str = "") -> None:
        end = PERF()
        stack = self._stack
        # An exception may unwind several frames at once; pop to ours.
        while stack and stack.pop() is not frame:
            pass
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        self_time = duration - frame[2]
        if frame[3] is None:
            entry = self.hot[frame[0]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time
            return
        parent = next((outer[3] for outer in reversed(stack)
                       if outer[3] is not None), -1)
        self.spans.append((frame[0], frame[1], end, parent, point,
                           self_time, self.phase, frame[3]))

    # -- wrapping -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_factory) -> bool:
        """Wrap ``owner.attr`` (a class's own method or a module
        function); ``False`` if it does not exist."""
        original = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if original is None:
            return False
        setattr(owner, attr, wrapper_factory(original))
        self._patches.append((owner, attr, original))
        return True

    def _patch_everywhere(self, module_name: str, attr: str,
                          wrapper_factory) -> bool:
        """Rebind a module-level function in its module and in every
        loaded ``repro`` module that imported it by name."""
        original = _lookup(module_name, attr)
        if original is None:
            return False
        wrapper = wrapper_factory(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapper)
                self._patches.append((loaded, attr, original))
        return True

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, exclude=()) -> None:
        """Wrap every layer boundary the package still has.

        ``exclude`` lists (owner, attribute) benchmark functions called
        inside spans (the clock's calibration kernel) whose time must
        not count as any layer's self time."""
        self.uninstall()
        self.wrapped.clear()
        self.active = True
        tracer, counts = self, self.counts   # start_phase clears counts

        def span(name, point_of=None, after=None):
            """A span per call; ``point_of(args)`` labels it and
            ``after(args, result)`` gathers counters (``args[0]`` is the
            instance for methods)."""
            def factory(original):
                def wrapper(*args, **kwargs):
                    if not tracer.active:
                        return original(*args, **kwargs)
                    frame = tracer._enter(name, span=True)
                    point = ""
                    try:
                        result = original(*args, **kwargs)
                        if after is not None:
                            after(args, result)
                        if point_of is not None:
                            point = point_of(args)
                        return result
                    finally:
                        tracer._leave(frame, point)
                return wrapper
            return factory

        def hot(name):
            def factory(original):
                def wrapper(*args, **kwargs):
                    if not tracer.active:
                        return original(*args, **kwargs)
                    frame = tracer._enter(name)
                    try:
                        return original(*args, **kwargs)
                    finally:
                        tracer._leave(frame)
                return wrapper
            return factory

        for owner, attr in exclude:
            self._patch(owner, attr, hot("perfbench.excluded"))

        def patch_all(layer, targets) -> None:
            """Wrap (owner, attribute, factory) targets; the layer counts
            as measured only if every target exists."""
            if all(owner is not None and self._patch(owner, attr, factory)
                   for owner, attr, factory in targets):
                self.wrapped.add(layer)

        # experiments.session
        def session_after(args, result):
            for key, value in dict(args[0].counters).items():
                counts[f"session.points.{key}"] += value

        patch_all("session", [(
            _lookup("repro.api", "SweepSession"), "run",
            span("experiments.session",
                 point_of=lambda a: a[0].spec.benchmark,
                 after=session_after))])

        # experiments.runner: the result cache
        def cache_get_after(args, result):
            counts["runner.cache_hits" if result is not None
                   else "runner.cache_misses"] += 1

        result_cache = _lookup("repro.api", "ResultCache")
        patch_all("runner", [
            (result_cache, "get", span("runner.cache_get",
                                       point_of=lambda a: a[1],
                                       after=cache_get_after)),
            (result_cache, "put", span("runner.cache_put",
                                       point_of=lambda a: a[1]))])

        # trace.record: the tape cache
        def tape_put_after(args, result):
            counts["record.tape_bytes"] += sum(
                len(data) * getattr(data, "itemsize", 8)
                for data in args[2].values())

        trace_cache = _lookup("repro.trace.record", "TraceCache")
        patch_all("record", [
            (trace_cache, "get", span("record.tape_get",
                                      point_of=lambda a: a[1][:80])),
            (trace_cache, "put", span("record.tape_put",
                                      point_of=lambda a: a[1][:80],
                                      after=tape_put_after))])

        # workloads: the generators application.processes() returns
        chunk_type = _lookup("repro.trace.packed", "PackedChunk")

        def proxy(generator):
            response = None
            while True:
                frame = tracer._enter("workloads.gen")
                try:
                    item = generator.send(response)
                except StopIteration:
                    return
                finally:
                    tracer._leave(frame)
                # Counting expands packed spans; keep that cost out of
                # the enclosing span's self time.
                frame = tracer._enter("perfbench.count")
                counts["workloads.events"] += (
                    len(item) if type(item) is chunk_type else 1)
                tracer._leave(frame)
                response = yield item

        def processes_factory(original):
            def wrapper(app, config):
                if not tracer.active:
                    return original(app, config)
                frame = tracer._enter("workloads.gen")
                try:
                    processes = original(app, config)
                finally:
                    tracer._leave(frame)
                return {proc: proxy(generator)
                        for proc, generator in processes.items()}
            return wrapper

        base = _lookup("repro.workloads", "TracedApplication")
        applications = [
            cls for cls in (_lookup("repro.workloads", name) for name in
                            _lookup("repro.workloads", "__all__") or ())
            if isinstance(cls, type) and base is not None
            and issubclass(cls, base) and "processes" in vars(cls)]
        if applications:
            patch_all("workloads", [(cls, "processes", processes_factory)
                                    for cls in applications])

        # instrument: the probe hooks (the methods NullProbe declares)
        probe = _lookup("repro.instrument.probes", "InstrumentationProbe")
        hooks = [name for name, value in vars(
                     _lookup("repro.instrument.probes", "NullProbe")
                     or object).items()
                 if callable(value) and not name.startswith("_")
                 and probe is not None and name in vars(probe)]
        if hooks:
            patch_all("instrument", [(probe, hook, hot("instrument.probe"))
                                     for hook in hooks])

        # trace.interleave: one span per simulated run
        def interleave_after(args, result):
            engine = getattr(args[0], "engine_used", None)
            counts[f"interleave.points.{engine}"] += 1
            counts[f"interleave.events.{engine}"] += getattr(
                args[0], "events_processed", 0)

        patch_all("interleave", [(
            _lookup("repro.trace.interleave", "TimingInterleaver"), "run",
            span("trace.interleave",
                 point_of=lambda a: _config_point(a[0].system.config),
                 after=interleave_after))])

        # trace.engine: the loaded extension's drain
        native = _lookup("repro.trace.engine", "native")
        patch_all("engine", [(native.load() if native else None, "drain",
                              hot("engine.drain"))])

        # core: coherence miss callbacks and instruction fetches
        coherence = _lookup("repro.core.coherence", "CoherenceController")
        patch_all("core", [
            (coherence, "read_miss", hot("core.miss")),
            (coherence, "write_line", hot("core.miss")),
            (_lookup("repro.core.system", "MultiprocessorSystem"), "ifetch",
             hot("core.ifetch"))])

        # core (simulated): SimulationResult.stats of every run, and
        # trace.multiconfig: the fused ladder
        def add_result(result) -> None:
            stats = result.stats
            total = stats.total_scc
            counts["core.sim_cycles"] += stats.execution_time
            counts["core.sim_misses"] += (total.read_misses
                                          + total.write_misses)
            counts["core.sim_accesses"] += total.reads + total.writes
            counts["core.invalidations"] += stats.total_invalidations

        def simulation_after(args, result):
            if not any(frame[0] == "trace.multiconfig"
                       for frame in tracer._stack):
                add_result(result)

        def ladder_after(args, results):
            counts["multiconfig.calls"] += 1
            counts["multiconfig.configs"] += len(args[0])
            for result in results:
                add_result(result)

        if self._patch_everywhere(
                "repro.simulation", "run_simulation",
                span("simulation.run", point_of=lambda a: _config_point(a[0]),
                     after=simulation_after)):
            self.wrapped.add("simulated")
        if self._patch_everywhere(
                "repro.trace.multiconfig", "fused_ladder_results",
                span("trace.multiconfig",
                     point_of=lambda a: _config_point(a[0][0]),
                     after=ladder_after)):
            self.wrapped.add("multiconfig")

        # model: profile build and per-point prediction
        if (self._patch_everywhere(
                "repro.model.profile", "build_row_profile",
                span("model.profile", point_of=lambda a: _config_point(a[1])))
                and self._patch_everywhere(
                    "repro.model.predictor", "predict_point",
                    span("model.predict",
                         point_of=lambda a: _config_point(a[1])))):
            self.wrapped.add("model")

    # -- phases and metrics ---------------------------------------------

    def start_phase(self, phase: str) -> None:
        """Start attributing spans, hot calls and counters to ``phase``
        (the finished phase's counters stay in :attr:`phase_counts`)."""
        self.phase_counts[self.phase] = dict(self.counts)
        self.phase = phase
        self.hot.clear()
        self.counts.clear()

    def _span_seconds(self, name: str, phases=("pass",)):
        """(total, self) seconds of the spans called ``name``."""
        total = self_time = 0.0
        for span in self.spans:
            if span[0] == name and span[6] in phases:
                total += span[2] - span[1]
                self_time += span[5]
        return total, self_time

    def layer_metrics(self) -> Dict:
        """Per-layer metrics of the ``pass`` phase (``record.tape_put_s``
        and ``record.tape_bytes`` also cover set-up, where tapes are
        recorded).  Returns ``{name: (value, unit)}``."""
        counts, hot, wrapped = self.counts, self.hot, self.wrapped
        out: Dict[str, tuple] = {}
        if "session" in wrapped:
            for status in ("computed", "replayed", "cached",
                           "analytical"):
                out[f"session.points.{status}"] = (
                    counts.get(f"session.points.{status}", 0), "count")
            out["session.self_s"] = (
                self._span_seconds("experiments.session")[1], "s")
        if "runner" in wrapped:
            out["runner.cache_get_s"] = (
                self._span_seconds("runner.cache_get")[0], "s")
            out["runner.cache_put_s"] = (
                self._span_seconds("runner.cache_put")[0], "s")
            out["runner.cache_hits"] = (
                counts.get("runner.cache_hits", 0), "count")
            out["runner.cache_misses"] = (
                counts.get("runner.cache_misses", 0), "count")
        if "record" in wrapped:
            out["record.tape_put_s"] = (self._span_seconds(
                "record.tape_put", ("setup", "pass"))[0], "s")
            out["record.tape_get_s"] = (
                self._span_seconds("record.tape_get")[0], "s")
            out["record.tape_bytes"] = (
                counts.get("record.tape_bytes", 0)
                + self.phase_counts.get("setup", {}).get(
                    "record.tape_bytes", 0), "bytes")
        if "workloads" in wrapped:
            out["workloads.gen_s"] = (hot["workloads.gen"][2], "s")
            out["workloads.events"] = (
                counts.get("workloads.events", 0), "count")
        if "instrument" in wrapped:
            out["instrument.probe_calls"] = (
                hot["instrument.probe"][0], "count")
            out["instrument.probe_s"] = (hot["instrument.probe"][2], "s")
        events = 0
        if "interleave" in wrapped:
            for engine in ("generic", "python", "numpy", "native"):
                out[f"interleave.points.{engine}"] = (
                    counts.get(f"interleave.points.{engine}", 0),
                    "count")
            out["interleave.self_s"] = (
                self._span_seconds("trace.interleave")[1], "s")
            events = sum(value for key, value in counts.items()
                         if key.startswith("interleave.events."))
        if "engine" in wrapped:
            drains = hot["engine.drain"][0]
            native_events = counts.get("interleave.events.native", 0)
            out["engine.drain_calls"] = (drains, "count")
            out["engine.drains_per_event"] = (
                drains / native_events if native_events else 0.0,
                "ratio")
        if "core" in wrapped:
            misses, ifetches = hot["core.miss"][0], hot["core.ifetch"][0]
            out["core.miss_callbacks"] = (misses, "count")
            out["core.ifetch_callbacks"] = (ifetches, "count")
            out["core.callback_s"] = (
                hot["core.miss"][2] + hot["core.ifetch"][2], "s")
            out["core.callbacks_per_event"] = (
                (misses + ifetches) / events if events else 0.0, "ratio")
        if "simulated" in wrapped:
            accesses = counts.get("core.sim_accesses", 0)
            out["core.sim_cycles"] = (counts.get("core.sim_cycles", 0),
                                      "cycles")
            out["core.miss_rate"] = (
                counts.get("core.sim_misses", 0) / accesses
                if accesses else 0.0, "ratio")
            out["core.invalidations"] = (
                counts.get("core.invalidations", 0), "count")
        if "multiconfig" in wrapped:
            calls = counts.get("multiconfig.calls", 0)
            out["multiconfig.ladder_s"] = (
                self._span_seconds("trace.multiconfig")[0], "s")
            out["multiconfig.configs_per_pass"] = (
                counts.get("multiconfig.configs", 0) / calls
                if calls else 0.0, "count")
        if "model" in wrapped:
            out["model.profile_s"] = (
                self._span_seconds("model.profile")[0], "s")
            out["model.predict_s"] = (
                self._span_seconds("model.predict")[0], "s")
        return out

    # -- export ---------------------------------------------------------

    def trace_events(self, metadata: Optional[dict] = None) -> Dict:
        """The spans as a Trace Event Format document (``X`` slices on
        one thread, microsecond timestamps from the tracer's epoch)."""
        events: List[Dict[str, object]] = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": "perfbench host spans"}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "benchmark worker"}},
        ]
        for (name, start, end, parent, point, self_time, phase,
             span_id) in self.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": name,
                "cat": phase,
                "ts": round((start - self.epoch) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent, "point": point,
                         "self_us": round(self_time * 1e6, 3)},
            })
        events[2:] = sorted(events[2:], key=lambda e: e["ts"])
        document: Dict[str, object] = {"traceEvents": events,
                                       "displayTimeUnit": "ms"}
        if metadata:
            document["otherData"] = metadata
        return document

    def write(self, path, metadata: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.trace_events(metadata), fh)
