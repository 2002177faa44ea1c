"""Tango-Lite-equivalent tracing substrate.

Event vocabulary (:mod:`~repro.trace.events`), the packed allocation-free
encoding (:mod:`~repro.trace.packed`), the timing-feedback interleaver
(:mod:`~repro.trace.interleave`), whole-stream record/replay and the
on-disk trace format (:mod:`~repro.trace.record`) and stream utilities
(:mod:`~repro.trace.stream`).
"""

from .analysis import (data_lines, miss_ratio_curve, stack_distances,
                       working_set_lines)
from .events import (Barrier, Compute, Ifetch, LockAcquire, LockRelease,
                     Read, TaskDequeue, TaskEnqueue, TraceEvent, Write,
                     is_memory_event)
from .interleave import DeadlockError, SyncProtocolError, TimingInterleaver
from .packed import (PackedChunk, PackedEncodingError, append_event,
                     decode_events, encode_events, event_count,
                     packed_from_bytes, packed_to_bytes)
from .racecheck import Race, RaceDetector
from .record import (ReplayApplication, StreamRecorder, TraceCache,
                     default_trace_cache)
from .stream import (coalesce_compute, event_histogram, materialize, replay,
                     reference_count)

__all__ = [
    "Barrier", "Compute", "Ifetch", "LockAcquire", "LockRelease", "Read",
    "TaskDequeue", "TaskEnqueue", "TraceEvent", "Write", "is_memory_event",
    "DeadlockError", "SyncProtocolError", "TimingInterleaver",
    "PackedChunk", "PackedEncodingError", "append_event", "decode_events",
    "encode_events", "event_count", "packed_from_bytes", "packed_to_bytes",
    "ReplayApplication", "StreamRecorder", "TraceCache",
    "default_trace_cache",
    "Race", "RaceDetector",
    "coalesce_compute", "event_histogram", "materialize", "replay",
    "reference_count",
    "data_lines", "miss_ratio_curve", "stack_distances",
    "working_set_lines",
]
