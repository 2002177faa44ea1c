"""Row profiles: everything the analytical surrogate needs from a tape.

One recorded packed tape per (workload, processors-per-cluster) row is
reduced to a :class:`RowProfile` -- a small, JSON-serializable summary
from which :mod:`repro.model.predictor` prices *every* (cache size,
associativity) grid point of that row without running the simulator.

The profile has four parts:

* **exact ladder** -- each cluster's member streams are merged by
  normalized position (round-robin over stream fractions, the
  interleaving a fair scheduler produces) and pushed through an
  inclusion-chained direct-mapped tag ladder covering the sweep's
  power-of-two SCC sizes, with cross-cluster write-invalidations
  applied at every rung.  For one-way arrays at tracked sizes this *is*
  the cache model the simulator runs (bit-selected direct-mapped,
  write-allocate, write-invalidate between clusters), so the resulting
  per-rung miss counts are exact up to interleaving;
* **reuse-distance histograms** -- fully-associative stack-distance
  histograms (bucketed, read/write split) of each cluster's merged
  stream and of each process's own stream, feeding the binomial
  set-mapping correction for associativities and sizes the ladder does
  not track;
* **sharing summary** -- per-line writer sets collapsed to a histogram,
  inter-process reuse counts, and each cluster's *exposure* (expected
  reads landing on lines invalidated by remote writers under random
  interleaving), feeding the interleaved-reuse correction;
* **per-process accounting** -- busy cycles, lock/barrier counts and
  exact instruction-cache misses at the recorded geometry, feeding the
  cycle estimate.

Profiles are cached on disk (:class:`ProfileCache`) keyed by the tape
they came from, so a warm sweep never touches the tape again.  Cold
builds run the per-reference work in the native extension when the
replay-engine knob resolves to ``native`` (see
:func:`build_row_profile`); the python code here is the reference it
matches byte for byte.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import os
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import SystemConfig
from ..core.icache import INSTRUCTION_BYTES
from ..trace.analysis import _distances_from_lines
from ..trace.engine import native, resolve_backend
from ..trace.packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE,
                            OP_ENQUEUE, OP_IFETCH, OP_LOCK_ACQ,
                            OP_LOCK_REL, OP_READ, OP_READ_SPAN, OP_WRITE,
                            OP_WRITE_SPAN)

__all__ = ["MODEL_VERSION", "RowProfile", "ProfileCache",
           "build_row_profile", "extract_process", "merge_refs",
           "coherence_ladder", "bucket_floor"]

_LOG = logging.getLogger(__name__)

MODEL_VERSION = 1
"""Bump to invalidate cached profiles (and analytical sweep results --
:meth:`repro.experiments.spec.SweepSpec.point_key` embeds it) after
model changes."""

_EXACT_DISTANCES = 128
"""Stack distances below this are kept exact; beyond, buckets are
geometric with :data:`_BUCKETS_PER_OCTAVE` sub-buckets per power of
two (error bounded by ~1/16 of the distance, far below the model's
other approximations)."""

_BUCKETS_PER_OCTAVE = 8


def bucket_floor(distance: int) -> int:
    """Canonical (lowest) distance of the bucket containing
    ``distance``."""
    if distance < _EXACT_DISTANCES:
        return distance
    octave = distance.bit_length() - 1
    step = max(1, (1 << octave) // _BUCKETS_PER_OCTAVE)
    return (1 << octave) + ((distance - (1 << octave)) // step) * step


class _BucketedHistogram:
    """Read/write-split stack-distance histogram with geometric
    buckets; the JSON form is a list of ``[floor, reads, writes]``."""

    __slots__ = ("cold_reads", "cold_writes", "buckets")

    def __init__(self):
        self.cold_reads = 0
        self.cold_writes = 0
        self.buckets: Dict[int, List[int]] = {}

    def add(self, distance: Optional[int], is_write: int) -> None:
        if distance is None:
            if is_write:
                self.cold_writes += 1
            else:
                self.cold_reads += 1
            return
        bucket = self.buckets.setdefault(bucket_floor(distance), [0, 0])
        bucket[is_write] += 1

    def as_dict(self) -> dict:
        return {
            "cold_reads": self.cold_reads,
            "cold_writes": self.cold_writes,
            "buckets": [[floor, counts[0], counts[1]]
                        for floor, counts in sorted(self.buckets.items())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "_BucketedHistogram":
        histogram = cls()
        histogram.cold_reads = int(data["cold_reads"])
        histogram.cold_writes = int(data["cold_writes"])
        histogram.buckets = {int(floor): [int(reads), int(writes)]
                             for floor, reads, writes in data["buckets"]}
        return histogram


def extract_process(data, line_shift: int,
                    icache_config: Optional[SystemConfig] = None):
    """One walk over a packed stream: the data-reference sequence plus
    the busy/sync accounting the cycle estimate needs.

    Returns ``(refs, summary)`` where ``refs`` is a list of
    ``(is_write, line)`` pairs and ``summary`` counts instructions,
    compute cycles, lock operations, barriers, events, and (when
    ``icache_config.model_icache``) exact instruction-cache misses at
    the recorded geometry -- the geometry is ladder-invariant, so these
    are row constants.
    """
    refs: List[Tuple[int, int]] = []
    append = refs.append
    instructions = compute = locks = barriers = events = 0
    itags: Optional[List[int]] = None
    icache_misses = 0
    if icache_config is not None and icache_config.model_icache:
        ilines = (icache_config.icache_size
                  // icache_config.icache_line_size)
        itags = [-1] * ilines
        imask = ilines - 1
        iline_size = icache_config.icache_line_size
    index, end = 0, len(data)
    while index < end:
        op = data[index]
        if op == OP_READ:
            append((0, data[index + 1] >> line_shift))
            events += 1
            index += 2
        elif op == OP_WRITE:
            append((1, data[index + 1] >> line_shift))
            events += 1
            index += 2
        elif op == OP_IFETCH:
            count = data[index + 2]
            instructions += count
            events += 1
            if itags is not None:
                addr = data[index + 1]
                first = addr // iline_size
                last = (addr + count * INSTRUCTION_BYTES - 1) // iline_size
                for line in range(first, last + 1):
                    if itags[line & imask] != line:
                        itags[line & imask] = line
                        icache_misses += 1
            index += 3
        elif op == OP_COMPUTE:
            compute += data[index + 1]
            events += 1
            index += 2
        elif op == OP_READ_SPAN or op == OP_WRITE_SPAN:
            base = data[index + 1]
            size = data[index + 2]
            stride = data[index + 3]
            if size > 0 and stride <= 0:
                raise ValueError(f"non-positive span stride at {index}")
            is_write = 1 if op == OP_WRITE_SPAN else 0
            for offset in range(0, size, stride):
                append((is_write, (base + offset) >> line_shift))
            events += (size + stride - 1) // stride
            index += 4
        elif op == OP_LOCK_ACQ or op == OP_LOCK_REL:
            locks += 1
            events += 1
            index += 2
        elif op == OP_BARRIER:
            barriers += 1
            events += 1
            index += 3
        elif op == OP_ENQUEUE:
            events += 1
            index += 3
        elif op == OP_DEQUEUE:
            events += 1
            index += 2
        else:
            raise ValueError(f"unknown packed opcode {op} at word {index}")
    summary = {
        "reads": sum(1 for is_write, _ in refs if not is_write),
        "writes": sum(1 for is_write, _ in refs if is_write),
        "instructions": instructions,
        "compute_cycles": compute,
        "lock_ops": locks,
        "barriers": barriers,
        "events": events,
        "icache_misses": icache_misses,
    }
    return refs, summary


def merge_refs(sequences: Sequence[Sequence]) -> List:
    """Merge reference sequences by normalized position.

    Each step takes the next item from the sequence that is least far
    through its own stream -- the fair round-robin interleaving a
    shared cache sees from symmetric processors.  Items keep their
    per-sequence order (each input is a subsequence of the output).
    """
    live = [seq for seq in sequences if len(seq)]
    if len(live) == 1:
        return list(live[0])
    merged: List = []
    append = merged.append
    positions = [0] * len(live)
    lengths = [len(seq) for seq in live]
    heap = [(0.0, index) for index in range(len(live))]
    heapq.heapify(heap)
    while heap:
        _, index = heapq.heappop(heap)
        append(live[index][positions[index]])
        positions[index] += 1
        if positions[index] < lengths[index]:
            heapq.heappush(heap,
                           (positions[index] / lengths[index], index))
    return merged


def coherence_ladder(refs: Sequence[Tuple[int, int, int]],
                     clusters: int, procs_per_cluster: int,
                     line_counts: Sequence[int]):
    """Exact direct-mapped miss counts at every tracked size, with
    cross-cluster write-invalidate coherence.

    ``refs`` is the globally merged ``(proc, is_write, line)`` stream;
    each cluster owns one bit-selected direct-mapped array per rung
    (power-of-two ``line_counts``, ascending).  Bit-selected
    direct-mapped arrays are inclusive across sizes -- the larger
    array's conflict set for any line is a subset of the smaller's --
    so a probe stops at the first resident rung, and an invalidation
    clears every rung at or above the first resident one.  Writes
    install on miss (write-allocate) and invalidate remote copies
    whether they hit or miss, exactly as the simulated protocol does;
    a write hit on a remotely-shared line is an upgrade, not a miss.

    Returns a per-rung list of dicts with total read/write misses,
    invalidations sent, and per-process read/write miss counts.
    """
    geometry = [(count - 1, count.bit_length() - 1)
                for count in line_counts]
    for count in line_counts:
        if count < 1 or count & (count - 1):
            raise ValueError("tracked line counts must be powers of two")
    if list(line_counts) != sorted(line_counts):
        raise ValueError("tracked line counts must be ascending")
    rungs = len(geometry)
    tags = [[[-1] * (mask + 1) for mask, _ in geometry]
            for _ in range(clusters)]
    per_rung = [{"read_misses": 0, "write_misses": 0, "invalidations": 0,
                 "proc_read_misses": {}, "proc_write_misses": {}}
                for _ in range(rungs)]
    mask0, shift0 = geometry[0]
    for proc, is_write, line in refs:
        cluster = proc // procs_per_cluster
        own = tags[cluster]
        if own[0][line & mask0] != line >> shift0:
            for rung in range(rungs):
                mask, shift = geometry[rung]
                slots = own[rung]
                slot = line & mask
                tag = line >> shift
                if slots[slot] == tag:
                    break
                slots[slot] = tag
                entry = per_rung[rung]
                if is_write:
                    entry["write_misses"] += 1
                    counts = entry["proc_write_misses"]
                else:
                    entry["read_misses"] += 1
                    counts = entry["proc_read_misses"]
                counts[proc] = counts.get(proc, 0) + 1
        if is_write and clusters > 1:
            for other in range(clusters):
                if other == cluster:
                    continue
                remote = tags[other]
                for rung in range(rungs):
                    mask, shift = geometry[rung]
                    slot = line & mask
                    if remote[rung][slot] == line >> shift:
                        remote[rung][slot] = -1
                        per_rung[rung]["invalidations"] += 1
    return per_rung


_PAYLOAD_KEYS = frozenset((
    "model_version", "line_size", "clusters", "procs_per_cluster",
    "tracked_line_counts", "reads", "writes", "per_process",
    "process_histograms", "cluster_histograms", "ladder", "sharing"))
"""Top-level keys of every :meth:`RowProfile.as_dict` payload."""


class RowProfile:
    """The analytical summary of one grid row's tape.

    ``engine`` says which builder produced it (``"native"`` or
    ``"python"``; ``None`` for a profile read back from JSON).  It is
    not part of the payload: both builders produce the same one.
    """

    def __init__(self, payload: dict, engine: Optional[str] = None):
        self.payload = payload
        self.engine = engine

    # Convenience views ------------------------------------------------

    @property
    def line_size(self) -> int:
        return self.payload["line_size"]

    @property
    def clusters(self) -> int:
        return self.payload["clusters"]

    @property
    def procs_per_cluster(self) -> int:
        return self.payload["procs_per_cluster"]

    @property
    def tracked_line_counts(self) -> Tuple[int, ...]:
        return tuple(self.payload["tracked_line_counts"])

    @property
    def reads(self) -> int:
        return self.payload["reads"]

    @property
    def writes(self) -> int:
        return self.payload["writes"]

    @property
    def per_process(self) -> Dict[int, dict]:
        return {int(proc): summary for proc, summary
                in self.payload["per_process"].items()}

    def ladder_entry(self, lines: int) -> Optional[dict]:
        """The exact-ladder rung for ``lines``, if tracked."""
        tracked = self.payload["tracked_line_counts"]
        if lines not in tracked:
            return None
        return self.payload["ladder"][tracked.index(lines)]

    def cluster_histogram(self, cluster: int) -> _BucketedHistogram:
        return _BucketedHistogram.from_dict(
            self.payload["cluster_histograms"][str(cluster)])

    def process_histogram(self, proc: int) -> _BucketedHistogram:
        return _BucketedHistogram.from_dict(
            self.payload["process_histograms"][str(proc)])

    @property
    def sharing(self) -> dict:
        return self.payload["sharing"]

    def as_dict(self) -> dict:
        return self.payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RowProfile":
        if not isinstance(payload, dict):
            raise ValueError("profile payload is not a JSON object")
        if payload.get("model_version") != MODEL_VERSION:
            raise ValueError("profile written by a different model "
                             "version")
        missing = _PAYLOAD_KEYS.difference(payload)
        if missing:
            raise ValueError(f"profile payload lacks {sorted(missing)}")
        return cls(payload)


def build_row_profile(streams: Dict[int, Sequence], config:
                      SystemConfig,
                      tracked_line_counts: Sequence[int], *,
                      backend: Optional[str] = None) -> RowProfile:
    """Reduce one recorded row tape to its :class:`RowProfile`.

    ``streams`` maps processor ids to packed streams recorded on
    ``config`` (the row's recording configuration -- its icache
    geometry prices the instruction caches; its line size and cluster
    layout shape everything else).  ``tracked_line_counts`` are the
    SCC line counts the exact ladder covers, ascending powers of two.

    ``backend`` is the replay-engine knob
    (:func:`repro.trace.engine.resolve_backend`).  When it resolves to
    ``native`` the per-reference work runs in the C extension's
    ``profile_row`` kernels; otherwise the python reference below runs.
    Both give the same payload, byte for byte under
    ``json.dumps(..., sort_keys=True)``, and raise the same exception
    types on malformed tapes; the profile's ``engine`` says which ran.
    """
    tracked = tuple(sorted(set(int(count)
                               for count in tracked_line_counts)))
    procs = sorted(streams)
    if resolve_backend(backend) == "native":
        engine = "native"
        parts = _native_parts(native.load(), procs, streams, config,
                              tracked)
    else:
        engine = "python"
        parts = _python_parts(procs, streams, config, tracked)
    (per_process, process_histograms, cluster_histograms, ladder,
     sharing) = parts
    payload = {
        "model_version": MODEL_VERSION,
        "line_size": config.line_size,
        "clusters": config.clusters,
        "procs_per_cluster": config.processors_per_cluster,
        "tracked_line_counts": list(tracked),
        "reads": sum(summary["reads"] for summary in per_process.values()),
        "writes": sum(summary["writes"]
                      for summary in per_process.values()),
        "per_process": {str(proc): summary
                        for proc, summary in per_process.items()},
        "process_histograms": process_histograms,
        "cluster_histograms": cluster_histograms,
        "ladder": ladder,
        "sharing": sharing,
    }
    return RowProfile(payload, engine=engine)


def _python_parts(procs: List[int], streams: Dict[int, Sequence],
                  config: SystemConfig, tracked: Tuple[int, ...]):
    """The reference builder: ``(per_process, process_histograms,
    cluster_histograms, ladder, sharing)`` in payload form."""
    line_shift = config.line_offset_bits
    procs_per_cluster = config.processors_per_cluster
    clusters = config.clusters

    per_process: Dict[int, dict] = {}
    proc_refs: Dict[int, List[Tuple[int, int]]] = {}
    for proc in procs:
        refs, summary = extract_process(streams[proc], line_shift,
                                        icache_config=config)
        proc_refs[proc] = refs
        per_process[proc] = summary

    process_histograms = {}
    for proc, refs in proc_refs.items():
        process_histograms[str(proc)] = _histogram_of(refs).as_dict()

    # Per-cluster merged streams (what the shared cache sees), tagged
    # with the owning process for miss attribution.
    cluster_refs: Dict[int, List[Tuple[int, int, int]]] = {}
    cluster_histograms = {}
    for cluster in range(clusters):
        members = [proc for proc in procs
                   if proc // procs_per_cluster == cluster]
        tagged = [[(proc, is_write, line)
                   for is_write, line in proc_refs[proc]]
                  for proc in members]
        merged = merge_refs(tagged)
        cluster_refs[cluster] = merged
        cluster_histograms[str(cluster)] = _histogram_of(
            [(is_write, line) for _, is_write, line in merged]).as_dict()

    merged_global = merge_refs([cluster_refs[cluster]
                                for cluster in range(clusters)])
    ladder = coherence_ladder(merged_global, clusters,
                              procs_per_cluster, tracked)
    for entry in ladder:
        entry["proc_read_misses"] = {
            str(proc): count
            for proc, count in sorted(entry["proc_read_misses"].items())}
        entry["proc_write_misses"] = {
            str(proc): count
            for proc, count in sorted(entry["proc_write_misses"].items())}

    sharing = _sharing_summary(merged_global, clusters,
                               procs_per_cluster)
    return (per_process, process_histograms, cluster_histograms, ladder,
            sharing)


def _histogram_of(refs: Sequence[Tuple[int, int]]) -> _BucketedHistogram:
    """Fully-associative stack-distance histogram of a reference
    sequence, read/write split (Bennett-Kruskal over the line stream)."""
    histogram = _BucketedHistogram()
    distances = _distances_from_lines([line for _, line in refs])
    for (is_write, _), distance in zip(refs, distances):
        histogram.add(distance, is_write)
    return histogram


_SUMMARY_KEYS = ("reads", "writes", "instructions", "compute_cycles",
                 "lock_ops", "barriers", "events", "icache_misses")
"""The per-process summary's fields, in the order ``profile_row``
returns them."""


def _int64(data) -> array:
    if type(data) is array and data.typecode == "q":
        return data
    return array("q", data)


def _native_parts(extension, procs: List[int],
                  streams: Dict[int, Sequence], config: SystemConfig,
                  tracked: Tuple[int, ...]):
    """:func:`_python_parts` computed by the extension's kernels."""
    procs_per_cluster = config.processors_per_cluster
    icache_lines = (config.icache_size // config.icache_line_size
                    if config.model_icache else 0)
    plan = (tuple(_int64(streams[proc]) for proc in procs),
            array("q", [proc // procs_per_cluster for proc in procs]),
            array("q", [config.line_offset_bits, config.clusters,
                        icache_lines, config.icache_line_size]),
            array("q", tracked))
    (summaries, proc_histograms, cluster_histograms, rungs,
     sharing) = extension.profile_row(plan)

    def histogram(counts) -> dict:
        cold_reads, cold_writes, buckets = counts
        return {"cold_reads": cold_reads, "cold_writes": cold_writes,
                "buckets": buckets}

    def by_proc(counts) -> dict:
        return {str(proc): count for proc, count in zip(procs, counts)
                if count}

    per_process = {proc: dict(zip(_SUMMARY_KEYS, summary))
                   for proc, summary in zip(procs, summaries)}
    ladder = [{"read_misses": read_misses, "write_misses": write_misses,
               "invalidations": invalidations,
               "proc_read_misses": by_proc(proc_reads),
               "proc_write_misses": by_proc(proc_writes)}
              for (read_misses, write_misses, invalidations, proc_reads,
                   proc_writes) in rungs]
    shared_lines, set_sizes, reuses, exposure = sharing
    return (
        per_process,
        {str(proc): histogram(counts)
         for proc, counts in zip(procs, proc_histograms)},
        {str(cluster): histogram(counts)
         for cluster, counts in enumerate(cluster_histograms)},
        ladder,
        {"shared_lines": shared_lines,
         "writer_sets": {str(size): count
                         for size, count in enumerate(set_sizes) if count},
         "interprocess_reuses": reuses,
         "exposure": {str(cluster): value
                      for cluster, value in enumerate(exposure)}},
    )


def _sharing_summary(refs: Sequence[Tuple[int, int, int]],
                     clusters: int, procs_per_cluster: int) -> dict:
    """Writer sets, inter-process reuse, and per-cluster exposure.

    Exposure estimates, per cluster, how many of its reads land on
    lines a remote cluster has written -- each such read is a
    coherence-miss candidate.  Under random interleaving of ``r``
    local references with ``w`` remote writes to the same line, the
    expected fraction of local references immediately preceded by at
    least one remote write is ``w / (w + r)``; summed over shared
    lines this prices the interleaved-reuse correction for
    configurations the exact ladder does not track.
    """
    line_writers: Dict[int, set] = {}
    line_cluster_counts: Dict[int, Dict[int, List[int]]] = {}
    last_toucher: Dict[int, int] = {}
    interprocess_reuses = 0
    for proc, is_write, line in refs:
        if is_write:
            line_writers.setdefault(line, set()).add(proc)
        previous = last_toucher.get(line)
        if previous is not None and previous != proc:
            interprocess_reuses += 1
        last_toucher[line] = proc
        if clusters > 1:
            cluster = proc // procs_per_cluster
            per_cluster = line_cluster_counts.setdefault(line, {})
            counts = per_cluster.setdefault(cluster, [0, 0])
            counts[is_write] += 1
    writer_sets: Dict[str, int] = {}
    for writers in line_writers.values():
        key = str(len(writers))
        writer_sets[key] = writer_sets.get(key, 0) + 1
    exposure = {str(cluster): 0.0 for cluster in range(clusters)}
    shared_lines = 0
    if clusters > 1:
        for line, per_cluster in line_cluster_counts.items():
            if len(per_cluster) < 2:
                continue
            shared_lines += 1
            for cluster, (reads, writes) in per_cluster.items():
                remote_writes = sum(
                    counts[1] for other, counts in per_cluster.items()
                    if other != cluster)
                if remote_writes and reads:
                    local = reads + writes
                    exposure[str(cluster)] += (
                        reads * remote_writes / (remote_writes + local))
    return {
        "shared_lines": shared_lines,
        "writer_sets": writer_sets,
        "interprocess_reuses": interprocess_reuses,
        "exposure": exposure,
    }


class ProfileCache:
    """JSON-file-per-profile disk cache (same atomic discipline as
    :class:`~repro.experiments.runner.ResultCache`)."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._warned_corrupt = False

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(
            f"m{MODEL_VERSION}:{key}".encode()).hexdigest()[:24]
        return self.directory / f"{digest}.json"

    def get(self, key: str) -> Optional[RowProfile]:
        path = self._path(key)
        try:
            raw = path.read_text()
        except (FileNotFoundError, OSError):
            return None
        try:
            return RowProfile.from_dict(json.loads(raw))
        except (json.JSONDecodeError, ValueError, KeyError,
                TypeError) as exc:
            if not self._warned_corrupt:
                self._warned_corrupt = True
                _LOG.warning("discarding corrupt profile-cache entry %s "
                             "(%s); it will be rebuilt", path, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, profile: RowProfile) -> None:
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(profile.as_dict(),
                                      sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
