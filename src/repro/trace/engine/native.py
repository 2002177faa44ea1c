"""C-extension packed replay backend: loader, on-demand build, wrapper.

``_native.c`` runs the whole packed fast path of
``TimingInterleaver._run_fast``: the process scheduler (the ``(time,
seq, pid)`` heap and its fused push-and-pop preemption), the chunk
drain, and the snoopy miss path of ``CoherenceController`` -- bus
arbitration, remote invalidation and interventions, fills and dirty
write-backs.  It works on the python model's own objects: raw
``int64_t*`` views of the ``array('q')`` tag/state/bank storage, and
the in-flight dicts, lost-line sets, write-buffer heaps, scheduler heap
and ``_Process`` objects through the C API.  ``drain`` returns to this
wrapper only for what needs python: generator resumes (a process with
no chunk yet, or one that exhausted its chunk), the lock and barrier
handlers, the end of the run and errors; instruction-cache refills call
``system.ifetch`` from C.  Whenever control is in python the
python-visible state equals what ``_run_fast`` would hold at that point
(see ``_native.c``), so the handlers run unchanged.

The same extension hosts the fused ladder's inner loop
(:mod:`repro.trace.multiconfig`) and the analytical row-profile kernels
(``profile_row``, used by :func:`repro.model.profile.build_row_profile`).

Loading strategy (graceful at every step, ``LOAD_ERROR`` records why a
step failed):

1. ``repro.trace.engine._native`` -- the setuptools ``Extension`` built
   by ``pip install`` / ``python setup.py build_ext --inplace``, if its
   ``ABI_VERSION`` equals ``NATIVE_VERSION`` (a stale build left in the
   tree is refused, and the reason kept in ``LOAD_ERROR``).
2. On-demand compile of ``_native.c`` into a content-addressed cache
   directory (``$REPRO_NATIVE_CACHE`` or ``~/.cache/repro-native``),
   because the repo's documented mode of use is ``PYTHONPATH=src`` from
   a source tree with no install step.  Concurrent builders race safely
   (atomic rename); rebuilds happen only when the source, interpreter,
   or ``NATIVE_VERSION`` changes.

Set ``REPRO_NATIVE=0`` to refuse the extension outright (tests use this
to assert the clean-fallback path).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import sysconfig
from array import array
from pathlib import Path
from typing import Optional

from ..packed import OP_LOCK_ACQ, OP_LOCK_REL

__all__ = ["NATIVE_VERSION", "LOAD_ERROR", "ladder_available", "load",
           "run"]

#: Bump with ``NATIVE_ABI`` in ``_native.c`` whenever the C ABI (plan
#: layouts, drain contract, entry points) changes; :func:`load` refuses
#: a mismatch.
NATIVE_VERSION = "4"

LOAD_ERROR: Optional[str] = None

_UNSET = object()
_mod = _UNSET

_NO_LIMIT = (1 << 63) - 1

# drain() statuses
_DONE = 0
_ADVANCE = 1
_SYNC = 2


def _source_path() -> Path:
    return Path(__file__).with_name("_native.c")


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-native"


def _build_key(source: bytes) -> str:
    tag = (f"{sys.version_info[0]}.{sys.version_info[1]}-"
           f"{NATIVE_VERSION}-").encode() + source
    return hashlib.sha256(tag).hexdigest()[:16]


def _compile_on_demand() -> Optional[object]:
    """Build ``_native.c`` into the cache dir and import it."""
    global LOAD_ERROR
    src = _source_path()
    if not src.is_file():
        LOAD_ERROR = f"source missing: {src}"
        return None
    source = src.read_bytes()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    cache = _cache_dir()
    so_path = cache / f"_native_{_build_key(source)}{suffix}"
    if not so_path.is_file():
        cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
        include = sysconfig.get_paths()["include"]
        tmp = so_path.with_suffix(so_path.suffix
                                  + f".tmp{os.getpid()}")
        try:
            cache.mkdir(parents=True, exist_ok=True)
            result = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", f"-I{include}",
                 str(src), "-o", str(tmp)],
                capture_output=True, text=True, timeout=120)
            if result.returncode != 0:
                LOAD_ERROR = (f"compile failed ({cc}): "
                              f"{result.stderr.strip()[:500]}")
                return None
            os.replace(tmp, so_path)
        except (OSError, subprocess.SubprocessError) as exc:
            LOAD_ERROR = f"compile failed: {exc}"
            return None
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
    try:
        # The last name component must be ``_native`` so the loader finds
        # ``PyInit__native`` in the shared object.
        spec = importlib.util.spec_from_file_location(
            "repro.trace.engine._native", so_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception as exc:
        LOAD_ERROR = f"import of built extension failed: {exc}"
        return None


def _abi_mismatch(module) -> Optional[str]:
    """Why ``module`` cannot serve this wrapper, or ``None`` if it can."""
    abi = getattr(module, "ABI_VERSION", None)
    if abi == NATIVE_VERSION:
        return None
    where = getattr(module, "__file__", None) or module.__name__
    return (f"stale extension {where}: ABI {abi!r}, "
            f"wrapper needs {NATIVE_VERSION!r}")


def load(rebuild: bool = False):
    """The native extension module, or ``None`` (reason in LOAD_ERROR).

    An installed extension built for another ABI (an old ``setup.py``
    build left in the tree) is refused: the on-demand build takes over
    and ``LOAD_ERROR`` keeps the reason.
    """
    global _mod, LOAD_ERROR
    if _mod is not _UNSET and not rebuild:
        return _mod
    _mod = None
    LOAD_ERROR = None
    if os.environ.get("REPRO_NATIVE", "").strip() == "0":
        LOAD_ERROR = "disabled via REPRO_NATIVE=0"
        return None
    try:
        from . import _native  # type: ignore[attr-defined]
    except ImportError:
        pass
    else:
        LOAD_ERROR = _abi_mismatch(_native)
        if LOAD_ERROR is None:
            _mod = _native
            return _mod
    refused = LOAD_ERROR
    built = _compile_on_demand()
    if built is not None:
        LOAD_ERROR = _abi_mismatch(built)
        if LOAD_ERROR is None:
            _mod = built
            LOAD_ERROR = refused
    elif refused and LOAD_ERROR != refused:
        LOAD_ERROR = f"{refused}; {LOAD_ERROR}"
    return _mod


def ladder_available() -> bool:
    """Whether the fused-ladder entry points can be used (the extension
    loaded; :func:`load` already refused any ABI but this one)."""
    return load() is not None


def _qchunk(process) -> None:
    """Install the process's chunk back in place as ``array('q')``.

    Chunks are fully consumed before their generator resumes, so
    swapping the sequence object mid-drain is invisible to workloads
    that reuse builder lists.
    """
    data = process.chunk
    if data is not None and not (type(data) is array
                                 and data.typecode == "q"):
        process.chunk = array("q", data)


def run(interleaver, max_cycles: Optional[int]) -> int:
    """Drop-in replacement for ``TimingInterleaver._run_fast``.

    The scheduler, the chunk drain and the snoopy miss path run in C
    (``drain``); this frame only runs what needs python -- generator
    resumes and the lock/barrier handlers -- then hands control back.
    """
    native = load()
    self = interleaver
    heap = self._heap
    processes = self._processes
    system = self.system
    config = system.config
    n_cl = config.clusters
    cl_scc = [cluster.scc for cluster in system.clusters]
    cl_icn = [scc.interconnect for scc in cl_scc]
    proc_cluster = self._proc_cluster
    procs = system._procs
    nproc = config.total_processors
    model_icache = config.model_icache
    ic_objs = None
    iline_shift = 0
    if model_icache:
        iline = config.icache_line_size
        if iline > 0 and iline & (iline - 1) == 0:
            iline_shift = iline.bit_length() - 1
            caches = [system.clusters[proc_cluster[p]]
                      .icaches[config.port_of(p)]
                      for p in range(nproc)]
            if all(ic.array._index_mask for ic in caches):
                ic_objs = caches
    if not model_icache:
        icache_mode = 0
    elif ic_objs is not None:
        icache_mode = 1
    else:
        icache_mode = 2

    limit = _NO_LIMIT if max_cycles is None else max_cycles
    scal = array("q", [
        self._idx_mask,
        self._tag_shift,
        config.line_offset_bits,
        cl_icn[0].num_banks,
        cl_icn[0].bank_cycle_time,
        1 if config.stall_on_writes else 0,
        cl_icn[0].write_buffer_depth,
        icache_mode,
        iline_shift,
        limit,
        config.bus_occupancy,
        config.upgrade_bus_occupancy,
        config.memory_latency,
        1 if config.protocol == "mesi" else 0,
    ])
    per_cluster = tuple(
        (scc.array._states, scc.array._tags, icn._bank_free,
         scc._inflight, scc._lost_lines, scc.stats, icn,
         icn._write_buffers)
        for scc, icn in zip(cl_scc, cl_icn))
    for process in processes.values():
        _qchunk(process)
    objects = (self, heap, system.coherence.bus,
               tuple(processes.get(p) for p in range(nproc)),
               array("q", proc_cluster), system.ifetch, self._queues)
    if icache_mode == 1:
        ic_tuple = tuple(
            (ic.array._states, ic.array._tags, ic.array._index_mask,
             ic.array._tag_shift)
            for ic in ic_objs)
    else:
        ic_tuple = ()
    d_reads = array("q", bytes(8 * n_cl))
    d_writes = array("q", bytes(8 * n_cl))
    d_conf = array("q", bytes(8 * n_cl))
    d_wbuf = array("q", bytes(8 * n_cl))
    d_refs = array("q", bytes(8 * nproc))
    d_busy = array("q", bytes(8 * nproc))
    d_stall = array("q", bytes(8 * nproc))
    d_finish = array("q", [-1] * nproc)
    d_icfetch = array("q", bytes(8 * nproc))
    misc = array("q", [0])
    regs = array("q", [0] * 4)
    plan = (
        per_cluster,
        objects,
        scal,
        ic_tuple,
        (d_reads, d_writes, d_conf, d_wbuf, d_refs, d_busy, d_stall,
         d_finish, d_icfetch, misc),
        regs,
    )
    ctx = native.setup(plan)
    # Looked up per run (not at import) so a wrapped module attribute
    # sees every round trip.
    drain = native.drain

    advance = self._advance
    finish_time = 0
    try:
        while True:
            status = drain(ctx)
            if status == _DONE:
                break
            process = processes[regs[0]]
            if status == _SYNC:
                op = regs[1]
                if op == OP_LOCK_ACQ:
                    self._lock_acquire(process, regs[2])
                elif op == OP_LOCK_REL:
                    self._lock_release(process, regs[2])
                else:
                    self._barrier(process, regs[2], regs[3])
                continue
            finish = advance(process, max_cycles)
            if finish is not None and finish > finish_time:
                finish_time = finish
            _qchunk(process)
            if process.chunk is None and not heap:
                # Nothing left to schedule: the next drain would only
                # report the empty heap.
                break
    finally:
        native.release(ctx)
        self.events_processed += misc[0]
        for c in range(n_cl):
            sstats = cl_scc[c].stats
            if d_reads[c]:
                sstats.reads += d_reads[c]
            if d_writes[c]:
                sstats.writes += d_writes[c]
            if d_conf[c]:
                sstats.bank_conflict_cycles += d_conf[c]
                cl_icn[c].conflict_cycles += d_conf[c]
            if d_wbuf[c]:
                sstats.write_buffer_stall_cycles += d_wbuf[c]
        for p in range(nproc):
            refs = d_refs[p]
            busy = d_busy[p]
            if refs or busy:
                pstats = procs[p].stats
                pstats.references += refs
                pstats.instructions += busy
                pstats.busy_cycles += busy
                pstats.memory_stall_cycles += d_stall[p]
            if d_finish[p] > procs[p].finish_time:
                procs[p].finish_time = d_finish[p]
            if d_icfetch[p]:
                ic_objs[p].fetch_lines += d_icfetch[p]
    return finish_time
