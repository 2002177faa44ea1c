"""Selectable multi-backend for packed replay.

The :class:`~repro.trace.interleave.TimingInterleaver` fast path has three
interchangeable implementations ("backends", psim's ``EVAL_MODE`` pattern):

* ``python`` -- the inline ``_run_fast`` loop in
  :mod:`repro.trace.interleave`.  Always available; the semantic reference.
* ``numpy`` -- :mod:`repro.trace.engine.numpy_backend`.  Batch-decodes
  packed chunks into flat opcode/address arrays
  (:mod:`repro.trace.engine.flatten`) and vectorizes whole quiet runs of
  hits between coherence/sync events for single-processor replay.
* ``native`` -- :mod:`repro.trace.engine.native`.  A C extension
  (``_native.c``) running the whole fast path -- scheduler, chunk drain
  and snoopy miss path -- over the python model's own storage, returning
  to python only for generator resumes, lock/barrier handlers and
  instruction-cache refills.

Selection: the ``backend=`` knob on ``TimingInterleaver`` /
``run_simulation`` / ``SweepSpec`` wins; otherwise the ``REPRO_ENGINE``
environment variable; otherwise ``auto``, which probes native -> python.
numpy runs only when asked for by name: it is slower than the python loop
on most recorded paper workloads.  Requests degrade gracefully (a missing
compiler or numpy falls back to python) unless ``strict=True``.

Every backend must be fingerprint-identical to the python loop; the
differential verifier (:mod:`repro.verify.differ`) runs all importable
backends as additional engines over the golden suites and the fuzz corpus.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = ["BACKEND_CHOICES", "ENGINE_ENV", "available_backends",
           "backend_info", "engine_degradation", "native_available",
           "native_unavailable_reason", "numpy_available",
           "resolve_backend"]

#: Accepted values for ``REPRO_ENGINE`` and every ``backend=`` knob.
BACKEND_CHOICES = ("auto", "python", "numpy", "native")

ENGINE_ENV = "REPRO_ENGINE"

_numpy_ok: Optional[bool] = None


def numpy_available() -> bool:
    """Whether the numpy-vectorized tier can be used."""
    global _numpy_ok
    if _numpy_ok is None:
        try:
            import numpy  # noqa: F401
            _numpy_ok = True
        except Exception:  # pragma: no cover - numpy is a hard test dep
            _numpy_ok = False
    return _numpy_ok


def native_available() -> bool:
    """Whether the C extension imported (or built on demand)."""
    from . import native
    return native.load() is not None


def native_unavailable_reason() -> Optional[str]:
    """Why the native tier is missing (``None`` when it loaded)."""
    from . import native
    if native.load() is not None:
        return None
    return native.LOAD_ERROR


def resolve_backend(request: Optional[str] = None,
                    strict: bool = False) -> str:
    """Concrete backend for a request.

    ``None`` reads ``$REPRO_ENGINE`` (default ``auto``).  ``auto`` probes
    native -> python; an explicit ``native`` or ``numpy`` request degrades
    to python when its tier is unavailable, unless ``strict`` is set, in
    which case a missing tier raises ``RuntimeError`` with the reason.
    """
    if request is None:
        request = os.environ.get(ENGINE_ENV, "").strip() or "auto"
    request = request.strip().lower()
    if request not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown replay backend {request!r}; "
            f"choose from {', '.join(BACKEND_CHOICES)}")
    if request == "auto":
        return "native" if native_available() else "python"
    if request == "native" and not native_available():
        if strict:
            raise RuntimeError(
                f"native replay backend unavailable: "
                f"{native_unavailable_reason()}")
        return "python"
    if request == "numpy" and not numpy_available():
        if strict:
            raise RuntimeError("numpy replay backend unavailable")
        return "python"
    return request


def engine_degradation(request: Optional[str] = None) -> Optional[str]:
    """Human-readable note when resolution lands below the best tier the
    request allows, or ``None`` when nothing degraded.

    ``auto`` (and an explicit ``native`` request) aim for the native
    tier and fall back straight to python, so resolving anything but
    native means a toolchain problem worth surfacing -- the sweep/bench
    CLIs print this instead of silently running slower.  An explicit
    ``numpy`` request degrades to python only when numpy is missing.
    """
    if request is None:
        request = os.environ.get(ENGINE_ENV, "").strip() or "auto"
    request = request.strip().lower()
    resolved = resolve_backend(request)
    if request in ("auto", "native") and resolved != "native":
        reason = native_unavailable_reason() or "unknown"
        return (f"native tier unavailable ({reason}); "
                f"running on the {resolved} tier")
    if request == "numpy" and resolved != "numpy":
        return (f"numpy tier unavailable; "
                f"running on the {resolved} tier")
    return None


def available_backends() -> list:
    """Concrete backends importable right now (native, numpy, python
    order; numpy is not faster than python on recorded paper tapes)."""
    names = []
    if native_available():
        names.append("native")
    if numpy_available():
        names.append("numpy")
    names.append("python")
    return names


def backend_info(request: Optional[str] = None) -> Dict[str, object]:
    """Backend metadata for bench reports and diagnostics."""
    from . import native
    resolved = resolve_backend(request)
    info: Dict[str, object] = {
        "requested": request or os.environ.get(ENGINE_ENV, "").strip()
        or "auto",
        "resolved": resolved,
        "available": available_backends(),
    }
    if numpy_available():
        import numpy
        info["numpy_version"] = numpy.__version__
    if native_available():
        info["native_version"] = native.NATIVE_VERSION
        info["native_ladder"] = native.ladder_available()
    else:
        info["native_error"] = native_unavailable_reason()
    return info
