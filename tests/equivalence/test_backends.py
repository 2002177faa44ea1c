"""Golden-equivalence of every packed replay backend.

The golden suite (:mod:`tests.equivalence.test_golden_stats`) pins the
python fast path against pre-packed-encoding fingerprints.  This module
closes the loop for the compiled tier: every *available* compiled
backend (native, when a toolchain is present) re-runs the full golden
grid with ``backend=`` forced and must reproduce the same fingerprints
bit for bit.  A backend that silently degraded to python would pass
trivially, so the resolution is asserted too.
"""

import pytest

from repro.trace.engine import (available_backends, native_available,
                                native_unavailable_reason,
                                resolve_backend)

from .test_golden_stats import GOLDEN, fingerprint, run_key

COMPILED = [name for name in available_backends() if name != "python"]


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_backend_matches_golden(key, backend, monkeypatch):
    """Each compiled backend reproduces every golden fingerprint."""
    monkeypatch.setenv("REPRO_ENGINE", backend)
    assert resolve_backend() == backend
    assert fingerprint(run_key(key)) == GOLDEN[key]


def test_native_tier_present_or_reason():
    """The native tier either engages for real or reports *why* not.

    On machines without a C toolchain this skips -- visibly, with the
    loader's reason -- instead of letting the golden matrix above pass
    while silently covering one backend fewer.
    """
    if not native_available():
        reason = native_unavailable_reason()
        assert reason, "unavailable native tier must carry a reason"
        assert resolve_backend("native") == "python"
        pytest.skip(f"native replay backend unavailable: {reason}")
    assert resolve_backend("native") == "native"
    key = "multiprogramming|p1|s1024"
    assert fingerprint(run_key(key)) == GOLDEN[key]
