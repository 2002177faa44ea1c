"""SweepClient over the in-memory transport: the whole fabric without
sockets -- leases, heartbeats, workers, store, fault injection."""

import pytest

from repro.experiments.session import QuarantinedPointError, run_sweep
from repro.fabric import FabricError, LocalFabric

from .conftest import counting_simulator


class TestLocalFabricEndToEnd:
    def test_grid_matches_local_run_sweep(self, tiny_spec):
        local = run_sweep(tiny_spec, cache=None)
        with LocalFabric(workers=2) as fabric:
            handle = fabric.client.submit(tiny_spec)
            remote = fabric.client.result(handle, timeout=120.0)
        assert set(remote) == set(local)
        for point in local:
            assert remote[point].as_dict() == local[point].as_dict()

    def test_progress_stream_shape(self, tiny_spec):
        with LocalFabric(workers=1) as fabric:
            handle = fabric.client.submit(tiny_spec)
            events = list(fabric.client.iter_progress(handle))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "done"
        points = [e for e in events
                  if e["event"] == "point" and "done" in e]
        assert {e["point"] for e in points} == \
               {f"{p}/{b}" for p, b in tiny_spec.configs()}
        assert events[-1]["ok"] is True

    def test_warm_resubmission_runs_nothing(self, tiny_spec,
                                            monkeypatch):
        with LocalFabric(workers=1) as fabric:
            first = fabric.client.submit(tiny_spec)
            fabric.client.result(first, timeout=120.0)
            calls = counting_simulator(monkeypatch)
            second = fabric.client.submit(tiny_spec)
            remote = fabric.client.result(second, timeout=10.0)
        assert second.store_hits == second.total == len(remote)
        assert second.pending_units == 0
        assert calls == []               # zero simulator invocations

    def test_status_reports_completion(self, tiny_spec):
        with LocalFabric(workers=1) as fabric:
            handle = fabric.client.submit(tiny_spec)
            fabric.client.result(handle, timeout=120.0)
            status = fabric.client.status(handle)
        assert status["state"] == "done"
        assert status["done"] == status["total"] == 4
        assert status["quarantined"] == {}


class TestFaultInjection:
    def test_poisoned_point_is_quarantined(self, tiny_spec, monkeypatch):
        """REPRO_FAULT_INJECT flows through the fabric's workers exactly
        as through a local session: retries, then quarantine, surfaced
        to the client as QuarantinedPointError."""
        import dataclasses
        point = (1, tiny_spec.ladder[0])
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"{point[0]}:{point[1]}:raise")
        spec = dataclasses.replace(tiny_spec, fidelity="full",
                                   max_attempts=2)
        with LocalFabric(workers=2) as fabric:
            handle = fabric.client.submit(spec)
            with pytest.raises(QuarantinedPointError) as caught:
                fabric.client.result(handle, timeout=120.0)
        assert set(caught.value.quarantined) == {point}
        assert "injected fault" in caught.value.quarantined[point]

    def test_unknown_job_raises_fabric_error(self, tiny_spec):
        with LocalFabric(workers=0) as fabric:
            with pytest.raises(FabricError, match="unknown job"):
                fabric.client.status("nope")
