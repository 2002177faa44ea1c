"""The asyncio HTTP service end to end: byte-identical results over
HTTP, warm submissions with zero simulations, worker death mid-grid."""

import json
import threading
import time
import urllib.request

import pytest

from repro.experiments.session import run_sweep
from repro.fabric import (ArtifactStore, Broker, FabricError,
                          SweepClient, Worker, start_in_thread)

from .conftest import counting_simulator


@pytest.fixture
def fabric_http():
    """A served broker with one real worker thread; yields
    (broker, client, url)."""
    broker = Broker(ArtifactStore.in_memory(), lease_ttl=1.0)
    stop = threading.Event()
    worker = Worker(broker, worker_id="svc-worker")
    thread = threading.Thread(target=worker.run, kwargs={"stop": stop},
                              daemon=True)
    thread.start()
    url, stop_service = start_in_thread(broker)
    try:
        yield broker, SweepClient.connect(url), url
    finally:
        stop.set()
        stop_service()
        thread.join(timeout=5.0)


def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return json.loads(response.read())


class TestHttpEndToEnd:
    def test_results_byte_identical_to_local(self, fabric_http,
                                             tiny_spec):
        _broker, client, _url = fabric_http
        local = run_sweep(tiny_spec, cache=None)
        handle = client.submit(tiny_spec)
        remote = client.result(handle, timeout=120.0)
        assert set(remote) == set(local)
        for point in local:
            assert remote[point].as_dict() == local[point].as_dict()

    def test_warm_resubmission_zero_simulations(self, fabric_http,
                                                tiny_spec, monkeypatch):
        _broker, client, _url = fabric_http
        client.result(client.submit(tiny_spec), timeout=120.0)
        calls = counting_simulator(monkeypatch)
        warm = client.submit(tiny_spec)
        remote = client.result(warm, timeout=10.0)
        assert warm.store_hits == warm.total == len(remote) == 4
        assert warm.pending_units == 0
        assert calls == []

    def test_progress_identical_shape_to_local_transport(self,
                                                         fabric_http,
                                                         tiny_spec):
        _broker, client, _url = fabric_http
        handle = client.submit(tiny_spec)
        events = list(client.iter_progress(handle))
        assert events[0]["event"] == "submitted"
        assert events[-1]["event"] == "done"
        assert events[-1]["ok"] is True

    def test_dead_worker_loses_no_points(self, fabric_http, tiny_spec):
        """A worker that leases a unit and dies mid-grid: the lease
        expires and a survivor finishes every point."""
        broker, client, _url = fabric_http
        handle = client.submit(tiny_spec)
        # A doomed "worker" grabs a unit straight off the broker and
        # never heartbeats again -- exactly what a killed process does.
        doomed = broker.lease("doomed-worker")
        assert doomed is not None
        remote = client.result(handle, timeout=120.0)
        assert len(remote) == handle.total == 4      # nothing lost
        expired = [e for e in broker.events_since(handle.job, 0,
                                                  timeout=0)[0]
                   if e.get("status") == "expired"]
        assert expired and expired[0]["worker"] == "doomed-worker"


class TestHttpSurface:
    def test_healthz_and_metrics(self, fabric_http, tiny_spec):
        _broker, client, url = fabric_http
        client.result(client.submit(tiny_spec), timeout=120.0)
        health = _get_json(url + "/healthz")
        assert health["ok"] is True
        assert health["jobs"]["total"] == 1
        metrics = _get_json(url + "/metrics")
        assert metrics["counters"]["fabric.jobs.completed"] == 1
        assert "svc-worker" in metrics["workers"]

    def test_ndjson_stream_replays_the_event_log(self, fabric_http,
                                                 tiny_spec):
        _broker, client, url = fabric_http
        handle = client.submit(tiny_spec)
        client.result(handle, timeout=120.0)
        with urllib.request.urlopen(f"{url}/jobs/{handle.job}/stream",
                                    timeout=30.0) as response:
            assert response.headers["Content-Type"] == \
                "application/x-ndjson"
            events = [json.loads(line)
                      for line in response.read().splitlines()]
        assert events[0]["event"] == "submitted"
        assert events[-1]["event"] == "done"

    def test_one_shot_sweep_endpoint(self, fabric_http, tiny_spec):
        _broker, _client, url = fabric_http
        body = json.dumps({"spec": tiny_spec.to_wire()}).encode()
        request = urllib.request.Request(
            url + "/sweep", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=120.0) as response:
            lines = [json.loads(line)
                     for line in response.read().splitlines()]
        assert lines[0]["total"] == 4                # the job descriptor
        assert lines[-1]["event"] == "done"

    def test_error_paths(self, fabric_http):
        _broker, client, url = fabric_http
        with pytest.raises(FabricError, match="unknown job"):
            client.status("nope")
        with pytest.raises(FabricError, match="spec"):
            client.transport._request("POST", "/jobs",
                                      {"nope": 1})
        with pytest.raises(FabricError, match="no route"):
            client.transport._request("GET", "/bogus")

    def test_unreachable_service(self):
        client = SweepClient.connect("http://127.0.0.1:9")  # discard port
        with pytest.raises(FabricError, match="unreachable"):
            client.status("any")
