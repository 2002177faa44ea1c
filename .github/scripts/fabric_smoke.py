#!/usr/bin/env python3
"""Sweep-fabric smoke test (CI gate).

Boots a real fabric -- broker, worker thread, asyncio HTTP service --
on a fresh on-disk store, then requires

* the grid fetched over HTTP to equal a plain local ``run_sweep``
  bit-for-bit,
* a second submission of the same grid to be served entirely from the
  store: zero simulator invocations (counted via a hook), zero work
  units, every point a store hit, and
* ``/healthz`` and ``/metrics`` to report the two completed jobs.

Exits non-zero (with a diagnostic) on any violation.  Stdlib plus the
repo itself, so it runs anywhere the simulator does::

    PYTHONPATH=src python .github/scripts/fabric_smoke.py
"""

import json
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro.core.config import KB
from repro.experiments import PROFILES
from repro.experiments.session import run_sweep
from repro.experiments.spec import SweepSpec
from repro.fabric import (ArtifactStore, Broker, SweepClient, Worker,
                          start_in_thread)


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def count_simulations() -> list:
    """Route every real simulator invocation through a counter."""
    from repro.experiments import runner
    real, calls = runner.run_simulation, []

    def counted(config, application, **kwargs):
        calls.append(type(application).__name__)
        return real(config, application, **kwargs)

    runner.run_simulation = counted
    return calls


def main() -> None:
    spec = SweepSpec.multiprogramming(
        profile=PROFILES["quick"], procs=(1, 2),
        ladder=(4 * KB, 16 * KB, 64 * KB))

    with tempfile.TemporaryDirectory(prefix="fabric-smoke-") as tmp:
        broker = Broker(ArtifactStore(Path(tmp) / "store"))
        stop = threading.Event()
        worker = Worker(broker, worker_id="smoke-worker")
        thread = threading.Thread(target=worker.run,
                                  kwargs={"stop": stop}, daemon=True)
        thread.start()
        url, stop_service = start_in_thread(broker)
        print(f"fabric service on {url}")
        try:
            client = SweepClient.connect(url)

            local = run_sweep(spec, cache=None)
            cold = client.submit(spec)
            print(f"cold job {cold.job}: {cold.total} points, "
                  f"{cold.pending_units} units")
            remote = client.result(cold, timeout=600.0)
            if set(remote) != set(local):
                fail(f"grids differ: {sorted(remote)} vs {sorted(local)}")
            for point in sorted(local):
                ours, theirs = remote[point], local[point]
                if ours.as_dict() != theirs.as_dict():
                    fail(f"point {point} differs over HTTP:\n"
                         f"  fabric: {ours.as_dict()}\n"
                         f"  local:  {theirs.as_dict()}")
            print(f"HTTP grid identical to local run_sweep "
                  f"({len(local)} points)")

            calls = count_simulations()
            warm = client.submit(spec)
            client.result(warm, timeout=60.0)
            if calls:
                fail(f"warm resubmission ran {len(calls)} "
                     f"simulations: {calls}")
            if warm.pending_units != 0:
                fail(f"warm resubmission queued {warm.pending_units} "
                     f"work units")
            if warm.store_hits != warm.total:
                fail(f"only {warm.store_hits}/{warm.total} store hits "
                     f"on warm resubmission")
            print(f"warm job {warm.job}: {warm.store_hits}/{warm.total} "
                  f"store hits, 0 simulations")

            with urllib.request.urlopen(url + "/healthz",
                                        timeout=30.0) as response:
                health = json.loads(response.read())
            if not (health.get("ok") and health["jobs"]["total"] == 2):
                fail(f"unhealthy service: {health}")
            with urllib.request.urlopen(url + "/metrics",
                                        timeout=30.0) as response:
                metrics = json.loads(response.read())
            if metrics["counters"].get("fabric.jobs.completed") != 2:
                fail(f"metrics missed a job: {metrics['counters']}")
            print("healthz + metrics report both jobs")
        finally:
            stop.set()
            stop_service()
            thread.join(timeout=10.0)

    print("OK: fabric smoke passed")


if __name__ == "__main__":
    main()
