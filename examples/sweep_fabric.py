"""The sweep fabric in one file: local fabric, HTTP service, warm store.

Runs a quick multiprogramming grid three ways and shows they agree
point for point:

1. plainly in this process (``run_sweep``);
2. through a :class:`repro.fabric.LocalFabric` -- broker, leases,
   heartbeats, workers, store, all in-process, no sockets;
3. through the real asyncio HTTP service with a ``SweepClient``,
   resubmitting once to show a warm grid served entirely from the
   content-addressed store (zero work units dispatched).

Usage::

    python examples/sweep_fabric.py
"""

import threading

from repro.api import KB, PROFILES, SweepClient, SweepSpec, run_sweep
from repro.fabric import (ArtifactStore, Broker, LocalFabric, Worker,
                          start_in_thread)


def main() -> None:
    spec = SweepSpec.multiprogramming(
        profile=PROFILES["quick"], ladder=(4 * KB, 8 * KB, 16 * KB),
        procs=(1, 2), instrument=False)

    print("1. locally, no fabric...")
    local = run_sweep(spec, cache=None)

    print("2. through an in-process fabric (leases, workers, store)...")
    with LocalFabric(workers=2) as fabric:
        via_fabric = fabric.client.result(fabric.client.submit(spec))
    assert {p: s.as_dict() for p, s in via_fabric.items()} == \
           {p: s.as_dict() for p, s in local.items()}
    print("   ...point-for-point identical to run_sweep")

    print("3. through the HTTP service...")
    broker = Broker(ArtifactStore.in_memory())
    stop = threading.Event()
    worker = Worker(broker, worker_id="example-worker")
    threading.Thread(target=worker.run, kwargs={"stop": stop},
                     daemon=True).start()
    url, stop_service = start_in_thread(broker)
    try:
        client = SweepClient.connect(url)
        handle = client.submit(spec)
        print(f"   job {handle.job}: {handle.total} points, "
              f"{handle.pending_units} unit(s) queued at {url}")
        for event in client.iter_progress(handle):
            if event.get("event") == "point":
                print(f"   [{event['done']}/{event['total']}] "
                      f"{event['point']} {event['status']}")
        over_http = client.result(handle)
        assert {p: s.as_dict() for p, s in over_http.items()} == \
               {p: s.as_dict() for p, s in local.items()}

        warm = client.submit(spec)
        print(f"   warm resubmission: {warm.store_hits}/{warm.total} "
              f"from the store, {warm.pending_units} units dispatched")
        assert warm.store_hits == warm.total and warm.pending_units == 0
    finally:
        stop.set()
        stop_service()
    print("done: one grid, three transports, identical results")


if __name__ == "__main__":
    main()
