"""Regenerate ``reference.json``, the outputs the benchmark checks against.

* ``reproduce``: the digest of every RunStats of the ``reproduce`` grid
  (instrumented, so the observability digest is covered too);
* ``exact_miss_rate``: the simulated miss rate of every point of the
  four ``triage`` grids, against which the analytical model's error is
  measured.

Both grids take their inputs from the benchmark's profile, never from
the seed, so one reference serves every run.  Regenerate only when a
change is meant to alter simulated results::

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from worker import (BENCHMARKS, REFERENCE, REPRODUCE_LADDER, Pass,
                    grid_profile, grid_spec, label, resolve, stats_digest)


def main() -> None:
    profile = grid_profile()
    reference = {"reproduce": {}, "exact_miss_rate": {}}
    with tempfile.TemporaryDirectory(dir=".") as scratch:
        run = Pass()
        for name in BENCHMARKS:
            spec = grid_spec(name, profile, ladder=REPRODUCE_LADDER)
            sweep = resolve(spec, Path(scratch) / "reproduce", run).sweep
            reference["reproduce"][name] = {
                label(point): stats_digest(stats)
                for point, stats in sorted(sweep.items())}
            exact = grid_spec(name, profile, instrument=False)
            sweep = resolve(exact, Path(scratch) / "exact", run).sweep
            reference["exact_miss_rate"][name] = {
                label(point): stats.miss_rate
                for point, stats in sorted(sweep.items())}
        if run.failed:
            raise SystemExit("quarantined points; reference not written")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")


if __name__ == "__main__":
    main()
