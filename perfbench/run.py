"""Benchmark of the shared-cache multiprocessor reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 \\
        --trace 0

Workloads: ``reproduce``, ``replay``, ``triage`` (README.md says why
each exists).  With ``--trace 0`` the last line of standard output is a
JSON object holding every end-to-end metric; with ``--trace 1`` it holds
the per-layer metrics of one traced pass plus the tracing overhead, and
the spans are written as Trace Event Format JSON under
``.perfbench_work/traces/``.  Human-readable lines (every metric with
its unit, ``failed_share`` and provenance) come before it.

A run starts three worker processes (``worker.py``) one after another;
each sets up and measures for a third of ``--seconds``.  Everything the
benchmark writes lives under ``.perfbench_work/`` in the checkout: each
run gets fresh result, trace and session cache directories there, and
the compiled native extension is cached in ``.perfbench_work/native``
outside the timed part.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"
WORKLOADS = ("reproduce", "replay", "triage")
WORKERS = 3
"""Worker processes per run.  Each sets up (``setup_s`` is the median)
and measures for a third of ``--seconds``; metrics are medians over the
passes of all of them, because a process's own speed differs from the
next one's by up to a tenth (memory layout), more than passes within a
process differ."""
DEADLINE_S = 170.0
"""Seconds the set-ups and the measurement may take: a run must end
within 180 seconds, plus the native build on the first run."""

UNITS = {"setup_s": "s", "grid_cold_s": "s", "grid_warm_s": "s",
         "events_per_s": "events/s", "triage_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing: dict and set layouts (and with them a few
    # percent of interpreter speed) then repeat from process to process.
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    env["REPRO_CACHE_DIR"] = str(workdir / "results")
    env["REPRO_TRACE_DIR"] = str(workdir / "traces")
    env["REPRO_SESSION_DIR"] = str(workdir / "sessions")
    for name in ("REPRO_ENGINE", "REPRO_PROFILE", "REPRO_FAULT_INJECT",
                 "REPRO_NATIVE"):
        env.pop(name, None)
    return env


def run_child(argv, env, timeout: float):
    """Run the worker and wait for it to end.  Returns the set-up time
    (corrected seconds from start until it printed ``ready``, calibration
    excluded; ``None`` if it never did) and its other output.

    A child that overruns ``timeout`` is killed and waited for.
    """
    start = time.perf_counter()
    deadline = start + timeout
    process = subprocess.Popen([sys.executable, str(WORKER)] + argv,
                               env=env, stdout=subprocess.PIPE, text=True)
    ready_at = None
    lines = []
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(process.stdout, selectors.EVENT_READ)
            while ready_at is None:
                if not selector.select(max(0.0, deadline
                                           - time.perf_counter())):
                    raise subprocess.TimeoutExpired(argv, timeout)
                line = process.stdout.readline()
                if not line:
                    break
                if line.startswith("ready"):
                    # The child timed its own set-up (corrected, raw and
                    # calibration seconds); interpreter start-up before
                    # its first line is scaled by the same factor.
                    total = time.perf_counter() - start
                    corrected, raw, spent = map(float, line.split()[1:])
                    ready_at = corrected * (total - spent) / raw
                else:
                    lines.append(line)
        rest, _ = process.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError(f"worker {argv[:2]} overran {timeout:.0f} s")
    if process.returncode != 0:
        raise BenchError(f"worker {argv[:2]} exited with "
                         f"{process.returncode}")
    return ready_at, "".join(lines) + rest


def benchmark(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK))
    try:
        env = child_env(workdir)
        # Warm the native build cache outside the timed part (a cold
        # compile may take minutes on the first run of a checkout).
        _, provenance = run_child(["--role", "warm"], env, timeout=600)
        provenance = json.loads(provenance.strip().splitlines()[-1])
        trace_path = (WORK / "traces"
                      / f"{args.workload}-seed{args.seed}.json")
        started = time.perf_counter()
        results, setups = [], []
        for index in range(WORKERS):
            traced = args.trace and index == WORKERS - 1
            out_path = workdir / f"result{index}.json"
            ready, _ = run_child(
                ["--role", "measure", "--workload", args.workload,
                 "--seed", str(args.seed),
                 "--seconds", str(args.seconds / WORKERS),
                 "--trace", str(int(traced)),
                 "--workdir", str(workdir / f"worker{index}"),
                 "--out", str(out_path), "--trace-out", str(trace_path)],
                env, timeout=DEADLINE_S - (time.perf_counter() - started))
            results.append(json.loads(out_path.read_text()))
            setups.append(ready)
            shutil.rmtree(workdir / f"worker{index}", ignore_errors=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = [values for result in results for values in result["passes"]]
    metrics = {name: statistics.median(values[name] for values in passes)
               for name in passes[0]}
    combined = {"provenance": provenance, "passes": passes,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results)}
    if args.trace:
        traced = results[-1]
        overhead = {"setup_s": setups[-1] - statistics.median(setups[:-1])}
        for name, value in traced["traced_metrics"].items():
            overhead[name] = value - metrics[name]
        combined.update(layers=traced["layers"], overhead=overhead,
                        setups=setups[:-1],
                        trace_file=str(trace_path.relative_to(ROOT)))
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = statistics.median(
            result["peak_rss_mb"] for result in results)
        combined.update(metrics=metrics, setups=setups)
    return combined


def report(args, result: dict) -> dict:
    """Print the human-readable lines; return the contract's JSON."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(result['passes'])}  "
          f"set-ups {len(result['setups'])}")
    print(f"provenance {json.dumps(result['provenance'], sort_keys=True)}")
    for index, values in enumerate(result["passes"]):
        print(f"pass {index}: " + "  ".join(
            f"{name} {value:.6g}" for name, value in values.items()))
    print("set-ups: " + "  ".join(f"{seconds:.4g} s"
                                  for seconds in result["setups"]))
    metrics = {}
    if args.trace:
        for name, (value, unit) in sorted(result["layers"].items()):
            metrics[name] = {"value": value, "unit": unit}
        for name, value in sorted(result["overhead"].items()):
            metrics[f"overhead.{name}"] = {"value": value,
                                           "unit": UNITS[name]}
        print(f"trace file {result['trace_file']}")
    else:
        for name, value in result["metrics"].items():
            metrics[name] = {"value": value, "unit": UNITS[name]}
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'failed_share':32s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} checks)")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the shared-cache multiprocessor "
                    "reproduction")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = benchmark(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    line = report(args, result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
